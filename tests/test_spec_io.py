"""Operator kinds in configs, packed vectors and fit files, pinned byte for byte.

Each operator kind (``ode1``, ``ode2``, ``odeP``) and the MOGP have a config
form, a packed form and a fit-file form.  These tests fix all three with
literal expectations, so moving the bookkeeping between modules cannot
change a label, a slot, a default or a byte of ``fit.json``.
"""

import math

import pytest

from lfmrff.cli import build_spec, load_config, main, spec_from_dict, write_fit_file
from lfmrff.likelihood import FitResult
from lfmrff.model import LfmSpec, MogpSpec, Ode1Params, Ode2Params, OdeOperator, pack, unpack

MIXED = LfmSpec(
    (Ode1Params(0.4), Ode2Params(1.5, 2.0, 3.0), OdeOperator((1.0, -2.0, 4.0, 0.5))),
    2,
    [0.7, 1.3],
    [[1.0, -0.5], [0.2, 0.9], [-1.1, 0.0]],
    [0.1, 0.2, 0.3],
)
MOGP = MogpSpec(2, [1.5, 0.5], 2, [1.0, 2.0], [[1.0, 0.0], [0.5, -1.0]], [0.1, 0.2])

MIXED_FIT = """\
{
  "final_lml": -12.5,
  "iterations": 3,
  "model": "odeP",
  "num_forces": 2,
  "num_samples": 25,
  "schema_version": 1,
  "seed": 7,
  "spec": {
    "kind": "lfm",
    "lengthscales": [
      0.7,
      1.3
    ],
    "noise_vars": [
      0.1,
      0.2,
      0.3
    ],
    "outputs": [
      {
        "gamma": 0.4,
        "type": "ode1"
      },
      {
        "damper": 2.0,
        "mass": 1.5,
        "spring": 3.0,
        "type": "ode2"
      },
      {
        "coeffs": [
          1.0,
          -2.0,
          4.0,
          0.5
        ],
        "type": "odeP"
      }
    ],
    "sensitivities": [
      [
        1.0,
        -0.5
      ],
      [
        0.2,
        0.9
      ],
      [
        -1.1,
        0.0
      ]
    ]
  },
  "status": "converged",
  "train_csv": "/data/train.csv"
}
"""

MOGP_FIT = """\
{
  "final_lml": -12.5,
  "iterations": 3,
  "model": "mogp",
  "num_forces": 2,
  "num_samples": 25,
  "schema_version": 1,
  "seed": 7,
  "spec": {
    "input_dim": 2,
    "inv_widths": [
      1.5,
      0.5
    ],
    "kind": "mogp",
    "lengthscales": [
      1.0,
      2.0
    ],
    "noise_vars": [
      0.1,
      0.2
    ],
    "sensitivities": [
      [
        1.0,
        0.0
      ],
      [
        0.5,
        -1.0
      ]
    ]
  },
  "status": "converged",
  "train_csv": "/data/train.csv"
}
"""


@pytest.mark.parametrize("spec,kind,golden", [
    (MIXED, "odeP", MIXED_FIT),
    (MOGP, "mogp", MOGP_FIT),
], ids=["lfm-mixed", "mogp-2d"])
def test_fit_file_bytes(tmp_path, spec, kind, golden):
    fit = FitResult(spec, pack(spec), -12.5, (), 7, 25, 3, "converged")
    path = tmp_path / "fit.json"
    write_fit_file(path, fit, kind, "/data/train.csv")
    assert path.read_bytes() == golden.encode()


def test_mixed_packing_layout():
    v = pack(MIXED)
    assert v.labels == (
        "log_gamma[d=1]",
        "log_mass[d=2]", "log_damper[d=2]", "log_spring[d=2]",
        "coeff_a0[d=3]", "coeff_a1[d=3]", "coeff_a2[d=3]", "coeff_a3[d=3]",
        "log_lengthscale[q=1]", "log_lengthscale[q=2]",
        "log_noise_var[d=1]", "log_noise_var[d=2]", "log_noise_var[d=3]",
        "sensitivity[d=1,q=1]", "sensitivity[d=1,q=2]",
        "sensitivity[d=2,q=1]", "sensitivity[d=2,q=2]",
        "sensitivity[d=3,q=1]", "sensitivity[d=3,q=2]",
    )
    logs = [math.log(x) for x in (0.4, 1.5, 2.0, 3.0)]
    assert v.values.tolist() == [
        *logs, 1.0, -2.0, 4.0, 0.5,
        math.log(0.7), math.log(1.3), math.log(0.1), math.log(0.2), math.log(0.3),
        1.0, -0.5, 0.2, 0.9, -1.1, 0.0,
    ]
    rebuilt = unpack(v, MIXED)
    assert rebuilt.outputs == (
        Ode1Params(math.exp(logs[0])),
        Ode2Params(*map(math.exp, logs[1:])),
        OdeOperator((1.0, -2.0, 4.0, 0.5)),
    )


# (config text, input_dim, packed labels, packed values, spec.to_dict()) per kind.
# Each config also sets a key of another kind, which must be ignored.
CASES = {
    "ode1": (
        "model=ode1\nforces=2\ngamma2=0.5\nlengthscale2=3.0\nsens1_2=0.25\nnoise2=0.2\n"
        "mass1=9.0\ncoeffs1=1,2\n",
        1,
        ("log_gamma[d=1]", "log_gamma[d=2]",
         "log_lengthscale[q=1]", "log_lengthscale[q=2]",
         "log_noise_var[d=1]", "log_noise_var[d=2]",
         "sensitivity[d=1,q=1]", "sensitivity[d=1,q=2]",
         "sensitivity[d=2,q=1]", "sensitivity[d=2,q=2]"),
        [0.0, math.log(0.5), 0.0, math.log(3.0), math.log(0.1), math.log(0.2),
         1.0, 0.25, 1.0, 1.0],
        {"kind": "lfm",
         "outputs": [{"type": "ode1", "gamma": 1.0}, {"type": "ode1", "gamma": 0.5}],
         "lengthscales": [1.0, 3.0],
         "sensitivities": [[1.0, 0.25], [1.0, 1.0]],
         "noise_vars": [0.1, 0.2]},
    ),
    "ode2": (
        "model=ode2\nmass2=1.5\nspring1=4.0\ngamma1=7.0\ninv_width1=3.0\n",
        1,
        ("log_mass[d=1]", "log_damper[d=1]", "log_spring[d=1]",
         "log_mass[d=2]", "log_damper[d=2]", "log_spring[d=2]",
         "log_lengthscale[q=1]", "log_noise_var[d=1]", "log_noise_var[d=2]",
         "sensitivity[d=1,q=1]", "sensitivity[d=2,q=1]"),
        [0.0, math.log(3.0), math.log(4.0), math.log(1.5), math.log(3.0), math.log(2.0),
         0.0, math.log(0.1), math.log(0.1), 1.0, 1.0],
        {"kind": "lfm",
         "outputs": [{"type": "ode2", "mass": 1.0, "damper": 3.0, "spring": 4.0},
                     {"type": "ode2", "mass": 1.5, "damper": 3.0, "spring": 2.0}],
         "lengthscales": [1.0],
         "sensitivities": [[1.0], [1.0]],
         "noise_vars": [0.1, 0.1]},
    ),
    "odeP": (
        "model=odeP\ncoeffs2=2,3,9,4\ndamper1=5\ngamma2=0.3\n",
        1,
        ("coeff_a0[d=1]", "coeff_a1[d=1]", "coeff_a2[d=1]",
         "coeff_a0[d=2]", "coeff_a1[d=2]", "coeff_a2[d=2]", "coeff_a3[d=2]",
         "log_lengthscale[q=1]", "log_noise_var[d=1]", "log_noise_var[d=2]",
         "sensitivity[d=1,q=1]", "sensitivity[d=2,q=1]"),
        [1.0, 3.0, 2.0, 2.0, 3.0, 9.0, 4.0, 0.0, math.log(0.1), math.log(0.1), 1.0, 1.0],
        {"kind": "lfm",
         "outputs": [{"type": "odeP", "coeffs": [1.0, 3.0, 2.0]},
                     {"type": "odeP", "coeffs": [2.0, 3.0, 9.0, 4.0]}],
         "lengthscales": [1.0],
         "sensitivities": [[1.0], [1.0]],
         "noise_vars": [0.1, 0.1]},
    ),
    "mogp": (
        "model=mogp\ninv_width2=2.5\ngamma1=3.0\nspring2=1.0\n",
        2,
        ("log_inv_width[d=1]", "log_inv_width[d=2]",
         "log_lengthscale[q=1]", "log_noise_var[d=1]", "log_noise_var[d=2]",
         "sensitivity[d=1,q=1]", "sensitivity[d=2,q=1]"),
        [0.0, math.log(2.5), 0.0, math.log(0.1), math.log(0.1), 1.0, 1.0],
        {"kind": "mogp",
         "input_dim": 2,
         "inv_widths": [1.0, 2.5],
         "lengthscales": [1.0],
         "sensitivities": [[1.0], [1.0]],
         "noise_vars": [0.1, 0.1]},
    ),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_config_to_fit_file_round_trip(tmp_path, kind):
    text, input_dim, labels, values, doc = CASES[kind]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = load_config(path)
    cfg.validate()
    spec = build_spec(cfg, 2, input_dim)
    packed = pack(spec)
    assert packed.labels == labels
    assert packed.values.tolist() == values
    rebuilt = unpack(packed, spec)
    assert pack(rebuilt).values.tolist() == [math.log(math.exp(v)) if lab.startswith("log_")
                                             else v for lab, v in zip(labels, values)]
    assert spec.to_dict() == doc
    assert spec_from_dict(doc).to_dict() == doc


def _kernel_bytes(tmp_path, name, text):
    grid = tmp_path / "grid.csv"
    grid.write_text("t\n0.5\n1.5\n")
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    assert main(["kernel-eval", str(grid), "--samples", "4", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    return (out / "kernel_rff.csv").read_bytes()


def test_inapplicable_key_is_ignored(tmp_path):
    plain = _kernel_bytes(tmp_path, "plain", "model=ode2\noutputs=2\n")
    assert _kernel_bytes(tmp_path, "extra", "model=ode2\noutputs=2\ngamma1=5.0\n") == plain


@pytest.mark.parametrize("line,message", [
    ("gammax=1", "unknown config key 'gammax'"),
    ("gamma=1", "unknown config key 'gamma'"),
    ("coeff1=1,2", "unknown config key 'coeff1'"),
    ("sens1=1", "unknown config key 'sens1'"),
    ("gamma1=fast", "bad value for 'gamma1': could not convert string to float: 'fast'"),
    ("coeffs1=1,x", "bad value for 'coeffs1': could not convert string to float: 'x'"),
])
def test_bad_config_key_exits_1(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=ode2\n{line}\n")
    assert main(["train", str(tmp_path / "absent.csv"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


def test_model_choices(capsys):
    assert main(["train", "x.csv", "--model", "ode3"]) == 1
    err = capsys.readouterr().err
    assert "choose from 'ode1', 'ode2', 'odeP', 'mogp'" in err or \
        "choose from ode1, ode2, odeP, mogp" in err
