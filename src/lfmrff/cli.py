"""Command-line front end.

Commands: train, predict, kernel-eval, sample-features.
Configuration comes from an optional key=value file plus flags; flags win.
Each command takes only the flags it reads (``_COMMANDS``), but a config
file may set keys that the command ignores.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

The ``model`` choices, the operator config keys and their defaults come
from ``model.OPERATOR_KINDS`` (only the MOGP's are spelled out here), and a
fit file's spec has the form of its model kind in ``model.SPEC_KINDS``.

Fit files are JSON with a schema_version field and no timestamps, so a
fixed seed reproduces them bitwise.  The trace CSV carries wall-clock
times and is written separately for that reason.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .features import sample_draws
from .kernels import approx_cov, exact_cov_grid, feature_matrix
from .likelihood import (
    FitResult,
    OptimizerConfig,
    # not used here: kept for the benchmark's tracer, which wraps this name;
    # delete with ROADMAP item 1
    low_rank_log_marginal,
    optimize,
    weight_posterior,
)
from .model import (
    DataError,
    Dataset,
    LfmSpec,
    MogpSpec,
    NumericalError,
    OPERATOR_KINDS,
    SPEC_KINDS,
    _read_rows,
    pack,
    read_dataset_csv,
    validate_dataset,
    write_csv_columns,
)
from .mogp import mogp_cov_exact
from .predict import draws_for, predict_latent_forces, predict_outputs

FIT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    """Bad flags, config keys, or command structure."""


# ---------------------------------------------------------------------------
# configuration

# ``model`` values: one operator kind for every output, or the MOGP
_MODEL_KINDS = (*OPERATOR_KINDS, "mogp")


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    model: str = "ode1"
    samples: int = 100
    forces: int = 1
    seed: int = 0
    outputs: int | None = None
    max_iters: int = 500
    grad_tol: float = 1e-5
    oracle_tol: float = 1e-6
    mode: str = "rff"
    out_dir: str = "."
    include_noise: bool = True
    latent_force: int | None = None
    hyper: dict = field(default_factory=dict)

    def validate(self):
        if self.model not in _MODEL_KINDS:
            raise UsageError(f"unknown model kind: {self.model}")
        for key, ok, bound in (
            ("samples", self.samples >= 1, ">= 1"),
            ("forces", self.forces >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("outputs", self.outputs is None or self.outputs >= 1, ">= 1"),
            ("max_iters", self.max_iters >= 0, ">= 0"),
            ("grad_tol", self.grad_tol >= 0, ">= 0"),  # NaN fails this and the next
            ("oracle_tol", self.oracle_tol > 0, "> 0"),
        ):
            if not ok:
                raise UsageError(f"{key} must be {bound}")
        if self.mode not in ("rff", "oracle", "both"):
            raise UsageError(f"unknown mode: {self.mode}")


_SCALAR_KEYS = {
    "model": str,
    "samples": int,
    "forces": int,
    "seed": int,
    "outputs": int,
    "max_iters": int,
    "grad_tol": float,
    "oracle_tol": float,
    "mode": str,
    "out_dir": str,
    "include_noise": None,  # parsed as bool below
    "latent_force": int,
}

# operator config key -> its default, over every operator kind; a key whose
# default is a tuple takes a comma list
_OPERATOR_KEYS = {k: v for kind in OPERATOR_KINDS.values() for k, v in kind.config_keys().items()}
_HYPER_PATTERN = re.compile(
    rf"^({'|'.join([*_OPERATOR_KEYS, 'inv_width', 'noise', 'lengthscale'])})([1-9]\d*)$"
    r"|^sens([1-9]\d*)_([1-9]\d*)$"
)


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _apply_config_pair(cfg: RunConfig, key, value, where):
    key = key.strip()
    value = value.strip()
    try:
        if key == "include_noise":
            cfg.include_noise = _parse_bool(value)
        elif key in _SCALAR_KEYS:
            setattr(cfg, key, _SCALAR_KEYS[key](value))
        elif match := _HYPER_PATTERN.match(key):
            if isinstance(_OPERATOR_KEYS.get(match[1]), tuple):
                cfg.hyper[key] = tuple(float(s) for s in value.split(","))
            else:
                cfg.hyper[key] = float(value)
        else:
            raise UsageError(f"{where}: unknown config key {key!r}")
    except ValueError as exc:
        raise UsageError(f"{where}: bad value for {key!r}: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse a flat key=value config file; '#' starts a comment."""
    return _read_config(path, RunConfig())


def _read_config(path, cfg):
    """Set the keys of config file ``path`` on ``cfg`` and return it."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            _apply_config_pair(cfg, key, value, f"{path}:{lineno}")
    return cfg


def _resolve_config(args) -> RunConfig:
    """Flags over the config file over RunConfig's defaults."""
    cfg = RunConfig()
    if args.config:
        _read_config(args.config, cfg)
    for flag in ("model", "samples", "forces", "seed", "oracle_tol", "mode", "out_dir"):
        val = getattr(args, flag, None)
        if val is not None:
            setattr(cfg, flag, val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# spec construction and (de)serialization


def build_spec(cfg: RunConfig, num_outputs, input_dim=1):
    """Initial spec from config defaults and per-index hyper overrides."""
    d_count = num_outputs
    q_count = cfg.forces
    ell = [cfg.hyper.get(f"lengthscale{q}", 1.0) for q in range(1, q_count + 1)]
    noise = [cfg.hyper.get(f"noise{d}", 0.1) for d in range(1, d_count + 1)]
    sens = [
        [cfg.hyper.get(f"sens{d}_{q}", 1.0) for q in range(1, q_count + 1)]
        for d in range(1, d_count + 1)
    ]
    if cfg.model == "mogp":
        widths = [cfg.hyper.get(f"inv_width{d}", 1.0) for d in range(1, d_count + 1)]
        return MogpSpec(input_dim, widths, q_count, ell, sens, noise)
    kind = OPERATOR_KINDS[cfg.model]
    outputs = [kind.from_config(cfg.hyper, d) for d in range(1, d_count + 1)]
    return LfmSpec(outputs, q_count, ell, sens, noise)


def spec_from_dict(d):
    """Spec of a fit file's ``spec`` object; DataError for an unknown ``kind``."""
    kind = SPEC_KINDS.get(d["kind"])
    if kind is None:
        raise DataError(f"unknown spec kind {d['kind']!r}")
    return kind.from_dict(d)


def write_fit_file(path, fit: FitResult, model_kind, train_csv):
    doc = {
        "schema_version": FIT_SCHEMA_VERSION,
        "model": model_kind,
        "seed": fit.seed,
        "num_samples": fit.num_samples,
        "num_forces": fit.spec.num_forces,
        "spec": fit.spec.to_dict(),
        "final_lml": fit.final_lml,
        "status": fit.status,
        "iterations": fit.iterations,
        "train_csv": os.path.abspath(train_csv),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# fields read_fit_file and cmd_predict read besides schema_version, by type
_FIT_FIELDS = {"spec": dict, "seed": int, "num_samples": int, "final_lml": (int, float),
               "iterations": int, "status": str, "train_csv": str}


def read_fit_file(path):
    """(FitResult, document) of a fit file; DataError naming ``path`` if malformed."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: fit file must hold a JSON object, not {type(doc).__name__}")
    if doc.get("schema_version") != FIT_SCHEMA_VERSION:
        raise DataError(
            f"{path}: unsupported fit schema_version {doc.get('schema_version')!r}"
        )
    for key, kind in _FIT_FIELDS.items():
        if not isinstance(doc.get(key), kind) or isinstance(doc[key], bool):
            raise DataError(f"{path}: missing or ill-typed field {key!r}")
    if doc["num_samples"] < 1:
        raise DataError(f"{path}: num_samples must be >= 1, got {doc['num_samples']}")
    try:
        spec = spec_from_dict(doc["spec"])
    except KeyError as exc:
        raise DataError(f"{path}: spec is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad spec: {exc}") from None
    fit = FitResult(
        spec=spec,
        packed=pack(spec),
        final_lml=doc["final_lml"],
        trace=(),
        seed=doc["seed"],
        num_samples=doc["num_samples"],
        iterations=doc["iterations"],
        status=doc["status"],
    )
    return fit, doc


# ---------------------------------------------------------------------------
# shared I/O helpers


def _out_path(cfg, name):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _read_grid(path, cfg):
    """Evaluation grid: a dataset CSV without y, or a bare t/x1..xp list.

    A bare list is expanded over outputs 1..D, output-major, so a
    single time yields the full D x D covariance block.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: empty file (missing header)") from None
        if header[0] == "output_id":
            data = read_dataset_csv(path, require_y=False)
            return data.output_ids, data.inputs
        if header != ["t"] and header != [f"x{i}" for i in range(1, len(header) + 1)]:
            raise DataError(
                f"{path}: expected output_id.., t, or x1..xp columns, got {header}"
            )
        body = fh.read()
    _, pts = _read_rows(path, body, len(header), ids=False)
    d_count = cfg.outputs or 1
    ids = np.repeat(np.arange(1, d_count + 1), pts.shape[0])
    grid = np.tile(pts, (d_count, 1))
    if header == ["t"]:
        grid = grid[:, 0]
    return ids, grid


def _grid_and_spec(path, cfg):
    """(ids, grid, spec) of a ``kernel-eval`` or ``sample-features`` grid.

    The spec is ``build_spec``'s for the grid's outputs and input
    dimension; DataError if the grid does not fit it (an output id outside
    1..D, a negative time, a non-finite input).
    """
    ids, grid = _read_grid(path, cfg)
    d_count = cfg.outputs or (int(ids.max()) if ids.size else 1)
    input_dim = 1 if grid.ndim == 1 else grid.shape[1]
    spec = build_spec(cfg, d_count, input_dim)
    validate_dataset(Dataset(ids, grid, np.zeros(ids.size)), spec)
    return ids, grid, spec


def _input_header(data_inputs):
    if data_inputs.ndim == 1:
        return ["t"]
    return [f"x{i}" for i in range(1, data_inputs.shape[1] + 1)]


def _input_columns(inputs):
    """One 1-D column per input dimension: ``t`` or ``x1..xp``."""
    return list(np.atleast_2d(inputs.T))


def _posterior_columns(post):
    """mean, var, lower2sd and upper2sd columns of a posterior."""
    sd2 = 2.0 * np.sqrt(post.variance)
    return [post.mean, post.variance, post.mean - sd2, post.mean + sd2]


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    data = read_dataset_csv(args.train_csv)
    if len(data) == 0:
        raise DataError(f"{args.train_csv}: no data rows")
    d_count = cfg.outputs or int(data.output_ids.max())
    init = build_spec(cfg, d_count, data.input_dim)
    validate_dataset(data, init)
    draws = sample_draws(init, cfg.samples, cfg.seed)

    fit = optimize(
        init,
        data,
        draws,
        OptimizerConfig(max_iters=cfg.max_iters, grad_tol=cfg.grad_tol),
    )
    fit_path = _out_path(cfg, "fit.json")
    write_fit_file(fit_path, fit, cfg.model, args.train_csv)
    trace_path = _out_path(cfg, "trace.csv")
    write_csv_columns(
        trace_path, ["iter", "lml", "grad_norm", "elapsed_s", "evals"], zip(*fit.trace)
    )
    # the first trace row times optimize's evaluation at the initial point
    print(f"objective+gradient evaluation: {fit.trace[0][3]:.4f} s")
    print(
        f"fit: status={fit.status} iterations={fit.iterations} "
        f"lml {fit.trace[0][1]:.6g} -> {fit.final_lml:.6g}"
    )
    print(f"wrote {fit_path}")
    print(f"wrote {trace_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _resolve_config(args)
    fit, doc = read_fit_file(args.fit_file)
    q = cfg.latent_force
    if q is not None:
        if not isinstance(fit.spec, LfmSpec):
            raise DataError("latent_force output requires an LFM fit")
        if not 1 <= q <= fit.spec.num_forces:
            raise DataError(f"latent_force {q} outside 1..{fit.spec.num_forces}")
    train = read_dataset_csv(doc["train_csv"])
    state = weight_posterior(train, fit.spec, draws_for(fit))

    test = read_dataset_csv(args.test_csv, require_y=False)
    pred_path = _out_path(cfg, "predictions.csv")
    header = ["output_id"] + _input_header(test.inputs if len(test) else train.inputs)
    header += ["mean", "var", "lower2sd", "upper2sd"]
    columns = []
    if len(test):
        post = predict_outputs(fit, state, test, include_noise=cfg.include_noise)
        columns = [test.output_ids, *_input_columns(test.inputs), *_posterior_columns(post)]
    write_csv_columns(pred_path, header, columns)
    print(f"wrote {pred_path}")

    if q is not None:
        times = np.unique(test.inputs if len(test) else train.inputs)
        post = predict_latent_forces(fit, state, times, q)
        latent_path = _out_path(cfg, "latent_forces.csv")
        write_csv_columns(
            latent_path,
            ["force_id", "t", "mean", "var", "lower2sd", "upper2sd"],
            [np.full(times.size, q), times, *_posterior_columns(post)],
        )
        print(f"wrote {latent_path}")
    return EXIT_OK


def _kernel_csv(path, k):
    write_csv_columns(path, [f"c{j}" for j in range(1, k.shape[1] + 1)], k.T)


def cmd_kernel_eval(args) -> int:
    cfg = _resolve_config(args)
    ids, grid, spec = _grid_and_spec(args.grid_csv, cfg)
    if ids.size == 0:
        raise DataError(f"{args.grid_csv}: no grid rows")

    wrote = []
    k_rff = k_oracle = None
    if cfg.mode in ("rff", "both"):
        draws = sample_draws(spec, cfg.samples, cfg.seed)
        k_rff = approx_cov(feature_matrix(grid, ids, spec, draws))
        path = _out_path(cfg, "kernel_rff.csv")
        _kernel_csv(path, k_rff)
        wrote.append(path)
    if cfg.mode in ("oracle", "both"):
        if isinstance(spec, LfmSpec):
            k_oracle = exact_cov_grid(grid, ids, spec=spec, rtol=cfg.oracle_tol)
        else:
            k_oracle = mogp_cov_exact(grid, ids, spec=spec)
        path = _out_path(cfg, "kernel_oracle.csv")
        _kernel_csv(path, k_oracle)
        wrote.append(path)
    if cfg.mode == "both":
        dist = float(np.linalg.norm(k_rff - k_oracle))
        print(f"frobenius distance rff vs oracle: {dist!r}", file=sys.stderr)
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sample_features(args) -> int:
    cfg = _resolve_config(args)
    ids, grid, spec = _grid_and_spec(args.grid_csv, cfg)
    draws = sample_draws(spec, cfg.samples, cfg.seed)
    n_cols = spec.num_forces * cfg.samples
    header = ["output_id"] + _input_header(grid)
    for k in range(1, n_cols + 1):
        header += [f"feat{k}_re", f"feat{k}_im"]
    columns = []
    if ids.size:
        phi_c = feature_matrix(grid, ids, spec, draws).phi_c
        columns = [ids, *_input_columns(grid), *phi_c.T]
    path = _out_path(cfg, "features.csv")
    write_csv_columns(path, header, columns)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FLAGS = {
    "--config": {},
    "--out-dir": {"dest": "out_dir"},
    "--model": {"choices": _MODEL_KINDS},
    "--samples": {"type": int, "metavar": "S"},
    "--forces": {"type": int, "metavar": "Q"},
    "--seed": {"type": int},
    "--oracle-tol": {"dest": "oracle_tol", "type": float},
    "--mode": {"choices": ["rff", "oracle", "both"]},
}
# predict takes the spec and draws from the fit file; the others build them
_SPEC_FLAGS = ("--config", "--out-dir", "--model", "--samples", "--forces", "--seed")

# (name, help, positionals, handler, the flags the handler reads); any
# other flag is a usage error
_COMMANDS = (
    ("train", "fit hyperparameters to a dataset CSV", ("train_csv",), cmd_train,
     _SPEC_FLAGS),
    ("predict", "predict from a fit file at test inputs", ("fit_file", "test_csv"),
     cmd_predict, ("--config", "--out-dir")),
    ("kernel-eval", "evaluate the covariance on a grid", ("grid_csv",), cmd_kernel_eval,
     (*_SPEC_FLAGS, "--oracle-tol", "--mode")),
    ("sample-features", "write sampled features on a grid", ("grid_csv",),
     cmd_sample_features, _SPEC_FLAGS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lfmrff", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text, positionals, func, flags in _COMMANDS:
        p = subs.add_parser(name, help=text)
        for arg in positionals:
            p.add_argument(arg)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
