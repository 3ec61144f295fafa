"""Command-line front end.

Commands: train, predict, kernel-eval, sample-features.
Configuration comes from an optional key=value file plus flags; flags win.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

Fit files are JSON with a schema_version field and no timestamps, so a
fixed seed reproduces them bitwise.  The trace CSV carries wall-clock
times and is written separately for that reason.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .features import sample_frequencies
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
    Ode1Params,
    Ode2Params,
    OdeOperator,
    HyperParamVector,
    _read_rows,
    pack,
    read_dataset_csv,
    validate_dataset,
    write_csv_columns,
)
from .mogp import mogp_cov_exact, mogp_feature_matrix, sample_spectral
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
        if self.model not in ("ode1", "ode2", "odeP", "mogp"):
            raise UsageError(f"unknown model kind: {self.model}")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.forces < 1:
            raise UsageError("forces must be >= 1")
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

_HYPER_PATTERN = re.compile(
    r"^(gamma|mass|damper|spring|inv_width|noise|lengthscale|coeffs)(\d+)$"
    r"|^sens(\d+)_(\d+)$"
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
        elif _HYPER_PATTERN.match(key):
            if key.startswith("coeffs"):
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


def _hyper(cfg, key, default):
    return cfg.hyper.get(key, default)


def build_spec(cfg: RunConfig, num_outputs, input_dim=1):
    """Initial spec from config defaults and per-index hyper overrides."""
    d_count = num_outputs
    q_count = cfg.forces
    ell = [_hyper(cfg, f"lengthscale{q}", 1.0) for q in range(1, q_count + 1)]
    noise = [_hyper(cfg, f"noise{d}", 0.1) for d in range(1, d_count + 1)]
    sens = [
        [_hyper(cfg, f"sens{d}_{q}", 1.0) for q in range(1, q_count + 1)]
        for d in range(1, d_count + 1)
    ]
    if cfg.model == "mogp":
        widths = [_hyper(cfg, f"inv_width{d}", 1.0) for d in range(1, d_count + 1)]
        return MogpSpec(input_dim, widths, q_count, ell, sens, noise)
    outputs = []
    for d in range(1, d_count + 1):
        if cfg.model == "ode1":
            outputs.append(Ode1Params(_hyper(cfg, f"gamma{d}", 1.0)))
        elif cfg.model == "ode2":
            outputs.append(
                Ode2Params(
                    _hyper(cfg, f"mass{d}", 1.0),
                    _hyper(cfg, f"damper{d}", 3.0),
                    _hyper(cfg, f"spring{d}", 2.0),
                )
            )
        else:
            outputs.append(OdeOperator(tuple(_hyper(cfg, f"coeffs{d}", (1.0, 3.0, 2.0)))))
    return LfmSpec(tuple(outputs), q_count, ell, sens, noise)


def spec_to_dict(spec) -> dict:
    if isinstance(spec, LfmSpec):
        outs = []
        for op in spec.outputs:
            if isinstance(op, Ode1Params):
                outs.append({"type": "ode1", "gamma": op.gamma})
            elif isinstance(op, Ode2Params):
                outs.append(
                    {"type": "ode2", "mass": op.mass, "damper": op.damper, "spring": op.spring}
                )
            else:
                outs.append({"type": "odeP", "coeffs": list(op.coeffs)})
        return {
            "kind": "lfm",
            "outputs": outs,
            "lengthscales": spec.lengthscales.tolist(),
            "sensitivities": spec.sensitivities.tolist(),
            "noise_vars": spec.noise_vars.tolist(),
        }
    return {
        "kind": "mogp",
        "input_dim": spec.input_dim,
        "inv_widths": spec.inv_widths.tolist(),
        "lengthscales": spec.lengthscales.tolist(),
        "sensitivities": spec.sensitivities.tolist(),
        "noise_vars": spec.noise_vars.tolist(),
    }


def spec_from_dict(d):
    if d["kind"] == "lfm":
        outputs = []
        for o in d["outputs"]:
            if o["type"] == "ode1":
                outputs.append(Ode1Params(o["gamma"]))
            elif o["type"] == "ode2":
                outputs.append(Ode2Params(o["mass"], o["damper"], o["spring"]))
            else:
                outputs.append(OdeOperator(tuple(o["coeffs"])))
        return LfmSpec(
            tuple(outputs),
            len(d["lengthscales"]),
            d["lengthscales"],
            d["sensitivities"],
            d["noise_vars"],
        )
    return MogpSpec(
        d["input_dim"],
        d["inv_widths"],
        len(d["lengthscales"]),
        d["lengthscales"],
        d["sensitivities"],
        d["noise_vars"],
    )


def write_fit_file(path, fit: FitResult, model_kind, train_csv):
    doc = {
        "schema_version": FIT_SCHEMA_VERSION,
        "model": model_kind,
        "seed": fit.seed,
        "num_samples": fit.num_samples,
        "num_forces": fit.spec.num_forces,
        "spec": spec_to_dict(fit.spec),
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


def _draws_for_spec(spec, cfg):
    if isinstance(spec, LfmSpec):
        return sample_frequencies(cfg.samples, spec.num_forces, cfg.seed)
    return sample_spectral(cfg.samples, spec.num_forces, spec.input_dim, cfg.seed)


def _features_for(spec, draws, inputs, ids):
    if isinstance(spec, LfmSpec):
        return feature_matrix(inputs, ids, spec, draws)
    return mogp_feature_matrix(inputs, ids, spec, draws)


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
    input_dim = data.input_dim if cfg.model == "mogp" else 1
    init = build_spec(cfg, d_count, input_dim)
    validate_dataset(data, init)
    draws = _draws_for_spec(init, cfg)

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
        draws = _draws_for_spec(spec, cfg)
        k_rff = approx_cov(_features_for(spec, draws, grid, ids))
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
    draws = _draws_for_spec(spec, cfg)
    n_cols = spec.num_forces * cfg.samples
    header = ["output_id"] + _input_header(grid)
    for k in range(1, n_cols + 1):
        header += [f"feat{k}_re", f"feat{k}_im"]
    columns = []
    if ids.size:
        phi_c = _features_for(spec, draws, grid, ids).phi_c
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


def _add_common_flags(sub):
    sub.add_argument("--model", choices=["ode1", "ode2", "odeP", "mogp"])
    sub.add_argument("--samples", type=int, metavar="S")
    sub.add_argument("--forces", type=int, metavar="Q")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--config")
    sub.add_argument("--out-dir", dest="out_dir")
    sub.add_argument("--oracle-tol", dest="oracle_tol", type=float)
    sub.add_argument("--mode", choices=["rff", "oracle", "both"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lfmrff", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="fit hyperparameters to a dataset CSV")
    p.add_argument("train_csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("predict", help="predict from a fit file at test inputs")
    p.add_argument("fit_file")
    p.add_argument("test_csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("kernel-eval", help="evaluate the covariance on a grid")
    p.add_argument("grid_csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_kernel_eval)

    p = subs.add_parser("sample-features", help="write sampled features on a grid")
    p.add_argument("grid_csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sample_features)
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
