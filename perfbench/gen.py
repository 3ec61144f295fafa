"""Seeded input generator for the benchmark; runs in its own process.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR [--size full|tiny]

Writes the CSV, config, fit and array files one workload reads, and
nothing else.  Targets are a draw from the feature prior of the workload's
generating spec with S=1000 frequencies, made in row chunks so the draw
needs tens of MB rather than the full (N, 4000) feature matrix.  Running
apart from the measured process keeps this memory out of its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import specs  # noqa: E402
from lfmrff.cli import write_fit_file  # noqa: E402
from lfmrff.features import sample_frequencies  # noqa: E402
from lfmrff.kernels import feature_matrix  # noqa: E402
from lfmrff.likelihood import FitResult, low_rank_log_marginal, noise_vector  # noqa: E402
from lfmrff.model import Dataset, LfmSpec, Ode1Params, pack, write_dataset_csv  # noqa: E402
from lfmrff.mogp import mogp_feature_matrix, sample_spectral  # noqa: E402

CHUNK_ROWS = 1000
PRIOR_SAMPLES = 1000
T_MAX = 10.0
WORKLOADS = ("train_cli", "objectives", "predict_large")


def derived_seeds(seed, workload):
    """Independent integer seeds for each random stream of one workload's inputs."""
    ss = np.random.SeedSequence([int(seed), WORKLOADS.index(workload)])
    names = ("times", "prior", "weights", "noise", "fit",
             "times2", "prior2", "weights2", "noise2",
             "times3", "prior3", "weights3", "noise3")
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, ss.spawn(len(names)))}


def init_config(truth):
    """A user init config near the generating truth (each value off by 10-30%)."""
    lines = [f"lengthscale{q}={float(v) * 1.2!r}" for q, v in enumerate(truth.lengthscales, 1)]
    for d, op in enumerate(truth.outputs, 1):
        if isinstance(op, Ode1Params):
            lines.append(f"gamma{d}={op.gamma * 1.25!r}")
        else:
            lines += [
                f"mass{d}={op.mass * 1.1!r}",
                f"damper{d}={op.damper * 0.8!r}",
                f"spring{d}={op.spring * 1.2!r}",
            ]
        lines.append(f"noise{d}={float(truth.noise_vars[d - 1]) * 1.5!r}")
        for q in range(1, truth.num_forces + 1):
            lines.append(f"sens{d}_{q}={float(truth.sensitivities[d - 1, q - 1]) * 0.9!r}")
    return "\n".join(lines) + "\n"


def prior_targets(ids, x, spec, prior_seed, weight_seed, noise_seed):
    """y = Phi_c w + noise with w ~ N(0, I) over an S=1000 feature draw."""
    q, s = spec.num_forces, PRIOR_SAMPLES
    if isinstance(spec, LfmSpec):
        draws = sample_frequencies(s, q, prior_seed)
        features = feature_matrix
    else:
        draws = sample_spectral(s, q, spec.input_dim, prior_seed)
        features = mogp_feature_matrix
    w = np.random.default_rng(weight_seed).standard_normal(2 * q * s)
    f = np.empty(ids.size)
    for lo in range(0, ids.size, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, ids.size)
        f[lo:hi] = features(x[lo:hi], ids[lo:hi], spec, draws).phi_c @ w
    eps = np.random.default_rng(noise_seed).standard_normal(ids.size)
    return f + np.sqrt(noise_vector(spec, ids)) * eps


def grouped_times(rng, per_output):
    """Sorted uniform times per output, rows grouped by output id."""
    ids = np.repeat([1, 2], per_output)
    t = np.concatenate([np.sort(rng.uniform(0.0, T_MAX, per_output)) for _ in (1, 2)])
    return ids, t


def arrival_times(rng, n):
    """Two outputs observed at random times, rows in time (arrival) order."""
    ids, t = grouped_times(rng, n // 2)
    order = np.argsort(t, kind="stable")
    return ids[order], t[order]


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def gen_train_cli(out, seeds, size):
    rng = np.random.default_rng(seeds["times"])
    n_tr, n_ho = size["train"] // 2, size["heldout"] // 2
    ids_tr, t_tr = grouped_times(rng, n_tr)
    ids_ho, t_ho = grouped_times(rng, n_ho)
    ids = np.concatenate([ids_tr, ids_ho])
    t = np.concatenate([t_tr, t_ho])
    cut = ids_tr.size
    for tag, truth, k in (("ode1", specs.TRUTH_ODE1, ""), ("ode2", specs.TRUTH_ODE2, "2")):
        y = prior_targets(ids, t, truth, seeds["prior" + k], seeds["weights" + k],
                          seeds["noise" + k])
        for name, rows in (("train", slice(None, cut)), ("heldout", slice(cut, None))):
            write_dataset_csv(os.path.join(out, f"{name}_{tag}.csv"),
                              Dataset(ids[rows], t[rows], y[rows]))
        write_text(os.path.join(out, f"init_{tag}.cfg"), init_config(truth))


def gen_objective(out, name, seeds, k, truth, n):
    """Rows for one objective; ``k`` picks the seed streams ("", "2" or "3")."""
    rng = np.random.default_rng(seeds["times" + k])
    if isinstance(truth, LfmSpec):
        ids, x = arrival_times(rng, n)
    else:
        ids = rng.permutation(np.repeat([1, 2], n // 2))
        x = rng.uniform(0.0, 5.0, (n, truth.input_dim))
    y = prior_targets(ids, x, truth, seeds["prior" + k], seeds["weights" + k], seeds["noise" + k])
    np.savez(os.path.join(out, name), ids=ids, x=x, y=y)


def gen_predict_large(out, seeds, size):
    truth = specs.TRUTH_MIXED
    rng = np.random.default_rng(seeds["times"])
    ids, t = arrival_times(rng, size["large"])
    y = prior_targets(ids, t, truth, seeds["prior"], seeds["weights"], seeds["noise"])
    train_csv = os.path.join(out, "train.csv")
    write_dataset_csv(train_csv, Dataset(ids, t, y))
    ids_te, t_te = arrival_times(rng, size["test"])
    with open(os.path.join(out, "test.csv"), "w", encoding="utf-8") as fh:
        fh.write("output_id,t\n")
        fh.writelines(f"{d},{v!r}\n" for d, v in zip(ids_te.tolist(), t_te.tolist()))
    draws = sample_frequencies(specs.SAMPLES, truth.num_forces, seeds["fit"])
    fm = feature_matrix(t, ids, truth, draws)
    lml, _ = low_rank_log_marginal(fm, noise_vector(truth, ids), y)
    fit = FitResult(truth, pack(truth), lml, (), seeds["fit"], specs.SAMPLES, 0, "generated")
    # The outputs mix ODE1 and ODE2; predict reads the spec, not the model field.
    write_fit_file(os.path.join(out, "fit.json"), fit, "odeP", train_csv)
    write_text(os.path.join(out, "predict.cfg"), "latent_force=1\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(specs.SIZES))
    args = parser.parse_args(argv)
    size = specs.SIZES[args.size]
    seeds = derived_seeds(args.seed, args.workload)
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "train_cli":
        gen_train_cli(args.out, seeds, size)
    elif args.workload == "predict_large":
        gen_predict_large(args.out, seeds, size)
    else:
        gen_objective(args.out, "data.npz", seeds, "", specs.TRUTH_MIXED, size["large"])
        gen_objective(args.out, "odep.npz", seeds, "2", specs.TRUTH_ODEP, size["variant"])
        gen_objective(args.out, "mogp.npz", seeds, "3", specs.TRUTH_MOGP, size["variant"])
    meta = json.dumps({"fit_seed": seeds["fit"]})
    write_text(os.path.join(args.out, "meta.json"), meta + "\n")


if __name__ == "__main__":
    main()
