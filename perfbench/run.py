"""Benchmark for lfmrff: seeded inputs, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  One process, one client, one operation at
a time (a closed loop).  The inputs come from ``gen.py`` in a child
process; this process then sets the workload up, computes the
references its checks use once and untimed, makes one untimed warm-up
operation where an operation is cheap, and repeats the operation for
``--seconds`` seconds and at least ``MIN_OPS`` times, checking every
output.  With ``--trace 0``, each operation is followed by a timed
calibration loop and by a slice of timed set-ups (see ``CAL_REF_S``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the program's public callables wrapped
(see ``spans.py``), and prints the per-layer metrics, each a mean per
traced operation.  The last line of standard output is one JSON object;
the lines before it repeat the figures for a reader, with sample counts.
See README.md in this directory for what each workload is for.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1  # one thread: steadier than two on a shared two-vCPU machine
# Pin BLAS threads before numpy loads; the child generator inherits them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from time import perf_counter  # noqa: E402

# With --trace 0, set-up is repeated after each operation for SETUP_SLICE_S
# of wall time and at least once, so its samples span the run as the
# operations do.
SETUP_SLICE_S = 0.1
MIN_OPS = 2
CHECK_RTOL = 1e-10
# Gradient check: a fourth-order central difference of value() along a
# seeded unit direction, with step FD_STEP in packed parameter space, must
# match the gradient's slope there to GRAD_RTOL times the gradient's norm.
# At full size, on seed 3, the two differed by 1e-10 to 5e-10 of the norm.
FD_STEP = 1e-3
GRAD_RTOL = 1e-7
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Machine-speed correction.  On a shared 2-vCPU VM the same operation ran
# up to 45% slower for seconds to minutes at a time, and a plain Python loop
# slowed with it.  So with --trace 0 a fixed loop that uses no lfmrff code
# is timed right after each operation, and op_s is CAL_REF_S times the
# median over operations of (operation time / loop time); setup_s pairs
# each set-up with the loop timed just before its slice.  Both are thus
# seconds on a machine where the loop takes CAL_REF_S, about its time on
# that VM when idle.  The raw wall times are printed above the result.
CAL_REF_S = 0.04
CAL_LOOP = 600_000


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


def import_program():
    """Import lfmrff from this checkout's src/, or exit non-zero if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "lfmrff", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import lfmrff

    if os.path.dirname(os.path.abspath(lfmrff.__file__)) != os.path.join(SRC, "lfmrff"):
        sys.exit(f"perfbench: lfmrff imported from {lfmrff.__file__}, not {SRC}")


import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import specs  # noqa: E402
from lfmrff import backends, cli  # noqa: E402
from lfmrff.features import NumericsWarning, sample_frequencies  # noqa: E402
from lfmrff.kernels import feature_matrix  # noqa: E402
from lfmrff.likelihood import LmlObjective, low_rank_log_marginal, noise_vector  # noqa: E402
from lfmrff.model import Dataset, LfmSpec, pack, read_dataset_csv  # noqa: E402
from lfmrff.mogp import mogp_feature_matrix, sample_spectral  # noqa: E402
from lfmrff.predict import draws_for, nlpd, predict_outputs  # noqa: E402
from spans import Tracer  # noqa: E402


def run_cli(argv):
    """Run the CLI in-process; returns (exit code, last line it wrote to stderr).

    Its stdout and stderr are kept off the benchmark's own streams.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    lines = err.getvalue().strip().splitlines()
    return rc, lines[-1] if lines else ""


class Workload:
    min_ops = MIN_OPS
    warm_up = True

    def __init__(self, inputs, out):
        self.inputs = inputs
        self.out = out
        with open(self.path("meta.json"), encoding="utf-8") as fh:
            self.fit_seed = json.load(fh)["fit_seed"]

    def path(self, name):
        return os.path.join(self.inputs, name)

    def setup(self):
        """The program's own set-up: load inputs and build its objects (timed)."""
        raise NotImplementedError

    def prepare(self):
        """Compute the references the checks use; once, after set-up, untimed."""
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, i, result):
        raise NotImplementedError

    def report(self):
        """Extra report lines for a reader; not part of the result."""
        return []


class TrainWorkload(Workload):
    """`lfmrff train` in-process; problems are cycled, one per operation."""

    warm_up = False

    def problems(self):
        """(tag, training CSV, init config or None, model) per problem."""
        raise NotImplementedError

    def setup(self):
        """Read each problem's data and build the init spec the CLI would build."""
        self.start = []
        for _, csv, cfg_name, model in self.problems():
            cfg = cli.load_config(self.path(cfg_name)) if cfg_name else cli.RunConfig()
            cfg.model, cfg.forces, cfg.samples = model, specs.FORCES, specs.SAMPLES
            data = read_dataset_csv(self.path(csv))
            self.start.append((data, cli.build_spec(cfg, int(data.output_ids.max()))))
        self.draws = sample_frequencies(specs.SAMPLES, specs.FORCES, self.fit_seed)

    def prepare(self):
        """Log marginal likelihood at each problem's init spec."""
        self.init = [LmlObjective(data, spec, self.draws).value(pack(spec).values)
                     for data, spec in self.start]
        self.first_fit = {}
        self.test_nlpd = 0.0

    def op(self, i):
        tag, csv, cfg, model = self.problems()[i % len(self.problems())]
        argv = ["train", self.path(csv), "--model", model, "--samples", str(specs.SAMPLES),
                "--forces", str(specs.FORCES), "--seed", str(self.fit_seed),
                "--out-dir", os.path.join(self.out, f"{tag}-{i}")]
        if cfg:
            argv += ["--config", self.path(cfg)]
        return run_cli(argv)

    def check(self, i, result):
        k = i % len(self.problems())
        tag = self.problems()[k][0]
        rc, err = result
        if rc != 0:
            raise CheckFailed(f"{tag}: lfmrff train exited {rc}: {err}")
        fit_path = os.path.join(self.out, f"{tag}-{i}", "fit.json")
        with open(fit_path, "rb") as fh:
            raw = fh.read()
        final = json.loads(raw)["final_lml"]
        # value() and value_and_gradient() fill features through different
        # kernels, so allow last-digit differences at an unmoved optimum.
        if not final >= self.init[k] - 1e-9 * abs(self.init[k]):
            raise CheckFailed(f"{tag}: final_lml {final!r} below initial {self.init[k]!r}")
        if tag not in self.first_fit:
            self.first_fit[tag] = raw
            if tag == "P1":
                self.test_nlpd = self.score(fit_path)
        elif raw != self.first_fit[tag]:
            raise CheckFailed(f"{tag}: fit.json differs from the first {tag} run")

    def score(self, fit_path):
        """NLPD of a fit on the held-out rows; computed outside timed regions."""
        fit, doc = cli.read_fit_file(fit_path)
        train = read_dataset_csv(doc["train_csv"])
        fm = feature_matrix(train.inputs, train.output_ids, fit.spec, draws_for(fit))
        _, state = low_rank_log_marginal(fm, noise_vector(fit.spec, train.output_ids), train.y)
        held = read_dataset_csv(self.path("heldout_ode1.csv"))
        value = nlpd(held.y, predict_outputs(fit, state, held))
        if not math.isfinite(value):
            raise CheckFailed(f"P1: held-out NLPD is {value!r}")
        return value


class TrainCli(TrainWorkload):
    # P1, P2, P1: the third operation checks P1's fit.json byte for byte.
    min_ops = 3

    def problems(self):
        return (("P1", "train_ode1.csv", "init_ode1.cfg", "ode1"),
                ("P2", "train_ode2.csv", "init_ode2.cfg", "ode2"))


class TrainDefault(TrainWorkload):
    """P3: ode1 from the CLI's default hyperparameters; fails on most seeds."""

    def problems(self):
        return (("P3", "train_ode1.csv", None, "ode1"),)


class Evaluation:
    """One LmlObjective at the generating parameters, with independent references.

    The value's reference is ``low_rank_log_marginal`` over
    ``feature_matrix`` or ``mogp_feature_matrix``, the assemblies the
    objective does not use.  The gradient's reference is the slope of
    ``value()`` along a seeded unit direction, by central differences;
    ``value()`` uses neither the derivative fills nor the contractions.
    """

    def __init__(self, name, spec, data_path, fit_seed):
        arrays = np.load(data_path)
        self.data = Dataset(arrays["ids"], arrays["x"], arrays["y"])
        if isinstance(spec, LfmSpec):
            self.draws = sample_frequencies(specs.SAMPLES, spec.num_forces, fit_seed)
        else:
            self.draws = sample_spectral(specs.SAMPLES, spec.num_forces, spec.input_dim,
                                         fit_seed)
        self.name = name
        self.spec = spec
        self.fit_seed = fit_seed
        self.objective = LmlObjective(self.data, spec, self.draws)
        self.theta = pack(spec).values
        self.times = []

    def prepare(self):
        ids, x, y = self.data.output_ids, self.data.inputs, self.data.y
        assemble = feature_matrix if isinstance(self.spec, LfmSpec) else mogp_feature_matrix
        fm = assemble(x, ids, self.spec, self.draws)
        self.reference, _ = low_rank_log_marginal(fm, noise_vector(self.spec, ids), y)
        direction = np.random.default_rng(self.fit_seed).standard_normal(self.theta.size)
        self.direction = direction / np.linalg.norm(direction)
        f = [self.objective.value(self.theta + k * FD_STEP * self.direction)
             for k in (-2, -1, 1, 2)]
        self.slope = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * FD_STEP)

    def check(self, result):
        value, grad = result
        if not (math.isfinite(value) and np.all(np.isfinite(grad))):
            raise CheckFailed(f"{self.name}: non-finite value or gradient")
        if abs(value - self.reference) > CHECK_RTOL * abs(self.reference):
            raise CheckFailed(f"{self.name}: value {value!r} differs from {self.reference!r}")
        slope = float(grad @ self.direction)
        if abs(slope - self.slope) > GRAD_RTOL * np.linalg.norm(grad):
            raise CheckFailed(f"{self.name}: gradient slope {slope!r} along the check "
                              f"direction differs from the difference quotient {self.slope!r}")


class Objective(Workload):
    """value_and_gradient of each listed objective once per operation."""

    cases = ()  # (name, generating spec, data file)

    def setup(self):
        self.evals = [Evaluation(name, spec, self.path(f), self.fit_seed)
                      for name, spec, f in self.cases]

    def prepare(self):
        for ev in self.evals:
            ev.prepare()

    def op(self, i):
        results = []
        for ev in self.evals:
            t0 = perf_counter()
            results.append(ev.objective.value_and_gradient(ev.theta))
            if i >= 0:  # not the warm-up
                ev.times.append(perf_counter() - t0)
        return results

    def check(self, i, results):
        for ev, result in zip(self.evals, results):
            ev.check(result)

    def report(self):
        return [f"# {ev.name} median={statistics.median(ev.times)!r} s" for ev in self.evals]


class Objectives(Objective):
    cases = (("vg_s", specs.TRUTH_MIXED, "data.npz"),
             ("vg_odep_s", specs.TRUTH_ODEP, "odep.npz"),
             ("vg_mogp_s", specs.TRUTH_MOGP, "mogp.npz"))


class PredictLarge(Workload):
    """`lfmrff predict` with latent_force=1 from a fit written by gen.py."""

    def setup(self):
        """Read the fit, its training CSV and the test CSV."""
        self.fit, doc = cli.read_fit_file(self.path("fit.json"))
        self.train = read_dataset_csv(doc["train_csv"])
        self.test = read_dataset_csv(self.path("test.csv"), require_y=False)

    def prepare(self):
        fit, train, test = self.fit, self.train, self.test
        fm = feature_matrix(train.inputs, train.output_ids, fit.spec, draws_for(fit))
        _, state = low_rank_log_marginal(fm, noise_vector(fit.spec, train.output_ids), train.y)
        self.reference = predict_outputs(fit, state, test).mean
        self.num_times = np.unique(test.inputs).size

    def op(self, i):
        return run_cli(["predict", self.path("fit.json"), self.path("test.csv"),
                        "--config", self.path("predict.cfg"), "--out-dir", self.out])

    def check(self, i, result):
        rc, err = result
        if rc != 0:
            raise CheckFailed(f"lfmrff predict exited {rc}: {err}")
        # Read and remove both outputs, so the next operation must write its own.
        pred, latent = (self.take(name) for name in ("predictions.csv", "latent_forces.csv"))
        if pred.shape[0] != self.reference.size:
            raise CheckFailed(f"{pred.shape[0]} prediction rows, expected {self.reference.size}")
        mean, var = pred[:, 2], pred[:, 3]
        if not np.all(np.isfinite(var) & (var > 0)):
            raise CheckFailed("a predictive variance is not finite and positive")
        if np.any(np.abs(mean - self.reference) > 1e-9 * (1.0 + np.abs(self.reference))):
            raise CheckFailed("predictive means differ from predict_outputs")
        if latent.shape[0] != self.num_times or not np.all(np.isfinite(latent[:, 2:4])):
            raise CheckFailed("latent_forces.csv has wrong rows or non-finite values")

    def take(self, name):
        path = os.path.join(self.out, name)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        os.remove(path)
        return table


WORKLOADS = {
    "train_cli": TrainCli,
    "train_default": TrainDefault,
    "objectives": Objectives,
    "predict_large": PredictLarge,
}

WARNING_KINDS = (
    ("frequency_collision", "collide with operator roots"),
    ("critical_damping", "near-critical damping"),
    ("variance_clamp", "negative posterior variances"),
    ("line_search", "line search failed"),
)
WARNING_KIND_NAMES = [kind for kind, _ in WARNING_KINDS] + ["other"]

# Per-layer metrics only a train workload can move: no listed workload runs
# optimize or cmd_train, so the listed workloads do not report these.
TRAIN_ONLY = (
    "optimize.evals", "optimize.iterations", "optimize.backtracks", "optimize.self_s",
    "optimize.accept_ratio", "cli.cmd_train_self_s", "test_nlpd",
    "features.numerics_warnings.line_search",
)


def warning_kind(message):
    text = str(message)
    return next((kind for kind, marker in WARNING_KINDS if marker in text), "other")


def measure(wl, seconds, min_ops, first, tracer, failures, warn_counts, after_op=None):
    """Closed loop: run operations until ``seconds`` pass and ``min_ops`` are done.

    ``after_op``, if given, is called after each operation is checked.
    Returns per-operation wall times; a failed operation counts +inf.
    """
    traced = tracer is not None
    times = []
    start = perf_counter()
    i = first
    while len(times) < min_ops or perf_counter() - start < seconds:
        # Only the traced phase records warnings: resetting the filters on
        # every operation would print each warning again inside timed code.
        recorder = warnings.catch_warnings(record=True) if traced else contextlib.nullcontext()
        if traced:
            tracer.active = True
            tracer.open("op")
        try:
            with recorder as caught:
                if traced:
                    warnings.simplefilter("always", NumericsWarning)
                t0 = perf_counter()
                result = wl.op(i)
                elapsed = perf_counter() - t0
        except Exception as exc:  # any escape from the program is a failed operation
            result, elapsed = exc, math.inf
        finally:
            if traced:
                tracer.close()
                tracer.active = False
        for w in caught or ():
            if issubclass(w.category, NumericsWarning):
                warn_counts[warning_kind(w.message)] += 1
        if not isinstance(result, Exception):
            try:
                wl.check(i, result)
            except Exception as exc:  # a missing or unreadable output fails the check too
                result, elapsed = exc, math.inf
        if isinstance(result, Exception):
            failures.append(f"op {i}: {type(result).__name__}: {result}")
        times.append(elapsed)
        if after_op is not None:
            after_op()
        i += 1
    return times


def calibrate():
    """Time the calibration loop once."""
    t0 = perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
    return perf_counter() - t0


def set_up(make, seconds, times):
    """Set a workload up for ``seconds`` and at least once; append each time to ``times``.

    The objects each set-up builds are dropped; the measured workload is
    not touched.
    """
    start, first = perf_counter(), len(times)
    while len(times) == first or perf_counter() - start < seconds:
        t0 = perf_counter()
        make().setup()
        times.append(perf_counter() - t0)


def tail(times):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            return p, float(np.percentile(times, p))
    return None, None


def per_layer(tracer, n_ops, warn_counts, overhead, wl):
    total, own = tracer.times()
    c = tracer.counters
    evals = tracer.children_of("optimize", "likelihood.value_and_gradient")
    fits = c["optimize_calls"]
    iterations = c["optimize.iterations"]
    trials = evals - fits  # evaluations after each fit's initial one
    raw = {
        "backends.grads_s": total["backends.grads"],
        "backends.grads_calls": c["backends.grads_calls"],
        "backends.grads_cells": c["backends.grads_cells"],
        "backends.fill_s": total["backends.fill"],
        "backends.fill_calls": c["backends.fill_calls"],
        "backends.fill_cells": c["backends.fill_cells"],
        "backends.bytes_out_computed": c["backends.bytes_out_computed"],
        "features.rfrf_general_s": total["features.rfrf_general"],
        "features.rfrf_general_calls": c["features.rfrf_general_calls"],
        "features.numerics_warnings": sum(warn_counts.values()),
        "kernels.feature_matrix_self_s": own["kernels.feature_matrix"],
        "kernels.latent_feature_matrix_s": total["kernels.latent_feature_matrix"],
        "likelihood.low_rank_log_marginal_s": total["likelihood.low_rank_log_marginal"],
        "likelihood.low_rank_log_marginal_calls": c["likelihood.low_rank_log_marginal_calls"],
        "likelihood.solve_a_s": total["likelihood.solve_a"],
        "likelihood.solve_a_calls": c["likelihood.solve_a_calls"],
        "likelihood.value_and_gradient_self_s": own["likelihood.value_and_gradient"],
        "likelihood.value_and_gradient_calls": c["likelihood.value_and_gradient_calls"],
        "optimize.evals": evals,
        "optimize.iterations": iterations,
        "optimize.backtracks": trials - iterations,
        "optimize.self_s": own["optimize"],
        "predict.predict_outputs_self_s": own["predict.predict_outputs"],
        "predict.predict_latent_forces_self_s": own["predict.predict_latent_forces"],
        "model.read_dataset_csv_s": total["model.read_dataset_csv"],
        "model.read_dataset_csv_rows": c["model.read_dataset_csv_rows"],
        "cli.cmd_train_self_s": own["cli.cmd_train"],
        "cli.cmd_predict_self_s": own["cli.cmd_predict"],
    }
    for kind in WARNING_KIND_NAMES:
        raw[f"features.numerics_warnings.{kind}"] = warn_counts[kind]
    out = {k: v / n_ops for k, v in raw.items()}
    out["optimize.accept_ratio"] = iterations / trials if trials > 0 else 0.0
    out["trace_overhead_ratio"] = overhead
    if not isinstance(wl, TrainWorkload):
        return {k: v for k, v in out.items() if k not in TRAIN_ONLY}
    out["test_nlpd"] = wl.test_nlpd
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out_computed"):
        return "bytes"
    if name in ("trace_overhead_ratio", "optimize.accept_ratio"):
        return "ratio"
    if name == "test_nlpd":
        return "nat"
    return "count"


def environment():
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": backends.backend_name(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(specs.SIZES))
    args = parser.parse_args(argv)

    base = os.path.join(ROOT, ".bench_build", "perfbench")
    work = os.path.join(base, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    try:
        gen_workload = "train_cli" if args.workload == "train_default" else args.workload
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", gen_workload,
             "--seed", str(args.seed), "--out", inputs, "--size", args.size],
            check=True,
        )
        def make():
            return WORKLOADS[args.workload](inputs, out)

        wl = make()
        wl.setup()
        wl.prepare()
        if wl.warm_up:
            wl.op(-1)

        failures = []
        warn_counts = dict.fromkeys(WARNING_KIND_NAMES, 0)
        cal_times, setup_times, setup_ratios = [], [], []
        if args.trace == 0:
            def after_op():
                cal = calibrate()
                cal_times.append(cal)
                first = len(setup_times)
                set_up(make, SETUP_SLICE_S, setup_times)
                setup_ratios.extend(t / cal for t in setup_times[first:])

            times = measure(wl, args.seconds, wl.min_ops, 0, None, failures, warn_counts,
                            after_op)
            op_ratios = [t / cal for t, cal in zip(times, cal_times)]
            metrics = {
                "op_s": CAL_REF_S * statistics.median(op_ratios),
                "setup_s": CAL_REF_S * statistics.median(setup_ratios),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        else:
            # Each phase runs every problem of a cycling workload at least once.
            phase_ops = len(wl.problems()) if isinstance(wl, TrainWorkload) else 1
            plain = measure(wl, args.seconds / 2, phase_ops, 0, None, failures, warn_counts)
            tracer = Tracer()
            try:
                tracer.install()
                traced = measure(
                    wl, args.seconds / 2, phase_ops, len(plain), tracer, failures, warn_counts
                )
            finally:
                tracer.restore()
            tracer.write(os.path.join(base, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            times = plain + traced
            overhead = statistics.median(traced) / statistics.median(plain)
            metrics = per_layer(tracer, len(traced), warn_counts, overhead, wl)
            units = {k: unit_of(k) for k in metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    p, value = tail([t for t in times if math.isfinite(t)])
    print(f"# op wall time: samples={len(times)} failed={len(failures)} "
          f"error_ratio={len(failures) / len(times)!r} median={statistics.median(times)!r}"
          + (f" p{p}={value!r}" if p else " tail=none(fewer than 20 samples)"))
    if cal_times:
        print(f"# set-up wall time: samples={len(setup_times)} "
              f"median={statistics.median(setup_times)!r}")
        print(f"# calibration loop wall time: samples={len(cal_times)} "
              f"median={statistics.median(cal_times)!r}")
    for line in wl.report() + [f"# failure {f}" for f in failures]:
        print(line)
    for name, v in metrics.items():
        print(f"# {name} = {v!r} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
