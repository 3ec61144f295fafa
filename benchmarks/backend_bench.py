"""Compare the compiled and plain-numpy feature fills.

Runs both implementations in one process (ignoring the LFMRFF_BACKEND
selection) over a grid of problem sizes and prints a small table.  The
compiled path pays a one-time JIT cost that is excluded by a warm-up
call; pass --quick for a fast sanity run.

Usage: python benchmarks/backend_bench.py [--quick]
"""

import argparse
import sys
from time import perf_counter

import numpy as np

from lfmrff import backends


def _time(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def run(sizes, reps):
    if not backends.HAVE_NUMBA:
        print("numba is not importable; nothing to compare", file=sys.stderr)
        return 1
    rng = np.random.default_rng(0)
    print(f"{'case':<24}{'numpy [s]':>12}{'numba [s]':>12}{'speedup':>10}")
    for n, s in sizes:
        t = np.sort(rng.uniform(0, 3, n))
        lam = rng.normal(scale=1.4, size=s)
        cases = [
            (
                f"ode1 fill {n}x{s}",
                lambda: backends._ode1_fill_np(t, lam, 1.0),
                lambda: backends._ode1_fill_nb(t, lam, 1.0),
            ),
            (
                f"ode2 fill {n}x{s}",
                lambda: backends._ode2_fill_np(t, lam, 1.0, -1.0 + 0j, -2.0 + 0j),
                lambda: backends._ode2_fill_nb(t, lam, 1.0, -1.0 + 0j, -2.0 + 0j),
            ),
        ]
        for name, np_fn, nb_fn in cases:
            nb_fn()  # JIT warm-up
            t_np = _time(np_fn, reps)
            t_nb = _time(nb_fn, reps)
            print(f"{name:<24}{t_np:>12.5f}{t_nb:>12.5f}{t_np / t_nb:>10.2f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes, 2 reps")
    args = parser.parse_args(argv)
    if args.quick:
        sizes, reps = [(500, 100)], 2
    else:
        sizes, reps = [(1000, 100), (4000, 200), (8000, 400)], 5
    return run(sizes, reps)


if __name__ == "__main__":
    sys.exit(main())
