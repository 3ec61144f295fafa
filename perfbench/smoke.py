"""Self-test: every metric BENCHMARK.json names is emitted, with its unit.

    python3 perfbench/smoke.py

Runs run.py at ``--size tiny`` for one second on each listed workload,
untraced and traced.  Fails if a run exits non-zero, reports an incorrect
output, or prints a metric set or unit other than BENCHMARK.json's.

It also runs the unlisted train workloads, ``train_cli`` and
``train_default``, the same way.  Their operations may fail with the
current optimizer; the run must still exit 0 and report each failure in
its result line, and the traced run must add the train-only metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAIN_WORKLOADS = ("train_cli", "train_default")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    sys.path.insert(0, HERE)
    from run import TRAIN_ONLY, unit_of

    train_expected = {0: expected[0], 1: {**expected[1], **{k: unit_of(k) for k in TRAIN_ONLY}}}
    problems = []
    for wl in [w["name"] for w in bench["workloads"]] + list(TRAIN_WORKLOADS):
        train = wl in TRAIN_WORKLOADS
        for trace in (0, 1):
            argv = bench["command"] + ["--workload", wl, "--seed", "1", "--seconds", "1",
                                       "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{wl} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                check(where, json.loads(proc.stdout.strip().splitlines()[-1]),
                      (train_expected if train else expected)[trace], not train, problems)
            print(("ok " if len(problems) == before else "FAIL ") + where)
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


def check(where, result, expected, must_pass, problems):
    """Append a line to ``problems`` for each way ``result`` differs from what is expected.

    With ``must_pass`` false, failed operations are allowed, but they must
    be counted consistently: ``correct`` is true exactly when none failed.
    """
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    attempted, failed = result["attempted"], result["failed"]
    consistent = 1 <= attempted and 0 <= failed <= attempted
    consistent = consistent and result["correct"] == (failed == 0)
    if not consistent or (must_pass and failed):
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"{where}: missing {missing} extra {extra} wrong units {units}")


if __name__ == "__main__":
    main()
