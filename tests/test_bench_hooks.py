"""The benchmark finds every name it takes from lfmrff.

``perfbench/spans.py`` replaces each name in its ``TARGETS`` where callers
look it up and fails on a missing one, so a renamed or dropped hook would
otherwise surface only halfway through a traced benchmark run; the other
benchmark scripts import names from lfmrff modules.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lfmrff import backends

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
HOOKS = [(owner, attr) for _, owners, attr, _ in spans.TARGETS for owner in owners]


@pytest.mark.parametrize("owner,attr", HOOKS, ids=[f"{o}.{a}" for o, a in HOOKS])
def test_tracer_target_is_defined_on_its_owner(owner, attr):
    assert attr in vars(spans._resolve(owner))


def imported_names():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lfmrff"):
                yield from ((node.module, alias.name) for alias in node.names)


IMPORTS = sorted(set(imported_names()))


@pytest.mark.parametrize("module,name", IMPORTS, ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_benchmark_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_backend_name_is_numpy():
    assert backends.backend_name() == "numpy"


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_result_line_is_strict_json_and_correct(workload):
    # A failed operation is timed as inf, so a run whose operations mostly
    # fail prints "Infinity", which strict JSON readers reject.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=reject_constant)
    failures = [line for line in proc.stdout.splitlines() if line.startswith("# failure")]
    assert result["correct"] is True, failures
    assert result["failed"] == 0, failures
