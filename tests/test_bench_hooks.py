"""The benchmark finds every name it takes from lfmrff.

``perfbench/spans.py`` replaces each name in its ``TARGETS`` where callers
look it up and fails on a missing one, so a renamed or dropped hook would
otherwise surface only halfway through a traced benchmark run; the other
benchmark scripts import names from lfmrff modules.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from lfmrff import backends

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
