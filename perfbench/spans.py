"""In-memory span tracer that wraps the program's public callables.

Each wrapped callable is replaced at the module (or class) where callers
look it up, so ``lfmrff.cli.feature_matrix`` and
``lfmrff.predict.feature_matrix`` are both wrapped and report under one
span name.  Spans are (name, start, end, parent) rows kept in a list and
written out once at the end.  Nothing in ``src/`` is changed; ``restore``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np


def _array_stats(result):
    """(cells of the first array, bytes of all arrays) in a fill's result."""
    arrays = result if isinstance(result, tuple) else (result,)
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    if not arrays:
        return 0, 0
    return arrays[0].size, sum(a.nbytes for a in arrays)


def _fill_counters(tracer, prefix, result):
    cells, nbytes = _array_stats(result)
    tracer.count(f"{prefix}_cells", cells)
    tracer.count("backends.bytes_out_computed", nbytes)


def _fit_counters(tracer, _prefix, fit):
    tracer.count("optimize.iterations", fit.iterations)


def _dataset_counters(tracer, _prefix, data):
    tracer.count("model.read_dataset_csv_rows", len(data))


# (span name, owners where callers look the callable up, attribute, counter hook)
TARGETS = (
    ("backends.grads", ("lfmrff.backends",), "ode1_grads", _fill_counters),
    ("backends.grads", ("lfmrff.backends",), "ode2_grads", _fill_counters),
    ("backends.fill", ("lfmrff.backends",), "ode1_fill", _fill_counters),
    ("backends.fill", ("lfmrff.backends",), "ode2_fill", _fill_counters),
    ("features.rfrf_general", ("lfmrff.features", "lfmrff.kernels", "lfmrff.likelihood"),
     "rfrf_general", None),
    ("kernels.feature_matrix", ("lfmrff.kernels", "lfmrff.predict", "lfmrff.cli"),
     "feature_matrix", None),
    ("kernels.latent_feature_matrix", ("lfmrff.kernels", "lfmrff.predict"),
     "latent_feature_matrix", None),
    ("likelihood.low_rank_log_marginal", ("lfmrff.likelihood", "lfmrff.cli"),
     "low_rank_log_marginal", None),
    ("likelihood.solve_a", ("lfmrff.likelihood:LowRankState",), "solve_a", None),
    ("likelihood.value_and_gradient", ("lfmrff.likelihood:LmlObjective",),
     "value_and_gradient", None),
    ("optimize", ("lfmrff.likelihood", "lfmrff.cli"), "optimize", _fit_counters),
    ("predict.predict_outputs", ("lfmrff.predict", "lfmrff.cli"), "predict_outputs", None),
    ("predict.predict_latent_forces", ("lfmrff.predict", "lfmrff.cli"),
     "predict_latent_forces", None),
    ("model.read_dataset_csv", ("lfmrff.model", "lfmrff.cli"), "read_dataset_csv",
     _dataset_counters),
    ("cli.cmd_train", ("lfmrff.cli",), "cmd_train", None),
    ("cli.cmd_predict", ("lfmrff.cli",), "cmd_predict", None),
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while ``active``; otherwise the wrappers pass through."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.active = False
        self._stack = []
        self._patches = []

    def count(self, key, amount=1):
        if self.active:
            self.counters[key] += amount

    def open(self, name):
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def _wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            self.count(f"{name}_calls")
            if hook is not None:
                hook(self, name, result)
            return result

        return traced

    def install(self):
        """Wrap every target; a missing one is an error, so a renamed layer cannot read 0."""
        for name, owners, attr, hook in TARGETS:
            for owner in owners:
                obj = _resolve(owner)
                fn = obj.__dict__.get(attr)
                if fn is None:
                    raise AttributeError(f"perfbench: {owner} has no {attr}; update TARGETS")
                self._patches.append((obj, attr, fn))
                setattr(obj, attr, self._wrapper(name, fn, hook))

    def restore(self):
        while self._patches:
            obj, attr, fn = self._patches.pop()
            setattr(obj, attr, fn)

    def times(self):
        """Total and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans come from one thread, so children never overlap.
        """
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        return total, self_time

    def children_of(self, parent_name, child_name):
        """Number of ``child_name`` spans directly under ``parent_name`` spans."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(1 for s in self.spans if s[0] == child_name and s[3] in parents)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
