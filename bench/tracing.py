"""Spans around the benchmark's calls into sfrkit's public functions.

A span is (id, name, start_ns, end_ns, parent id, op id). The benchmark records
them from its own side of each call; the program itself is not instrumented.
Durations of every span are kept per name for the whole traced run; full
span records are kept for the first SPAN_LOG_OPS operations and for spans
outside any operation only, so a run of many short operations does not hold
millions of records.
"""
from __future__ import annotations

import json
import time
from array import array
from types import SimpleNamespace

SPAN_LOG_OPS = 20

# (module, function) pairs the workloads call; the module is the layer
LAYER_CALLS = (
    ("model", "scenario_from_dict"),
    ("model", "load_scenario"),
    ("model", "derive_params"),
    ("closedform", "lag_nadir"),
    ("closedform", "trace"),
    ("bandfit", "canonical_equivalent"),
    ("bandfit", "build_tau_surface"),
    ("bandfit", "mape_map"),
    ("applications", "max_contingency"),
    ("applications", "asymptotic_max_contingency"),
    ("applications", "required_ffr_share"),
    ("applications", "sensitivity_report"),
    ("oracle", "integrate"),
    ("reports", "write_trace_csv"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.durations = {}   # span name -> array of durations, ns
        self.children = {}    # op id -> ns covered by direct child spans of the op
        self.calls_in_op = {}  # span name -> calls made inside operations
        self.spans = []       # full records for the first SPAN_LOG_OPS ops
        self._stack = []      # open spans: (id, name, start)
        self._next_id = 0
        self.op_id = None     # the operation being traced, None outside operations

    def begin(self, name):
        self._stack.append((self._next_id, name, time.perf_counter_ns()))
        self._next_id += 1

    def end(self):
        span_id, name, start = self._stack.pop()
        end = time.perf_counter_ns()
        self.durations.setdefault(name, array("q")).append(end - start)
        if self.op_id is not None and self._stack:
            self.calls_in_op[name] = self.calls_in_op.get(name, 0) + 1
            if len(self._stack) == 1:  # direct child of the op span
                self.children[self.op_id] = self.children.get(self.op_id, 0) + end - start
        if self.op_id is None or self.op_id < SPAN_LOG_OPS:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        return end - start

    def record(self, name, ns):
        """A duration derived from other spans, kept with the measured ones."""
        self.durations.setdefault(name, array("q")).append(ns)

    def last(self, name, n=1):
        """Sum of the n most recent durations of a span name, ns."""
        return sum(self.durations[name][-n:])

    def wrap(self, span_name, fn):
        def traced(*args, **kwargs):
            self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")


def layers(modules, tracer=None):
    """Namespace of the layer functions, traced when a tracer is given.

    Untraced, each attribute is the program's own function, so the timed
    operation pays one attribute lookup per call, as a caller importing the
    module would.
    """
    ns = {}
    for module, fn_name in LAYER_CALLS:
        fn = getattr(modules[module], fn_name)
        ns[fn_name] = fn if tracer is None else tracer.wrap(f"{module}.{fn_name}", fn)
    return SimpleNamespace(**ns)
