"""Per-layer tracing from outside the program.

The program has no instrumentation of its own, so spans are recorded by
wrapping module-level bindings: every name in a ``trusslab`` module that is
bound to a traced function is replaced by a wrapper while tracing is
installed, which also catches calls made inside the defining module (they
go through the module's globals).  Spans are kept in memory as
``(name, start_ns, end_ns, parent, op)`` and turned into self times: a span's
duration minus the part covered by its children.  Counters are taken from
the arguments and results of the same calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

# (module, qualified name, span name or None for count-only, counter).
# A counter maps (args, result) to {counter name: increment}.
TRACED: list[tuple[str, str, str | None, Callable | None]] = [
    ("trusslab.cli", "main", "cli.main", None),
    ("trusslab.io", "load_graph", "io.load",
     lambda a, r: {"io.edges_read": r[0].m}),
    ("trusslab.graph", "build_graph", "graph.build",
     lambda a, r: {"graph.build_calls": 1, "graph.build_edges": r.m}),
    ("trusslab.graph", "degeneracy_order", "graph.degeneracy",
     lambda a, r: {"graph.degeneracy_calls": 1}),
    ("trusslab.triangles", "compute_supports", "triangles.supports",
     lambda a, r: {"triangles.supports_calls": 1, "triangles.triangles_seen": r.triangle_count}),
    ("trusslab.triangles", "list_triangles", "triangles.list", None),
    ("trusslab.truss", "truss_decomposition", "truss.decompose", None),
    ("trusslab.truss", "_peel_from_supports", "truss.peel",
     lambda a, r: {"truss.peel_calls": 1, "truss.peel_edges": a[0].m}),
    ("trusslab.truss", "suffix_support_profile", "truss.suffix_profile",
     lambda a, r: {"truss.suffix_profile_edges": a[0].m}),
    ("trusslab.truss", "decomposition_from_order", "truss.from_order", None),
    ("trusslab.gadgets", "BlowupView.materialize", "gadgets.blowup", None),
    ("trusslab.gadgets", "add_spurious_cliques", "gadgets.spurious",
     lambda a, r: {"gadgets.augmented_edges": r.graph.m}),
    ("trusslab.gadgets", "disjoint_union", "gadgets.union", None),
    ("trusslab.sampling", "sample_hypergraph", "sampling.sample",
     lambda a, r: {"sampling.calls": 1, "sampling.fell_back": int(r.fell_back_to_exact),
                   "sampling.hyperedges": len(r.hyperedges)}),
    ("trusslab.sampling", "_skip_pass", None,
     lambda a, r: {"sampling.passes": 1}),
    ("trusslab.approx", "estimate_trussness", "approx.estimate", None),
    ("trusslab.approx", "_round_order", "approx.round",
     lambda a, r: {"approx.rounds": 1, "approx.rounds_sampled": int(not r[1])}),
    ("trusslab.approx", "hypergraph_degeneracy_order", "approx.hyperpeel", None),
    ("trusslab.approx", "threshold_rounds", "approx.threshold", None),
]

SPAN_NAMES = [name for _, _, name, _ in TRACED if name is not None]
COUNTER_NAMES = [
    "io.edges_read", "graph.build_calls", "graph.build_edges", "graph.degeneracy_calls",
    "triangles.supports_calls", "triangles.triangles_seen", "truss.peel_calls",
    "truss.peel_edges", "truss.suffix_profile_edges", "gadgets.augmented_edges",
    "sampling.calls", "sampling.passes", "sampling.fell_back", "sampling.hyperedges",
    "approx.rounds", "approx.rounds_sampled",
]


def self_metric(span: str) -> str:
    """Metric holding a span's self seconds; the CLI's own is ``cli.self_s``."""
    return "cli.self_s" if span == "cli.main" else f"{span}_s"


class Tracer:
    """Span and counter recorder; wraps the program only inside ``installed``."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, span: str | None, counter: Callable | None) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    spans[sid] = (span, start, end, parent, self.op)
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every binding of each traced function, restore on exit."""
        saved: list[tuple[object, str, object]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "trusslab" or name.startswith("trusslab.")]
        try:
            for module_name, qualname, span, counter in TRACED:
                owner = sys.modules[module_name]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[attr]
                    saved.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(fn, span, counter))
                    continue
                fn = getattr(owner, qualname)
                wrapper = self._wrap(fn, span, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, fn))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for target, attr, fn in reversed(saved):
                setattr(target, attr, fn)

    def self_seconds(self, ops) -> dict[str, float]:
        """Self seconds per span name, summed over the given operation ids."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                out[name] += (end - start - child_ns[sid]) / 1e9
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")
