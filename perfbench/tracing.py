"""Per-layer spans and counters for the traced run, from the benchmark's files.

``Tracer.install`` replaces each listed public function of each geodex
module with a wrapper that records a span: name, start, end, parent span and
question id.  Every module attribute bound to the same function object is
patched, so a call through a re-export (``symmetry.build_group``) is seen as
well as one through its home (``perm.build_group``).  ``uninstall`` puts the
originals back.  Nothing here is imported or installed by an untraced run.

A function's self time is the duration of its spans minus the durations of
their direct child spans.  The library is single-threaded, so children never
overlap and nothing waits: the benchmark records no waiting time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# layer (geodex module) -> public functions wrapped in it.  ``install``
# raises if a home module lacks a listed name, so a renamed or moved function
# fails the traced run instead of reporting zero calls.
LAYERS = {
    "cli": ("main",),
    "verify": ("run_all", "run_claim"),
    "atlas": ("atlas_get", "pg2_incidence", "symplectic_quadrangle", "heisenberg_example"),
    "graph": (
        "build_graph", "girth", "diameter", "intersection_array",
        "count_arcs", "count_geodesics", "classify_shape",
    ),
    "symmetry": (
        "automorphism_group", "are_isomorphic", "transitivity_degrees",
        "is_s_arc_transitive", "is_s_geodesic_transitive", "validate_automorphisms",
        "weiss_divisibility_check", "bi_analysis", "quasiprimitivity",
    ),
    "perm": (
        "build_group", "pointwise_stabilizer", "normal_test_and_closure",
        "normal_structure", "conjugacy_class_representatives", "induced_action",
        "orbits",
    ),
    "quotient": ("normal_quotient", "girth_bound_check", "lift_cycle_profile", "verify_reduction"),
    "oracles": (
        "brute_force_automorphism_count", "naive_girth", "floyd_warshall",
        "naive_diameter", "recursive_arcs", "geodesics_by_filter",
        "multiplication_closure_order", "all_labeled_connected_graphs",
    ),
}

COUNTERS = ("perm.elements_enumerated", "symmetry.aut.generators", "symmetry.aut.base_len")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, question id]
        self.counts: Counter = Counter()
        self.qid = None
        self._stack: list = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "geodex" or name.startswith("geodex."))
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"geodex.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    raise AttributeError(f"geodex.{layer} has no function {fname!r} to trace")
                hook = self._count_aut if (layer, fname) == ("symmetry", "automorphism_group") else None
                wrapper = self._wrap(f"{layer}.{fname}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        perm = sys.modules["geodex.perm"]
        self._patch(perm.PermGroup, "raw_elements", self._count_elements(perm.PermGroup.raw_elements))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_aut(self, group) -> None:
        self.counts["symmetry.aut.generators"] += len(group.generators)
        self.counts["symmetry.aut.base_len"] += len(group.base())

    def _count_elements(self, raw_elements):
        counts = self.counts

        @functools.wraps(raw_elements)
        def counted(group, *args, **kwargs):
            miss = "elements" not in group._cache
            result = raw_elements(group, *args, **kwargs)
            if miss:
                counts["perm.elements_enumerated"] += group.order()
            return result

        return counted

    # -- summaries ---------------------------------------------------------

    def mark(self):
        """A position to summarize from or to."""
        return len(self.spans), self.counts.copy()

    def summarize(self, start, end):
        """Calls, self seconds per function name, and counter increments
        between two marks.  Spans in the range must have their parents in it."""
        (lo, counts_lo), (hi, counts_hi) = start, end
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        spans = self.spans
        for i in range(lo, hi):
            name, begin, finish, parent, _ = spans[i]
            calls[name] += 1
            self_s[name] += finish - begin
            if parent >= 0:
                self_s[spans[parent][0]] -= finish - begin
        counts = Counter({k: counts_hi[k] - counts_lo[k] for k in COUNTERS})
        return calls, self_s, counts

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "question"],
                       "spans": self.spans}, fh)
