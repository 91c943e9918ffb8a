"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each kmagic layer
by wrappers, in every kmagic module that holds a reference to them
(``from .x import y`` copies the reference into the importing module,
and the package namespace holds a third copy).  Three targets need a
special route: the search kernel is the ``search`` attribute of the
module ``kmagic.solver._kernel`` names, the matching is networkx's
``max_weight_matching`` as ``kmagic.factors`` reaches it, and
``kmagic.construct`` on the package is the function, so modules are
always looked up in ``sys.modules``.

Each wrapper records a span (name, start, end, parent) in memory plus
the counts its layer needs.  A layer's busy time is the inclusive time
of its outermost spans; its self time excludes the traced calls it
made.  ``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter

# (span name, module, attribute)
TARGETS = (
    ("solver", "kmagic.solver", "search_labeling"),
    ("spectrum.predict", "kmagic.spectrum", "predict_spectrum"),
    ("spectrum.brute_force", "kmagic.spectrum", "brute_force_spectrum"),
    ("spectrum.zero_sum_4_magic", "kmagic.spectrum", "zero_sum_4_magic"),
    ("construct", "kmagic.construct", "construct"),
    ("factors.f_factor", "kmagic.factors", "f_factor"),
    ("factors.mod3_factor", "kmagic.factors", "mod3_factor"),
    ("factors.degree_constrained_factor", "kmagic.factors", "degree_constrained_factor"),
    ("factorization.two_factorization", "kmagic.factorization", "two_factorization"),
    ("factorization.double_graph", "kmagic.factorization", "double_graph"),
    ("labelings.verify", "kmagic.labelings", "verify"),
    ("labelings.fold", "kmagic.labelings", "fold"),
    ("labelings.extend_by_factor", "kmagic.labelings", "extend_by_factor"),
    ("graphs.subgraph", "kmagic.graphs", "subgraph"),
    ("graphs.find_bridges", "kmagic.graphs", "find_bridges"),
    ("graphs.parse_graph", "kmagic.graphs", "parse_graph"),
)

# calls whose repeats a per-graph cache would remove, grouped by layer
REPEAT_GROUPS = {
    "factors": ("factors.f_factor", "factors.mod3_factor"),
    "factorization": ("factorization.two_factorization", "factorization.double_graph"),
}
SOLVER_RULES = ("solver", "solver-exhausted", "solver-budget-exceeded")


def unit(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_ratio", "_frac")) else "count"


def graph_digest(G) -> bytes:
    return hashlib.blake2b(
        repr((G.n, [(e.u, e.v) for e in G.edges])).encode(), digest_size=16
    ).digest()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self._stack: list[list] = []  # [span index, start, time in traced children]
        self._depth: Counter = Counter()
        self._seen: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._before(name, args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._depth[name] += 1
            frame = [index, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                duration = end - frame[1]
                tracer.spans[index] = (name, frame[1], end, parent)
                tracer.self_time[name] += duration - frame[2]
                if tracer._depth[name] == 0:
                    tracer.busy[name] += duration
                if tracer._stack:
                    tracer._stack[-1][2] += duration
            tracer.counts[name + ".calls"] += 1
            tracer._after(name, result)
            return result

        return wrapper

    def _before(self, name, args, kwargs) -> None:
        if name == "factors.matching":
            self.counts["factors.matching.gadget_nodes"] += args[0].number_of_nodes()
            return
        for group, names in REPEAT_GROUPS.items():
            if name in names:
                rest = repr((args[1:], sorted(kwargs.items())))
                key = (name, graph_digest(args[0]), rest)
                self.counts[group + ".repeats"] += key in self._seen
                self._seen.add(key)

    def _after(self, name, result) -> None:
        c = self.counts
        if name == "kernel":
            status, _, nodes = result
            c["kernel.nodes"] += nodes
            c["kernel.capped"] += status == -1
        elif name == "solver":
            c["solver.zero_node"] += result.nodes == 0
            c["solver.decided"] += result.status != "undecided"
        elif name == "construct":
            own = [s.rule for s in result.trace.steps if s.scope != "factor"]
            c["construct.fallthroughs"] += own.count("fallthrough")
            c["construct.solver_fallbacks"] += sum(rule in SOLVER_RULES for rule in own)

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, name, original) -> None:
        wrapper = self._wrap(name, original)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "kmagic" or modname.startswith("kmagic.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_one(self, name, owner, attr) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> "Tracer":
        for name, modname, attr in TARGETS:
            self._patch_everywhere(name, getattr(sys.modules[modname], attr))
        self._patch_one("kernel", sys.modules["kmagic.solver"]._kernel, "search")
        self._patch_one("factors.matching", sys.modules["kmagic.factors"].nx, "max_weight_matching")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent span index."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        c, busy, own = self.counts, self.busy, self.self_time

        def ratio(a, b):
            return a / b if b else 0.0

        factor_calls = c["factors.f_factor.calls"] + c["factors.mod3_factor.calls"]
        fz_calls = c["factorization.two_factorization.calls"] + c["factorization.double_graph.calls"]
        return {
            "kernel.calls": c["kernel.calls"],
            "kernel.nodes": c["kernel.nodes"],
            "kernel.busy_s": busy["kernel"],
            "kernel.busy_frac": ratio(busy["kernel"], wall_s),
            "kernel.nodes_per_s": ratio(c["kernel.nodes"], busy["kernel"]),
            "kernel.capped": c["kernel.capped"],
            "solver.calls": c["solver.calls"],
            "solver.self_s": own["solver"],
            "solver.zero_node": c["solver.zero_node"],
            "solver.decided_ratio": ratio(c["solver.decided"], c["solver.calls"]),
            "factors.f_factor.calls": c["factors.f_factor.calls"],
            "factors.f_factor.busy_s": busy["factors.f_factor"],
            "factors.mod3_factor.calls": c["factors.mod3_factor.calls"],
            "factors.mod3_factor.busy_s": busy["factors.mod3_factor"],
            "factors.profiles_tried": c["factors.degree_constrained_factor.calls"],
            "factors.matching.calls": c["factors.matching.calls"],
            "factors.matching.busy_s": busy["factors.matching"],
            "factors.matching.busy_frac": ratio(busy["factors.matching"], wall_s),
            "factors.matching.gadget_nodes": c["factors.matching.gadget_nodes"],
            "factors.repeat_ratio": ratio(c["factors.repeats"], factor_calls),
            "factorization.two_factorization.calls": c["factorization.two_factorization.calls"],
            "factorization.two_factorization.busy_s": busy["factorization.two_factorization"],
            "factorization.double_graph.calls": c["factorization.double_graph.calls"],
            "factorization.repeat_ratio": ratio(c["factorization.repeats"], fz_calls),
            "spectrum.predict.calls": c["spectrum.predict.calls"],
            "spectrum.predict.self_s": own["spectrum.predict"],
            "spectrum.brute_force.calls": c["spectrum.brute_force.calls"],
            "spectrum.brute_force.self_s": own["spectrum.brute_force"],
            "spectrum.zero_sum_4_magic.calls": c["spectrum.zero_sum_4_magic.calls"],
            "construct.calls": c["construct.calls"],
            "construct.self_s": own["construct"],
            "construct.fallthroughs": c["construct.fallthroughs"],
            "construct.solver_fallbacks": c["construct.solver_fallbacks"],
            "labelings.verify.calls": c["labelings.verify.calls"],
            "labelings.verify.busy_s": busy["labelings.verify"],
            "labelings.fold.calls": c["labelings.fold.calls"],
            "labelings.fold.busy_s": busy["labelings.fold"],
            "labelings.extend_by_factor.calls": c["labelings.extend_by_factor.calls"],
            "graphs.subgraph.calls": c["graphs.subgraph.calls"],
            "graphs.subgraph.busy_s": busy["graphs.subgraph"],
            "graphs.find_bridges.calls": c["graphs.find_bridges.calls"],
        }
