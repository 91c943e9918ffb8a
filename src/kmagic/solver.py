"""Budgeted driver around the backtracking kernel.

Picks the compiled kernel when the extension built, otherwise the pure
Python twin.  The search fixes labels in breadth-first edge order and
prunes as soon as a vertex with no unlabeled edges misses the target
sum; small instances (label space at most the exhaustive threshold) run
uncapped, larger ones run under a node cap and report undecided instead
of guessing.  Parity, isolated vertices and connected components settle
part of each question before the kernel runs (see search_labeling).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _backtrack_py
from ._backtrack_py import SAT, UNDECIDED, UNSAT
from .errors import KmagicError
from .graphs import MultiGraph, component_graphs
from .labelings import EdgeLabeling

_KERNELS: dict[str, object] = {"pure-python": _backtrack_py}
try:
    from . import _backtrack

    _KERNELS["compiled"] = _backtrack
except ImportError:  # extension not built
    pass

# the largest k the compiled kernel's C int arguments hold
_C_INT_MAX = 2**31 - 1

KERNEL = "compiled" if "compiled" in _KERNELS else "pure-python"
_kernel = _KERNELS[KERNEL]


@dataclass(frozen=True)
class SolverBudget:
    """Search limits: uncapped below exhaustive_states, else node_cap.

    Both apply to each connected component on its own, so a
    disconnected graph may take up to node_cap nodes per component.
    """

    exhaustive_states: int = 10**7
    node_cap: int = 10**8

    def cap_for(self, k: int, m: int) -> int:
        if (k - 1) ** m <= self.exhaustive_states:
            return -1
        return self.node_cap


DEFAULT_BUDGET = SolverBudget()


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "absent" | "undecided"
    labeling: EdgeLabeling | None
    nodes: int


def assignment_order(G: MultiGraph) -> list[int]:
    """Edge ids in breadth-first order from the smallest vertex on."""
    order: list[int] = []
    edge_seen = [False] * G.m
    visited = [False] * G.n
    for s in range(G.n):
        if visited[s]:
            continue
        visited[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w, eid in G.adjacency[u]:
                if not edge_seen[eid]:
                    edge_seen[eid] = True
                    order.append(eid)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return order


def search_labeling(
    G: MultiGraph, k: int, c: int, budget: SolverBudget | None = None, kernel=None
) -> SearchResult:
    """Search for a c-sum k-magic labeling of G.

    Deterministic: the first labeling in the kernel's search order is
    returned.  Never wrong: status "undecided" is reported when the node
    cap is hit.  Three facts settle part of the search before the
    kernel runs:

    - the vertex sums add up to twice the label sum, so when k is even
      and n*c is odd the answer is "absent" at 0 nodes;
    - an isolated vertex sums to 0, so it rules out every c != 0;
    - a labeling of G is one labeling per connected component, so a
      disconnected G is searched one component at a time, in order of
      smallest vertex, each under its own budget, stopping at the first
      absent one.  Node counts add up.  A found labeling is the one the
      whole-graph search returns, since the breadth-first order of G
      finishes each component before it starts the next.

    The compiled kernel reads n, k and c as C ints, so a k past that
    range goes to the pure twin whatever kernel was asked for.
    """
    if k < 2:
        raise KmagicError("label search needs k >= 2")
    c %= k
    impl = kernel if kernel is not None else _kernel
    budget = budget or DEFAULT_BUDGET
    settled = _settled(G, k, c)
    if settled is not None:
        return settled
    parts = component_graphs(G)
    if len(parts) == 1:
        return _kernel_search(G, k, c, budget, impl)
    labels: dict[int, int] = {}
    nodes = 0
    undecided = False
    for C, edge_ids in parts:
        res = _settled(C, k, c) or _kernel_search(C, k, c, budget, impl)
        nodes += res.nodes
        if res.status == "absent":
            return SearchResult("absent", None, nodes)
        if res.status == "undecided":
            undecided = True  # a later component may still be absent
        else:
            labels.update((edge_ids[e], label) for e, label in res.labeling.labels.items())
    if undecided:
        return SearchResult("undecided", None, nodes)
    return SearchResult("found", EdgeLabeling(k, labels), nodes)


def _settled(G: MultiGraph, k: int, c: int) -> SearchResult | None:
    """The answer at 0 nodes, where counting alone gives it."""
    if k % 2 == 0 and G.n * c % 2 == 1:
        return SearchResult("absent", None, 0)
    if 0 in G.degrees:
        if c != 0:
            return SearchResult("absent", None, 0)
        if G.m == 0:
            return SearchResult("found", EdgeLabeling(k, {}), 0)
    return None


def _kernel_search(G: MultiGraph, k: int, c: int, budget: SolverBudget, impl) -> SearchResult:
    if k > _C_INT_MAX:
        impl = _backtrack_py
    order = assignment_order(G)
    us = [G.edges[eid].u for eid in order]
    vs = [G.edges[eid].v for eid in order]
    status, labels, nodes = impl.search(G.n, k, c, us, vs, budget.cap_for(k, G.m))
    if status == SAT:
        mapping = {order[i]: labels[i] for i in range(G.m)}
        return SearchResult("found", EdgeLabeling(k, mapping), nodes)
    if status == UNSAT:
        return SearchResult("absent", None, nodes)
    return SearchResult("undecided", None, nodes)


def available_kernels() -> dict[str, object]:
    """Importable kernels by name; always includes the pure one."""
    return dict(_KERNELS)
