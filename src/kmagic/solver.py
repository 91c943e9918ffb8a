"""Budgeted driver around the backtracking kernel.

Picks the compiled kernel when the extension built, otherwise the pure
Python twin.  The search fixes labels in breadth-first edge order and
prunes as soon as a vertex with no unlabeled edges misses the target
sum; small instances (label space at most the exhaustive threshold) run
uncapped, larger ones run under a node cap and report undecided instead
of guessing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _backtrack_py
from ._backtrack_py import SAT, UNDECIDED, UNSAT
from .errors import KmagicError
from .graphs import MultiGraph
from .labelings import EdgeLabeling

_KERNELS: dict[str, object] = {"pure-python": _backtrack_py}
try:
    from . import _backtrack

    _KERNELS["compiled"] = _backtrack
except ImportError:  # extension not built
    pass

KERNEL = "compiled" if "compiled" in _KERNELS else "pure-python"
_kernel = _KERNELS[KERNEL]


@dataclass(frozen=True)
class SolverBudget:
    """Search limits: uncapped below exhaustive_states, else node_cap."""

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
    cap is hit.
    """
    if k < 2:
        raise KmagicError("label search needs k >= 2")
    c %= k
    if any(d == 0 for d in G.degrees):
        # an isolated vertex pins every magic sum to 0
        if c != 0:
            return SearchResult("absent", None, 0)
        if G.m == 0:
            return SearchResult("found", EdgeLabeling(k, {}), 0)
    impl = kernel if kernel is not None else _kernel
    order = assignment_order(G)
    us = [G.edges[eid].u for eid in order]
    vs = [G.edges[eid].v for eid in order]
    cap = (budget or DEFAULT_BUDGET).cap_for(k, G.m)
    status, labels, nodes = impl.search(G.n, k, c, us, vs, cap)
    if status == SAT:
        mapping = {order[i]: labels[i] for i in range(G.m)}
        return SearchResult("found", EdgeLabeling(k, mapping), nodes)
    if status == UNSAT:
        return SearchResult("absent", None, nodes)
    return SearchResult("undecided", None, nodes)


def available_kernels() -> dict[str, object]:
    """Importable kernels by name; always includes the pure one."""
    return dict(_KERNELS)
