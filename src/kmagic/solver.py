"""Budgeted driver around the backtracking kernel.

The kernel is the search of the twin module kmagic._twin selects: the
compiled one when the extension built, otherwise the pure Python twin.
The search fixes labels in breadth-first edge order and prunes as soon
as a vertex with no unlabeled edges misses the target sum; every search
runs under the budget's node cap and reports undecided instead of
guessing when the cap runs out.  Parity, isolated vertices and connected
components settle part of each question before the kernel runs.  Each
component is then one call of the same twin module's split_search,
which plans the component's bridge tree (its bridges, its
2-edge-connected pieces and their search order) and searches it: a
bridgeless component is one piece and one kernel search, a component
with bridges is searched one piece at a time (see search_labeling).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _backtrack_py, _twin
from ._backtrack_py import SAT, UNSAT
from .errors import KmagicError
from .graphs import MultiGraph, component_graphs
from .labelings import EdgeLabeling

# the twin module selected at import, by name: it runs the search kernel,
# the magic-sum check, the Petersen split, the split search, the vertex
# profile and the maximum matching
_kernel = _twin.module
KERNEL = "pure-python" if _kernel is _backtrack_py else "compiled"


@dataclass(frozen=True)
class SolverBudget:
    """The search limit: node_cap, an int of at least 1.

    It applies to each connected component on its own, so a
    disconnected graph may take up to node_cap nodes per component.
    Each component is one split_search call of the twin, which searches
    a component with bridges piece by piece; node_cap holds for the sum
    of all its piece searches, each counting at least one node, and when
    that runs out the component is undecided.
    """

    node_cap: int = 10**8

    def __post_init__(self):
        if type(self.node_cap) is not int or self.node_cap < 1:
            raise KmagicError(f"node_cap must be an int >= 1, got {self.node_cap!r}")


DEFAULT_BUDGET = SolverBudget()


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "absent" | "undecided"
    labeling: EdgeLabeling | None
    nodes: int


def assignment_order(G: MultiGraph) -> list[int]:
    """Edge ids in breadth-first order from the smallest vertex on: on a
    connected bridgeless G, the order of bridge_tree's one piece."""
    us, vs = G.us, G.vs
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
            for eid in G.incident[u]:
                if not edge_seen[eid]:
                    edge_seen[eid] = True
                    order.append(eid)
                w = us[eid] + vs[eid] - u
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return order


def search_labeling(
    G: MultiGraph, k: int, c: int, budget: SolverBudget | None = None, kernel=None
) -> SearchResult:
    """Search for a c-sum k-magic labeling of G.

    Deterministic: the same question always gets the same labeling.
    Never wrong: status "undecided" is reported when the node cap is
    hit.  Four facts settle part of the search before the kernel runs:

    - the vertex sums add up to twice the label sum, so when k is even
      and n*c is odd the answer is "absent" at 0 nodes;
    - an isolated vertex sums to 0, so it rules out every c != 0;
    - a labeling of G is one labeling per connected component, so a
      disconnected G is searched one component at a time, in order of
      smallest vertex, each under its own budget, stopping at the first
      absent one;
    - a labeling of a component is one labeling per 2-edge-connected
      piece, with each bridge's label counted at both of its ends, so
      each component is one split_search call of the twin, which splits
      a component with bridges at them (see
      kmagic._backtrack_py.split_search).

    Node counts add up.  On a graph whose components have no bridges the
    labeling and the node count are those of one kernel search over all
    of G, since the breadth-first order of G finishes each component
    before it starts the next; a split component has its own search
    order, and may get another labeling.

    The compiled kernel reads n, k and c as C ints, so a k past that
    range goes to the pure twin whatever kernel was asked for.
    """
    if k < 2:
        raise KmagicError("label search needs k >= 2")
    c %= k
    impl = _twin.for_modulus(k, kernel)
    budget = budget or DEFAULT_BUDGET
    settled = _settled(G, k, c)
    if settled is not None:
        return settled
    parts = component_graphs(G)
    if len(parts) == 1:
        return _component_search(G, k, c, budget, impl)
    labels: dict[int, int] = {}
    nodes = 0
    undecided = False
    for C, edge_ids in parts:
        res = _settled(C, k, c) or _component_search(C, k, c, budget, impl)
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


def _component_search(C: MultiGraph, k: int, c: int, budget: SolverBudget, impl) -> SearchResult:
    """One split_search call of the twin impl over connected C."""
    status, labels, nodes = impl.split_search(C.n, k, c, C.us, C.vs, budget.node_cap)
    if status == SAT:
        return SearchResult("found", EdgeLabeling(k, dict(enumerate(labels))), nodes)
    if status == UNSAT:
        return SearchResult("absent", None, nodes)
    return SearchResult("undecided", None, nodes)


def available_kernels() -> dict[str, object]:
    """Importable kernels by name; always includes the pure one."""
    return {"pure-python": _backtrack_py, KERNEL: _kernel}
