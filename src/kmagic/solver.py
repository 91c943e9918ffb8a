"""Budgeted driver around the backtracking kernel.

The kernel is the search of the twin module kmagic._twin selects: the
compiled one when the extension built, otherwise the pure Python twin.
The search fixes labels in breadth-first edge order and prunes as soon
as a vertex with no unlabeled edges misses the target sum; every search
runs under the budget's node cap and reports undecided instead of
guessing when the cap runs out.  Parity, isolated vertices and connected
components settle part of each question before the kernel runs.  The
same twin module's bridge_tree plans each component once: its bridges,
its 2-edge-connected pieces and their search order.  A bridgeless
component is one piece and one kernel search; a component with bridges
is searched one piece at a time (see search_labeling).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import _backtrack_py, _twin
from ._backtrack_py import SAT, UNDECIDED, UNSAT
from .errors import KmagicError
from .graphs import MultiGraph, component_graphs
from .labelings import EdgeLabeling

# the twin module selected at import, by name: it runs the search kernel,
# the magic-sum check, the Petersen split, the bridge tree and the vertex
# profile
_kernel = _twin.module
KERNEL = "pure-python" if _kernel is _backtrack_py else "compiled"


@dataclass(frozen=True)
class SolverBudget:
    """The search limit: node_cap, an int of at least 1.

    It applies to each connected component on its own, so a
    disconnected graph may take up to node_cap nodes per component.  A
    component with bridges is searched piece by piece, and node_cap
    holds for the sum of all its piece searches, each counting at least
    one node; when that runs out the component is undecided.
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
      piece, with each bridge's label counted at both of its ends, so a
      component with bridges is split at them (see _split_search).

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
    pieces = _bridge_tree(C)
    if len(pieces) == 1:
        return _kernel_search(pieces[0], k, c, budget.node_cap, impl)
    return _split_search(pieces, k, c, budget.node_cap, impl)


@dataclass(frozen=True)
class _Piece:
    """A 2-edge-connected piece of a component, as the kernel searches it.

    The piece's own vertices are numbered 0..n-1 in ascending order; a
    piece with child bridges has one more vertex, a stub with no target
    that stands for every child piece.  order holds the component's edge
    ids labeled here, the piece's own edges and its child bridges, in
    breadth-first order from entry, the vertex at the parent bridge (at
    the root, the smallest vertex); us and vs are their local ends, us
    the one the walk reached first.  The fields are those of one tuple
    from the twins' bridge_tree.
    """

    n: int  # local vertices, the stub included
    entry: int
    order: tuple[int, ...]
    us: tuple[int, ...]
    vs: tuple[int, ...]
    children: tuple[tuple[int, int], ...]  # (position in order, child piece index)
    edgeless: bool  # a single vertex: order holds only child bridges


def _bridge_tree(C: MultiGraph) -> tuple[_Piece, ...]:
    """The pieces of connected C, the root (the piece of vertex 0) first
    and each piece after its parent; a bridgeless C is one piece, in
    assignment order.  Planned once per graph, by the selected twin."""
    return C.memo("bridge_tree", lambda: tuple(_Piece(*t) for t in _twin.module.bridge_tree(C.n, C.us, C.vs)))


def _kernel_search(piece: _Piece, k: int, c: int, cap: int, impl) -> SearchResult:
    """One kernel search over a bridgeless component, its only piece."""
    status, labels, nodes = impl.search(piece.n, k, c, piece.us, piece.vs, cap)
    if status == SAT:
        return SearchResult("found", EdgeLabeling(k, dict(zip(piece.order, labels))), nodes)
    if status == UNSAT:
        return SearchResult("absent", None, nodes)
    return SearchResult("undecided", None, nodes)


def _split_search(pieces: tuple[_Piece, ...], k: int, c: int, cap: int, impl) -> SearchResult:
    """Search a component piece by piece, bottom-up over its bridge tree.

    For each piece below the root this finds the parent-bridge labels x
    for which the piece and its subtree can be labeled: one kernel
    search per x, with the entry's target c - x, every other vertex's
    target c, and each child bridge limited to the labels found for its
    child piece.  An edgeless piece needs no search: the sums of one
    label per child bridge must reach its target.  The root is decided
    the same way with target c everywhere, and a labeling is then read
    off top-down.  A piece with no feasible label makes the component
    absent.

    Two facts spare searches.  At even k the targets of a piece without
    child bridges add up to twice its label sum, so its parent label x
    must have the parity of n * c, n its vertex count; the other labels
    are not searched.  Pieces alike in shape, entry and child label sets
    (isomorphic siblings, say) are searched once: the first one's
    feasible labels serve the rest.

    All the searches share one cap, each counting at least one node, so
    a huge k runs out of budget instead of running k - 1 searches per
    piece.  A capped search ends the split as undecided: the budget is
    spent, so no later search could decide.
    """
    nodes = charged = 0
    # per piece: its feasible parent labels (None at the root), each with
    # the labels of the piece's order it was found with (None if edgeless)
    feasible: list[dict | None] = [None] * len(pieces)
    # the feasible labels of each searched piece, by all its searches read
    searched: dict[tuple, dict] = {}
    # per edgeless piece: the sums its child bridges j, j+1, ... can reach
    reach: list[list[set[int]] | None] = [None] * len(pieces)
    for p in reversed(range(len(pieces))):
        piece = pieces[p]
        allowed = [None] * len(piece.order)
        for pos, q in piece.children:
            allowed[pos] = list(feasible[q])
        alike = (p == 0, piece.n, piece.entry, piece.us, piece.vs,
                 *(tuple(feasible[q]) for _, q in piece.children))
        if piece.edgeless:
            sets = [{0}]
            for pos in reversed(range(len(allowed))):
                sets.append({(y + r) % k for y in allowed[pos] for r in sets[-1]})
            sets.reverse()
            reach[p] = sets
            if p == 0:
                feasible[p] = {None: None} if c in sets[0] else {}
            else:
                feasible[p] = dict.fromkeys(sorted(x for x in ((c - r) % k for r in sets[0]) if x))
        elif alike in searched:
            feasible[p] = searched[alike]
        else:
            targets = [c] * piece.n
            if piece.children:
                targets[-1] = None
            if not p:
                labels_to_try = (None,)
            elif k % 2 == 0 and not piece.children:
                labels_to_try = range(2 - piece.n * c % 2, k, 2)
            else:
                labels_to_try = range(1, k)
            found = feasible[p] = searched[alike] = {}
            for x in labels_to_try:
                if x is not None:
                    targets[piece.entry] = (c - x) % k
                if charged >= cap:
                    return SearchResult("undecided", None, nodes)
                status, labels, used = impl.search(
                    piece.n, k, c, piece.us, piece.vs, cap - charged,
                    targets, allowed if piece.children else None,
                )
                nodes += used
                charged += max(used, 1)
                if status == UNDECIDED:
                    return SearchResult("undecided", None, nodes)
                if status == SAT:
                    found[x] = labels
        if not feasible[p]:
            return SearchResult("absent", None, nodes)
    mapping: dict[int, int] = {}
    parent_label: list[int | None] = [None] * len(pieces)
    for p, piece in enumerate(pieces):
        x = parent_label[p]
        if piece.edgeless:
            t = (c - (x or 0)) % k
            labels = []
            for pos, q in piece.children:
                y = next(y for y in feasible[q] if (t - y) % k in reach[p][pos + 1])
                labels.append(y)
                t = (t - y) % k
        else:
            labels = feasible[p][x]
        mapping.update(zip(piece.order, labels))
        for pos, q in piece.children:
            parent_label[q] = labels[pos]
    return SearchResult("found", EdgeLabeling(k, mapping), nodes)


def available_kernels() -> dict[str, object]:
    """Importable kernels by name; always includes the pure one."""
    return {"pure-python": _backtrack_py, KERNEL: _kernel}
