"""Degree-constrained spanning subgraphs: f-factors and mod-3 factors.

Regular factors come from the theorems that guarantee them, found on
graphs no larger than G:

- all-ones targets (a 1-factor) ask for a perfect matching, found
  exactly by maximum matching on G itself, parallel edges collapsed to
  their lowest id;
- an h-factor with h > r/2 is the complement of an (r-h)-factor when
  h or r is odd, so at odd r an (r-1)-factor exists exactly when a
  perfect matching does;
- for even r, Petersen's 2-factor theorem splits G into r/2 two-factors
  (``two_factorization``): an h-factor for even h is the union of h/2
  of them, and one for odd h < r/2 takes (h-1)/2 of them plus a perfect
  matching of the remaining edges;
- for odd r, a perfect matching M of G leaves the even-regular G - M:
  an h-factor for h < r/2 is h//2 two-factors of G - M, plus M when h
  is odd.

The gadget reduction decides only what these routes leave: targets
that are not one degree everywhere, and a route that finds nothing
(odd r without a 1-factor, or a remainder without a perfect matching).
It replaces each vertex v by deg(v) edge-end nodes plus deg(v) - f(v)
core nodes joined completely to the ends; each original edge becomes
one external edge between its two end nodes.  A perfect matching of
the gadget must match every core to an end, leaving exactly f(v) ends
per vertex matched through external edges, so external matched edges
form an f-factor and conversely.  The gadget is about five times larger
than G.  Every matching, of G or of a gadget, is one call of
``maximum_matching`` (Edmonds' blossom search) of the twin module
kmagic._twin selects, on the graph as (n, us, vs) edge arrays.

A mod-3 factor is a perfect matching when G has one; otherwise it is
the set of label-2 edges of a 1-sum 3-magic labeling, which the
budgeted label search decides.  The k = 3 prediction asks whether one
exists, and the construction's factor split takes it as its 1-factor at
k = 3 when G has no perfect matching, so both read one memoized search.
An exhaustive subset search, which shares no code with any of these
routes, is the small-instance oracle.

Each graph has one maximum matching (``G.memo("matching")``), found on
the first perfect-matching question.  A maximum matching of G restricted
to a component is a maximum matching of that component, so it tells
for every component at once whether it has a perfect matching
(``has_perfect_matching``), and G's perfect matching, the one route to
a 1-factor, is that matching when no vertex is exposed.  G's degree
and its components come from its ``vertex_profile``.  Each h-factor and
a decided mod-3 factor are computed once per graph (``MultiGraph.memo``).
A mod-3 factor of a disconnected G is the union of its components'
ones: a matched component's part of G's matching, and for each other
component the search on that component's own graph, memoized there.
The exhaustive oracle never reads either.
"""

from __future__ import annotations

from itertools import compress
from operator import gt
from types import SimpleNamespace
from typing import Collection, NamedTuple, Sequence

from . import _twin
from .errors import BudgetError, FactorError, RegularityError
from .factorization import extract_2h_factor
from .graphs import MultiGraph, _vertex_profile, component_graph, regularity, subgraph
from .solver import SolverBudget, search_labeling

EXHAUSTIVE_EDGE_LIMIT = 20


class _Graph(NamedTuple):
    """The graph argument of a matching, with the size query the tracer's
    hook below reads."""

    n: int
    us: Sequence[int]
    vs: Sequence[int]

    def number_of_nodes(self) -> int:
        return self.n


def _maximum_matching(graph: _Graph) -> tuple[int, ...]:
    """Each vertex's matched edge id, or -1: one call of the selected twin."""
    return _twin.module.maximum_matching(graph.n, graph.us, graph.vs)


# The one seam every matching in this module goes through, one twin call
# each: the benchmark's tracer (perfbench/tracer.py) wraps
# nx.max_weight_matching here and reads args[0].number_of_nodes().  It is
# not networkx, and it goes away once the library has its own stats
# channel (ROADMAP.md, item E).
nx = SimpleNamespace(max_weight_matching=_maximum_matching)


def _matching(G: MultiGraph) -> tuple[tuple[int, ...], Collection[int], frozenset[int] | None]:
    """(mates, exposed, perfect matching or None) of G's one maximum
    matching, one call through the seam above, once per graph: mates[v]
    is v's matched edge id or -1, and exposed holds the components, by
    vertex_profile index, with a vertex left unmatched."""

    def match():
        mates = nx.max_weight_matching(_Graph(G.n, G.us, G.vs))
        if -1 not in mates:
            return mates, (), frozenset(mates)
        return mates, frozenset(compress(_vertex_profile(G)[1], map((-1).__eq__, mates))), None

    return G.memo("matching", match)


def has_perfect_matching(G: MultiGraph, i: int | None = None) -> bool:
    """Does component i of G, or G itself when i is None, have a perfect
    matching?  A maximum matching of G restricted to a component is a
    maximum matching of that component, so G's one matching answers for
    every component at once."""
    exposed = _matching(G)[1]
    return not exposed if i is None else i not in exposed


def degree_constrained_factor(G: MultiGraph, targets: Sequence[int]) -> frozenset[int] | None:
    """Spanning subgraph with prescribed degree at every vertex, or None.

    targets[v] is the exact degree required at v.  Raises FactorError if
    a target is outside 0..deg(v); returns None when no such subgraph
    exists (in particular when the target sum is odd).
    """
    _check_targets(G, targets)
    if sum(targets) % 2 != 0:
        return None
    if not any(targets):
        return frozenset()
    if min(targets) == 1 == max(targets):
        return _one_factor(G)
    return _gadget_factor(G, targets)


def _check_targets(G: MultiGraph, targets: Sequence[int]) -> None:
    """Raise FactorError unless targets holds one degree in 0..deg(v) per vertex v."""
    if len(targets) != G.n:
        raise FactorError(f"expected {G.n} degree targets, got {len(targets)}")
    degrees = G.degrees
    if min(targets, default=0) < 0 or any(map(gt, targets, degrees)):
        v = next(v for v, t in enumerate(targets) if not 0 <= t <= degrees[v])
        raise FactorError(f"target {targets[v]} at vertex {v} outside 0..{degrees[v]}")


def f_factor(G: MultiGraph, h: int) -> frozenset[int] | None:
    """Spanning h-regular subgraph of G, or None if absent.

    The answer is computed once per graph and h.
    """
    r = max(G.degrees, default=0)
    if not 0 <= h <= r:
        raise FactorError(f"h must lie in 0..{r}, got {h}")
    return G.memo(f"f_factor/{h}", lambda: _regular_factor(G, h))


def _regular_factor(G: MultiGraph, h: int) -> frozenset[int] | None:
    """h-factor by the matching and 2-factor routes, else by the gadget."""
    r = regularity(G)
    if h == 1 and r is not None:
        # a 1-factor is a perfect matching, and an odd order has none
        return None if G.n % 2 else _one_factor(G)
    targets = [h] * G.n
    if r is None or h < 2 or (h * G.n) % 2 != 0:
        return degree_constrained_factor(G, targets)
    if (h % 2 or r % 2) and 2 * h > r:
        # F is an h-factor exactly when E - F is an (r - h)-factor, so the
        # thick side is found as a complement: at even r the remainder after
        # (h - 1)/2 two-factors is often too thin to hold a perfect matching,
        # and at odd r the thin side of h = r - 1 is a 1-factor
        thin = f_factor(G, r - h)
        return None if thin is None else frozenset(range(G.m)) - thin
    if r % 2 == 0:
        first, rest = extract_2h_factor(G, h // 2).parts
        if h % 2 == 0:
            return first
        matching = _matching_factor(G, rest)
        if matching is not None:
            return first | matching
        return _gadget_factor(G, targets)
    matching = _one_factor(G)
    if matching is None:
        return _gadget_factor(G, targets)
    remainder, id_map = subgraph(G, frozenset(range(G.m)) - matching)
    first = frozenset(id_map[j] for j in extract_2h_factor(remainder, h // 2).parts[0])
    return first | matching if h % 2 else first


def _one_factor(G: MultiGraph) -> frozenset[int] | None:
    """Perfect matching of G, read off its one maximum matching: the one
    route to a 1-factor, for f_factor(G, 1), all-ones targets of
    degree_constrained_factor, the odd-degree factors and mod3_factor
    alike."""
    return _matching(G)[2]


def _matching_factor(G: MultiGraph, edge_ids: Collection[int]) -> frozenset[int] | None:
    """Perfect matching of G using only edge_ids, or None if there is none.

    One maximum matching on the edges edge_ids of G in increasing order;
    the matching offers only the lowest id of each class of parallel
    edges.
    """
    ids = sorted(edge_ids)
    us, vs = G.us, G.vs
    mates = nx.max_weight_matching(_Graph(G.n, [us[e] for e in ids], [vs[e] for e in ids]))
    return None if -1 in mates else frozenset(ids[j] for j in mates)


def _gadget_factor(G: MultiGraph, targets: Sequence[int]) -> frozenset[int] | None:
    gadget, external = _gadget(G, targets)
    mates = nx.max_weight_matching(gadget)
    if -1 in mates:
        return None
    return frozenset(e for e in range(G.m) if mates[2 * e] == external + e)


def _gadget(G: MultiGraph, targets: Sequence[int]) -> tuple[_Graph, int]:
    """The gadget graph of G for targets, and the id of its first external
    edge: edge e of G is gadget edge external + e.

    Edge e has its end at us[e] as node 2e and its end at vs[e] as node
    2e + 1; the core nodes follow.  The gadget's edges are each core's to
    its vertex's ends, core after core, then the external edges, so each
    end lists its vertex's cores before its external edge.
    """
    gus: list[int] = []
    gvs: list[int] = []
    core = 2 * G.m
    us = G.us
    for v in range(G.n):
        ends = [2 * eid + (us[eid] != v) for eid in G.incident[v]]
        for _ in range(G.degrees[v] - targets[v]):
            gus.extend([core] * len(ends))
            gvs.extend(ends)
            core += 1
    external = len(gus)
    gus.extend(range(0, 2 * G.m, 2))
    gvs.extend(range(1, 2 * G.m, 2))
    return _Graph(core, gus, gvs), external


def exhaustive_factor_search(G: MultiGraph, targets: Sequence[int]) -> frozenset[int] | None:
    """Decide a degree-constrained factor by subset search with pruning.

    Independent of the matching route; intended for small instances and
    as a cross-check.  Raises BudgetError above EXHAUSTIVE_EDGE_LIMIT edges.
    """
    if G.m > EXHAUSTIVE_EDGE_LIMIT:
        raise BudgetError(f"exhaustive search capped at {EXHAUSTIVE_EDGE_LIMIT} edges, m={G.m}")
    _check_targets(G, targets)
    if sum(targets) % 2 != 0:
        return None
    # avail[v] counts incident edges not yet decided
    avail = list(G.degrees)
    need = list(targets)
    chosen: list[int] = []
    us, vs = G.us, G.vs

    def dfs(i: int) -> bool:
        if i == G.m:
            return all(x == 0 for x in need)
        u, v = us[i], vs[i]
        avail[u] -= 1
        avail[v] -= 1
        if need[u] > 0 and need[v] > 0:
            need[u] -= 1
            need[v] -= 1
            chosen.append(i)
            if need[u] <= avail[u] and need[v] <= avail[v] and dfs(i + 1):
                return True
            chosen.pop()
            need[u] += 1
            need[v] += 1
        if need[u] <= avail[u] and need[v] <= avail[v] and dfs(i + 1):
            return True
        avail[u] += 1
        avail[v] += 1
        return False

    return frozenset(chosen) if dfs(0) else None


def mod3_factor(G: MultiGraph, budget: SolverBudget | None = None) -> frozenset[int] | None:
    """Spanning subgraph with every degree congruent to 1 mod 3, or None.

    Requires an r-regular G with r odd and divisible by 3.  A perfect
    matching is one, and for r = 3 the only kind.  Otherwise label a
    factor F with 2 and every other edge with 1: vertex v sums to
    r + deg_F(v), which is deg_F(v) mod 3, so the mod-3 factors are
    exactly the label-2 edges of the 1-sum 3-magic labelings, and the
    label search decides under budget.  Raises BudgetError when that
    search is capped (the problem is NP-complete in general).  A
    disconnected G has one exactly when each component has one, and its
    factor is the union of theirs: a component with a perfect matching
    gives its part of G's one maximum matching, and each other one is
    searched once on its own graph (unmatched_mod3_factor); a capped
    component raises only when no other one is absent.  A decided answer
    is computed once per graph.
    """
    r = regularity(G)
    if r is None or r % 3 != 0 or r % 2 == 0:
        raise RegularityError(f"need r-regular with r odd and 3 | r, got r={r}")
    return G.memo("mod3_factor", lambda: _mod3_union(G, r, budget))


def _mod3_union(G: MultiGraph, r: int, budget: SolverBudget | None) -> frozenset[int] | None:
    mates, exposed, pm = _matching(G)
    if pm is not None or r == 3:
        return pm
    _, component, orders = _vertex_profile(G)
    if len(orders) == 1:
        return _mod3_search(G, budget)
    union = [e for e, i in zip(mates, component) if i not in exposed]
    capped = None
    for i in sorted(exposed):
        C, edge_ids = component_graph(G, i)
        try:
            F = unmatched_mod3_factor(C, budget)
        except BudgetError as exc:
            capped = exc
            continue
        if F is None:
            return None
        union.extend(edge_ids[j] for j in F)
    if capped is not None:
        raise capped
    return frozenset(union)


def unmatched_mod3_factor(C: MultiGraph, budget: SolverBudget | None = None) -> frozenset[int] | None:
    """mod3_factor of a connected r-regular C, r > 3 odd and divisible by
    3, that has no perfect matching: the label search, whose decided
    answer is kept as C's mod3_factor."""
    return C.memo("mod3_factor", lambda: _mod3_search(C, budget))


def _mod3_search(G: MultiGraph, budget: SolverBudget | None) -> frozenset[int] | None:
    res = search_labeling(G, 3, 1, budget)
    if res.status == "undecided":
        raise BudgetError(f"mod-3 factor search hit the node cap after {res.nodes} nodes")
    if res.labeling is None:
        return None
    return frozenset(e for e, label in enumerate(res.labeling.labels) if label == 2)
