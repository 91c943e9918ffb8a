"""Loopless multigraphs, structural queries, and graph generators.

Vertices are integers 0..n-1.  Edges carry stable integer ids 0..m-1 in
insertion order; parallel edges are allowed, loops are not.  A graph
stores its edges as two tuples of plain ints, us and vs, edge i joining
us[i] and vs[i]: the parser and build_graph check their input while
they fill the two arrays, subgraphs, unions and doubled graphs slice or
concatenate them, and a component graph slices them by component.
Each vertex's degree and component and each component's order come
from one walk of the selected twin (vertex_profile, kmagic._twin), once
per graph; the degrees, regularity, the components and the component
graphs all read that one result.
All graph values are immutable after construction and every operation
here is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import eq, index
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from . import _backtrack_py, _twin
from .errors import GraphError

T = TypeVar("T")


class EdgeRecord(NamedTuple):
    """One edge: its id and its endpoints (u < v is not required)."""

    id: int
    u: int
    v: int


@dataclass(frozen=True)
class MultiGraph:
    """Immutable loopless multigraph with stable edge ids: edge i joins
    us[i] and vs[i]."""

    n: int
    us: tuple[int, ...]
    vs: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.us)

    @cached_property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """The edges as records, built on first use, for readers outside
        the package; the package itself reads us and vs."""
        return tuple(map(EdgeRecord, range(self.m), self.us, self.vs))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return _vertex_profile(self)[0]

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: tuple of incident edge ids, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(zip(self.us, self.vs)):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(map(tuple, inc))

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.us[eid], self.vs[eid]

    def memo(self, key: str, compute: Callable[[], T]) -> T:
        """compute(), run once per graph and key; later calls return that object.

        Kept in the instance __dict__ beside the cached properties, which
        is sound because a graph never changes after construction.
        """
        memos = self.__dict__
        value = memos.get(key, memos)  # the dict itself stands for "not yet"
        if value is memos:
            value = memos[key] = compute()
        return value


def _vertex_profile(G: MultiGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(degrees, component, orders) of G, by one call of the selected
    twin's vertex_profile, once per graph."""
    return G.memo("vertex_profile", lambda: _twin.module.vertex_profile(G.n, G.us, G.vs))


def build_graph(n: int, pairs: Iterable[tuple[int, int]]) -> MultiGraph:
    """Build a multigraph from an explicit edge list.

    Ends are read as operator.index reads them and stored as plain ints.
    Raises GraphError on an end that is no integer, a vertex index out
    of range or a loop edge.
    """
    us: list[int] = []
    vs: list[int] = []
    for i, (u, v) in enumerate(pairs):
        try:
            us.append(index(u))
            vs.append(index(v))
        except TypeError:
            raise GraphError(f"edge {i}: endpoints must be integers, got ({u!r}, {v!r})") from None
    return _checked_graph(n, us, vs)


def _checked_graph(n: int, us: list[int], vs: list[int]) -> MultiGraph:
    """The graph on n vertices with the int ends us and vs.  Raises
    GraphError unless n is a positive int, and then at the first edge
    with an end outside 0..n-1 or a loop."""
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    if us and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n or any(map(eq, us, vs))):
        for i, (u, v) in enumerate(zip(us, vs)):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {i}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"edge {i}: loop at vertex {u} not allowed")
    return MultiGraph(n, tuple(us), tuple(vs))


def subgraph(G: MultiGraph, edge_ids: Iterable[int]) -> tuple[MultiGraph, tuple[int, ...]]:
    """Spanning subgraph on the given edge ids.

    Returns the subgraph (same vertex set, edges reindexed from 0 in
    increasing parent id) and the parent ids as a tuple ids, new id i
    mapping to ids[i].  Ids are read as operator.index reads them;
    raises GraphError on any other id or one outside 0..m-1.
    """
    try:
        ids = sorted(set(map(index, edge_ids)))
    except TypeError:
        raise GraphError("edge ids must be integers") from None
    if ids and not (0 <= ids[0] and ids[-1] < G.m):
        raise GraphError(f"edge id outside 0..{G.m - 1}: {ids[0] if ids[0] < 0 else ids[-1]}")
    us, vs = G.us, G.vs
    H = MultiGraph(G.n, tuple(us[i] for i in ids), tuple(vs[i] for i in ids))
    return H, tuple(ids)


# ---------------------------------------------------------------------------
# text format


def write_graph(G: MultiGraph) -> str:
    """Serialize to the line-based text format (ASCII, LF line endings)."""
    lines = [f"p {G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in zip(G.us, G.vs))
    return "\n".join(lines) + "\n"


def _digits(token: str) -> bool:
    """Is token a run of ASCII decimal digits, as write_graph writes?"""
    return token.isascii() and token.isdigit()


def parse_graph(text: str) -> MultiGraph:
    """Parse the text format: 'p <n> <m>' then m lines '<u> <v>'.

    Lines starting with '#' are comments.  Every number is a run of
    ASCII decimal digits.  Raises GraphError on any deviation: bad
    header, wrong edge count, loops, bad indices.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "p" or not (_digits(head[1]) and _digits(head[2])):
        raise GraphError(f"bad header line: {lines[0]!r}")
    n, m = int(head[1]), int(head[2])
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    rows = list(map(str.split, lines[1:]))
    tokens = list(chain.from_iterable(rows))
    if set(map(len, rows)) - {2} or (m and not _digits("".join(tokens))):
        bad = next(ln for ln, row in zip(lines[1:], rows) if len(row) != 2 or not all(map(_digits, row)))
        raise GraphError(f"bad edge line: {bad!r}")
    ends = list(map(int, tokens))
    return _checked_graph(n, ends[0::2], ends[1::2])


# ---------------------------------------------------------------------------
# structural queries


def regularity(G: MultiGraph) -> int | None:
    """Common degree r if G is regular, else None.  Found once per graph."""
    return G.memo("regularity", lambda: _common_degree(G))


def _common_degree(G: MultiGraph) -> int | None:
    degs = set(G.degrees)
    return degs.pop() if len(degs) == 1 else None


def components(G: MultiGraph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest vertex."""
    comp = _vertex_profile(G)[1]
    groups: list[list[int]] = [[] for _ in range(max(comp, default=-1) + 1)]
    for v, c in enumerate(comp):
        groups[c].append(v)
    return list(map(frozenset, groups))


def component_graphs(G: MultiGraph) -> list[tuple[MultiGraph, Sequence[int]]]:
    """Each connected component as a graph of its own, with the map from
    its edge ids to G's, ordered by smallest vertex (component_graph)."""
    return [component_graph(G, i) for i in range(len(_vertex_profile(G)[2]))]


def component_graph(G: MultiGraph, i: int) -> tuple[MultiGraph, Sequence[int]]:
    """Component i of G, in order of smallest vertex, as a graph of its
    own, with the map from its edge ids to G's; G itself when G is
    connected.

    Vertices are renumbered in ascending order and edges keep G's id
    order, so a breadth-first walk of a component visits its edges in
    the order a walk of G does.  Each component graph is built once per
    graph and index, so that its own memos (factors, say) are found once
    too, and it stores its profile, that of a connected graph, with it.
    The package builds one only where that component still needs the
    solver; its degree and order it reads off G's vertex profile, and
    whether it has a perfect matching off G's one maximum matching
    (kmagic.factors.has_perfect_matching).
    """
    if len(_vertex_profile(G)[2]) < 2:
        return G, range(G.m)
    return G.memo(f"component/{i}", lambda: _component(G, i))


def _component(G: MultiGraph, i: int) -> tuple[MultiGraph, tuple[int, ...]]:
    """Component i of G, sliced from G's edge arrays and profile."""
    _, component, orders = _vertex_profile(G)
    vertices = [v for v, c in enumerate(component) if c == i]
    local = {v: j for j, v in enumerate(vertices)}
    edge_ids = tuple(e for e, u in enumerate(G.us) if component[u] == i)
    us, vs = (tuple(local[ends[e]] for e in edge_ids) for ends in (G.us, G.vs))
    C = MultiGraph(orders[i], us, vs)
    profile = (tuple(G.degrees[v] for v in vertices), (0,) * C.n, (C.n,))
    C.memo("vertex_profile", lambda: profile)
    return C, edge_ids


def find_bridges(G: MultiGraph) -> frozenset[int]:
    """Edge ids whose removal disconnects their component.

    A parallel edge is never a bridge.  Found once per graph, read off
    the bridge_tree plan of each component, the planner of the pure
    split search: its child-bridge edges.
    """
    return G.memo("bridges", lambda: _plan_bridges(G))


def _plan_bridges(G: MultiGraph) -> frozenset[int]:
    return frozenset(
        edge_ids[order[pos]]
        for C, edge_ids in component_graphs(G)
        for _, _, order, _, _, children, _ in _backtrack_py.bridge_tree(C.n, C.us, C.vs)
        for pos, _ in children
    )


# ---------------------------------------------------------------------------
# generators


def cycle(n: int) -> MultiGraph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> MultiGraph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> MultiGraph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph needs both sides nonempty")
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def circulant(n: int, offsets: Sequence[int]) -> MultiGraph:
    """Circulant graph: vertex i adjacent to i +- s for each offset s."""
    if n < 3:
        raise GraphError("circulant needs n >= 3")
    offs = sorted(set(offsets))
    if any(not 1 <= s <= n // 2 for s in offs):
        raise GraphError(f"offsets must lie in 1..{n // 2}")
    pairs = []
    for s in offs:
        if 2 * s == n:
            pairs.extend((i, i + s) for i in range(s))
        else:
            pairs.extend((i, (i + s) % n) for i in range(n))
    return build_graph(n, pairs)


def petersen() -> MultiGraph:
    """Outer 5-cycle, inner pentagram, five spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, 5 + i) for i in range(5)]
    return build_graph(10, pairs)


def prism(n: int = 3) -> MultiGraph:
    """Prism over an n-cycle: two concentric n-cycles joined by rungs."""
    if n < 3:
        raise GraphError("prism needs n >= 3")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(n + i, n + (i + 1) % n) for i in range(n)]
    pairs += [(i, n + i) for i in range(n)]
    return build_graph(2 * n, pairs)


PAIRING_ATTEMPTS = 1000  # pairings random_regular draws before it gives up


def random_regular(n: int, r: int, seed: int) -> MultiGraph:
    """Random simple r-regular graph by the pairing model.

    Draws a uniform pairing of n*r cells, rejects pairings with loops or
    parallel edges, and draws again, up to PAIRING_ATTEMPTS times.
    Deterministic for a fixed seed.
    """
    if n < 1 or r < 0:
        raise GraphError("need n >= 1 and r >= 0")
    if (n * r) % 2 != 0:
        raise GraphError("n * r must be even")
    if r >= n:
        raise GraphError("simple graph needs r < n")
    if seed is None:
        raise GraphError("random_regular requires a seed")
    rng = random.Random(seed)
    cells = [v for v in range(n) for _ in range(r)]
    for _ in range(PAIRING_ATTEMPTS):
        rng.shuffle(cells)
        pairs = [(cells[i], cells[i + 1]) for i in range(0, len(cells), 2)]
        seen = set()
        ok = True
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return build_graph(n, pairs)
    raise GraphError(f"no simple pairing found in {PAIRING_ATTEMPTS} attempts")


def disjoint_union(parts: Sequence[MultiGraph]) -> MultiGraph:
    """Disjoint union; vertices of later parts are shifted upward."""
    if not parts:
        raise GraphError("disjoint union of nothing")
    us: list[int] = []
    vs: list[int] = []
    offset = 0
    for P in parts:
        us.extend(u + offset for u in P.us)
        vs.extend(v + offset for v in P.vs)
        offset += P.n
    return MultiGraph(offset, tuple(us), tuple(vs))


FAMILIES = (
    "cycle",
    "complete",
    "complete_bipartite",
    "circulant",
    "petersen",
    "prism",
    "random_regular",
    "disjoint_union",
)


def generate(family: str, params: dict) -> MultiGraph:
    """Family dispatcher used by the command line front end.

    params keys by family: cycle/complete: n; complete_bipartite: n, n2;
    circulant: n, offsets; prism: n; random_regular: n, r, seed;
    disjoint_union: parts, a list of (family, params) pairs.
    """
    try:
        if family == "cycle":
            return cycle(params["n"])
        if family == "complete":
            return complete(params["n"])
        if family == "complete_bipartite":
            return complete_bipartite(params["n"], params["n2"])
        if family == "circulant":
            return circulant(params["n"], params["offsets"])
        if family == "petersen":
            return petersen()
        if family == "prism":
            return prism(params.get("n", 3))
        if family == "random_regular":
            return random_regular(params["n"], params["r"], params["seed"])
        if family == "disjoint_union":
            return disjoint_union([generate(f, p) for f, p in params["parts"]])
    except KeyError as exc:
        raise GraphError(f"family {family!r}: missing parameter {exc}") from None
    raise GraphError(f"unknown family {family!r}")
