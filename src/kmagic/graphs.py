"""Loopless multigraphs, structural queries, and graph generators.

Vertices are integers 0..n-1.  Edges carry stable integer ids 0..m-1 in
insertion order; parallel edges are allowed, loops are not.  All graph
values are immutable after construction and every operation here is
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import GraphError

T = TypeVar("T")


@dataclass(frozen=True)
class EdgeRecord:
    """One edge: its id and its endpoints (u < v is not required)."""

    id: int
    u: int
    v: int


@dataclass(frozen=True)
class MultiGraph:
    """Immutable loopless multigraph with stable edge ids."""

    n: int
    edges: tuple[EdgeRecord, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return tuple(deg)

    @cached_property
    def ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(us, vs): the endpoints of every edge, in edge-id order."""
        return tuple(e.u for e in self.edges), tuple(e.v for e in self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: tuple of incident edge ids, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        us, vs = self.ends
        for eid, (u, v) in enumerate(zip(us, vs)):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(map(tuple, inc))

    def endpoints(self, eid: int) -> tuple[int, int]:
        e = self.edges[eid]
        return e.u, e.v

    def memo(self, key: str, compute: Callable[[], T]) -> T:
        """compute(), run once per graph and key; later calls return that object.

        Kept in the instance __dict__ beside the cached properties, which
        is sound because a graph never changes after construction.
        """
        try:
            return self.__dict__[key]
        except KeyError:
            value = self.__dict__[key] = compute()
            return value


def build_graph(n: int, pairs: Iterable[tuple[int, int]]) -> MultiGraph:
    """Build a multigraph from an explicit edge list.

    Raises GraphError on a vertex index out of range or a loop edge.
    """
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    records = []
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {i}: endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"edge {i}: loop at vertex {u} not allowed")
        records.append(EdgeRecord(i, u, v))
    return MultiGraph(n, tuple(records))


def subgraph(G: MultiGraph, edge_ids: Iterable[int]) -> tuple[MultiGraph, dict[int, int]]:
    """Spanning subgraph on the given edge ids.

    Returns the subgraph (same vertex set, edges reindexed from 0) and
    the map new id -> parent id.
    """
    ids = sorted(set(edge_ids))
    records = []
    id_map = {}
    for new_id, old_id in enumerate(ids):
        e = G.edges[old_id]
        records.append(EdgeRecord(new_id, e.u, e.v))
        id_map[new_id] = old_id
    return MultiGraph(G.n, tuple(records)), id_map


# ---------------------------------------------------------------------------
# text format


def write_graph(G: MultiGraph) -> str:
    """Serialize to the line-based text format (ASCII, LF line endings)."""
    lines = [f"p {G.n} {G.m}"]
    lines.extend(f"{e.u} {e.v}" for e in G.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> MultiGraph:
    """Parse the text format: 'p <n> <m>' then m lines '<u> <v>'.

    Lines starting with '#' are comments.  Raises GraphError on any
    deviation: bad header, wrong edge count, loops, bad indices.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "p":
        raise GraphError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise GraphError(f"bad header line: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"bad edge line: {ln!r}") from None
    return build_graph(n, pairs)


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
    nbrs: list[list[int]] = [[] for _ in range(G.n)]
    for u, v in zip(*G.ends):
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * G.n
    out = []
    for s in range(G.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:  # the list is the breadth-first queue: appends join the walk
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(frozenset(comp))
    return out


def component_graphs(G: MultiGraph) -> list[tuple[MultiGraph, Sequence[int]]]:
    """Each connected component as a graph of its own, with the map from
    its edge ids to G's, ordered by smallest vertex.

    Vertices and edges keep their relative order, so a breadth-first
    walk of a component visits its edges in the order a walk of G does.
    A connected G is returned as itself.  The split is found once per
    graph, and the components of a disconnected graph are built once, so
    that their own memos (factors, say) are found once too.
    """
    parts = G.memo("component_graphs", lambda: _split_components(G))
    return parts or [(G, range(G.m))]


def _split_components(G: MultiGraph) -> list[tuple[MultiGraph, tuple[int, ...]]]:
    """The component graphs of a disconnected G, or [] for a connected
    one, so that G's memo does not hold G itself."""
    comps = components(G)
    return [_component_graph(G, comp) for comp in comps] if len(comps) > 1 else []


def _component_graph(G: MultiGraph, comp: frozenset[int]) -> tuple[MultiGraph, tuple[int, ...]]:
    vmap = {v: i for i, v in enumerate(sorted(comp))}
    edges = [e for e in G.edges if e.u in comp]
    C = MultiGraph(
        len(vmap),
        tuple(EdgeRecord(i, vmap[e.u], vmap[e.v]) for i, e in enumerate(edges)),
    )
    C.memo("component_graphs", list)  # a component is connected: no split to find
    return C, tuple(e.id for e in edges)


def find_bridges(G: MultiGraph) -> frozenset[int]:
    """Edge ids whose removal disconnects their component.

    A parallel edge is never a bridge.  Found once per graph, read off
    the solver's plan of each component: its child-bridge edges.
    """
    return G.memo("bridges", lambda: _plan_bridges(G))


def _plan_bridges(G: MultiGraph) -> frozenset[int]:
    from .solver import _bridge_tree  # the solver imports this module

    if G.n == 0:
        return frozenset()
    return frozenset(
        edge_ids[piece.order[pos]]
        for C, edge_ids in component_graphs(G)
        for piece in _bridge_tree(C)
        for pos, _ in piece.children
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
    pairs = []
    offset = 0
    for P in parts:
        pairs.extend((P.edges[i].u + offset, P.edges[i].v + offset) for i in range(P.m))
        offset += P.n
    return build_graph(offset, pairs)


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
