"""Doubling, 2-factorization and factor extraction for regular multigraphs.

The central construction (Petersen, 1891): every 2r-regular multigraph
splits into r edge-disjoint 2-factors.  Walk the graph along unused
edges and orient each edge the way the walk crosses it; in an even
graph every walk closes, so every vertex gets out-degree r.  The out/in
incidence graph is then an r-regular bipartite graph, which decomposes
into r perfect matchings by repeated augmenting-path search.  Each
matching pulls back to a spanning 2-regular subgraph.

The split has two twins with one semantics, chosen as the solver
chooses its kernel: the compiled kmagic._backtrack.petersen_split when
the extension imports, else _PetersenSplit here, the pure reference.
The compiled twin splits every round in one call the first time a graph
is asked and keeps only the 2-factors.  The pure twin splits the rounds
on demand: a caller that reads only the first few 2-factors pays only
for those, and a later caller resumes where the last one stopped.
Either way the split is kept per graph.  The last round needs no
search, since the edges no earlier round took are its only perfect
matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .errors import FactorError, RegularityError
from .graphs import EdgeRecord, MultiGraph, regularity

try:
    from ._backtrack import petersen_split as _compiled_split
except ImportError:  # extension not built
    _compiled_split = None

SPLIT = "pure-python" if _compiled_split is None else "compiled"


@dataclass(frozen=True)
class DoublingMap:
    """A graph, its edge-doubled companion, and the pairing between them.

    pairs[i] = (i, m + i): the kept copy and the duplicate of source
    edge i.  Vertex degrees double; vertex ids are shared.
    """

    source: MultiGraph
    doubled: MultiGraph
    pairs: tuple[tuple[int, int], ...]


def double_graph(G: MultiGraph) -> DoublingMap:
    """Duplicate every edge of G; built once per graph."""
    return G.memo("double_graph", lambda: _double(G))


def _double(G: MultiGraph) -> DoublingMap:
    m = G.m
    copies = tuple(EdgeRecord(m + e.id, e.u, e.v) for e in G.edges)
    doubled = MultiGraph(G.n, G.edges + copies)
    us, vs = G.ends
    doubled.memo("ends", lambda: (us + us, vs + vs))  # from G's arrays, not from the records
    return DoublingMap(G, doubled, tuple((i, m + i) for i in range(m)))


@dataclass(frozen=True)
class FactorDecomposition:
    """Disjoint edge-id sets, one constant degree per part, covering E(G)
    unless they are the first few parts of a 2-factorization."""

    parts: tuple[frozenset[int], ...]
    degrees: tuple[int, ...]

    def to_json(self) -> str:
        payload = {
            "degrees": list(self.degrees),
            "parts": [sorted(p) for p in self.parts],
        }
        return json.dumps(payload, sort_keys=True) + "\n"


def check_factor(G: MultiGraph, edge_ids: Iterable[int], h: int) -> None:
    """Raise FactorError unless edge_ids induce a spanning h-regular subgraph."""
    deg = [0] * G.n
    for eid in edge_ids:
        e = G.edges[eid]
        deg[e.u] += 1
        deg[e.v] += 1
    bad = [v for v in range(G.n) if deg[v] != h]
    if bad:
        raise FactorError(f"not {h}-regular at vertices {bad[:5]}")


def two_factorization(G: MultiGraph, count: int | None = None) -> FactorDecomposition:
    """The first count of the r/2 spanning 2-factors of an even-regular
    multigraph, all of them when count is omitted.

    The split is kept per graph: the compiled twin splits every round on
    the first call, the pure one splits only the rounds no earlier call
    has.  Both take the rounds in one fixed order, so the i-th 2-factor
    is the same edge set whatever counts are asked and in whatever
    order.  Each count gets one object per graph.
    """
    r = regularity(G)
    if r is None or r < 2 or r % 2 != 0:
        raise RegularityError(f"need an even-regular graph with r >= 2, got r={r}")
    rho = r // 2
    if count is None:
        count = rho
    elif not 0 <= count <= rho:
        raise FactorError(f"count must lie in 0..{rho}, got {count}")
    return G.memo("two_factorization", lambda: _Prefixes(G)).prefix(count)


class _Prefixes:
    """The decomposition handed out for each count of one graph's split.
    It keeps no reference to the graph, whose memo holds it."""

    def __init__(self, G: MultiGraph) -> None:
        if _compiled_split is None:
            self.split = _PetersenSplit(G.n, *G.ends).split
        else:
            parts = [frozenset(p) for p in _compiled_split(G.n, *G.ends)]
            self.split = lambda count: parts[:count]
        self.prefixes: dict[int, FactorDecomposition] = {}

    def prefix(self, count: int) -> FactorDecomposition:
        dec = self.prefixes.get(count)
        if dec is None:
            dec = self.prefixes[count] = FactorDecomposition(tuple(self.split(count)), (2,) * count)
        return dec


class _PetersenSplit:
    """The pure twin of kmagic._backtrack.petersen_split: the 2-factors
    of an even-regular multigraph, edge i joining us[i] and vs[i], split
    round by round on demand.  It keeps the parts split so far and what
    the next round needs: the orientation, found on the first round and
    dropped after the last, and the mask of edges no part holds yet.

    Raises ValueError when us and vs differ in length, when an endpoint
    lies outside 0..n-1, or when the graph is not regular of even degree
    at least 2, as the compiled twin does.
    """

    def __init__(self, n: int, us: Sequence[int], vs: Sequence[int]) -> None:
        m = len(us)
        if len(vs) != m:
            raise ValueError("us and vs differ in length")
        if n < 1 or m < n:  # a vertex would have no edges: checked before allocating per vertex
            raise ValueError("need an even-regular graph with degree >= 2")
        deg = [0] * n
        for i in range(m):
            if not (0 <= us[i] < n and 0 <= vs[i] < n):
                raise ValueError(f"edge {i} has an endpoint outside 0..{n - 1}")
            deg[us[i]] += 1
            deg[vs[i]] += 1
        if deg[0] < 2 or deg[0] % 2 or deg.count(deg[0]) != n:
            raise ValueError("need an even-regular graph with degree >= 2")
        self.n, self.us, self.vs = n, us, vs
        self.rho = deg[0] // 2
        self.parts: list[frozenset[int]] = []
        self.out_arcs: list[list[tuple[int, int]]] | None = None
        self.alive: bytearray | None = bytearray([1]) * m

    def split(self, count: int) -> list[frozenset[int]]:
        """The first count 2-factors."""
        while len(self.parts) < count:
            self._split_next()
        return self.parts[:count]

    def _split_next(self) -> None:
        alive = self.alive
        if len(self.parts) == self.rho - 1:
            # each tail has one alive out-arc left and each head one alive
            # in-arc, so the alive edges are the last round's only matching
            self.parts.append(frozenset(compress(range(len(alive)), alive)))
            self.out_arcs = self.alive = None
            return
        if self.out_arcs is None:
            self.out_arcs = _orient(self.n, self.us, self.vs)
        matched = _bipartite_round(self.out_arcs, alive)
        for eid in matched:
            alive[eid] = 0
        self.parts.append(frozenset(matched))


def _orient(n: int, us: Sequence[int], vs: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Per tail vertex, its out-arcs (head, edge id) in edge-id order.

    From each vertex in turn, walk along unused edges, smallest id first,
    backing up when stuck; an edge points the way the walk first crossed
    it.  In an even graph a walk gets stuck only where it started, so
    every vertex is left by half of its edges.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(zip(us, vs)):
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    used = bytearray(len(us))
    nxt = [0] * n
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for start in range(n):
        stack = [start]
        while stack:
            u = stack[-1]
            adj = adjacency[u]
            i = nxt[u]
            while i < len(adj) and used[adj[i][1]]:
                i += 1
            nxt[u] = i
            if i == len(adj):
                stack.pop()
                continue
            head, eid = adj[i]
            used[eid] = 1
            out_arcs[u].append((head, eid))
            stack.append(head)
    for arcs in out_arcs:
        arcs.sort(key=lambda arc: arc[1])
    return out_arcs


def _bipartite_round(out_arcs: list[list[tuple[int, int]]], alive: bytearray) -> list[int]:
    """One perfect matching of the out/in incidence graph over alive edges.

    Tails are matched in vertex order by augmenting paths; at each tail
    the arcs are tried by edge id and the first head not yet visited is
    followed before later ones.  The path lives on an explicit stack,
    tails[j] having last tried its arc pos[j] - 1, so its length is not
    bounded by the interpreter's recursion limit.
    """
    n = len(out_arcs)
    tail_of = [-1] * n  # head -> tail matched into it
    arc_of = [-1] * n  # head -> edge id of that match
    visited = [-1] * n  # head -> last root whose search reached it
    for root in range(n):
        tails, pos = [root], [0]
        while tails:
            arcs = out_arcs[tails[-1]]
            i = pos[-1]
            while i < len(arcs) and (visited[arcs[i][0]] == root or not alive[arcs[i][1]]):
                i += 1
            pos[-1] = i + 1
            if i == len(arcs):
                tails.pop()
                pos.pop()
                continue
            head = arcs[i][0]
            visited[head] = root
            if tail_of[head] < 0:
                break
            tails.append(tail_of[head])
            pos.append(0)
        else:
            raise RuntimeError("out/in incidence graph lost regularity")
        for u, p in zip(tails, pos):
            head, eid = out_arcs[u][p - 1]
            tail_of[head] = u
            arc_of[head] = eid
    return arc_of


def extract_2h_factor(G: MultiGraph, h: int) -> FactorDecomposition:
    """Union of h two-factors plus the complementary factor.

    For a 2r-regular G and 1 <= h <= r, returns two parts of degrees
    2h and 2r - 2h; the complement part is empty when h = r.
    """
    r = regularity(G)
    if r is None or r < 2 or r % 2 != 0:
        raise RegularityError(f"need an even-regular graph, got r={r}")
    rho = r // 2
    if not 1 <= h <= rho:
        raise FactorError(f"h must lie in 1..{rho}, got {h}")
    first = frozenset().union(*two_factorization(G, h).parts)
    rest = frozenset(range(G.m)) - first
    return FactorDecomposition((first, rest), (2 * h, r - 2 * h))
