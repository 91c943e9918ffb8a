"""Doubling, Euler circuits, and factor extraction for regular multigraphs.

The central construction: every 2r-regular multigraph splits into r
edge-disjoint 2-factors.  Orient each component along an Euler circuit,
so every vertex gets out-degree r; the out/in incidence graph is then an
r-regular bipartite graph, which decomposes into r perfect matchings by
repeated augmenting-path search.  Each matching pulls back to a spanning
2-regular subgraph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FactorError, GraphError, RegularityError
from .graphs import ORIGINAL, EdgeRecord, MultiGraph, components, regularity


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
    records = [EdgeRecord(e.id, e.u, e.v, origin=ORIGINAL) for e in G.edges]
    records += [EdgeRecord(m + e.id, e.u, e.v, origin=e.id) for e in G.edges]
    doubled = MultiGraph(G.n, tuple(records))
    return DoublingMap(G, doubled, tuple((i, m + i) for i in range(m)))


@dataclass(frozen=True)
class EulerCircuit:
    """A closed trail using every edge once: arcs of (edge id, tail, head)."""

    start: int
    arcs: tuple[tuple[int, int, int], ...]


def euler_circuit(G: MultiGraph, component: Iterable[int] | None = None) -> EulerCircuit:
    """Euler circuit of one connected component (or of a connected G).

    Starts at the smallest vertex and always leaves along the unused edge
    with the smallest id, so the result is deterministic.  Raises
    RegularityError on an odd-degree vertex and GraphError if the edges
    of the component do not form a single closed trail.
    """
    comp = sorted(component) if component is not None else list(range(G.n))
    comp_set = set(comp)
    edge_ids = [e.id for e in G.edges if e.u in comp_set]
    for e in (G.edges[i] for i in edge_ids):
        if e.v not in comp_set:
            raise GraphError("component is not closed under incidence")
    for v in comp:
        if G.degrees[v] % 2 != 0:
            raise RegularityError(f"vertex {v} has odd degree {G.degrees[v]}")
    if not edge_ids:
        return EulerCircuit(comp[0] if comp else 0, ())

    used = [False] * G.m
    ptr = {v: 0 for v in comp}
    start = comp[0]
    stack: list[tuple[int, int | None]] = [(start, None)]
    path: list[tuple[int, int]] = []
    while stack:
        u, via = stack[-1]
        inc = G.incident[u]
        i = ptr[u]
        while i < len(inc) and used[inc[i]]:
            i += 1
        ptr[u] = i
        if i == len(inc):
            stack.pop()
            if via is not None:
                path.append((via, u))
        else:
            eid = inc[i]
            used[eid] = True
            a, b = G.endpoints(eid)
            stack.append((b if a == u else a, eid))
    if len(path) != len(edge_ids):
        raise GraphError("component edges do not form one closed trail")
    arcs = []
    tail = start
    for eid, head in reversed(path):
        arcs.append((eid, tail, head))
        tail = head
    return EulerCircuit(start, tuple(arcs))


@dataclass(frozen=True)
class FactorDecomposition:
    """Edge-id sets partitioning E(G), one constant degree per part."""

    parts: tuple[frozenset[int], ...]
    degrees: tuple[int, ...]

    def to_json(self) -> str:
        payload = {
            "degrees": list(self.degrees),
            "parts": [sorted(p) for p in self.parts],
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FactorDecomposition":
        payload = json.loads(text)
        return cls(
            tuple(frozenset(p) for p in payload["parts"]),
            tuple(payload["degrees"]),
        )


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


def two_factorization(G: MultiGraph) -> FactorDecomposition:
    """Split an even-regular multigraph into r/2 spanning 2-factors.

    Computed once per graph; later calls return the same object.
    """
    r = regularity(G)
    if r is None or r < 2 or r % 2 != 0:
        raise RegularityError(f"need an even-regular graph with r >= 2, got r={r}")
    return G.memo("two_factorization", lambda: _split_two_factors(G, r // 2))


def _split_two_factors(G: MultiGraph, rho: int) -> FactorDecomposition:
    parts: list[set[int]] = [set() for _ in range(rho)]
    for comp in components(G):
        circuit = euler_circuit(G, comp)
        out_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in comp}
        for eid, tail, head in circuit.arcs:
            out_adj[tail].append((head, eid))
        for v in out_adj:
            out_adj[v].sort(key=lambda t: t[1])
        remaining = {eid for eid, _, _ in circuit.arcs}
        order = sorted(comp)
        for i in range(rho):
            matched = _bipartite_round(order, out_adj, remaining)
            parts[i].update(matched)
            remaining -= matched
    return FactorDecomposition(
        tuple(frozenset(p) for p in parts), tuple(2 for _ in parts)
    )


def _bipartite_round(
    order: Sequence[int],
    out_adj: dict[int, list[tuple[int, int]]],
    remaining: set[int],
) -> set[int]:
    """One perfect matching of the out/in incidence graph, as edge ids."""
    match_left: dict[int, int] = {}  # tail -> edge id
    match_right: dict[int, tuple[int, int]] = {}  # head -> (tail, edge id)

    def reach(u: int, visited: set[int]) -> bool:
        for head, eid in out_adj[u]:
            if eid not in remaining or head in visited:
                continue
            visited.add(head)
            if head not in match_right or reach(match_right[head][0], visited):
                match_right[head] = (u, eid)
                match_left[u] = eid
                return True
        return False

    for u in order:
        if not reach(u, set()):
            raise FactorError("out/in incidence graph lost regularity")
    return set(match_left.values())


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
    two_factors = two_factorization(G)
    first: set[int] = set()
    for p in two_factors.parts[:h]:
        first |= p
    rest = frozenset(range(G.m)) - frozenset(first)
    return FactorDecomposition(
        (frozenset(first), frozenset(rest)), (2 * h, r - 2 * h)
    )
