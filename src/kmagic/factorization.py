"""Doubling, 2-factorization and factor extraction for regular multigraphs.

The central construction (Petersen, 1891): every 2r-regular multigraph
splits into r edge-disjoint 2-factors.  Walk the graph along unused
edges and orient each edge the way the walk crosses it; in an even
graph every walk closes, so every vertex gets out-degree r.  The out/in
incidence graph is then an r-regular bipartite graph, which decomposes
into r perfect matchings: each round takes a maximum matching of the
out/in graph of the edges left, found by the twin module's one matcher,
the search of maximum_matching, and the last round takes what is left.
Each matching pulls back to a spanning 2-regular subgraph.

The split is the twin module's petersen_split, compiled or pure as
kmagic._twin selects; it splits every round in one call the first time
a graph is asked, and the 2-factors are kept per graph.  The last round
needs no search, since the edges no earlier round took are its only
perfect matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from . import _twin
from .errors import FactorError, RegularityError
from .graphs import MultiGraph, regularity


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
    doubled = MultiGraph(G.n, G.us + G.us, G.vs + G.vs)
    return DoublingMap(G, doubled, tuple(zip(range(m), range(m, 2 * m))))


@dataclass(frozen=True)
class FactorDecomposition:
    """Disjoint edge-id sets, one constant degree per part, covering E(G)."""

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
    us, vs = G.us, G.vs
    for eid in edge_ids:
        deg[us[eid]] += 1
        deg[vs[eid]] += 1
    bad = [v for v in range(G.n) if deg[v] != h]
    if bad:
        raise FactorError(f"not {h}-regular at vertices {bad[:5]}")


def two_factorization(G: MultiGraph) -> FactorDecomposition:
    """The r/2 spanning 2-factors of an even-regular multigraph, split
    once per graph and always in one fixed order."""
    r = regularity(G)
    if r is None or r < 2 or r % 2 != 0:
        raise RegularityError(f"need an even-regular graph with r >= 2, got r={r}")
    return G.memo("two_factorization", lambda: _split(G))


def _split(G: MultiGraph) -> FactorDecomposition:
    parts = tuple(frozenset(p) for p in _twin.module.petersen_split(G.n, G.us, G.vs))
    return FactorDecomposition(parts, (2,) * len(parts))


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
    first = frozenset().union(*two_factorization(G).parts[:h])
    rest = frozenset(range(G.m)) - first
    return FactorDecomposition((first, rest), (2 * h, r - 2 * h))
