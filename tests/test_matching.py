"""Edmonds' maximum-cardinality matching against brute force.

The brute-force maximum and the augmenting-path search below share no
code with the blossom algorithm: they enumerate matchings and
alternating paths outright, which is exact on the small graphs used
here.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kmagic import check_factor, petersen, random_regular
from kmagic import factors
from kmagic.matching import maximum_matching
from conftest import hub10

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def adjacency(n, pairs):
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def simple_skeleton(G):
    """Adjacency lists of G with parallel edges collapsed."""
    return adjacency(G.n, {tuple(sorted(G.endpoints(e))) for e in range(G.m)})


def brute_force_size(adj):
    """Size of a maximum matching: the lowest free vertex is left exposed
    or matched to each free neighbour in turn."""

    def best(free):
        if not free:
            return 0
        v = min(free)
        rest = free - {v}
        return max([best(rest)] + [1 + best(rest - {w}) for w in adj[v] if w in rest])

    return best(frozenset(range(len(adj))))


def has_augmenting_path(adj, mate):
    """Whether some simple path joins two exposed vertices, alternating
    between unmatched and matched edges."""

    def extend(path, want_matched):
        v = path[-1]
        for w in adj[v]:
            if w in path or (mate[v] == w) != want_matched:
                continue
            if not want_matched and mate[w] < 0:
                return True
            if extend(path + [w], not want_matched):
                return True
        return False

    return any(extend([v], False) for v in range(len(adj)) if mate[v] < 0)


def check_matching(adj, mate):
    assert len(mate) == len(adj)
    for v, w in enumerate(mate):
        if w >= 0:
            assert w in adj[v]
            assert mate[w] == v


# A blossom inside a blossom: from the root 10 the search first closes
# the blossom 1-2-3-5-4 (base 1) by the edge 3-5, then the edge 3-9 closes
# one around it and the root, which lets the odd vertex 6 reach the
# exposed 11.  The lists are ordered so that the greedy start matches
# 0-1, 2-3, 4-5, 6-7 and 8-9 and leaves 10 and 11 exposed.
NESTED = [
    [1, 10], [0, 2, 4], [3, 1], [2, 5, 9], [5, 1], [4, 3],
    [7, 10, 11], [6, 8], [9, 7], [8, 3], [0, 6], [6],
]

# The one augmenting path runs 10-0=1-2=3-4=5-7=6-9=8-11, and a search
# from either end first reaches a triangle at the vertex the path leaves
# it by (3 from 1, 7 from 9), so each side needs the blossom to go on.
BLOSSOM_AT_BOTH_ENDS = [
    [1, 10], [3, 2, 0], [3, 1], [2, 1, 4], [5, 3], [4, 7],
    [7, 9], [6, 5, 9], [9, 11], [7, 6, 8], [0], [8],
]

CASES = {
    "edge": ([[1], [0]], 1),
    "C3": (adjacency(3, [(0, 1), (1, 2), (2, 0)]), 1),
    "C5": (adjacency(5, [(i, (i + 1) % 5) for i in range(5)]), 2),
    "C7": (adjacency(7, [(i, (i + 1) % 7) for i in range(7)]), 3),
    "C9": (adjacency(9, [(i, (i + 1) % 9) for i in range(9)]), 4),
    "two triangles": (adjacency(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), 2),
    "petersen": (simple_skeleton(petersen()), 5),
    "hub10 skeleton": (simple_skeleton(hub10()), 4),
    "nested blossoms": (NESTED, 6),
    "blossom at both ends": (BLOSSOM_AT_BOTH_ENDS, 6),
    "isolated vertices": ([[], [], []], 0),
}


@pytest.mark.parametrize("name", CASES)
def test_matching_is_maximum(name):
    adj, size = CASES[name]
    assert brute_force_size(adj) == size
    mate = maximum_matching(adj)
    check_matching(adj, mate)
    assert sum(w >= 0 for w in mate) == 2 * size


@st.composite
def simple_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = adjacency(n, [p for p, k in zip(pairs, keep) if k])
    rng = draw(st.randoms(use_true_random=False))
    for nbrs in adj:
        rng.shuffle(nbrs)  # vary the greedy start
    return adj


@SETTINGS
@given(simple_graphs())
def test_no_augmenting_path_remains(adj):
    mate = maximum_matching(adj)
    check_matching(adj, mate)
    assert not has_augmenting_path(adj, mate)


def test_sizes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(8)
    graphs = []
    for _ in range(20):
        r, n = rng.randrange(3, 10), rng.randrange(30, 201, 2)
        graphs.append(nx.random_regular_graph(r, n, seed=rng.randrange(2**32)))
        n = rng.randrange(20, 301)
        graphs.append(nx.gnm_random_graph(n, rng.randrange(n // 2, 2 * n), seed=rng.randrange(2**32)))
    for g in graphs:
        adj = [list(g.neighbors(v)) for v in range(g.number_of_nodes())]
        mate = maximum_matching(adj)
        check_matching(adj, mate)
        assert sum(w >= 0 for w in mate) == 2 * len(nx.max_weight_matching(g, maxcardinality=True))


def test_gadget_one_factor_of_a_large_cubic_graph():
    # through networkx this took 3.3 s on a 2-vCPU Xeon
    G = random_regular(600, 3, seed=0)
    t0 = time.perf_counter()
    F = factors._gadget_factor(G, [1] * G.n)
    assert time.perf_counter() - t0 < 3.3
    check_factor(G, F, 1)
