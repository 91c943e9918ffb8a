"""Edmonds' maximum-cardinality matching, both twins, against brute force.

The brute-force maximum and the augmenting-path search below share no
code with the blossom algorithm: they enumerate matchings and
alternating paths outright, which is exact on the small graphs used
here.  Every test runs on the pure twin and on the compiled one, which
must also return identical mates.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kmagic import _backtrack_py, build_graph, check_factor, petersen, random_regular
from kmagic import factors
from conftest import hub10

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def twins(compiled_kernel):
    """The pure twin and the compiled one: each test runs on both."""
    return (_backtrack_py, compiled_kernel)


def ends(pairs):
    """The (us, vs) edge arrays of a list of vertex pairs."""
    return [u for u, _ in pairs], [v for _, v in pairs]


def skeleton(n, us, vs):
    """Neighbour sets of the graph, parallel edges collapsed."""
    adj = [set() for _ in range(n)]
    for u, v in zip(us, vs):
        adj[u].add(v)
        adj[v].add(u)
    return adj


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


def vertex_mates(us, vs, mates):
    """The matched neighbour of each vertex, -1 where exposed."""
    return [-1 if e < 0 else us[e] + vs[e] - v for v, e in enumerate(mates)]


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


def check_matching(n, us, vs, mates):
    """mates is a matching by edge ids, each the lowest id of its class of
    parallel edges."""
    assert isinstance(mates, tuple) and len(mates) == n
    for v, e in enumerate(mates):
        if e >= 0:
            assert v in (us[e], vs[e])
            w = us[e] + vs[e] - v
            assert mates[w] == e
            assert e == min(i for i, (a, b) in enumerate(zip(us, vs)) if {a, b} == {v, w})


# A blossom inside a blossom: from the root 10 the search first closes
# the blossom 1-2-3-5-4 (base 1) by the edge 3-5, then the edge 3-9 closes
# one around it and the root, which lets the odd vertex 6 reach the
# exposed 11.  The edges are ordered so that the greedy start matches
# 0-1, 2-3, 4-5, 6-7 and 8-9 and leaves 10 and 11 exposed.
NESTED = [
    (0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (0, 10), (1, 2),
    (3, 5), (7, 8), (6, 10), (1, 4), (3, 9), (6, 11),
]

# The one augmenting path runs 10-0=1-2=3-4=5-7=6-9=8-11, and a search
# from either end first reaches a triangle at the vertex the path leaves
# it by (3 from 1, 7 from 9), so each side needs the blossom to go on.
BLOSSOM_AT_BOTH_ENDS = [
    (2, 3), (4, 5), (6, 7), (1, 3), (5, 7), (1, 2), (3, 4),
    (7, 9), (0, 1), (6, 9), (0, 10), (8, 9), (8, 11),
]


def cycle_pairs(n):
    return [(i, (i + 1) % n) for i in range(n)]


def graph_pairs(G):
    return [G.endpoints(e) for e in range(G.m)]


CASES = {
    "edge": (2, [(0, 1)], 1),
    "C3": (3, cycle_pairs(3), 1),
    "C5": (5, cycle_pairs(5), 2),
    "C7": (7, cycle_pairs(7), 3),
    "C9": (9, cycle_pairs(9), 4),
    "two triangles": (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 2),
    "petersen": (10, graph_pairs(petersen()), 5),
    "hub10 skeleton": (10, graph_pairs(hub10()), 4),
    "nested blossoms": (12, NESTED, 6),
    "blossom at both ends": (12, BLOSSOM_AT_BOTH_ENDS, 6),
    "isolated vertices": (3, [], 0),
}


@pytest.mark.parametrize("name", CASES)
def test_matching_is_maximum(name, twins):
    n, pairs, size = CASES[name]
    us, vs = ends(pairs)
    assert brute_force_size(skeleton(n, us, vs)) == size
    for twin in twins:
        mates = twin.maximum_matching(n, us, vs)
        check_matching(n, us, vs, mates)
        assert sum(e >= 0 for e in mates) == 2 * size


@st.composite
def multigraphs(draw, max_n=10, max_copies=3):
    """(n, us, vs): a simple graph, each edge up to max_copies times, the
    edges in shuffled order and orientation."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [p for p, k in zip(pairs, keep) if k]
    copies = draw(st.lists(st.integers(1, max_copies), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, c in zip(pairs, copies) for _ in range(c)]
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(edges)  # vary the greedy start and which copy is lowest
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return (n, *ends(edges))


@SETTINGS
@given(multigraphs())
def test_no_augmenting_path_remains(twins, graph):
    n, us, vs = graph
    for twin in twins:
        mates = twin.maximum_matching(n, us, vs)
        check_matching(n, us, vs, mates)
        assert not has_augmenting_path(skeleton(n, us, vs), vertex_mates(us, vs, mates))


def test_sizes_agree_with_networkx(twins):
    nx = pytest.importorskip("networkx")
    rng = random.Random(8)
    graphs = []
    for _ in range(20):
        r, n = rng.randrange(3, 10), rng.randrange(30, 201, 2)
        graphs.append(nx.random_regular_graph(r, n, seed=rng.randrange(2**32)))
        n = rng.randrange(20, 301)
        graphs.append(nx.gnm_random_graph(n, rng.randrange(n // 2, 2 * n), seed=rng.randrange(2**32)))
    for g in graphs:
        n, (us, vs) = g.number_of_nodes(), ends(list(g.edges()))
        size = len(nx.max_weight_matching(g, maxcardinality=True))
        for twin in twins:
            mates = twin.maximum_matching(n, us, vs)
            check_matching(n, us, vs, mates)
            assert sum(e >= 0 for e in mates) == 2 * size


@st.composite
def gadgets(draw):
    """The gadget graph factors._gadget_factor matches for a drawn
    multigraph and drawn degree targets."""
    n, us, vs = draw(multigraphs(max_n=7))
    G = build_graph(n, zip(us, vs))
    return factors._gadget(G, [draw(st.integers(0, d)) for d in G.degrees])[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(multigraphs(max_copies=1), multigraphs(), gadgets()))
def test_twins_return_identical_mates(compiled_kernel, graph):
    n, us, vs = graph
    mates = _backtrack_py.maximum_matching(n, us, vs)
    assert compiled_kernel.maximum_matching(n, us, vs) == mates
    check_matching(n, us, vs, mates)


def test_matching_factor_takes_the_lowest_id_of_each_parallel_class(twins, monkeypatch):
    # the square 0-1-2-3, each side doubled, the copies in mixed order: the
    # sides 01, 23, 12 and 03 are edges 0 and 3, 1 and 5, 2 and 6, 4 and 7
    G = build_graph(4, [(1, 0), (2, 3), (1, 2), (0, 1), (3, 0), (3, 2), (2, 1), (0, 3)])
    for twin in twins:
        monkeypatch.setattr(factors._twin, "module", twin)
        assert factors._matching_factor(G, range(G.m)) == {0, 1}
        # without edges 0 and 1, sides 01 and 23 are left as edges 3 and 5
        assert factors._matching_factor(G, frozenset(range(2, 8))) == {3, 5}


def test_gadget_one_factor_of_a_large_cubic_graph():
    # through networkx this took 3.3 s on a 2-vCPU Xeon
    G = random_regular(600, 3, seed=0)
    t0 = time.perf_counter()
    F = factors._gadget_factor(G, [1] * G.n)
    assert time.perf_counter() - t0 < 3.3
    check_factor(G, F, 1)
