"""Doubling and 2-factor splitting.

A claimed 2-factorization is re-verified part by part against the
degree contract, independently of how it was found.
"""

import pytest

from kmagic import (
    FactorError,
    RegularityError,
    check_factor,
    circulant,
    complete,
    construct,
    cycle,
    disjoint_union,
    double_graph,
    extract_2h_factor,
    petersen,
    prism,
    random_regular,
    two_factorization,
)


def assert_partition(G, dec):
    """Parts are disjoint, cover E(G), and meet their degree claims."""
    union = set()
    for part, h in zip(dec.parts, dec.degrees):
        assert not (union & part)
        union |= part
        check_factor(G, part, h)
    assert union == set(range(G.m))


def test_double_graph_pairs_and_origins():
    G = petersen()
    D = double_graph(G)
    assert D.doubled.m == 2 * G.m
    assert D.doubled.n == G.n
    assert D.pairs == tuple((i, G.m + i) for i in range(G.m))
    for i in range(G.m):
        orig, dup = D.doubled.edges[i], D.doubled.edges[G.m + i]
        assert {orig.u, orig.v} == {dup.u, dup.v} == set(G.endpoints(i))


@pytest.mark.parametrize(
    "G",
    [
        cycle(7),
        complete(5),
        circulant(8, (1, 2)),
        circulant(9, (1, 2, 3)),
        double_graph(complete(4)).doubled,
        double_graph(petersen()).doubled,
        disjoint_union([cycle(3), cycle(4)]),
    ],
    ids=["C7", "K5", "circ8", "circ9", "2K4", "2Pete", "C3+C4"],
)
def test_two_factorization_partitions(G):
    dec = two_factorization(G)
    assert len(dec.parts) == (G.degrees[0]) // 2
    assert all(h == 2 for h in dec.degrees)
    assert_partition(G, dec)


def test_two_factorization_rejects_odd_degree():
    with pytest.raises(RegularityError):
        two_factorization(petersen())


def test_two_factorization_handles_parallel_edges():
    # doubled cycle: pairs of parallel edges must land in different factors
    D = double_graph(cycle(3)).doubled
    dec = two_factorization(D)
    assert_partition(D, dec)


def test_two_factorization_of_a_large_graph():
    # augmenting paths here grow past the interpreter's recursion limit
    G = random_regular(1500, 4, seed=0)
    dec = two_factorization(G)
    assert len(dec.parts) == 2
    assert_partition(G, dec)
    assert construct(random_regular(1500, 4, seed=0), 4, 1).status == "found"


def test_extract_2h_factor_degrees():
    G = double_graph(petersen()).doubled  # 6-regular
    for h in (1, 2, 3):
        dec = extract_2h_factor(G, h)
        assert dec.degrees == (2 * h, 6 - 2 * h)
        assert_partition(G, dec) if h < 3 else None
        check_factor(G, dec.parts[0], 2 * h)
    assert extract_2h_factor(G, 3).parts[1] == frozenset()
    with pytest.raises(FactorError):
        extract_2h_factor(G, 4)
    with pytest.raises(RegularityError):
        extract_2h_factor(prism(3), 1)


def test_check_factor_rejects_wrong_degree():
    G = cycle(4)
    with pytest.raises(FactorError):
        check_factor(G, [0, 1], 1)
    check_factor(G, [0, 2], 1)
