"""Doubling and 2-factor splitting.

A claimed 2-factorization is re-verified part by part against the
degree contract, independently of how it was found.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from kmagic import (
    FactorError,
    MultiGraph,
    RegularityError,
    build_graph,
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
from kmagic import _backtrack_py, _twin
from kmagic.factorization import FactorDecomposition
from conftest import hub10


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


SPLIT_GRAPHS = {
    "C7": cycle(7),
    "K5": complete(5),
    "circ8": circulant(8, (1, 2)),
    "circ9": circulant(9, (1, 2, 3)),
    "2K4": double_graph(complete(4)).doubled,
    "2Pete": double_graph(petersen()).doubled,
    "C3+C4": disjoint_union([cycle(3), cycle(4)]),
}

# doubled circulants of degree 3..9, so 6- to 18-regular
DOUBLED_CIRCULANTS = {
    f"2circ-r{r}": double_graph(circulant(n, offsets)).doubled
    for r, n, offsets in [
        (3, 8, (1, 4)),
        (4, 9, (1, 2)),
        (5, 10, (1, 2, 5)),
        (6, 11, (1, 2, 3)),
        (7, 12, (1, 2, 3, 6)),
        (8, 13, (1, 2, 3, 4)),
        (9, 14, (1, 2, 3, 4, 7)),
    ]
}


def fresh(G):
    """A copy of G with nothing split yet."""
    return MultiGraph(G.n, G.us, G.vs)


@pytest.mark.parametrize("G", SPLIT_GRAPHS.values(), ids=SPLIT_GRAPHS.keys())
def test_two_factorization_partitions(G):
    dec = two_factorization(G)
    assert len(dec.parts) == (G.degrees[0]) // 2
    assert all(h == 2 for h in dec.degrees)
    assert_partition(G, dec)


@pytest.mark.parametrize(
    "G",
    [*SPLIT_GRAPHS.values(), *DOUBLED_CIRCULANTS.values()],
    ids=[*SPLIT_GRAPHS, *DOUBLED_CIRCULANTS],
)
def test_two_factorization_prefixes_are_the_full_split(G):
    # every graph object gets the same 2-factors, and the first h of them
    # are what extract_2h_factor joins
    full = two_factorization(fresh(G)).parts
    rho = G.degrees[0] // 2
    assert len(full) == rho
    for h in range(1, rho + 1):
        before = fresh(G)
        first, rest = extract_2h_factor(before, h).parts
        assert first == frozenset().union(*full[:h])
        assert rest == frozenset(range(G.m)) - first
        assert two_factorization(before).parts == full
    whole = fresh(G)
    assert two_factorization(whole) is two_factorization(whole)
    with pytest.raises(FactorError):
        extract_2h_factor(whole, rho + 1)


def test_two_factorization_takes_one_compiled_call_per_graph(compiled_kernel, monkeypatch):
    calls = []
    split = compiled_kernel.petersen_split
    twin = SimpleNamespace(
        petersen_split=lambda *a: calls.append(a) or split(*a),
        vertex_profile=compiled_kernel.vertex_profile,
    )
    monkeypatch.setattr(_twin, "module", twin)
    monkeypatch.setattr(_backtrack_py, "_matching", None)  # no pure round may run
    D = double_graph(circulant(12, (1, 2, 3, 6))).doubled  # 14-regular
    full = two_factorization(D).parts
    for h in (1, 7, 3, 1, 6):
        assert extract_2h_factor(D, h).parts[0] == frozenset().union(*full[:h])
    assert two_factorization(D).parts == full
    assert calls == [(D.n, D.us, D.vs)]
    # the doubled graph's endpoint arrays are its source's, twice over
    C = circulant(12, (1, 2, 3, 6))
    assert (D.us, D.vs) == (C.us + C.us, C.vs + C.vs)


def split_twins(compiled_kernel):
    """Both twins of the Petersen split."""
    return {"pure-python": _backtrack_py.petersen_split, "compiled": compiled_kernel.petersen_split}


@st.composite
def even_regular_multigraphs(draw):
    """Even-regular multigraphs of degree 2 to 18, edges in a shuffled
    order: a union of Hamiltonian cycles, which may share edges, or the
    doubled graph of such a union plus a perfect matching (odd-regular
    before doubling), sometimes beside a union of cycles of its degree."""

    def cycles(n, rho):
        pairs = []
        for _ in range(rho):
            p = draw(st.permutations(range(n)))
            pairs += [(p[i - 1], p[i]) for i in range(n)]
        return pairs

    if draw(st.booleans()):
        n = draw(st.integers(2, 14))
        G = build_graph(n, cycles(n, draw(st.integers(1, 9))))
    else:
        n = 2 * draw(st.integers(1, 7))
        p = draw(st.permutations(range(n)))
        matching = [(p[i], p[i + 1]) for i in range(0, n, 2)]
        G = double_graph(build_graph(n, cycles(n, draw(st.integers(0, 4))) + matching)).doubled
    if draw(st.booleans()):
        n = draw(st.integers(2, 10))
        G = disjoint_union([G, build_graph(n, cycles(n, G.degrees[0] // 2))])
    pairs = [G.endpoints(i) for i in range(G.m)]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    return build_graph(G.n, pairs)


@given(even_regular_multigraphs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_split_twins_agree(compiled_kernel, G):
    parts = {name: split(G.n, G.us, G.vs) for name, split in split_twins(compiled_kernel).items()}
    assert parts["pure-python"] == parts["compiled"]
    assert all(p == sorted(p) for p in parts["compiled"])
    dec = FactorDecomposition(tuple(map(frozenset, parts["compiled"])), (2,) * len(parts["compiled"]))
    assert_partition(G, dec)


@pytest.mark.parametrize(
    "build",
    [lambda: double_graph(hub10()).doubled, lambda: disjoint_union([cycle(5), cycle(3), cycle(4)])],
    ids=["2G of hub10", "C5 + C3 + C4"],
)
def test_pure_split_rounds_are_maximum_matchings(compiled_kernel, monkeypatch, build):
    # 2G of hub10 is 18-regular with parallel edges; the union is 2-regular
    G = build()
    calls = []
    matching = _backtrack_py._matching
    monkeypatch.setattr(_backtrack_py, "_matching", lambda *a: calls.append(a) or matching(*a))
    parts = _backtrack_py.petersen_split(G.n, G.us, G.vs)
    rho = G.m // G.n
    assert len(parts) == rho
    # one matching of the out/in graph per round but the last, over the edges left
    assert len(calls) == rho - 1
    for j, (n, us, vs) in enumerate(calls):
        assert n == 2 * G.n
        assert all(0 <= u < G.n <= v < 2 * G.n for u, v in zip(us, vs))
        left = sorted(set(range(G.m)).difference(*parts[:j]))
        assert [{u, v - G.n} for u, v in zip(us, vs)] == [{G.us[e], G.vs[e]} for e in left]
    assert parts == compiled_kernel.petersen_split(G.n, G.us, G.vs)


@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
def test_split_twins_reject_bad_input_alike(twin, request):
    split = split_twins(request.getfixturevalue("compiled_kernel"))[twin]
    with pytest.raises(ValueError, match="differ in length"):
        split(3, [0, 1, 2], [1, 2])
    for n, us, vs in [(3, [0, 1, 2], [1, 2, 3]), (3, [0, 1, -1], [1, 2, 0])]:
        with pytest.raises(ValueError, match="endpoint"):
            split(n, us, vs)
    for n, us, vs in [
        (0, [], []),
        (-2, [], []),
        (3, [], []),
        (4, [0, 1, 2], [1, 2, 3]),  # fewer edges than vertices
        (4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2]),  # not regular
        (4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]),  # K4: odd degree
    ]:
        with pytest.raises(ValueError, match="even-regular"):
            split(n, us, vs)
    with pytest.raises(TypeError):
        split(3, [0, 1, "2"], [1, 2, 0])
    # the graph's ends may come from one-shot iterators; a float end is no int
    assert split(3, iter([0, 1, 2]), (v for v in [1, 2, 0])) == [[0, 1, 2]]
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        split(3, [0, 1, 2], [1, 2.0, 0])


def test_two_factorization_rejects_odd_degree():
    with pytest.raises(RegularityError):
        two_factorization(petersen())


def test_two_factorization_handles_parallel_edges():
    # doubled cycle: pairs of parallel edges must land in different factors
    D = double_graph(cycle(3)).doubled
    dec = two_factorization(D)
    assert_partition(D, dec)


def test_two_factorization_of_a_large_graph(compiled_kernel, pure_twin, monkeypatch):
    # augmenting paths here grow past the interpreter's recursion limit
    parts = []
    for twin in (pure_twin, compiled_kernel):
        monkeypatch.setattr(_twin, "module", twin)
        G = random_regular(1500, 4, seed=0)
        dec = two_factorization(G)
        assert len(dec.parts) == 2
        assert_partition(G, dec)
        parts.append(dec.parts)
        assert construct(random_regular(1500, 4, seed=0), 4, 1).status == "found"
    assert parts[0] == parts[1]


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
