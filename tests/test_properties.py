"""Property tests for the structural invariants.

All strategies draw from seeded generators, so runs are reproducible;
budgets stay small and graphs stay under ten vertices to keep the
exhaustive checks honest but quick.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import bridged_cubic_16, hub10, hub_quintic_16
from kmagic import (
    EdgeLabeling,
    GraphError,
    MultiGraph,
    SolverBudget,
    brute_force_spectrum,
    build_graph,
    circulant,
    complement,
    complete,
    complete_bipartite,
    construct,
    cycle,
    disjoint_union,
    double_graph,
    exhaustive_factor_search,
    extend_by_factor,
    extract_2h_factor,
    f_factor,
    fold,
    null_set,
    petersen,
    predict_spectrum,
    prism,
    random_regular,
    search_labeling,
    two_factorization,
    verify,
)
from kmagic import _backtrack_py, _twin
from kmagic.factors import has_perfect_matching
from kmagic.graphs import _vertex_profile, component_graphs, regularity

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def regular_graphs(draw, max_n=9, max_r=4):
    n = draw(st.integers(4, max_n))
    r = draw(st.integers(2, min(max_r, n - 1)))
    assume(n * r % 2 == 0)
    seed = draw(st.integers(0, 10**6))
    try:
        return random_regular(n, r, seed=seed)
    except GraphError:  # pairing model gave up for this seed
        assume(False)


@st.composite
def regular_unions(draw):
    """A small regular graph, or the disjoint union of two with one degree."""
    r = draw(st.integers(2, 3))
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(r + 1, 7).filter(lambda n: n * r % 2 == 0))
        try:
            parts.append(random_regular(n, r, seed=draw(st.integers(0, 10**6))))
        except GraphError:
            assume(False)
    return disjoint_union(parts)


@SETTINGS
@given(regular_unions(), st.integers(2, 8))
def test_oracle_agrees_with_a_search_per_sum(G, k):
    # one search per unit orbit decides what a search of every c decides
    budget = SolverBudget(node_cap=10**4)
    spec = brute_force_spectrum(G, k, budget)
    for c in range(k):
        status = search_labeling(G, k, c, budget).status
        if status != "undecided":
            assert spec.contains(c) is (status == "found"), (c, status)
        if c in spec.undecided:
            assert status == "undecided", c


@SETTINGS
@given(regular_graphs(max_n=8, max_r=3), st.integers(3, 6))
def test_spectrum_symmetry(G, k):
    spec = brute_force_spectrum(G, k)
    assume(not spec.undecided)
    for c in range(k):
        assert (c in spec.residues) == ((k - c) % k in spec.residues)


@SETTINGS
@given(regular_graphs(max_n=8, max_r=3), st.integers(4, 8))
def test_odd_order_even_modulus_parity(G, k):
    assume(k % 2 == 0 and G.n % 2 == 1)
    spec = brute_force_spectrum(G, k)
    for c in spec.residues:
        assert c % 2 == 0


@SETTINGS
@given(regular_graphs(), st.integers(2, 7), st.integers(-3, 9))
def test_solver_found_always_verifies(G, k, c):
    res = search_labeling(G, k, c, SolverBudget(node_cap=10**5))
    if res.status == "found":
        assert verify(G, res.labeling) == c % k


@SETTINGS
@given(regular_graphs(), st.integers(3, 7), st.integers(0, 6))
def test_construct_found_verifies_and_complements(G, k, c):
    res = construct(G, k, c)
    if res.status != "found":
        return
    assert verify(G, res.labeling) == c % k
    comp = complement(G, res.labeling)
    assert verify(G, comp) == (k - c) % k


@st.composite
def low_degree_unions(draw):
    """(G, lengths): a union of K2s, written as length 1, or of cycles of
    length 3..12 and perhaps a digon, written as length 2."""
    if draw(st.booleans()):
        lengths = [1] * draw(st.integers(1, 3))
        return disjoint_union([complete(2)] * len(lengths)), lengths
    lengths = draw(st.lists(st.integers(3, 12), min_size=1, max_size=3))
    if draw(st.booleans()):
        lengths.append(2)
    parts = [build_graph(2, [(0, 1), (0, 1)]) if n == 2 else cycle(n) for n in lengths]
    return disjoint_union(parts), lengths


def _piece_admits(length, k, c):
    """The parity formula: K2's one label is c; an even cycle alternates
    x and c - x; an odd cycle takes one constant x with 2x = c."""
    if length == 1:
        return c % k != 0 if k > 1 else c != 0
    if length % 2 == 0:
        return k != 2 or c % 2 == 0
    if k == 1:
        return c != 0 and c % 2 == 0
    return c % 2 == 0 if k % 2 == 0 else c % k != 0


@settings(SETTINGS, max_examples=200)
@given(low_degree_unions(), st.integers(1, 12), st.data())
def test_cycle_construction_matches_parity_formula(graph, k, data):
    G, lengths = graph
    c = data.draw(st.integers(-6, 6) if k == 1 else st.integers(0, k - 1))
    res = construct(G, k, c)
    expect = all(_piece_admits(n, k, c) for n in lengths)
    assert res.status == ("found" if expect else "absent")
    if expect:
        assert verify(G, res.labeling) == (c if k == 1 else c % k)
    off_rule = {"fallthrough", "solver", "solver-exhausted", "solver-budget-exceeded", "undecided"}
    assert not off_rule & set(res.trace.rules())


@SETTINGS
@given(st.one_of(regular_graphs(), regular_unions(), low_degree_unions().map(lambda g: g[0])))
def test_null_set_is_the_predicted_zero_sum(G):
    # predicted on a fresh copy, so that neither call reads the other's memo
    fresh = MultiGraph(G.n, G.us, G.vs)
    assert null_set(G, 40) == {k: predict_spectrum(fresh, k).contains(0) for k in range(1, 41)}


@SETTINGS
@given(regular_graphs(max_n=7), st.integers(3, 8))
def test_fold_divisor_1_preserves_sum(G, k):
    D = double_graph(G)
    lab2 = EdgeLabeling(k, (1,) * D.doubled.m)
    if k == 2:
        return
    folded, c = fold(D, lab2, 1)
    r = G.degrees[0]
    assert c == (2 * r) % k
    assert folded.labels == (2 % k,) * G.m


@SETTINGS
@given(regular_graphs(max_n=7), st.integers(3, 9), st.integers(1, 8), st.integers(1, 3))
def test_extension_sum_formula(G, k, a, h):
    D = double_graph(G)
    r2 = 2 * G.degrees[0]
    assume(h <= r2 // 2)
    assume(a % k != 0)
    dec = extract_2h_factor(D.doubled, h)
    factor = dec.parts[0]
    lab, c = extend_by_factor(D.doubled, factor, (a % k,) * len(factor), k)
    assert c == (2 * h * (a % k) + (r2 - 2 * h)) % k
    assert verify(D.doubled, lab) == c


@SETTINGS
@given(regular_graphs(max_n=7))
def test_doubled_graph_two_factorization_partitions(G):
    D = double_graph(G).doubled
    dec = two_factorization(D)
    seen: set[int] = set()
    for part in dec.parts:
        assert not (seen & part)
        seen |= part
        deg = [0] * D.n
        for eid in part:
            u, v = D.endpoints(eid)
            deg[u] += 1
            deg[v] += 1
        assert set(deg) == {2}
    assert seen == set(range(D.m))


@SETTINGS
@given(regular_graphs(max_n=6, max_r=4), st.integers(0, 4))
def test_factor_routes_agree(G, h):
    assume(G.m <= 14)
    assume(h <= G.degrees[0])
    assume(G.n * h % 2 == 0)
    got = f_factor(G, h)
    want = exhaustive_factor_search(G, [h] * G.n)
    assert (got is None) == (want is None)


@SETTINGS
@given(st.integers(0, 10**6))
def test_random_regular_reproducible(seed):
    try:
        G = random_regular(8, 3, seed=seed)
    except GraphError:
        assume(False)
    H = random_regular(8, 3, seed=seed)
    assert G.edges == H.edges


@SETTINGS
@given(st.lists(st.integers(3, 6), min_size=1, max_size=3), st.integers(3, 6))
def test_union_spectrum_is_component_intersection(ns, k):
    from kmagic import disjoint_union, predict_spectrum

    G = disjoint_union([cycle(n) for n in ns])
    whole = predict_spectrum(G, k)
    assume(not whole.undecided)
    parts = [predict_spectrum(cycle(n), k) for n in ns]
    expect = set(range(k))
    for p in parts:
        expect &= p.residues
    assert whole.residues == expect


# Connected parts of one degree each, for unions the prediction reads:
# simple graphs and multigraphs, odd and even order, with and without a
# perfect matching (a 2-vertex multigraph stands for every parallel class)
UNION_PARTS = {
    2: [lambda: cycle(3), lambda: cycle(4), lambda: cycle(5), lambda: build_graph(2, [(0, 1)] * 2)],
    3: [lambda: complete(4), lambda: prism(3), petersen, bridged_cubic_16,
        lambda: build_graph(2, [(0, 1)] * 3)],
    4: [lambda: complete(5), lambda: circulant(8, (1, 2)), lambda: complete_bipartite(4, 4),
        lambda: build_graph(5, [(i, (i + 1) % 5) for i in range(5)] * 2)],
    5: [lambda: complete(6), hub_quintic_16, lambda: build_graph(2, [(0, 1)] * 5)],
    9: [lambda: complete(10), hub10],
}
UNION_BUDGET = SolverBudget(node_cap=2000)


@st.composite
def one_degree_unions(draw):
    """(G, r): the disjoint union of one to three parts of degree r."""
    r = draw(st.sampled_from(sorted(UNION_PARTS)))
    builders = draw(st.lists(st.sampled_from(UNION_PARTS[r]), min_size=1, max_size=3))
    return disjoint_union([build() for build in builders]), r


def fresh_components(G):
    """G's components as new graphs, from a copy of G that has no memo."""
    return [C for C, _ in component_graphs(MultiGraph(G.n, G.us, G.vs))]


@SETTINGS
@given(one_degree_unions())
def test_fact_sheet_matches_each_component(graph):
    # the degree, each component's order and whether it has a perfect
    # matching, as the prediction reads them off the whole graph
    G, r = graph
    orders = _vertex_profile(G)[2]
    comps = fresh_components(G)
    assert regularity(G) == r
    assert [(n, has_perfect_matching(G, i)) for i, n in enumerate(orders)] == [
        (C.n, f_factor(C, 1) is not None) for C in comps
    ]
    # the whole graph's perfect matching is the union of the components'
    whole = f_factor(G, 1)
    assert (whole is None) == (not all(has_perfect_matching(G, i) for i in range(len(comps))))
    assert (whole is None) == (not has_perfect_matching(G))
    if whole is not None:
        parts = [(C, ids) for C, ids in component_graphs(MultiGraph(G.n, G.us, G.vs))]
        assert whole == {ids[e] for C, ids in parts for e in f_factor(C, 1)}


def _intersect(spectra, k):
    """The union's prediction from its components' own predictions."""
    tag = len(spectra) > 1
    prov = tuple(f"component {i}: {w}" if tag else w for i, s in enumerate(spectra) for w in s.provenance)
    if k == 1:
        tags = [s.symbolic for s in spectra]
        symbolic = ("2" if any(t[0] == "2" for t in tags) else "") + "Z"
        return symbolic + ("*" if any(t[-1] == "*" for t in tags) else ""), prov
    certain = set.intersection(*(set(s.residues) for s in spectra))
    definite = set.intersection(*(set(s.residues) | s.undecided for s in spectra))
    return certain, definite - certain, prov


@settings(SETTINGS, max_examples=60)
@given(one_degree_unions())
def test_prediction_from_the_sheet_equals_the_per_component_one(graph):
    G, _ = graph
    for k in range(1, 7):
        got = predict_spectrum(G, k, UNION_BUDGET)
        spectra = [predict_spectrum(C, k, UNION_BUDGET) for C in fresh_components(G)]
        if k == 2:  # the closed form {r mod 2}, read off the whole graph
            assert (got.residues, got.provenance) == (spectra[0].residues, spectra[0].provenance)
        elif k == 1:
            assert (got.symbolic, got.provenance) == _intersect(spectra, k)
        else:
            assert (set(got.residues), set(got.undecided), got.provenance) == _intersect(spectra, k)


@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
@SETTINGS
@given(
    st.one_of(one_degree_unions().map(lambda graph: graph[0]), regular_graphs(), regular_unions()),
    st.permutations(range(1, 31)),
)
def test_a_memoized_prediction_equals_a_fresh_one(twin, compiled_kernel, G, ks):
    # asked in any order, each k's answer read off the graph's memo of its
    # class is the one a graph without memo gives: tag or residues,
    # undecided and provenance alike
    selected = _twin.module
    _twin.module = _backtrack_py if twin == "pure-python" else compiled_kernel
    try:
        for k in ks:
            fresh = predict_spectrum(MultiGraph(G.n, G.us, G.vs), k, UNION_BUDGET)
            assert predict_spectrum(G, k, UNION_BUDGET) == fresh, k
    finally:
        _twin.module = selected
