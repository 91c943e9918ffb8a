"""Property tests for the structural invariants.

All strategies draw from seeded generators, so runs are reproducible;
budgets stay small and graphs stay under ten vertices to keep the
exhaustive checks honest but quick.
"""

from hypothesis import assume, given, settings, strategies as st

from kmagic import (
    EdgeLabeling,
    GraphError,
    SolverBudget,
    brute_force_spectrum,
    build_graph,
    complement,
    complete,
    construct,
    cycle,
    disjoint_union,
    double_graph,
    exhaustive_factor_search,
    extend_by_factor,
    extract_2h_factor,
    f_factor,
    fold,
    random_regular,
    search_labeling,
    two_factorization,
    verify,
)

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
@given(regular_graphs(max_n=7), st.integers(3, 8))
def test_fold_divisor_1_preserves_sum(G, k):
    D = double_graph(G)
    lab2 = EdgeLabeling(k, {e: 1 for e in range(D.doubled.m)})
    if k == 2:
        return
    folded, c = fold(D, lab2, 1)
    r = G.degrees[0]
    assert c == (2 * r) % k
    assert set(folded.labels.values()) == {2 % k}


@SETTINGS
@given(regular_graphs(max_n=7), st.integers(3, 9), st.integers(1, 8), st.integers(1, 3))
def test_extension_sum_formula(G, k, a, h):
    D = double_graph(G)
    r2 = 2 * G.degrees[0]
    assume(h <= r2 // 2)
    assume(a % k != 0)
    dec = extract_2h_factor(D.doubled, h)
    factor = dec.parts[0]
    lab, c = extend_by_factor(D.doubled, factor, {e: a % k for e in factor}, k)
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
