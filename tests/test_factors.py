"""Spanning factors: matching routes vs exhaustive subset search.

The exhaustive search is the oracle here.  It decides existence by a
pruned subset scan of the edge set, sharing no code with the matching
routes or the gadget reduction, so agreement between them is
meaningful evidence.
"""

import pytest

from kmagic import (
    BudgetError,
    FactorError,
    MultiGraph,
    RegularityError,
    SearchResult,
    SolverBudget,
    build_graph,
    check_factor,
    circulant,
    complete,
    construct,
    cycle,
    degree_constrained_factor,
    disjoint_union,
    exhaustive_factor_search,
    f_factor,
    mod3_factor,
    petersen,
    predict_spectrum,
    prism,
    random_regular,
    regularity,
    two_factorization,
    verify,
)
from kmagic import factors, solver
from conftest import CORPUS_BUILDERS, bridged_cubic_16, hub10, hub_quintic_16


def bridged_cubic_10() -> MultiGraph:
    """Cubic multigraph without a 1-factor: a hub joined by bridges to
    three triangles with one doubled edge (three odd components)."""
    pairs = []
    for w in (1, 4, 7):
        x, y = w + 1, w + 2
        pairs += [(0, w), (w, x), (w, y), (x, y), (x, y)]
    return build_graph(10, pairs)


def doubled(G: MultiGraph) -> MultiGraph:
    return build_graph(G.n, [G.endpoints(i) for i in range(G.m)] * 2)


# Every route against the oracle, on graphs of at most 20 edges: the
# shared corpus plus odd r without a 1-factor, even r with odd h on
# parallel edges, and an even r whose 2-factor remainder has no perfect
# matching, so that its 3-factor must come as a complement.
ROUTE_BUILDERS = {
    **{
        name: CORPUS_BUILDERS[name]
        for name in ("K4", "K5", "K33", "prism3", "cube", "C3+C4", "circ8_12", "K6", "petersen")
    },
    "bridged10": bridged_cubic_10,
    "2K4": lambda: doubled(complete(4)),
    "octahedron": lambda: circulant(6, (1, 2)),
}
ROUTE_CASES = [
    (h, name)
    for name, make in ROUTE_BUILDERS.items()
    for h in range(1, regularity(make()) + 1)
    if make().m <= 20
]


def factor_degrees(G, edge_ids):
    deg = [0] * G.n
    for eid in edge_ids:
        u, v = G.endpoints(eid)
        deg[u] += 1
        deg[v] += 1
    return deg


def test_petersen_has_perfect_matching():
    F = f_factor(petersen(), 1)
    assert F is not None
    assert factor_degrees(petersen(), F) == [1] * 10


def test_k5_has_no_perfect_matching():
    assert f_factor(complete(5), 1) is None  # odd order
    assert exhaustive_factor_search(complete(5), [1] * 5) is None


def test_petersen_two_factor_is_disjoint_cycles():
    F = f_factor(petersen(), 2)
    assert F is not None
    assert factor_degrees(petersen(), F) == [2] * 10


def test_f_factor_argument_checks():
    with pytest.raises(FactorError):
        f_factor(cycle(4), 3)
    with pytest.raises(FactorError):
        degree_constrained_factor(cycle(4), [1, 1, 1])
    with pytest.raises(FactorError):
        degree_constrained_factor(cycle(4), [3, 1, 1, 1])


def test_odd_target_sum_is_infeasible():
    assert degree_constrained_factor(cycle(4), [1, 1, 1, 2]) is None


def test_empty_factor():
    assert f_factor(cycle(4), 0) == frozenset()


def test_full_factor_is_whole_edge_set():
    G = prism(3)
    assert f_factor(G, 3) == frozenset(range(G.m))


def test_uneven_targets():
    # path-like demands on a 4-cycle: two opposite vertices of degree 2
    G = cycle(4)
    F = degree_constrained_factor(G, [2, 1, 0, 1])
    assert F is not None
    assert factor_degrees(G, F) == [2, 1, 0, 1]


@pytest.mark.parametrize(("h", "name"), ROUTE_CASES)
def test_matching_route_agrees_with_exhaustive(name, h, monkeypatch):
    G = ROUTE_BUILDERS[name]()
    gadget_calls = []
    gadget = factors._gadget_factor
    monkeypatch.setattr(
        factors, "_gadget_factor", lambda *a: gadget_calls.append(a) or gadget(*a)
    )
    got = f_factor(G, h)
    want = exhaustive_factor_search(G, [h] * G.n)
    assert (got is None) == (want is None)
    if got is not None:
        check_factor(G, got, h)
    # bridged10 has no perfect matching, but its 2- and 3-factors are the
    # complements of its 1- and 0-factors, so no case here needs the gadget
    assert gadget_calls == []


def test_gadget_decides_only_the_thin_side_without_a_perfect_matching(monkeypatch):
    # hub_quintic_16 is 5-regular without a perfect matching: the gadget
    # decides that it has no 2-factor, and its 4-factor, the complement of
    # a 1-factor, is ruled out with no gadget call
    gadget_calls = []
    gadget = factors._gadget_factor
    monkeypatch.setattr(
        factors, "_gadget_factor", lambda *a: gadget_calls.append(a) or gadget(*a)
    )
    assert f_factor(hub_quintic_16(), 2) is None
    assert len(gadget_calls) == 1
    assert f_factor(hub_quintic_16(), 4) is None
    assert len(gadget_calls) == 1


def test_odd_factor_above_half_degree_is_a_complement(monkeypatch):
    # at r = 4 a 3-factor is the complement of a perfect matching; the
    # lone 2-factor left beside the first one often has an odd cycle
    gadget_calls = []
    monkeypatch.setattr(factors, "_gadget_factor", lambda *a: gadget_calls.append(a))
    for seed in range(20):
        G = random_regular(40, 4, seed=seed)
        F = f_factor(G, 3)
        assert F is not None
        check_factor(G, F, 3)
    assert gadget_calls == []


def test_exhaustive_budget_cap():
    G = complete(7)  # 21 edges
    with pytest.raises(BudgetError):
        exhaustive_factor_search(G, [1] * 7)


def test_mod3_factor_on_cubic_graphs(monkeypatch):
    # cubic: the only admissible degree is 1, so this is perfect matching
    F = mod3_factor(petersen())
    assert F is not None
    assert factor_degrees(petersen(), F) == [1] * 10
    kernel_calls = []
    split_search = solver._kernel.split_search
    monkeypatch.setattr(
        solver._kernel, "split_search", lambda *a: kernel_calls.append(a) or split_search(*a)
    )
    # at r = 3 a missing perfect matching settles it, with no label search
    bridged16 = bridged_cubic_16()
    assert mod3_factor(bridged16) is None
    assert kernel_calls == []
    assert f_factor(bridged16, 1) is None
    G = bridged_cubic_10()
    assert mod3_factor(G) is None
    # a cubic graph's only mod-3 profile is all ones
    assert exhaustive_factor_search(G, [1] * G.n) is None


def test_mod3_factor_rejects_wrong_degree():
    with pytest.raises(RegularityError):
        mod3_factor(complete(5))  # r = 4
    with pytest.raises(RegularityError):
        mod3_factor(cycle(6))  # r = 2
    with pytest.raises(RegularityError):
        mod3_factor(build_graph(2, [(0, 1)]))  # r = 1


def test_mod3_factor_nine_regular():
    # tripled K4 is 9-regular; any factor with degrees 1 mod 3 qualifies
    pairs = [(u, v) for _ in range(3) for u in range(4) for v in range(u + 1, 4)]
    G = build_graph(4, pairs)
    assert G.degrees == (9,) * 4
    F = mod3_factor(G)
    assert F is not None
    degs = factor_degrees(G, F)
    assert all(d % 3 == 1 for d in degs)
    assert set(degs) <= {1, 4, 7}


def test_mod3_factor_without_a_perfect_matching(monkeypatch):
    # hub10 has no 1-factor but a factor with degrees in {1, 4}; the label
    # search finds it without the gadget
    def no_gadget(*a):
        raise AssertionError("mod-3 factors never need the gadget")

    monkeypatch.setattr(factors, "_gadget_factor", no_gadget)
    G = hub10()
    assert f_factor(G, 1) is None
    F = mod3_factor(G)
    assert F is not None
    assert all(d % 3 == 1 for d in factor_degrees(G, F))
    for c in (1, 2):
        res = construct(G, 3, c)
        assert res.status == "found"
        assert verify(G, res.labeling) == c
    # prediction and oracle shared that search, and the provenance says so
    assert "oracle also runs" in predict_spectrum(G, 3).provenance[0]
    assert "oracle" not in predict_spectrum(petersen(), 3).provenance[0]


def test_mod3_factor_of_a_union_is_decided_per_component(monkeypatch):
    # the prediction decides each hub10 by one search; the rule's factor of
    # the union is the union of those memoized answers, not two more searches
    kernel_calls = []
    split_search = solver._kernel.split_search
    monkeypatch.setattr(
        solver._kernel, "split_search", lambda *a: kernel_calls.append(a) or split_search(*a)
    )
    G = disjoint_union([hub10(), hub10()])
    res = construct(G, 3, 1, SolverBudget(node_cap=5 * 10**5))
    assert res.status == "found"
    assert verify(G, res.labeling) == 1
    assert len(kernel_calls) == 2
    F = mod3_factor(G)
    assert all(d % 3 == 1 for d in factor_degrees(G, F))
    assert len(kernel_calls) == 2


def test_one_factor_of_a_union_is_one_matching(monkeypatch):
    # the prediction matches Petersen and K4 together, in one matching of
    # the union; the factor split reads that memoized matching, not another
    sizes = []
    matching = factors.nx.max_weight_matching
    monkeypatch.setattr(
        factors.nx, "max_weight_matching",
        lambda adj: sizes.append(adj.number_of_nodes()) or matching(adj),
    )
    G = disjoint_union([petersen(), complete(4)])
    res = construct(G, 4, 0)
    assert res.trace.rules() == ["factor-split"]
    assert verify(G, res.labeling) == 0
    assert sizes == [14]


@pytest.mark.parametrize(
    "parts",
    [
        (petersen(), complete(4)),
        (prism(4), complete(6), cycle(6)),
        (complete(4), bridged_cubic_16(), prism(3)),
        (cycle(5), cycle(4)),
    ],
    ids=["petersen+K4", "cube+K6+C6", "K4+bridged16+prism3", "C5+C4"],
)
def test_one_factor_of_a_union_is_the_whole_graph_matching(parts):
    G = disjoint_union(list(parts))
    whole = factors._matching_factor(G, range(G.m))
    assert f_factor(G, 1) == whole
    if any(f_factor(P, 1) is None for P in parts):
        assert whole is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_regular(12, 3, seed=0),
        lambda: circulant(9, (1, 2)),
        lambda: disjoint_union([petersen(), complete(4)]),
        lambda: disjoint_union([cycle(3), cycle(5)]),
        bridged_cubic_16,
    ],
    ids=["cubic12", "circ9-quartic", "petersen+K4", "C3+C5", "bridged16"],
)
def test_a_regular_one_factor_builds_no_targets(make, monkeypatch):
    # f_factor(G, 1) of a regular G is its one matching, when perfect,
    # or None at odd order; only explicit targets are checked
    checked = []
    check = factors._check_targets
    monkeypatch.setattr(factors, "_check_targets", lambda *a: checked.append(a) or check(*a))
    G = make()
    F = f_factor(G, 1)
    assert checked == []
    H = MultiGraph(G.n, G.us, G.vs)
    assert F == degree_constrained_factor(H, [1] * H.n)
    assert len(checked) == 1
    if G.n % 2:
        assert F is None


def test_mod3_factor_of_a_union_keeps_the_matched_part_of_one_matching(monkeypatch):
    # K10 has a perfect matching and hub10 none: the factor is K10's part
    # of the union's one matching plus hub10's factor, searched on hub10's
    # own graph and on nothing else
    searched = []
    search = factors.search_labeling
    monkeypatch.setattr(factors, "search_labeling", lambda G, *a: searched.append(G.n) or search(G, *a))
    G = disjoint_union([complete(10), hub10()])
    F = mod3_factor(G)
    assert searched == [10]
    assert all(d % 3 == 1 for d in factor_degrees(G, F))
    K10 = complete(10)
    assert {e for e in F if e < K10.m} == f_factor(K10, 1)
    assert {e - K10.m for e in F if e >= K10.m} == mod3_factor(hub10())


@pytest.mark.parametrize(
    ("answers", "want"),
    [(("undecided", "absent"), None), (("absent", "undecided"), None), (("undecided", "found"), BudgetError)],
)
def test_mod3_factor_of_a_union_absent_beats_capped(answers, want, monkeypatch):
    # one component without a mod-3 factor decides the union, whichever
    # component's search was capped; a capped one decides nothing on its own
    G = disjoint_union([hub10(), hub10()])
    found = factors.search_labeling(hub10(), 3, 1).labeling if "found" in answers else None
    results = iter(SearchResult(status, found if status == "found" else None, 1) for status in answers)
    monkeypatch.setattr(factors, "search_labeling", lambda *a: next(results))
    if want is BudgetError:
        with pytest.raises(BudgetError):
            mod3_factor(G)
    else:
        assert mod3_factor(G) is want


def test_mod3_factor_undecided_under_the_budget():
    G = hub10()
    assert f_factor(G, 1) is None
    budget = SolverBudget(node_cap=10**4)
    with pytest.raises(BudgetError):
        mod3_factor(G, budget)
    spec = predict_spectrum(G, 3, budget)
    assert spec.residues == {0}
    assert spec.undecided == {1, 2}


def test_factors_are_computed_once_per_graph(monkeypatch):
    matching_calls, oracle_calls = [], []
    matching = factors.nx.max_weight_matching
    oracle = factors.exhaustive_factor_search
    monkeypatch.setattr(
        factors.nx, "max_weight_matching",
        lambda *a, **kw: matching_calls.append(a) or matching(*a, **kw),
    )
    monkeypatch.setattr(
        factors, "exhaustive_factor_search",
        lambda *a: oracle_calls.append(a) or oracle(*a),
    )
    G = petersen()
    first = [f_factor(G, h) for h in (1, 2, 3)] + [mod3_factor(G)]
    assert matching_calls
    made = len(matching_calls)
    again = [f_factor(G, h) for h in (1, 2, 3)] + [mod3_factor(G)]
    assert all(a is b for a, b in zip(first, again))
    assert len(matching_calls) == made
    E = circulant(8, (1, 2))
    assert two_factorization(E) is two_factorization(E)
    # the exhaustive search is the oracle only: no factor route calls it
    assert oracle_calls == []
