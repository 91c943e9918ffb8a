"""Rule-driven construction: dispatch, statuses, traces."""

import importlib
import itertools
import math

import pytest

from kmagic import (
    BudgetError,
    KmagicError,
    RegularityError,
    SolverBudget,
    build_graph,
    circulant,
    complete,
    complete_bipartite,
    construct,
    cycle,
    disjoint_union,
    f_factor,
    mod3_factor,
    petersen,
    predict_spectrum,
    prism,
    random_regular,
    search_labeling,
    verify,
    zero_sum_4_magic,
)
from kmagic import labelings
from kmagic.construct import _label_pairs, _norm, _plan, _rule_factor_split
from conftest import (
    bridged_cubic_16,
    hub10,
    hub_quintic_16,
    quintic38,
    twin_spy,
    two_hub_even,
    unmatched_cubic_28,
)

TINY = SolverBudget(node_cap=2)
# every nonempty set of edge weights a doubled graph's factor can give
WEIGHT_SETS = [w for n in (1, 2, 3) for w in itertools.combinations((0, 1, 2), n)]


def test_found_examples():
    res = construct(cycle(4), 5, 3)
    assert res.status == "found"
    assert verify(cycle(4), res.labeling) == 3
    res = construct(complete(6), 7, 0)
    assert res.status == "found"
    assert verify(complete(6), res.labeling) == 0
    assert res.trace.rules() == ["factor-split"]
    # an odd-degree zero sum without a perfect matching: the factor split
    # misses and the doubling search answers
    G = unmatched_cubic_28()
    res = construct(G, 7, 0)
    assert res.status == "found"
    assert verify(G, res.labeling) == 0
    assert res.trace.rules() == ["fallthrough", "doubling-parameter-search"]


def test_absent_examples_cite_the_spectrum():
    res = construct(cycle(3), 4, 1)
    assert res.status == "absent"
    assert res.labeling is None
    assert res.trace.rules() == ["spectrum-excluded"]
    assert res.trace.steps[0].params["why"]
    res = construct(complete(5), 6, 3)
    assert res.status == "absent"


def test_every_found_labeling_verifies_small_grid():
    graphs = [cycle(5), cycle(6), complete(4), prism(3), disjoint_union([cycle(3), cycle(4)])]
    for G in graphs:
        for k in (3, 4, 5):
            for c in range(k):
                res = construct(G, k, c)
                assert res.status in ("found", "absent")
                if res.status == "found":
                    assert verify(G, res.labeling) == c
                    assert res.c == c


def test_constant_rule_comes_first_when_it_fits():
    res = construct(complete(6), 5, 0)  # 5 * 1 = 5 = 0 mod 5
    assert res.status == "found"
    assert res.trace.rules()[-1] == "constant"
    assert set(res.labeling.labels) == {1}


def test_gcd_fold_sums_come_from_the_doubling_search():
    # at k = 3b with b = k / gcd(r, k) the sums b and 2b take no constant
    # label; the factor split reaches both on Petersen's perfect matching,
    # and on a cubic graph without one it misses and a doubling weighting
    # of degree h = 2 reaches both (at k = 9 the constant label already
    # answers r = 3)
    for G, rules in (
        (petersen(), ["factor-split"]),
        (bridged_cubic_16(), ["fallthrough", "doubling-parameter-search"]),
    ):
        for k, sums in ((15, (5, 10)), (21, (7, 14))):
            for c in sums:
                res = construct(G, k, c)
                assert res.status == "found", (G.n, k, c)
                assert res.trace.rules() == rules, (G.n, k, c)
                assert verify(G, res.labeling) == c


def test_trace_replay_matches_labeling():
    for G, k, c in [
        (cycle(6), 7, 3),
        (complete(6), 7, 0),
        (complete(4), 5, 1),
        (petersen(), 6, 4),
        (unmatched_cubic_28(), 7, 0),  # a doubling answer, one step on G
    ]:
        res = construct(G, k, c)
        assert res.status == "found", (k, c)
        # the labeling lives in the result alone, and it verifies
        assert all("labels" not in step for step in res.trace.to_jsonable()), (k, c)
        assert verify(G, res.labeling) == c


def test_k6_zero_sum_small_modulus_by_factor_split():
    # K6 has a perfect matching M: M labeled 1 and the rest 2 sums to
    # 1 + 4 * 2 = 0 mod 3, so the zero sum no longer needs the solver
    res = construct(complete(6), 3, 0)
    assert res.status == "found"
    assert res.trace.rules() == ["factor-split"]
    assert verify(complete(6), res.labeling) == 0


def test_c_normalized_mod_k():
    res = construct(cycle(4), 5, 8)  # same as c = 3
    assert res.status == "found"
    assert res.c == 3


def test_integer_labelings_k1():
    G = cycle(4)
    res = construct(G, 1, 7)
    assert res.status == "found"
    assert verify(G, res.labeling) == 7
    res = construct(cycle(3), 1, 4)
    assert res.status == "found"
    assert verify(cycle(3), res.labeling) == 4
    assert construct(cycle(3), 1, 3).status == "absent"  # odd sums excluded
    assert construct(cycle(3), 1, 0).status == "absent"  # zero excluded
    res = construct(complete(4), 1, 0)
    assert res.status == "found"
    assert verify(complete(4), res.labeling) == 0
    res = construct(complete(4), 1, -6)
    assert res.status == "found"
    assert verify(complete(4), res.labeling) == -6


def test_budget_undecided_status():
    # 5-regular, bridgeless, no perfect matching: the zero sum mod 4 is
    # left to the solver, which the budget caps
    res = construct(quintic38(), 4, 0, TINY)
    assert res.status == "undecided"
    assert res.labeling is None
    rules = res.trace.rules()
    assert rules[0] == "spectrum-undecided"
    assert rules[-1] == "solver-budget-exceeded"


def test_guard_rails():
    with pytest.raises(KmagicError):
        construct(cycle(4), 0, 0)
    path = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(RegularityError):
        construct(path, 5, 0)


def test_factor_split_decides_a_union_per_component():
    # each hub10 decides under the cap on its own (427,422 nodes); the
    # union's search takes its components one at a time, so the factor
    # split on the union's mod-3 factor answers both nonzero sums without
    # falling through
    G = disjoint_union([hub10(), hub10()])
    budget = SolverBudget(node_cap=5 * 10**5)
    for c in (1, 2):
        res = construct(G, 3, c, budget)
        assert res.status == "found"
        assert verify(G, res.labeling) == c
        assert res.trace.rules()[-1] == "factor-split"
        assert "fallthrough" not in res.trace.rules()


def test_mod3_factor_answers_are_the_split_on_the_factor():
    # at r = 3 (mod 6) no constant reaches a nonzero sum mod 3; the factor
    # split answers both at h = 1, on a factor H whose degrees are all
    # 1 mod 3: a perfect matching, or on hub10, which has none, the
    # mod-3 factor.  H labeled a, every other edge b, a + (r - 1)b = c
    for G in (
        complete(4),
        complete_bipartite(3, 3),
        petersen(),
        prism(3),
        disjoint_union([petersen(), complete(4)]),
        complete(10),
        hub10(),
    ):
        r = G.degrees[0]
        assert r % 6 == 3, G.n
        H = mod3_factor(G)
        degrees = [0] * G.n
        for e in H:
            degrees[G.us[e]] += 1
            degrees[G.vs[e]] += 1
        assert all(d % 3 == 1 for d in degrees), G.n
        for c in (1, 2):
            res = construct(G, 3, c)
            assert res.trace.rules() == ["factor-split"], (G.n, c)
            params = res.trace.steps[0].params
            a, b = params["a"], params["b"]
            assert params["h"] == 1 and (a + (r - 1) * b) % 3 == c, (G.n, c)
            assert (a, b) == ((2, 1) if c == 1 else (1, 2)), (G.n, c)
            assert {e for e, x in enumerate(res.labeling.labels) if x == a} == H, (G.n, c)
            assert verify(G, res.labeling) == c


def test_factor_split_asks_for_a_mod3_factor_only_without_a_perfect_matching(monkeypatch):
    # at k = 3 and r = 3 (mod 6) the split's weight-1 class at h = 1 is
    # the mod-3 factor when G has no perfect matching; an undecided
    # search is a miss at h = 1, and the split moves on to h = 2
    calls = []

    def capped(G, budget=None):
        calls.append(G.n)
        raise BudgetError("capped")

    monkeypatch.setattr(importlib.import_module("kmagic.construct"), "mod3_factor", capped)
    G = hub10()
    lab, step = _rule_factor_split(G, 9, 3, 1, None)
    assert calls == [10]
    assert step.rule == "factor-split" and step.params == {"h": 2, "a": 1, "b": 2}
    assert verify(G, lab) == 1
    lab, step = _rule_factor_split(petersen(), 3, 3, 1, None)
    assert calls == [10]
    assert step.params["h"] == 1 and verify(petersen(), lab) == 1


@pytest.mark.parametrize("weights", [(0, 1), (0, 1, 2)], ids=["factor", "doubling"])
def test_a_plan_gathers_each_edge_label_by_its_weight(weights):
    # every weighting over the weights of up to 3 edges, m = 1 included,
    # where itemgetter would hand back a bare label
    for m in (1, 2, 3):
        for w in itertools.product(weights, repeat=m):
            plan = _plan(w)
            assert plan.weights == set(w)
            for k in range(2, 7):
                for a, b in itertools.product(range(k), repeat=2):
                    got = plan.gather((b, a, (2 * a - b) % k))
                    assert got == tuple((b + j * (a - b)) % k for j in w), (w, k, a, b)


TWINS = ("search", "magic_sum", "petersen_split", "split_search", "vertex_profile", "maximum_matching")


@pytest.mark.parametrize(
    ("make", "k", "c", "twins"),
    [
        (petersen, 4, 1, ["vertex_profile", "maximum_matching", "magic_sum"]),
        (petersen, 3, 1, ["vertex_profile", "maximum_matching", "magic_sum"]),
        (
            # no pair at h = 1 reaches the zero sum, so no matching is asked
            lambda: circulant(12, (1, 2, 3)), 5, 0,
            ["vertex_profile", "petersen_split", "magic_sum"],
        ),
        (
            lambda: disjoint_union([petersen(), complete(4)]), 3, 2,
            ["vertex_profile", "maximum_matching", "magic_sum"],
        ),
        (lambda: random_regular(10, 5, seed=3), 6, 3, ["vertex_profile", "magic_sum"]),
    ],
    ids=["petersen-k4", "petersen-k3", "circ12-k5", "petersen+K4-k3", "quintic10-k6"],
)
def test_construct_calls_each_twin_at_most_once_on_a_fresh_graph(make, k, c, twins, monkeypatch):
    # one profile, at most one matching of the whole graph, shared by the
    # prediction and the factor split, at most one split, and the one
    # magic-sum check of the answer
    G = make()
    calls = twin_spy(monkeypatch, *TWINS)
    res = construct(G, k, c)
    assert res.status == "found"
    assert [name for name, _ in calls] == twins
    assert {n for _, n in calls} == {G.n}


def test_doubling_search_serves_even_degree_graphs_without_a_perfect_matching():
    # an odd c at even k is the one sum that the split on a 2-factor
    # misses; with no perfect matching the factor split reaches it only on
    # a factor of odd degree, and the doubling search answers the rest by
    # folding a factor of odd degree of the doubled graph
    for r in (4, 6, 8):
        G = two_hub_even(r)
        assert set(G.degrees) == {r} and G.n % 2 == 0
        assert f_factor(G, 1) is None
    calls = [(r, k, c) for r in (4, 6) for k in range(4, 13, 2) for c in range(1, k, 2)]
    # on two_hub_even(8) the kernel is undecided on these at 1e7 nodes
    calls += [(8, k, c) for k, c in ((4, 1), (4, 3), (8, 1), (10, 5), (12, 1), (12, 7), (16, 1))]
    for r, k, c in calls:
        G = two_hub_even(r)
        res = construct(G, k, c)
        assert res.status == "found", (r, k, c)
        assert not SOLVER_STEPS & set(res.trace.rules()), (r, k, c)
        answered = next(s for s in res.trace.rules() if s != "fallthrough")
        # two_hub_even(6) has a 3-factor, which splits to 3(a + b) = c
        # exactly when gcd(3, k) divides c
        split = r == 6 and c % math.gcd(3, k) == 0
        assert answered == ("factor-split" if split else "doubling-parameter-search"), (r, k, c)
        assert verify(G, res.labeling) == c


def test_doubling_folds_reach_no_odd_sum_at_even_degree():
    # why the doubling search takes factors of odd degree at even r: an
    # odd c at even k, or at k = 1, is no sum of a weighting of even degree
    # 2h, whose sums 2h*a + (r - 2h)*b are all even
    for r in (4, 6, 8):
        for h in range(1, r):
            for k in (1, 2, 4, 6, 8, 12):
                for c in range(-7, 8, 2) if k == 1 else range(1, k, 2):
                    assert not list(_label_pairs(k, c, r, 2 * h, {0, 1, 2})), (r, h, k, c)


def _fold_labels(k, c, r, h, weights):
    # the labels of the fold the doubling search used to take: an h-factor
    # of the doubled graph labeled a and the rest b, the source edge with j
    # copies inside labeled (ja + (2 - j)b)/d, d = 1 or 2 and a = b (mod 2)
    # under d = 2, every label of a weight in weights nonzero
    for d in (1, 2):
        if k >= 2:
            pairs = [(a, b) for a in range(1, k) for b in range(1, k)]
        else:
            pairs = [((c * d - (2 * r - h) * b) // h, b) for b in (1, 2, -1, -2)]
        for a, b in pairs:
            if a == 0 or (d == 2 and (a - b) % 2):
                continue
            total = h * a + (2 * r - h) * b
            if k == 1 and total != c * d:
                continue
            if k >= 2 and (total // d - c) % k:
                continue
            labels = tuple(_norm((j * a + (2 - j) * b) // d, k) for j in weights)
            if all(labels):
                yield labels


def test_weighted_split_reaches_every_fold():
    # a fold labels the source edge with j copies inside (ja + (2 - j)b)/d,
    # affine in j: it is the split of the weighting by copies, with its
    # labels at j = 1 and j = 0 as the split's a and b.  Every label tuple a
    # fold reached over the weights present, the split reaches too
    for r in range(1, 10):
        for h in range(1 + r % 2, 2 * r, 2):
            for k in [1, *range(2, 13)]:
                for c in range(-8, 9) if k == 1 else range(k):
                    for weights in WEIGHT_SETS:
                        split = set()
                        for a, b in _label_pairs(k, c, r, h, set(weights)):
                            assert _norm(h * a + (r - h) * b, k) == _norm(c, k)
                            labels = tuple(_norm(b + j * (a - b), k) for j in weights)
                            assert all(labels), (r, h, k, c, weights, a, b)
                            split.add(labels)
                        missing = set(_fold_labels(k, c, r, h, weights)) - split
                        assert not missing, (r, h, k, c, weights, missing)


def _constant_fits(r, k, c):
    if k == 1:
        return c != 0 and c % r == 0
    return any((r * a - c) % k == 0 for a in range(1, k))


def test_factor_splits_reach_every_sum_no_constant_reaches():
    # the completeness argument of the cascade on a graph with a perfect
    # matching.  At even r the split on the first 2-factor reaches every
    # sum that constants on the r/2 Petersen 2-factors reach (each even c,
    # every c at odd k), except c = 0 at odd k with r/2 = 1 (mod k), where
    # the split on a 4-factor does; an odd c at even k or at k = 1 takes
    # the split on a perfect matching.  At odd r the split on a perfect
    # matching or a 2-factor reaches every sum a constant misses; at k = 3
    # and r = 3 (mod 6), where that is every c != 0, h = 1 alone does, so
    # a mod-3 factor serves a graph without a perfect matching, which may
    # have no 2-factor either
    for r in range(3, 21):
        for k in [1, *range(3, 31)]:
            for c in range(-12, 13) if k == 1 else range(k):
                if _constant_fits(r, k, c):
                    continue
                split = {h: any(_label_pairs(k, c, r, h, {0, 1})) for h in (1, 2, 4) if h < r}
                if k == 3 and r % 6 == 3:
                    assert split[1], (r, k, c)
                elif r % 2 == 1:
                    assert split[1] or split[2], (r, k, c)
                elif c % 2 == 1 and (k == 1 or k % 2 == 0):
                    assert split[1], (r, k, c)
                elif k % 2 == 1 and k > 1 and c == 0 and (r // 2) % k == 1:
                    assert not split[2] and split[4], (r, k, c)
                else:
                    assert split[2], (r, k, c)


def test_even_degree_sums_need_no_solver():
    # every c the 2-factor's split reaches (each even c, every c at odd k)
    # is found by the cascade without a solver step, on graphs of odd order
    # and on graphs without a perfect matching
    graphs = [
        circulant(9, (1, 2)),
        circulant(11, (1, 2, 3)),
        complete(9),
        complete(11),
        circulant(13, (1, 2, 3, 4)),
        two_hub_even(4),
        two_hub_even(6),
        two_hub_even(8),
    ]
    calls = 0
    for G in graphs:
        for k in range(3, 13):
            for c in range(k):
                if (c % 2 and k % 2 == 0) or not predict_spectrum(G, k).contains(c):
                    continue
                res = construct(G, k, c)
                assert res.status == "found", (G.n, k, c)
                assert not SOLVER_STEPS & set(res.trace.rules()), (G.n, k, c)
                assert verify(G, res.labeling) == c
                calls += 1
    assert calls == 440


def test_doubling_answers_are_one_step_on_the_graph(monkeypatch):
    # the doubling search labels G itself: no fold, one step of scope
    # "graph" whose labels are b, a and 2a - b, the labels of the weights
    # 0, 1 and 2
    assert not hasattr(importlib.import_module("kmagic.construct"), "fold")
    monkeypatch.setattr(labelings, "fold", lambda *a: pytest.fail("construct folded"))
    answered = []
    for G in (bridged_cubic_16(), two_hub_even(4)):
        for k in range(1, 13):
            for c in range(-6, 7) if k == 1 else range(k):
                res = construct(G, k, c)
                steps = [s for s in res.trace.steps if s.rule != "fallthrough"]
                if res.status != "found" or steps[0].rule != "doubling-parameter-search":
                    continue
                assert [s.scope for s in steps] == ["graph"], (G.n, k, c)
                a, b = steps[0].params["a"], steps[0].params["b"]
                values = {_norm(b, k), _norm(a, k), _norm(2 * a - b, k)}
                assert set(res.labeling.labels) <= values, (G.n, k, c)
                answered.append(len(set(res.labeling.labels)))
    # some answers have edges of all three weights
    assert 3 in answered


def test_fallthrough_steps_record_misses():
    # a 5-regular graph without a perfect matching, mod 3 zero-sum: the
    # factor split and the doubling search miss (labels vanish mod 3)
    # before the solver succeeds, and the trace says so
    res = construct(hub_quintic_16(), 3, 0)
    assert res.status == "found"
    assert res.trace.rules()[-1] == "solver"
    fall = [s for s in res.trace.steps if s.rule == "fallthrough"]
    assert [s.params["rule"] for s in fall] == ["factor-split", "doubling-parameter-search"]
    assert all(s.params["reason"] for s in fall)


# odd degree: seven graphs with a perfect matching and one without
ZERO_SUM_GRAPHS = {
    "K4": lambda: complete(4),
    "K6": lambda: complete(6),
    "K8": lambda: complete(8),
    "petersen": petersen,
    "prism3": lambda: prism(3),
    "circ10_5": lambda: circulant(10, (1, 2, 5)),
    "circ10_7": lambda: circulant(10, (1, 2, 3, 5)),
    "unmatched28": unmatched_cubic_28,
}
SOLVER_STEPS = {"spectrum-undecided", "solver", "solver-exhausted", "solver-budget-exceeded"}


@pytest.mark.parametrize("name", sorted(ZERO_SUM_GRAPHS))
def test_zero_sums_by_matching_agree_with_the_solver(name):
    G = ZERO_SUM_GRAPHS[name]()
    r = G.degrees[0]
    # the largest of these searches takes 239 nodes
    reference = search_labeling(G, 4, 0, SolverBudget(node_cap=10**6))
    assert reference.status != "undecided"
    decision, why = zero_sum_4_magic(G)
    assert decision is (reference.status == "found")
    if f_factor(G, 1) is None:
        return
    assert "perfect matching" in why
    for k in (3, 4):
        if k == 3 and r % 3 == 0:
            continue  # a constant label already sums to 0
        res = construct(G, k, 0)
        assert res.status == "found"
        assert res.trace.rules() == ["factor-split"]
        assert verify(G, res.labeling) == 0


def test_odd_degree_zero_sums_skip_the_solver():
    # a random regular graph has a perfect matching almost surely, so none
    # of these zero sums needs the solver, which this cap often runs out on
    nx = pytest.importorskip("networkx")
    budget = SolverBudget(node_cap=10**5)
    for r in (3, 5, 7, 9):
        for n in (60, 80):
            for seed in (1, 2):
                g = nx.random_regular_graph(r, n, seed=seed)
                G = build_graph(n, list(g.edges()))
                for k in (4, 3) if r in (5, 7) else (4,):
                    res = construct(G, k, 0, budget)
                    assert res.status == "found", (r, n, seed, k)
                    assert not SOLVER_STEPS & set(res.trace.rules()), (r, n, seed, k)
