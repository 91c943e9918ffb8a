"""Rule-driven construction: dispatch, statuses, traces, replay."""

import pytest

from kmagic import (
    KmagicError,
    LabelingError,
    RegularityError,
    SolverBudget,
    build_graph,
    complete,
    construct,
    cycle,
    disjoint_union,
    petersen,
    prism,
    replay_trace,
    verify,
    zero_sum_five_regular,
)
from conftest import hub10

TINY = SolverBudget(exhaustive_states=1, node_cap=2)


def test_found_examples():
    res = construct(cycle(4), 5, 3)
    assert res.status == "found"
    assert verify(cycle(4), res.labeling) == 3
    res = construct(complete(6), 7, 0)
    assert res.status == "found"
    assert verify(complete(6), res.labeling) == 0
    assert "five-regular-doubling" in res.trace.rules()
    assert "fold" in res.trace.rules()


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
    assert set(res.labeling.labels.values()) == {1}


def test_gcd_fold_boundary_and_its_complement():
    # k = 3b with b = k / gcd(r, k) = 5: the boundary folds to the sum b,
    # its complement gives 2b, and no constant label reaches either
    G = petersen()
    res = construct(G, 15, 5)
    assert res.trace.rules() == ["odd-regular-gcd-fold", "fold"]
    assert res.trace.steps[0].params["boundary"] == "k=3b"
    assert verify(G, res.labeling) == 5
    res = construct(G, 15, 10)
    assert res.trace.rules() == ["odd-regular-gcd-fold", "fold", "complement"]
    assert res.trace.steps[-1].params == {"source_sum": 5}
    assert verify(G, res.labeling) == 10


def test_trace_replay_matches_labeling():
    for G, k, c in [
        (cycle(6), 7, 3),
        (complete(6), 7, 0),
        (complete(4), 5, 1),
        (petersen(), 6, 4),
    ]:
        res = construct(G, k, c)
        assert res.status == "found", (k, c)
        assert replay_trace(res.trace) == res.labeling.labels


def test_zero_sum_five_regular_both_cases():
    K6 = complete(6)
    for k in (5, 6, 7, 9):
        lab, trace = zero_sum_five_regular(K6, k)
        assert verify(K6, lab) == 0
        step = next(s for s in trace.steps if s.rule == "five-regular-doubling")
        assert step.params["case"] == 1
        assert step.params["factor_label"] == k - 4
    lab, trace = zero_sum_five_regular(K6, 8)
    assert verify(K6, lab) == 0
    step = next(s for s in trace.steps if s.rule == "five-regular-doubling")
    assert step.params["case"] == 2
    assert set(lab.labels.values()) <= {2, 3, 4}


def test_zero_sum_five_regular_guard_rails():
    with pytest.raises(LabelingError):
        zero_sum_five_regular(complete(6), 4)
    with pytest.raises(RegularityError):
        zero_sum_five_regular(petersen(), 5)


def test_k6_zero_sum_small_modulus_falls_to_solver():
    res = construct(complete(6), 3, 0)
    assert res.status == "found"
    assert "solver" in res.trace.rules()
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
    res = construct(petersen(), 4, 0, TINY)
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


def test_mod3_factor_rule_decides_a_union_per_component():
    # each hub10 decides under the cap on its own (427,422 nodes); the
    # union's search takes its components one at a time, so the mod-3
    # rule answers both nonzero sums without falling through
    G = disjoint_union([hub10(), hub10()])
    budget = SolverBudget(node_cap=5 * 10**5)
    for c in (1, 2):
        res = construct(G, 3, c, budget)
        assert res.status == "found"
        assert verify(G, res.labeling) == c
        assert res.trace.rules()[-1] == "mod3-factor"
        assert "fallthrough" not in res.trace.rules()


def test_fallthrough_steps_record_misses():
    # K6 mod 3 zero-sum: the doubling search misses (labels vanish mod 3)
    # before the solver succeeds, and the trace says so
    res = construct(complete(6), 3, 0)
    fall = [s for s in res.trace.steps if s.rule == "fallthrough"]
    assert fall, res.trace.rules()
    assert all(s.params["reason"] for s in fall)
