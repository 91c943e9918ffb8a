"""Backtracking search driver and kernel agreement."""

import pytest

from kmagic import (
    KmagicError,
    SolverBudget,
    _backtrack_py,
    available_kernels,
    build_graph,
    complete,
    cycle,
    petersen,
    search_labeling,
    verify,
)
from kmagic.solver import assignment_order


def test_assignment_order_is_a_permutation():
    G = petersen()
    order = assignment_order(G)
    assert sorted(order) == list(range(G.m))


def test_found_labelings_verify():
    for G, k, c in [(cycle(5), 5, 4), (complete(4), 5, 3), (petersen(), 5, 0)]:
        res = search_labeling(G, k, c)
        assert res.status == "found"
        assert verify(G, res.labeling) == c


def test_absent_is_definitive_on_small_instances():
    # odd order, even k forces even sums
    res = search_labeling(cycle(5), 4, 1)
    assert res.status == "absent"
    # C3 mod 3: label x on all edges is forced, sum 2x != 0
    res = search_labeling(cycle(3), 3, 0)
    assert res.status == "absent"


def test_deterministic():
    a = search_labeling(complete(5), 6, 2)
    b = search_labeling(complete(5), 6, 2)
    assert a == b


def test_budget_undecided_on_tiny_cap():
    G = complete(6)
    tight = SolverBudget(exhaustive_states=1, node_cap=3)
    res = search_labeling(G, 7, 1, tight)
    assert res.status == "undecided"
    assert res.nodes <= 4  # cap detection counts the node it stops on


def test_budget_uncapped_below_threshold():
    # (k-1)^m = 2^10 under the default exhaustive threshold: cap = -1
    assert SolverBudget().cap_for(3, 10) == -1
    assert SolverBudget(exhaustive_states=10).cap_for(3, 10) == 10**8


def test_k_below_2_rejected():
    with pytest.raises(KmagicError):
        search_labeling(cycle(3), 1, 0)


def test_isolated_vertex_handling():
    G = build_graph(3, [(0, 1)])  # vertex 2 isolated
    assert search_labeling(G, 5, 1).status == "absent"
    empty = build_graph(2, [])
    res = search_labeling(empty, 5, 0)
    assert res.status == "found"
    assert res.labeling.labels == {}


def test_kernels_agree_everywhere(compiled_kernel):
    assert "pure-python" in available_kernels()
    kernels = {"pure-python": _backtrack_py, "compiled": compiled_kernel}
    cases = [
        (cycle(4), 5, None),
        (cycle(5), 4, None),
        (complete(4), 4, None),
        (complete(4), 5, None),
        (complete(5), 3, None),
        (petersen(), 3, None),
        # capped: the twins must also stop on the same node
        (complete(6), 7, SolverBudget(exhaustive_states=1, node_cap=3)),
        # a cap past 64 bits is never reached
        (cycle(5), 4, SolverBudget(exhaustive_states=1, node_cap=2**64)),
    ]
    for G, k, budget in cases:
        for c in range(k):
            results = {}
            for name, impl in kernels.items():
                res = search_labeling(G, k, c, budget, kernel=impl)
                results[name] = res
            statuses = {r.status for r in results.values()}
            assert len(statuses) == 1, f"{k=} {c=}: {results}"
            nodes = {r.nodes for r in results.values()}
            assert len(nodes) == 1  # identical search trees
            labs = {
                tuple(sorted(r.labeling.labels.items()))
                for r in results.values()
                if r.labeling is not None
            }
            assert len(labs) <= 1  # same first labeling


@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
def test_kernels_reject_bad_input_alike(twin, request):
    impl = _backtrack_py if twin == "pure-python" else request.getfixturevalue("compiled_kernel")
    for k in (0, 1):
        with pytest.raises(ValueError, match="k >= 2"):
            impl.search(3, k, 0, [0, 1, 2], [1, 2, 0], -1)
    for us, vs in [([0, 1], [1, 3]), ([0, -1], [1, 2]), ([0, 1], [1])]:
        with pytest.raises(ValueError):
            impl.search(3, 5, 0, us, vs, -1)
