"""Backtracking search driver and kernel agreement."""

import pytest

from conftest import bridged_cubic_16
from kmagic import (
    KmagicError,
    SolverBudget,
    _backtrack_py,
    available_kernels,
    build_graph,
    complete,
    cycle,
    disjoint_union,
    petersen,
    prism,
    search_labeling,
    verify,
)
from kmagic._backtrack_py import SAT, UNSAT
from kmagic.solver import assignment_order


@pytest.fixture(params=["pure-python", "compiled"])
def kernel(request):
    if request.param == "pure-python":
        return _backtrack_py
    return request.getfixturevalue("compiled_kernel")


def whole_graph_search(G, k, c, impl):
    """(status, labels, nodes) of one uncapped kernel run over all of G
    in assignment order, with none of the driver's shortcuts."""
    order = assignment_order(G)
    us = [G.edges[eid].u for eid in order]
    vs = [G.edges[eid].v for eid in order]
    status, labels, nodes = impl.search(G.n, k, c, us, vs, -1)
    name = {SAT: "found", UNSAT: "absent"}.get(status, "undecided")
    return name, dict(zip(order, labels)) if status == SAT else None, nodes


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


def test_a_modulus_past_the_c_int_range_runs_on_the_pure_twin():
    # the compiled kernel parses k as a C int; every kernel asked for
    # answers as the pure twin does
    k = 2**31 + 1
    results = {
        name: search_labeling(complete(4), k, 3, kernel=impl)
        for name, impl in available_kernels().items()
    }
    pure = results["pure-python"]
    assert (pure.status, pure.nodes) == ("found", 6)
    assert verify(complete(4), pure.labeling) == 3
    for res in results.values():
        assert (res.status, res.nodes, res.labeling) == (pure.status, pure.nodes, pure.labeling)


@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
def test_kernels_reject_bad_input_alike(twin, request):
    impl = _backtrack_py if twin == "pure-python" else request.getfixturevalue("compiled_kernel")
    for k in (0, 1):
        with pytest.raises(ValueError, match="k >= 2"):
            impl.search(3, k, 0, [0, 1, 2], [1, 2, 0], -1)
    for us, vs in [([0, 1], [1, 3]), ([0, -1], [1, 2]), ([0, 1], [1])]:
        with pytest.raises(ValueError):
            impl.search(3, 5, 0, us, vs, -1)


def test_parity_settles_at_zero_nodes(kernel):
    # the vertex sums add up to twice the label sum: n*c must be even
    for G, k, c in [(complete(7), 4, 1), (complete(7), 4, 3), (cycle(9), 8, 1)]:
        res = search_labeling(G, k, c, kernel=kernel)
        assert (res.status, res.nodes) == ("absent", 0)
    assert whole_graph_search(cycle(9), 8, 1, kernel)[0] == "absent"
    # odd k, or an even n*c, never short-circuits
    for G, k, c in [(complete(7), 5, 1), (complete(7), 4, 2), (cycle(9), 9, 0), (complete(6), 4, 1)]:
        res = search_labeling(G, k, c, kernel=kernel)
        status, labels, nodes = whole_graph_search(G, k, c, kernel)
        assert res.nodes == nodes > 0
        assert res.status == status


@pytest.mark.parametrize(
    "parts, moduli",
    [
        ((petersen(), complete(4)), (3, 4, 5)),
        ((bridged_cubic_16(), prism(4)), (3, 4)),
        ((complete(5), complete(5)), (3, 4, 5)),
    ],
    ids=["petersen+K4", "bridged16+cube", "K5+K5"],
)
def test_components_answer_as_the_whole_graph_search(kernel, parts, moduli):
    G = disjoint_union(list(parts))
    for k in moduli:
        for c in range(k):
            res = search_labeling(G, k, c, kernel=kernel)
            status, labels, nodes = whole_graph_search(G, k, c, kernel)
            assert res.status == status, (k, c)
            assert (res.labeling and res.labeling.labels) == labels, (k, c)
            assert res.nodes <= nodes, (k, c)
            if status == "found":  # node counts add up to the joint search's
                assert res.nodes == nodes, (k, c)


def test_components_skip_backtracking_across_components(kernel):
    # Petersen has zero-sum labelings mod 4, bridged16 none; searched
    # jointly, bridged16 fails again under every Petersen labeling
    G = disjoint_union([petersen(), bridged_cubic_16()])
    res = search_labeling(G, 4, 0, kernel=kernel)
    status, _, nodes = whole_graph_search(G, 4, 0, kernel)
    assert res.status == status == "absent"
    assert res.nodes < nodes


def test_components_budget_applies_to_each(kernel):
    # each K5 needs 50 nodes at k = 5, c = 1; the union's 100 fit a cap
    # of 60 because the cap holds per component
    G = disjoint_union([complete(5), complete(5)])
    budget = SolverBudget(exhaustive_states=1, node_cap=60)
    res = search_labeling(G, 5, 1, budget, kernel=kernel)
    assert (res.status, res.nodes) == ("found", 100)
    assert verify(G, res.labeling) == 1
