"""Backtracking search driver and kernel agreement."""

import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assignment_order, bridged_cubic_16, hub_quintic_16
from kmagic import (
    EdgeLabeling,
    KmagicError,
    SolverBudget,
    _backtrack_py,
    available_kernels,
    brute_force_spectrum,
    build_graph,
    circulant,
    complete,
    components,
    cycle,
    disjoint_union,
    f_factor,
    petersen,
    prism,
    search_labeling,
    subgraph,
    two_factorization,
    verify,
)
from kmagic import _twin, graphs
from kmagic._backtrack_py import SAT, UNDECIDED, UNSAT
from kmagic.graphs import component_graphs, find_bridges


@pytest.fixture(params=["pure-python", "compiled"])
def kernel(request):
    if request.param == "pure-python":
        return _backtrack_py
    return request.getfixturevalue("compiled_kernel")


def whole_graph_search(G, k, c, impl):
    """(status, labels by edge id, nodes) of one uncapped kernel run over
    all of G in assignment order, with none of the driver's shortcuts."""
    order = assignment_order(G)
    us = [G.us[eid] for eid in order]
    vs = [G.vs[eid] for eid in order]
    status, labels, nodes = impl.search(G.n, k, c, us, vs, -1)
    name = {SAT: "found", UNSAT: "absent"}.get(status, "undecided")
    if status != SAT:
        return name, None, nodes
    by_id = [0] * G.m
    for eid, x in zip(order, labels):
        by_id[eid] = x
    return name, tuple(by_id), nodes


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
    tight = SolverBudget(node_cap=3)
    res = search_labeling(G, 7, 1, tight)
    assert res.status == "undecided"
    assert res.nodes <= 4  # cap detection counts the node it stops on


def test_budget_node_cap_is_a_positive_int():
    # a negative cap would run unbounded, a fractional one differs
    # between the twins
    for cap in (-1, 0, 2.5, True, "3"):
        with pytest.raises(KmagicError):
            SolverBudget(node_cap=cap)
    assert SolverBudget().node_cap == 10**8
    assert SolverBudget(node_cap=2**64).node_cap == 2**64


def test_k_below_2_rejected():
    with pytest.raises(KmagicError):
        search_labeling(cycle(3), 1, 0)


def test_isolated_vertex_handling():
    G = build_graph(3, [(0, 1)])  # vertex 2 isolated
    assert search_labeling(G, 5, 1).status == "absent"
    empty = build_graph(2, [])
    res = search_labeling(empty, 5, 0)
    assert res.status == "found"
    assert res.labeling.labels == ()


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
        (complete(6), 7, SolverBudget(node_cap=3)),
        # a cap past 64 bits is never reached
        (cycle(5), 4, SolverBudget(node_cap=2**64)),
        # split at bridges: piece searches with per-vertex targets and
        # child bridges limited to their feasible labels
        (bridged_cubic_16(), 5, None),
        (hub_quintic_16(), 4, None),
        # a split capped inside its pool
        (bridged_cubic_16(), 6, SolverBudget(node_cap=40)),
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
                r.labeling.labels
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


def test_search_verify_and_split_all_run_on_the_selected_twin(monkeypatch):
    calls = []

    def spy(name):
        def call(*args):
            calls.append(name)
            return getattr(_backtrack_py, name)(*args)

        return call

    names = ("vertex_profile", "split_search", "magic_sum", "petersen_split", "maximum_matching")
    monkeypatch.setattr(_twin, "module", SimpleNamespace(**{name: spy(name) for name in names}))
    G = complete(5)
    res = search_labeling(G, 3, 1)
    assert res.status == "found"
    assert verify(G, res.labeling) == 1
    assert len(two_factorization(G).parts) == 2
    # the bridges come from the pure planner, whatever twin is selected
    assert find_bridges(G) == frozenset()
    assert len(f_factor(circulant(8, (1, 2)), 1)) == 4  # the new graph's degrees first
    # the search settles by the twin's own counts, so G's profile is first
    # read by the 2-factor split's regularity test
    assert calls == [
        "split_search", "magic_sum", "vertex_profile", "petersen_split", "vertex_profile", "maximum_matching"
    ]


def test_the_compiled_module_holds_exactly_the_six_twins(compiled_kernel):
    twins = {"search", "magic_sum", "petersen_split", "split_search", "vertex_profile", "maximum_matching"}
    public = {name for name in dir(compiled_kernel) if not name.startswith("_")}
    assert {name for name in public if callable(getattr(compiled_kernel, name))} == twins
    assert all(callable(getattr(_backtrack_py, name)) for name in twins)


@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
def test_kernels_reject_bad_input_alike(twin, request):
    impl = _backtrack_py if twin == "pure-python" else request.getfixturevalue("compiled_kernel")
    for k in (0, 1):
        with pytest.raises(ValueError, match="k >= 2"):
            impl.search(3, k, 0, [0, 1, 2], [1, 2, 0], -1)
    for us, vs in [([0, 1], [1, 3]), ([0, -1], [1, 2]), ([0, 1], [1])]:
        with pytest.raises(ValueError):
            impl.search(3, 5, 0, us, vs, -1)
    # the scalars n, k, c and node_cap are ints, read before any other check
    for bad, name in [(2.5, "float"), ("3", "str"), (None, "NoneType")]:
        message = f"^'{name}' object cannot be interpreted as an integer$"
        for i in (0, 1, 2, 5):
            args = [3, 5, 1, [0, 1, 2], [1, 2, 0], -1]
            args[i] = bad
            with pytest.raises(TypeError, match=message):
                impl.search(*args)
            with pytest.raises(TypeError, match=message):
                impl.split_search(*args)
        for i in (0, 4):
            args = [3, [0, 1, 2], [1, 2, 0], {0: 1, 1: 1, 2: 1}, 5]
            args[i] = bad
            with pytest.raises(TypeError, match=message):
                impl.magic_sum(*args)
    for fn in (impl.search, impl.split_search):
        with pytest.raises(TypeError, match="^'float' object"):
            fn(3, 1, 0, [0, 1, 2], [1, 2, 0], 2.5)
    if twin == "pure-python":
        # bridge_tree, the planner of the pure split search, has no twin
        with pytest.raises(ValueError, match="differ in length"):
            impl.bridge_tree(3, [0, 1], [1])
        for n in (0, -1):
            with pytest.raises(ValueError, match="n >= 1"):
                impl.bridge_tree(n, [], [])
        for us, vs in [([0, 1], [1, 3]), ([0, -1], [1, 2])]:
            with pytest.raises(ValueError, match="endpoint"):
                impl.bridge_tree(3, us, vs)
        for n, us, vs in [(2, [], []), (4, [0, 2], [1, 3]), (4, [0, 0, 2], [1, 1, 3])]:
            with pytest.raises(ValueError, match="not connected"):
                impl.bridge_tree(n, us, vs)
        us, vs = [0, 1, 2, 2], [1, 2, 0, 3]
        assert impl.bridge_tree(4, iter(us), (v for v in vs)) == impl.bridge_tree(4, us, vs)
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            impl.bridge_tree(4, [0, 1.0, 2, 2], vs)
    with pytest.raises(ValueError, match="n >= 0"):
        impl.search(-2, 5, 0, [], [], 10)
    # a loop's vertex would never have a last edge, so no sum of it is checked
    with pytest.raises(ValueError, match="^edge 0 is a loop$"):
        impl.search(1, 5, 1, [0], [0], -1)
    with pytest.raises(ValueError, match="^edge 1 is a loop$"):
        impl.search(2, 5, 1, [0, 1], [1, 1], -1)
    # the graph's ends may come from one-shot iterators; a float end is no int
    us, vs = [0, 1, 2, 2], [1, 2, 0, 3]
    assert impl.search(4, 5, 1, iter(us), (v for v in vs), -1) == impl.search(4, 5, 1, us, vs, -1)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        impl.search(4, 5, 1, us, [1, 2, 0, 3.0], -1)
    # the split search: its own rules on k and n, then the reader's, then
    # loops; a graph of several components is no fault
    for k in (0, 1):
        with pytest.raises(ValueError, match="k >= 2"):
            impl.split_search(0, k, 0, [0, 1, 2], [1, 2, 0], -1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            impl.split_search(n, 5, 0, [], [], -1)
    assert impl.split_search(2, 5, 0, [], [], -1) == (SAT, [], 0)
    assert impl.split_search(4, 5, 1, [0, 0, 2], [1, 1, 3], -1) == (SAT, [2, 4, 1], 3)
    assert impl.split_search(4, 5, 0, [0, 0, 2], [1, 1, 3], -1) == (UNSAT, None, 2)
    for us2, vs2 in [([0, 1], [1, 3]), ([0, -1], [1, 2])]:
        with pytest.raises(ValueError, match="endpoint"):
            impl.split_search(3, 5, 0, us2, vs2, -1)
    with pytest.raises(ValueError, match="differ in length"):
        impl.split_search(3, 5, 0, [0, 1], [1], -1)
    with pytest.raises(ValueError, match="^edge 1 is a loop$"):
        impl.split_search(3, 5, 0, [0, 1, 1], [1, 1, 2], -1)
    assert impl.split_search(4, 5, 1, iter(us), (v for v in vs), -1) == impl.split_search(4, 5, 1, us, vs, -1)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        impl.split_search(4, 5, 1, us, [1, 2, 0, 3.0], -1)
    # the maximum matching: the reader's rules, then loops
    with pytest.raises(ValueError, match="n >= 0"):
        impl.maximum_matching(-1, [], [])
    for us2, vs2 in [([0, 1], [1, 3]), ([0, -1], [1, 2])]:
        with pytest.raises(ValueError, match="endpoint"):
            impl.maximum_matching(3, us2, vs2)
    with pytest.raises(ValueError, match="differ in length"):
        impl.maximum_matching(3, [0, 1], [1])
    with pytest.raises(ValueError, match="^edge 1 is a loop$"):
        impl.maximum_matching(3, [0, 2, 1], [1, 2, 2])
    assert impl.maximum_matching(4, iter(us), (v for v in vs)) == impl.maximum_matching(4, us, vs) == (0, 0, 3, 3)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        impl.maximum_matching(4, us, [1, 2, 0, 3.0])


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
    # bridgeless components are searched as the whole graph is; one with
    # bridges is split at them in its own order, so there only the answer
    # and a labeling that verifies carry over
    G = disjoint_union(list(parts))
    bridgeless = not find_bridges(G)
    for k in moduli:
        for c in range(k):
            res = search_labeling(G, k, c, kernel=kernel)
            status, labels, nodes = whole_graph_search(G, k, c, kernel)
            assert res.status == status, (k, c)
            if status == "found":
                assert verify(G, res.labeling) == c, (k, c)
            if not bridgeless:
                continue
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
    budget = SolverBudget(node_cap=60)
    res = search_labeling(G, 5, 1, budget, kernel=kernel)
    assert (res.status, res.nodes) == ("found", 100)
    assert verify(G, res.labeling) == 1


@pytest.mark.parametrize(
    "G, k, c, status",
    [(bridged_cubic_16(), 6, 0, "found"), (hub_quintic_16(), 4, 0, "absent")],
    ids=["bridged16", "hub_quintic_16"],
)
def test_split_decides_what_the_whole_search_leaves_to_its_cap(kernel, G, k, c, status):
    # bridged16 at k = 6, c = 0 takes the whole-graph search 4.0M nodes;
    # in a zero sum mod 4 on hub_quintic_16 every bridge at the hub can
    # only take label 2, and five 2s sum to 2
    budget = SolverBudget(node_cap=10**5)
    res = search_labeling(G, k, c, budget, kernel=kernel)
    assert res.status == status
    assert res.nodes < 10**4
    if status == "found":
        assert verify(G, res.labeling) == c
    order = assignment_order(G)
    us = [G.us[eid] for eid in order]
    vs = [G.vs[eid] for eid in order]
    assert kernel.search(G.n, k, c, us, vs, 10**5)[0] == UNDECIDED


def test_split_searches_alike_pieces_once_and_skips_what_parity_excludes(kernel):
    # the five triangles of hub_quintic_16 are alike leaf pieces of three
    # vertices under an edgeless hub: one search per parent label serves all
    # five, and at even k only labels of the parity of 3c are searched, so
    # the split takes the nodes of those direct searches of one triangle
    G = hub_quintic_16()
    hub, triangle, *others = _backtrack_py.bridge_tree(G.n, G.us, G.vs)
    size, entry, _, us, vs, children, edgeless = triangle
    assert hub[6] and (size, children, edgeless) == (3, (), False)
    assert all(piece[:2] + piece[3:] == triangle[:2] + triangle[3:] for piece in others)
    assert len(others) == 4
    for k, c, status, searches in [
        (4, 0, "absent", 1),
        (4, 1, "found", 2),
        (4, 2, "found", 1),
        (4, 3, "found", 2),
        (5, 0, "found", 4),
    ]:
        labels = [x for x in range(1, k) if k % 2 or (x - size * c) % 2 == 0]
        assert len(labels) == searches
        targets = [c] * size
        nodes = 0
        for x in labels:
            targets[entry] = (c - x) % k
            nodes += _backtrack_py._kernel(us, vs, k, targets, [None] * len(us), -1)[2]
        res = search_labeling(G, k, c, kernel=kernel)
        assert (res.status, res.nodes) == (status, nodes)
        if status == "found":
            assert verify(G, res.labeling) == c


def test_split_under_a_huge_modulus_runs_out_of_budget(kernel):
    # k - 1 searches per piece would not end; the pool of the component's
    # cap, one node per search at least, ends them
    budget = SolverBudget(node_cap=10**4)
    t0 = time.perf_counter()
    res = search_labeling(bridged_cubic_16(), 10**6, 1, budget, kernel=kernel)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "undecided"
    assert res.nodes <= 10**4 + 1


@st.composite
def block_trees(draw):
    """Blocks joined by bridges into a tree, once or twice side by side.
    A block is a single vertex (a hub when bridges meet there), a doubled
    edge, or a cycle on 3 or 4 vertices, plus up to one more edge inside
    it, a parallel one among them."""
    pairs: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, 2))):
        blocks: list[list[int]] = []
        for _ in range(draw(st.integers(2, 4))):
            size = draw(st.integers(1, 4))
            block = list(range(n, n + size))
            n += size
            if size == 2:
                pairs += [(block[0], block[1])] * 2
            elif size > 2:
                pairs += [(block[i], block[(i + 1) % size]) for i in range(size)]
            if size > 1 and draw(st.booleans()):
                u, v = draw(st.lists(st.sampled_from(block), min_size=2, max_size=2, unique=True))
                pairs.append((u, v))
            if blocks:
                pairs.append((draw(st.sampled_from(draw(st.sampled_from(blocks)))), draw(st.sampled_from(block))))
            blocks.append(block)
    return build_graph(n, pairs)


@st.composite
def cubic_block_trees(draw):
    """Cubic multigraphs that are trees of 2 to 5 blocks: a leaf block is
    a triangle with one doubled side, a block with two bridges a doubled
    edge, one with three a single vertex.  Most sums exist on them, where
    few do on block_trees."""
    parent, degree = [-1], [0]
    for i in range(1, draw(st.integers(2, 5))):
        p = draw(st.sampled_from([j for j in range(i) if degree[j] < 3]))
        parent.append(p)
        degree.append(1)
        degree[p] += 1
    return cubic_block_tree(parent)


def cubic_block_tree(parent):
    """The cubic block tree of cubic_block_trees whose block i hangs from
    block parent[i], block 0 the root, each block at most three bridges."""
    degree = [sum(p == i for p in parent) + (p >= 0) for i, p in enumerate(parent)]
    pairs: list[tuple[int, int]] = []
    ends: list[list[int]] = []  # per block: its vertices that still lack a bridge
    n = 0
    for d in degree:
        if d == 1:
            pairs += [(n, n + 1), (n, n + 2), (n + 1, n + 2), (n + 1, n + 2)]
            ends.append([n])
            n += 3
        elif d == 2:
            pairs += [(n, n + 1)] * 2
            ends.append([n, n + 1])
            n += 2
        else:
            ends.append([n] * 3)
            n += 1
    pairs += [(ends[p].pop(), ends[i].pop()) for i, p in enumerate(parent) if p >= 0]
    return build_graph(n, pairs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(block_trees(), cubic_block_trees()), st.integers(2, 6))
def test_split_agrees_with_the_whole_graph_search(compiled_kernel, G, k):
    assert find_bridges(G)
    for c in range(k):
        results = []
        for impl in (_backtrack_py, compiled_kernel):
            res = search_labeling(G, k, c, kernel=impl)
            assert res.status == whole_graph_search(G, k, c, impl)[0], c
            if res.status == "found":
                assert verify(G, res.labeling) == c
            results.append(res)
        assert results[0] == results[1], c  # the twins split alike


@st.composite
def connected_multigraphs(draw):
    """Connected multigraphs on 1 to 9 vertices: a random spanning tree,
    whose edges stay bridges unless a cycle closes over them, up to 8
    more edges and up to 3 parallel copies, with vertices, edge order and
    edge ends shuffled."""
    n = draw(st.integers(1, 9))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        vertex = st.integers(0, n - 1)
        pairs += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=8))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    name = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(name[v], name[u]) if flip else (name[u], name[v]) for (u, v), flip in zip(pairs, flips)]
    return build_graph(n, draw(st.permutations(pairs)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_multigraphs())
def test_bridge_tree_finds_every_bridge(G):
    plan = _backtrack_py.bridge_tree(G.n, G.us, G.vs)
    assert sorted(eid for piece in plan for eid in piece[2]) == list(range(G.m))
    child_bridges = {piece[2][pos] for piece in plan for pos, _ in piece[5]}
    cut = {e for e in range(G.m) if len(components(subgraph(G, set(range(G.m)) - {e})[0])) > 1}
    assert child_bridges == cut == find_bridges(G)
    if not cut:
        [(n, entry, order, us, vs, children, edgeless)] = plan
        assert (n, entry, children, edgeless) == (G.n, 0, (), G.n == 1)
        assert list(order) == assignment_order(G)
        assert [{u, v} for u, v in zip(us, vs)] == [set(G.endpoints(eid)) for eid in order]


# A hub 0 with two bridges: to a chain of two doubled edges 1=2=3, and to
# a doubled edge 4=5 whose far end has two pendant vertices.  The second
# piece's stub, its local vertex 2, stands where the chain's last real
# vertex stands, so the two pieces have the same local edges and differ
# only in their number of child bridges.
CHAIN_BESIDE_FORK = [(0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (0, 4), (4, 5), (4, 5), (5, 6), (5, 7)]
# The same with a diamond (K4 less an edge) 1..4 beside a triangle 5, 6, 7
# whose two far corners each carry a pendant vertex.
DIAMOND_BESIDE_FORK = [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (0, 5), (5, 6), (5, 7), (6, 7), (6, 8), (7, 9)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(block_trees(), cubic_block_trees(), connected_multigraphs()), st.integers(2, 6))
@example(cubic_block_tree([-1, 0, 0, 0, 1, 2, 5, 5]), 5)
@example(cubic_block_tree([-1, 0, 0, 0, 1, 2, 5, 5]), 7)
@example(build_graph(8, CHAIN_BESIDE_FORK), 3)
@example(build_graph(8, CHAIN_BESIDE_FORK), 4)
@example(build_graph(10, DIAMOND_BESIDE_FORK), 3)
@example(build_graph(10, DIAMOND_BESIDE_FORK), 4)
def test_split_search_twins_agree(compiled_kernel, G, k):
    # the unbounded caps are run only where a bounded compiled search
    # decides, so the pure twin's share stays small; the caps 1 and 40 stop
    # inside the split's pool.  In the cubic examples, two alike doubled
    # edges hang from a hub, one above a triangle and one above a hub of
    # two triangles, so their child bridges are limited to different
    # labels; in the other four, a childless piece and a piece with two
    # child bridges have the same local edges (see CHAIN_BESIDE_FORK)
    for C, _ in component_graphs(G):
        for c in range(k):
            decided = compiled_kernel.split_search(C.n, k, c, C.us, C.vs, 10**4)[0] != UNDECIDED
            for cap in (-1, 1, 40, 2**64):
                if cap in (-1, 2**64) and not decided:
                    continue
                pure = _backtrack_py.split_search(C.n, k, c, C.us, C.vs, cap)
                assert compiled_kernel.split_search(C.n, k, c, C.us, C.vs, cap) == pure, (c, cap)
                status, labels, nodes = pure
                if status == SAT:
                    assert verify(C, EdgeLabeling(k, tuple(labels))) == c
                if cap > 0:
                    assert nodes <= cap + 1


def settled(G, k, c):
    """The answer at 0 nodes where counting gives it, as the solver found
    it before the twins split components: (status, labels, nodes) or None."""
    if k % 2 == 0 and G.n * c % 2 == 1:
        return UNSAT, None, 0
    if 0 in G.degrees:
        if c != 0:
            return UNSAT, None, 0
        if G.m == 0:
            return SAT, [], 0
    return None


def composed_split_search(impl, G, k, c, cap):
    """The reference for split_search over a whole graph: the settles of
    G, then per component, in order of smallest vertex, its settles or one
    split_search call of impl on the component graph, stopping at the
    first absent one; labels merged by G's edge ids, node counts added."""
    c %= k
    answer = settled(G, k, c)
    if answer is not None:
        return answer
    labels = [0] * G.m
    nodes = 0
    undecided = False
    for C, edge_ids in component_graphs(G):
        status, part, used = settled(C, k, c) or impl.split_search(C.n, k, c, C.us, C.vs, cap)
        nodes += used
        if status == UNSAT:
            return UNSAT, None, nodes
        if status == UNDECIDED:
            undecided = True  # a later component may still be absent
        else:
            for eid, label in zip(edge_ids, part):
                labels[eid] = label
    if undecided:
        return UNDECIDED, None, nodes
    return SAT, labels, nodes


# K6 is capped at 3 nodes at k = 7, c = 1; the path on three vertices
# after it has no 1-sum labeling, since its leaves force both edges to 1
CAPPED_THEN_ABSENT = disjoint_union([complete(6), build_graph(3, [(0, 1), (1, 2)])])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(block_trees(), cubic_block_trees(), connected_multigraphs()),
             min_size=1, max_size=3).map(disjoint_union),
    st.integers(2, 6),
)
@example(disjoint_union([complete(4), build_graph(1, [])]), 3)
@example(disjoint_union([build_graph(1, []), cycle(3), build_graph(1, [])]), 2)
@example(disjoint_union([cycle(3), cycle(3)]), 4)
@example(CAPPED_THEN_ABSENT, 7)
def test_whole_graph_split_search_composes_its_components(compiled_kernel, G, k):
    # the caps apply per component; an unbounded search is run only where
    # every component is decided at a bounded one
    decided = all(
        compiled_kernel.split_search(C.n, k, c, C.us, C.vs, 10**4)[0] != UNDECIDED
        for C, _ in component_graphs(G)
        for c in range(k)
    )
    for c in range(k):
        for cap in (-1, 1, 40):
            if cap < 0 and not decided:
                continue
            answers = []
            for impl in (_backtrack_py, compiled_kernel):
                whole = impl.split_search(G.n, k, c, G.us, G.vs, cap)
                assert whole == composed_split_search(impl, G, k, c, cap), (c, cap)
                answers.append(whole)
            assert answers[0] == answers[1], (c, cap)


def test_split_search_settles_by_counting_and_walks_past_a_capped_component(kernel):
    lone = disjoint_union([complete(4), build_graph(1, [])])
    assert kernel.split_search(lone.n, 3, 0, lone.us, lone.vs, -1)[0] == SAT
    for c in (1, 2):  # the isolated vertex sums to 0
        assert kernel.split_search(lone.n, 3, c, lone.us, lone.vs, -1) == (UNSAT, None, 0)
    # an even order, but each triangle has an odd one: 3 * 1 is odd at k = 4
    G = disjoint_union([cycle(3), cycle(3)])
    assert kernel.split_search(G.n, 4, 1, G.us, G.vs, -1) == (UNSAT, None, 0)
    # a capped component does not end the search: the absent one after it does
    G = CAPPED_THEN_ABSENT
    capped = kernel.split_search(6, 7, 1, complete(6).us, complete(6).vs, 3)
    assert capped[0] == UNDECIDED
    absent = kernel.split_search(3, 7, 1, [0, 1], [1, 2], 3)
    assert absent[0] == UNSAT
    assert kernel.split_search(G.n, 7, 1, G.us, G.vs, 3) == (UNSAT, None, capped[2] + absent[2])


def test_a_search_is_one_twin_call_and_the_oracle_builds_no_component_graphs(monkeypatch):
    twin = _twin.module
    calls = []

    def spy(name):
        def call(*args):
            calls.append(name)
            return getattr(twin, name)(*args)

        return call

    monkeypatch.setattr(_twin, "module", SimpleNamespace(split_search=spy("split_search"),
                                                         vertex_profile=spy("vertex_profile")))
    built = []
    build = graphs._component
    monkeypatch.setattr(graphs, "_component", lambda G, i: built.append((G, i)) or build(G, i))
    G = disjoint_union([complete(4), petersen(), complete(4)])
    res = search_labeling(G, 5, 1)
    assert res.status == "found"
    assert calls == ["split_search"]
    calls.clear()
    brute_force_spectrum(disjoint_union([complete(4), prism(3), complete(4)]), 4)
    # the degrees first, then one search per class of gcd(c, 4)
    assert calls == ["vertex_profile"] + ["split_search"] * 3
    assert built == []
