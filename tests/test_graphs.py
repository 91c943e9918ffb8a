"""Graph construction, serialization, and structural queries."""

import pytest
from hypothesis import given, settings, strategies as st

from kmagic import (
    GraphError,
    build_graph,
    circulant,
    complete,
    complete_bipartite,
    components,
    construct,
    cycle,
    disjoint_union,
    generate,
    null_set,
    parse_graph,
    petersen,
    predict_spectrum,
    prism,
    random_regular,
    regularity,
    subgraph,
    write_graph,
)
from kmagic import _backtrack_py, graphs
from kmagic.graphs import EdgeRecord, component_graph, component_graphs, find_bridges


def test_build_graph_rejects_loops_and_bad_indices():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_build_graph_reads_ends_as_plain_ints():
    # a float end is no vertex: it used to pass here and fail later in a
    # list index, deep inside construct and predict_spectrum
    for pairs in ([(0.0, 1), (1, 2), (2, 3), (3, 0)], [(0, 1), (1, "2")], [(0, 1), (1, None)]):
        with pytest.raises(GraphError, match="integers"):
            build_graph(4, pairs)
    G = build_graph(3, [(True, 2), (False, True)])  # ends are read as operator.index reads them
    assert all(type(x) is int for x in G.us + G.vs)
    assert write_graph(G) == "p 3 2\n1 2\n0 1\n"


def test_build_graph_allows_parallel_edges():
    G = build_graph(2, [(0, 1), (0, 1)])
    assert G.m == 2
    assert G.degrees == (2, 2)
    assert regularity(G) == 2


def test_families_sizes_and_degrees():
    assert (cycle(5).n, cycle(5).m, regularity(cycle(5))) == (5, 5, 2)
    assert (complete(6).n, complete(6).m, regularity(complete(6))) == (6, 15, 5)
    K33 = complete_bipartite(3, 3)
    assert (K33.n, K33.m, regularity(K33)) == (6, 9, 3)
    P = petersen()
    assert (P.n, P.m, regularity(P)) == (10, 15, 3)
    pr = prism(4)
    assert (pr.n, pr.m, regularity(pr)) == (8, 12, 3)
    C = circulant(8, (1, 2))
    assert (C.n, C.m, regularity(C)) == (8, 16, 4)


def test_complete_bipartite_unbalanced_is_irregular():
    assert regularity(complete_bipartite(2, 3)) is None


def test_circulant_rejects_bad_offsets():
    with pytest.raises(GraphError):
        circulant(6, (0,))
    with pytest.raises(GraphError):
        circulant(6, (1, 7))


def test_roundtrip_text_format():
    G = petersen()
    assert parse_graph(write_graph(G)).edges == G.edges
    text = "# comment\np 3 3\n0 1\n1 2\n2 0\n"
    H = parse_graph(text)
    assert (H.n, H.m) == (3, 3)
    E = parse_graph("p 3 0\n")
    assert (E.n, E.m, E.degrees) == (3, 0, (0, 0, 0))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "p 3\n",
        "q 3 3\n0 1\n1 2\n2 0\n",
        "p 3 2\n0 1\n",
        "p 3 1\n0 1 2\n",
        "p 3 1\n0 x\n",
        "p 3 1\n1 1\n",
        "p 0 0\n",
        # every number is a run of ASCII decimal digits, as write_graph writes it
        "p 1_0 1\n0 1\n",
        "p \uff19 1\n0 1\n",
        "p +3 1\n0 1\n",
        "p 3 1\n+2 0\n",
        "p 3 1\n-0 1\n",
        "p 12 1\n0 1_0\n",
        "p 3 1\n0 \u0662\n",
        "p 3 1\n0 \u00b2\n",
    ],
)
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_graph(text)


def test_components_and_connectivity():
    G = disjoint_union([cycle(3), cycle(4)])
    comps = components(G)
    assert [len(c) for c in comps] == [3, 4]


def test_component_graphs_split_once_per_graph(monkeypatch):
    calls = []
    build = graphs._component
    monkeypatch.setattr(graphs, "_component", lambda G, i: calls.append((G, i)) or build(G, i))
    G = petersen()
    assert component_graphs(G) == [(G, range(G.m))]
    assert component_graph(G, 0) == (G, range(G.m))
    U = disjoint_union([cycle(3), cycle(4)])
    first = component_graphs(U)
    assert all(a is b for a, b in zip(component_graphs(U), first, strict=True))
    assert component_graph(U, 1) is first[1]
    assert calls == [(U, 0), (U, 1)]


def test_subgraph_rejects_edge_ids_outside_the_graph():
    G = complete(4)
    for ids in ([-1], [0, G.m], [2, -7, 3], [1.0], [0, "2"]):
        with pytest.raises(GraphError, match="edge id"):
            subgraph(G, ids)
    H, idmap = subgraph(G, [G.m - 1, 0])
    assert (H.us, H.vs, idmap) == ((G.us[0], G.us[-1]), (G.vs[0], G.vs[-1]), (0, G.m - 1))


def test_subgraph_reindexes_and_maps_back():
    G = complete(4)
    H, idmap = subgraph(G, [5, 1, 3])
    assert H.n == G.n
    assert H.m == 3
    assert idmap == (1, 3, 5)
    for new_id, old_id in enumerate(idmap):
        assert {H.edges[new_id].u, H.edges[new_id].v} == {
            G.edges[old_id].u,
            G.edges[old_id].v,
        }


def test_regularity_is_found_once_per_graph(monkeypatch):
    calls = []
    common = graphs._common_degree
    monkeypatch.setattr(graphs, "_common_degree", lambda G: calls.append(G) or common(G))
    K4, path = complete(4), build_graph(3, [(0, 1), (1, 2)])
    mixed = disjoint_union([cycle(3), complete(4)])
    for _ in range(2):
        assert regularity(K4) == 3
        assert regularity(path) is None
        assert regularity(mixed) is None
    assert calls == [K4, path, mixed]


def test_bridges_and_edge_connectivity(bridged16):
    assert find_bridges(cycle(5)) == frozenset()
    bridges = find_bridges(bridged16)
    assert len(bridges) == 3
    for eid in bridges:
        assert 0 in bridged16.endpoints(eid)


def test_random_regular_deterministic_and_validated():
    G = random_regular(8, 3, seed=7)
    H = random_regular(8, 3, seed=7)
    assert G.edges == H.edges
    assert regularity(G) == 3
    keys = {tuple(sorted(G.endpoints(i))) for i in range(G.m)}
    assert len(keys) == G.m
    assert random_regular(8, 3, seed=1).edges != random_regular(8, 3, seed=2).edges
    with pytest.raises(GraphError):
        random_regular(5, 3, seed=1)
    with pytest.raises(GraphError):
        random_regular(4, 4, seed=1)


def test_generate_dispatch_and_missing_params():
    G = generate("disjoint_union", {"parts": [("cycle", {"n": 3}), ("cycle", {"n": 4})]})
    assert (G.n, G.m) == (7, 7)
    assert generate("prism", {}).n == 6
    with pytest.raises(GraphError):
        generate("random_regular", {"n": 6, "r": 3})
    with pytest.raises(GraphError):
        generate("nope", {})


def test_the_package_reads_no_edge_records():
    # the records are a view for readers outside the package, built on first use
    for G in (random_regular(20, 3, seed=0), disjoint_union([complete(4), petersen(), prism(3)])):
        construct(G, 4, 0)
        construct(G, 5, 1)
        predict_spectrum(G, 6)
        null_set(G, 6)
        assert "edges" not in G.__dict__
        assert G.edges == tuple(EdgeRecord(i, u, v) for i, (u, v) in enumerate(zip(G.us, G.vs)))
        assert G.edges is G.edges


def reference_profile(n, us, vs):
    """Degrees by counting ends, components by relaxing each vertex's label
    to the smallest vertex it reaches until nothing changes."""
    low = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in zip(us, vs):
            if low[u] != low[v]:
                low[u] = low[v] = min(low[u], low[v])
                changed = True
    number = {root: i for i, root in enumerate(sorted(set(low)))}
    return tuple(map((list(us) + list(vs)).count, range(n))), tuple(number[x] for x in low)


def reference_split(us, vs, degrees, comp):
    """The parts of a graph with the given profile: () for fewer than two
    components, else per component its edge ends renumbered in ascending
    vertex order, its edge ids in order and its degrees."""
    count = max(comp, default=-1) + 1
    if count < 2:
        return ()
    parts = []
    for i in range(count):
        vertices = [v for v in range(len(comp)) if comp[v] == i]
        local = {v: j for j, v in enumerate(vertices)}
        ids = [e for e in range(len(us)) if comp[us[e]] == i]
        parts.append((tuple(local[us[e]] for e in ids), tuple(local[vs[e]] for e in ids), tuple(ids),
                      tuple(degrees[v] for v in vertices)))
    return tuple(parts)


@st.composite
def loopless_multigraphs(draw, max_n=8):
    """(n, us, vs): 0 to max_n vertices and up to 12 random edges, parallel
    copies among them, so isolated vertices and several components are common."""
    n = draw(st.integers(0, max_n))
    pairs = []
    if n > 1:
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=12))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return n, [u for u, _ in pairs], [v for _, v in pairs]


@st.composite
def profile_inputs(draw):
    """A multigraph, or a disjoint union of two, as the twins' (n, us, vs),
    with one fault of the reader's contract in about a third of the draws:
    a negative n, an end outside 0..n-1, arrays of unequal length or an end
    that is no int."""
    n, us, vs = draw(loopless_multigraphs())
    if draw(st.booleans()):
        n2, us2, vs2 = draw(loopless_multigraphs())
        n, us, vs = n + n2, us + [u + n for u in us2], vs + [v + n for v in vs2]
    fault = draw(st.sampled_from([None, None, None, None, "n", "end", "length", "float"]))
    if fault == "n":
        n = -1 - n
    elif fault == "end" and us:
        i = draw(st.integers(0, len(us) - 1))
        us[i] = draw(st.sampled_from([-1, n, n + 5]))
    elif fault == "length":
        vs = vs + [0]
    elif fault == "float" and us:
        i = draw(st.integers(0, len(us) - 1))
        vs[i] = float(vs[i])
    return n, us, vs


def outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(profile_inputs())
def test_vertex_profile_twins_agree(compiled_kernel, case):
    n, us, vs = case
    got = outcome(_backtrack_py.vertex_profile, n, us, vs)
    assert outcome(compiled_kernel.vertex_profile, n, us, vs) == got
    assert outcome(compiled_kernel.vertex_profile, n, iter(us), (v for v in vs)) == got
    if isinstance(got[0], type):  # a fault: both twins raised alike
        return
    degrees, comp, orders = got
    assert (degrees, comp) == reference_profile(n, us, vs)
    assert orders == tuple(map(comp.count, range(max(comp, default=-1) + 1)))
    if n == 0:
        return
    G = build_graph(n, list(zip(us, vs)))
    assert G.degrees == degrees
    assert [sorted(c) for c in components(G)] == [
        [v for v in range(n) if comp[v] == i] for i in range(max(comp) + 1)
    ]
    parts = component_graphs(G)
    assert [C.n for C, _ in parts] == [comp.count(i) for i in range(max(comp) + 1)]
    assert sorted(e for _, edge_ids in parts for e in edge_ids) == list(range(G.m))
    split = reference_split(us, vs, degrees, comp)
    if split:  # the component graphs are the reference's parts
        assert [(C.us, C.vs, edge_ids, C.degrees) for C, edge_ids in parts] == list(split)
    else:
        assert parts == [(G, range(G.m))]
    for C, _ in parts:
        # the profile each component graph keeps is the one a walk finds
        assert graphs._vertex_profile(C) == (C.degrees, (0,) * C.n, (C.n,))
        assert graphs._vertex_profile(C) == _backtrack_py.vertex_profile(C.n, C.us, C.vs)


def test_vertex_profile_returns_each_components_order(compiled_kernel):
    G = disjoint_union([complete(4), build_graph(1, []), cycle(5)])
    degrees, comp = (3,) * 4 + (0,) + (2,) * 5, (0,) * 4 + (1,) + (2,) * 5
    P = petersen()
    for twin in (_backtrack_py, compiled_kernel):
        assert twin.vertex_profile(G.n, G.us, G.vs) == (degrees, comp, (4, 1, 5))
        assert twin.vertex_profile(0, [], []) == ((), (), ())
        assert twin.vertex_profile(P.n, P.us, P.vs) == ((3,) * 10, (0,) * 10, (10,))


def _k5_with(n=5, ui=None, vi=None, drop=0):
    """(n, us, vs) of K5, with us[3] = ui and vs[3] = vi where given, and
    the last drop ends of vs left out."""
    K5 = complete(5)
    us, vs = list(K5.us), list(K5.vs)
    if ui is not None:
        us[3] = ui
    if vi is not None:
        vs[3] = vi
    return n, us, vs[: len(vs) - drop]


# (n, us, vs) that no twin should read as a graph, bools and a loop
# besides; K5 is 4-regular, so the Petersen split gets past its degree test
MALFORMED_GRAPHS = {
    "n<0": _k5_with(n=-5),
    "end=n": _k5_with(ui=5),
    "end<0": _k5_with(vi=-1),
    "end=2**64": _k5_with(ui=2**64),
    "end=-2**64": _k5_with(vi=-(2**64)),
    "unequal-lengths": _k5_with(drop=1),
    "float-end": _k5_with(vi=4.0),
    "float-n": _k5_with(n=5.0),
    "bool-end": _k5_with(ui=True),
    "bool-n": (True, [], []),
    "loop": _k5_with(ui=2, vi=2),
}


@pytest.mark.parametrize("graph", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS)
@pytest.mark.parametrize("twin", ["vertex_profile", "maximum_matching", "petersen_split"])
def test_twins_meet_malformed_graphs_alike(compiled_kernel, twin, graph):
    n, us, vs = graph
    got = outcome(getattr(_backtrack_py, twin), n, us, vs)
    assert outcome(getattr(compiled_kernel, twin), n, us, vs) == got
