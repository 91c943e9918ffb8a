"""Graph construction, serialization, and structural queries."""

import pytest

from kmagic import (
    GraphError,
    build_graph,
    circulant,
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    generate,
    parse_graph,
    petersen,
    prism,
    random_regular,
    regularity,
    subgraph,
    write_graph,
)
from kmagic import graphs
from kmagic.graphs import component_graphs, find_bridges


def test_build_graph_rejects_loops_and_bad_indices():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(0, [])


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
    monkeypatch.setattr(graphs, "components", lambda G: calls.append(G) or components(G))
    G = petersen()
    assert component_graphs(G) == [(G, range(G.m))]
    assert component_graphs(G) == [(G, range(G.m))]
    U = disjoint_union([cycle(3), cycle(4)])
    assert component_graphs(U) is component_graphs(U)
    assert calls == [G, U]


def test_subgraph_reindexes_and_maps_back():
    G = complete(4)
    H, idmap = subgraph(G, [5, 1, 3])
    assert H.n == G.n
    assert H.m == 3
    assert sorted(idmap.values()) == [1, 3, 5]
    for new_id, old_id in idmap.items():
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
