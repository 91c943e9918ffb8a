"""Sum spectra: exhaustive route, predicted route, and their structure.

brute_force_spectrum is the oracle: it runs the exact solver for one
candidate sum per unit orbit and shares no formulas with predict_spectrum.  Expected
sets in this file were frozen from oracle runs.
"""

import json

import pytest

from kmagic import _twin, factors, graphs, solver, spectrum
from kmagic import (
    KmagicError,
    SolverBudget,
    SpectrumSet,
    brute_force_spectrum,
    build_graph,
    circulant,
    cycle,
    complete,
    construct,
    disjoint_union,
    is_completely_k_magic,
    null_set,
    petersen,
    predict_spectrum,
    prism,
    zero_sum_4_magic,
)
from conftest import hub_quintic_16, quintic38, twin_spy

TINY = SolverBudget(node_cap=2)


# ---------------------------------------------------------------------------
# frozen point values, both routes


@pytest.mark.parametrize(
    "make,k,expected",
    [
        (lambda: complete(5), 6, {0, 2, 4}),
        (lambda: complete(5), 4, {0, 2}),
        (petersen, 5, {0, 1, 2, 3, 4}),
        (lambda: cycle(3), 3, {1, 2}),
        (lambda: cycle(3), 4, {0, 2}),
        (lambda: cycle(4), 5, {0, 1, 2, 3, 4}),
        (lambda: complete(4), 4, {0, 1, 2, 3}),
        (lambda: disjoint_union([cycle(3), cycle(4)]), 5, {1, 2, 3, 4}),
        (lambda: disjoint_union([cycle(3), cycle(4)]), 4, {0, 2}),
    ],
)
def test_point_values_both_routes(make, k, expected):
    G = make()
    oracle = brute_force_spectrum(G, k)
    pred = predict_spectrum(G, k)
    assert oracle.residues == expected
    assert pred.residues == expected
    assert not oracle.undecided and not pred.undecided


def test_spectrum_set_api():
    s = SpectrumSet(k=5, residues=frozenset({0, 2}))
    assert s.contains(2) is True
    assert s.contains(1) is False
    assert not s.is_complete()
    full = SpectrumSet(k=3, residues=frozenset({0, 1, 2}))
    assert full.is_complete()
    u = SpectrumSet(k=4, residues=frozenset({1}), undecided=frozenset({0}))
    assert u.contains(0) is None
    assert u.contains(1) is True
    with pytest.raises(KmagicError):
        SpectrumSet(k=5, residues=frozenset({0}), symbolic="Z")
    with pytest.raises(KmagicError):
        SpectrumSet(k=1, residues=frozenset({0}))


def test_spectrum_json_shape():
    s = predict_spectrum(complete(5), 6)
    payload = json.loads(s.to_json())
    assert payload["spectrum"] == [0, 2, 4]
    assert payload["k"] == 6
    assert payload["complete"] is False
    assert payload["undecided"] == []
    assert isinstance(payload["provenance"], list) and payload["provenance"]
    assert list(payload) == sorted(payload)
    sym = predict_spectrum(cycle(3), 1)
    payload = json.loads(sym.to_json())
    assert payload["symbolic"] == "2Z*"
    assert "spectrum" not in payload


# ---------------------------------------------------------------------------
# predicted structure per degree and modulus


def test_cycles_odd_modulus():
    # odd cycle, odd k: sums 2x with x nonzero cover everything but 0
    assert predict_spectrum(cycle(5), 7).residues == {1, 2, 3, 4, 5, 6}
    # even cycle: alternating labels reach every sum
    assert predict_spectrum(cycle(6), 7).residues == set(range(7))


def test_cycles_even_modulus():
    # odd cycle, even k: exactly the even residues (k/2 gives sum 0)
    assert predict_spectrum(cycle(5), 6).residues == {0, 2, 4}
    assert predict_spectrum(cycle(7), 8).residues == {0, 2, 4, 6}
    assert predict_spectrum(cycle(6), 8).residues == set(range(8))


def test_degree_one_matching():
    M = build_graph(4, [(0, 1), (2, 3)])
    assert predict_spectrum(M, 5).residues == {1, 2, 3, 4}
    assert brute_force_spectrum(M, 5).residues == {1, 2, 3, 4}


def test_high_degree_large_modulus_complete():
    # r >= 3, k >= 5 with odd degree or even order: everything
    for G, k in [(complete(4), 5), (complete(6), 7), (petersen(), 9)]:
        s = predict_spectrum(G, k)
        assert s.is_complete()
        ok, _ = is_completely_k_magic(G, k)
        assert ok is True


def test_even_degree_odd_order_even_modulus():
    # K5 at even k: odd order forces even sums
    assert predict_spectrum(complete(5), 6).residues == {0, 2, 4}
    assert predict_spectrum(complete(5), 8).residues == {0, 2, 4, 6}
    # odd k is unconstrained
    assert predict_spectrum(complete(5), 7).is_complete()


def test_modulus_4_rules(bridged16):
    # odd order: {0, 2}; even order, even degree: everything
    assert predict_spectrum(complete(5), 4).residues == {0, 2}
    assert predict_spectrum(cycle(8), 4).residues == {0, 1, 2, 3}
    # even order, odd degree: hinges on a zero-sum labeling mod 4
    assert zero_sum_4_magic(petersen())[0] is True
    assert predict_spectrum(petersen(), 4).residues == {0, 1, 2, 3}
    flag, why = zero_sum_4_magic(bridged16)
    assert flag is False
    assert why.startswith("cubic without a perfect matching")
    assert predict_spectrum(bridged16, 4).residues == {1, 2, 3}
    assert brute_force_spectrum(bridged16, 4).residues == {1, 2, 3}
    # even degree answers before any matching is asked
    assert zero_sum_4_magic(circulant(9, (1, 2))) == (
        True, "even degree: pairs of 2-factors labeled to cancel mod 4"
    )
    # quintic38 has odd degree 5 and no perfect matching: the solver finds one
    budget = SolverBudget(node_cap=10**5)
    assert zero_sum_4_magic(quintic38(), budget) == (True, "solver found a zero-sum labeling")
    assert 0 in predict_spectrum(quintic38(), 4, budget).residues


def test_modulus_3_rules(bridged16):
    # r = 3 with a matching whose degrees are 1 mod 3: everything
    assert predict_spectrum(petersen(), 3).is_complete()
    # without one, only the zero sum survives
    assert predict_spectrum(bridged16, 3).residues == {0}
    assert brute_force_spectrum(bridged16, 3).residues == {0}
    # r = 6 never hits the mod3 branch
    G = build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    assert predict_spectrum(G, 3).is_complete()


def test_modulus_2_by_solver(monkeypatch):
    # the only legal label is 1, so the spectrum is the degree parity;
    # the prediction says so in closed form, without the kernel
    kernel_calls = []
    split_search = solver._kernel.split_search
    monkeypatch.setattr(
        solver._kernel, "split_search", lambda *a: kernel_calls.append(a) or split_search(*a)
    )
    assert predict_spectrum(complete(4), 2).residues == {1}
    assert predict_spectrum(complete(5), 2).residues == {0}
    ok, why = is_completely_k_magic(cycle(4), 2)
    assert ok is False
    assert kernel_calls == []
    assert brute_force_spectrum(cycle(5), 2).residues == {0}
    assert brute_force_spectrum(complete(4), 2).residues == {1}


def test_symbolic_integer_spectra():
    cases = {
        "C4": (cycle(4), "Z"),
        "C3": (cycle(3), "2Z*"),
        "K4": (complete(4), "Z"),
        "K5": (complete(5), "2Z"),
        "K6": (complete(6), "Z"),
        "union": (disjoint_union([cycle(3), cycle(4)]), "2Z*"),
    }
    for name, (G, tag) in cases.items():
        s = predict_spectrum(G, 1)
        assert s.symbolic == tag, name
        assert s.residues is None


def test_disjoint_union_intersects_components():
    G = disjoint_union([cycle(3), cycle(4)])
    assert predict_spectrum(G, 5).residues == {1, 2, 3, 4}
    assert predict_spectrum(G, 3).residues == {1, 2}
    oracle = brute_force_spectrum(G, 3)
    assert oracle.residues == {1, 2}


def test_oracle_searches_once_per_unit_orbit(monkeypatch):
    # c and uc (u a unit mod k) stand or fall together; with every class
    # decided the oracle searches once per divisor d of k: c = 0, then c = d
    asked = []
    search = spectrum._search_status
    monkeypatch.setattr(
        spectrum, "_search_status", lambda G, k, c, budget=None: asked.append(c) or search(G, k, c, budget)
    )
    for G in (petersen(), complete(5), disjoint_union([cycle(3), cycle(4)])):
        for k in range(2, 9):
            asked.clear()
            spec = brute_force_spectrum(G, k)
            assert not spec.undecided
            assert asked == [0] + [d for d in range(1, k) if k % d == 0]


def test_oracle_tries_the_next_orbit_member_only_while_undecided(monkeypatch):
    # k = 6: the units' class {1, 5} is undecided at 1 and found at 5; the
    # class {2, 4} is undecided at both members, so only it stays undecided
    answers = {0: "absent", 1: "undecided", 2: "undecided", 3: "found", 4: "undecided", 5: "found"}
    asked = []
    monkeypatch.setattr(
        spectrum, "_search_status", lambda G, k, c, budget=None: asked.append(c) or answers[c]
    )
    spec = brute_force_spectrum(petersen(), 6)
    assert asked == [0, 1, 2, 3, 4, 5]
    assert spec.residues == {1, 3, 5}
    assert spec.undecided == {2, 4}


def test_a_union_is_matched_once(monkeypatch):
    # each component's mod-3 factor is a perfect matching, read off one
    # matching of the union however often the union is asked
    calls = []
    matching = factors.nx.max_weight_matching
    monkeypatch.setattr(
        factors.nx, "max_weight_matching",
        lambda *a, **kw: calls.append(a) or matching(*a, **kw),
    )
    G = disjoint_union([circulant(12, (1, 2, 3, 4, 6))] * 2)
    for _ in range(3):
        assert predict_spectrum(G, 3).residues == {0, 1, 2}
    assert len(calls) == 1


def test_prediction_reads_one_profile_and_one_matching(monkeypatch):
    # every component of the union has a perfect matching: one matching of
    # the whole graph answers all three, and no component is built as a
    # graph of its own
    calls = twin_spy(monkeypatch, "vertex_profile", "maximum_matching", "split_search")
    built = []
    build = graphs._component
    monkeypatch.setattr(graphs, "_component", lambda G, i: built.append((G, i)) or build(G, i))
    G = disjoint_union([petersen(), complete(4), prism(3)])
    assert predict_spectrum(G, 4).is_complete()
    assert calls == [("vertex_profile", 20), ("maximum_matching", 20)]
    assert built == []
    assert not [key for key in vars(G) if key.startswith("component")]


def test_only_the_unmatched_component_is_built_and_searched(monkeypatch):
    # quintic38 has no perfect matching, K6 has one: only quintic38 goes to
    # the solver, on its own graph, and K6's graph is never built
    calls = twin_spy(monkeypatch, "vertex_profile", "maximum_matching", "split_search")
    G = disjoint_union([quintic38(), complete(6)])
    spec = predict_spectrum(G, 4, TINY)
    assert spec.residues == {1, 2, 3} and spec.undecided == {0}
    assert calls == [("vertex_profile", 44), ("maximum_matching", 44), ("split_search", 38)]
    assert [key for key in vars(G) if key.startswith("component")] == ["component/0"]


def test_oracle_builds_no_labeling(monkeypatch):
    built = []
    labeling = solver.EdgeLabeling
    monkeypatch.setattr(solver, "EdgeLabeling", lambda *a: built.append(a) or labeling(*a))
    G = disjoint_union([petersen(), complete(4)])
    assert brute_force_spectrum(G, 5).is_complete()
    assert built == []
    # the search that returns the labeling still builds it
    assert solver.search_labeling(G, 5, 1).labeling is not None
    assert len(built) == 1


@pytest.mark.parametrize(
    ("G", "ks"),
    [
        (complete(5), range(1, 9)),  # even degree, odd order
        (circulant(8, (1, 2)), range(1, 9)),  # even degree, even order
        (disjoint_union([cycle(3), cycle(4)]), range(1, 9)),
        (petersen(), (1, 2, 5, 6, 7, 8)),  # odd degree, k not in {3, 4}
        (complete(6), (1, 2, 3, 5, 6)),  # r = 5: k = 3 needs no mod-3 factor
    ],
    ids=["K5", "circ8", "C3+C4", "petersen", "K6"],
)
def test_no_matching_where_the_prediction_needs_none(G, ks, monkeypatch):
    calls = twin_spy(monkeypatch, "vertex_profile", "maximum_matching", "split_search")
    for k in ks:
        predict_spectrum(G, k)
    assert calls == [("vertex_profile", G.n)]


class TwinSpy:
    """The selected twin module, recording each call of the twins in
    names made on G's own edge arrays."""

    def __init__(self, twin, G, names):
        self.twin, self.G, self.names, self.calls = twin, G, names, []

    def __getattr__(self, name):
        fn = getattr(self.twin, name)
        if name not in self.names:
            return fn

        def call(n, us, *args):
            if us is self.G.us:
                self.calls.append(name)
            return fn(n, us, *args)

        return call


def test_each_class_of_moduli_is_predicted_once(monkeypatch):
    # cubic, two components, both with a perfect matching: k = 3 and 4 ask
    # the one matching, and every k >= 5 reads only r, n and k mod 2
    G = disjoint_union([petersen(), complete(4)])
    spy = TwinSpy(_twin.module, G, ("vertex_profile", "maximum_matching"))
    monkeypatch.setattr(_twin, "module", spy)
    tags, spectra = [], []
    component_tag = spectrum._component_tag
    component_spectrum = spectrum._component_spectrum
    monkeypatch.setattr(spectrum, "_component_tag", lambda *a: tags.append(a[2]) or component_tag(*a))
    monkeypatch.setattr(
        spectrum, "_component_spectrum", lambda *a: spectra.append(a[4]) or component_spectrum(*a)
    )
    first = {k: predict_spectrum(G, k) for k in range(1, 13)}
    for k in range(1, 13):
        for c in (0, 1):
            construct(G, k, c)
    assert null_set(G, 12) == {k: first[k].contains(0) for k in range(1, 13)}
    for k in range(2, 13):
        assert is_completely_k_magic(G, k)[0] is first[k].is_complete()
    assert sorted(spy.calls) == ["maximum_matching", "vertex_profile"]
    # one tag per component at k = 1, at odd k >= 5 and at even k >= 5
    assert tags == [1, 1, 5, 5, 6, 6]
    assert spectra == [3, 3, 4, 4]
    assert {k: predict_spectrum(G, k) for k in range(1, 13)} == first


@pytest.mark.parametrize("caps", [(2, 10**5), (10**5, 2)], ids=["small-first", "large-first"])
def test_an_undecided_prediction_is_kept_under_its_own_cap(caps):
    # hub_quintic_16: 5-regular without a perfect matching, whose zero sum
    # mod 4 the solver proves absent, but not within 2 nodes
    G = hub_quintic_16()
    for _ in range(2):
        for cap in caps:
            spec = predict_spectrum(G, 4, SolverBudget(node_cap=cap))
            assert spec.residues == {1, 2, 3}
            assert spec.undecided == ({0} if cap == 2 else set())


def test_null_set_keeps_one_prediction_per_class():
    # k = 1, odd k >= 5, even k >= 5, and k = 3 and 4 under the one cap;
    # k = 2 is not kept, and no entry per k
    G = circulant(100, (1, 2, 3))
    assert null_set(G, 2000) == dict.fromkeys(range(1, 2001), True)
    assert len([key for key in vars(G) if key.startswith("spectrum")]) <= 5


def test_null_set_reads_the_class_tag_past_k4(monkeypatch):
    # at k >= 5 zero is in the spectrum exactly when the class tag has no
    # *, so null_set builds no residue set there
    built = []

    class Spy(SpectrumSet):
        def __post_init__(self):
            built.append(self.k)
            super().__post_init__()

    monkeypatch.setattr(spectrum, "SpectrumSet", Spy)
    graphs = [
        cycle(3),  # Z* at odd k, 2Z at even k
        cycle(9),
        complete(6),
        circulant(9, (1, 2)),  # odd order, even degree: 2Z at even k
        disjoint_union([cycle(3), cycle(4)]),
        disjoint_union([complete(2), complete(2)]),  # Z*
        petersen(),
    ]
    for G in graphs:
        built.clear()
        flags = null_set(G, 40)
        assert [k for k in built if k >= 5] == [], G.n
        assert flags == {k: predict_spectrum(G, k).contains(0) for k in range(1, 41)}, G.n


def test_budget_undecided_flows_through():
    # 5-regular, bridgeless, no perfect matching: the solver decides the
    # zero sum mod 4, and the budget caps it
    G = quintic38()
    s = predict_spectrum(G, 4, TINY)
    assert s.residues == {1, 2, 3}
    assert s.undecided == {0}
    assert s.contains(0) is None
    payload = json.loads(s.to_json())
    assert payload["undecided"] == [0]
    ok, _ = is_completely_k_magic(G, 4, TINY)
    assert ok is None


def test_null_set_flags():
    flags = null_set(cycle(3), 6)
    assert flags == {1: False, 2: True, 3: False, 4: True, 5: False, 6: True}
    flags = null_set(complete(6), 5)
    assert flags[5] is True


def test_modulus_below_one_rejected():
    for k in (0, -3):
        with pytest.raises(KmagicError):
            predict_spectrum(cycle(5), k)


def test_irregular_graph_rejected():
    path = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(KmagicError):
        predict_spectrum(path, 5)
    with pytest.raises(KmagicError):
        brute_force_spectrum(path, 5)


def test_complete_k_magic_guard_rails():
    with pytest.raises(KmagicError):
        is_completely_k_magic(cycle(4), 1)
    ok, why = is_completely_k_magic(cycle(4), 2)
    assert ok is False and why
