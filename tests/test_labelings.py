"""Labeling verification and the three transforms.

Expected values in the fold and extension tests are frozen from hand
computation: the doubled all-ones fold on K6 gives the all-2 labeling
with sum 10 = 0 mod 5, the 2-factor extension on K4 follows the sum
formula alpha + (r - h) exactly, including at k = 4 where the factor
constant 2 makes alpha wrap to 0 and the result is a 1-sum, not 2-sum.
"""

import json
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kmagic import (
    ConstructionTrace,
    EdgeLabeling,
    LabelingError,
    TraceStep,
    build_graph,
    complement,
    complete,
    cycle,
    double_graph,
    extend_by_factor,
    fold,
    labeling_from_json,
    labeling_to_json,
    petersen,
    verify,
    verify_subset,
)
from kmagic import _backtrack_py, _twin
from kmagic._backtrack_py import MALFORMED
from kmagic.labelings import validate_labels


def all_labels(G, value, k):
    return EdgeLabeling(k, {e: value for e in range(G.m)})


def test_verify_constant_labelings():
    assert verify(cycle(5), all_labels(cycle(5), 2, 7)) == 4
    assert verify(complete(4), all_labels(complete(4), 1, 5)) == 3
    K6 = complete(6)
    assert verify(K6, all_labels(K6, 2, 5)) == 0


def test_verify_non_magic_returns_none():
    G = cycle(4)
    lab = EdgeLabeling(5, {0: 1, 1: 2, 2: 1, 3: 1})
    assert verify(G, lab) is None


@pytest.mark.parametrize(
    "labels",
    [
        {0: 0, 1: 1, 2: 1, 3: 1},  # zero label
        {0: 5, 1: 1, 2: 1, 3: 1},  # out of range
        {0: 1, 1: 1, 2: 1},  # missing edge
        {0: 1, 1: 1, 2: 1, 3: 1, 4: 1},  # extra edge
    ],
)
def test_verify_rejects_malformed(labels):
    with pytest.raises(LabelingError):
        verify(cycle(4), EdgeLabeling(5, labels))


def test_verify_k1_plain_integers():
    G = cycle(4)
    lab = EdgeLabeling(1, {0: 3, 1: -3, 2: 3, 3: -3})
    assert verify(G, lab) == 0
    with pytest.raises(LabelingError):
        verify(G, EdgeLabeling(1, {0: 0, 1: 1, 2: 1, 3: 1}))
    validate_labels(G, EdgeLabeling(1, {0: -7, 1: 7, 2: -7, 3: 7}))


def test_verify_subset_magic_factor():
    G = complete(4)
    # opposite edges (0,1),(2,3) form a perfect matching
    pm = [
        eid
        for eid in range(G.m)
        if set(G.endpoints(eid)) in ({0, 1}, {2, 3})
    ]
    assert verify_subset(G, {e: 2 for e in pm}, 5, pm) == 2
    with pytest.raises(LabelingError):
        verify_subset(G, {pm[0]: 2}, 5, pm)


def test_complement_flips_sum():
    K6 = complete(6)
    lab = all_labels(K6, 2, 5)  # 0-sum
    comp = complement(K6, lab)
    assert verify(K6, comp) == 0  # 5 - 0 = 0 mod 5
    G = cycle(5)
    lab = all_labels(G, 2, 7)  # 4-sum
    comp = complement(G, lab)
    assert set(comp.labels.values()) == {5}
    assert verify(G, comp) == 3
    with pytest.raises(LabelingError):
        complement(G, EdgeLabeling(1, {e: 1 for e in range(5)}))
    bad = EdgeLabeling(5, {0: 1, 1: 2, 2: 1, 3: 1, 4: 1})
    with pytest.raises(LabelingError):
        complement(G, bad)


def test_fold_divisor_1_all_ones_on_k6():
    K6 = complete(6)
    D = double_graph(K6)
    lab2 = all_labels(D.doubled, 1, 5)
    folded, c = fold(D, lab2, 1)
    assert c == 0
    assert set(folded.labels.values()) == {2}
    assert verify(K6, folded) == 0


def test_fold_divisor_2_halves_pairs():
    G = cycle(4)
    D = double_graph(G)
    labels = {i: 1 for i in range(4)} | {4 + i: 3 for i in range(4)}
    folded, c = fold(D, EdgeLabeling(8, labels), 2)
    assert set(folded.labels.values()) == {2}
    assert c == 4
    # divisor 1 on the same input keeps the doubled sum
    folded1, c1 = fold(D, EdgeLabeling(8, labels), 1)
    assert set(folded1.labels.values()) == {4}
    assert c1 == 0


def test_fold_rejects_odd_pair_sum_under_divisor_2():
    G = cycle(3)
    D = double_graph(G)
    labels = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
    with pytest.raises(LabelingError):
        fold(D, EdgeLabeling(5, labels), 2)


def test_fold_rejects_vanishing_label():
    G = cycle(3)
    D = double_graph(G)
    labels = {0: 1, 1: 1, 2: 1, 3: 4, 4: 4, 5: 4}  # pair sums 5 = 0 mod 5
    with pytest.raises(LabelingError):
        fold(D, EdgeLabeling(5, labels), 1)


def test_fold_rejects_non_magic_input_and_bad_divisor():
    G = cycle(3)
    D = double_graph(G)
    ok = all_labels(D.doubled, 1, 5)
    with pytest.raises(LabelingError):
        fold(D, ok, 3)
    bad = EdgeLabeling(5, {0: 1, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1})
    with pytest.raises(LabelingError):
        fold(D, bad, 1)


def k4_two_factor():
    G = complete(4)
    cyc = [
        eid
        for eid in range(G.m)
        if set(G.endpoints(eid)) not in ({0, 1}, {2, 3})
    ]
    return G, cyc


def test_extend_by_factor_formula():
    G, cyc = k4_two_factor()
    lab, c = extend_by_factor(G, cyc, {e: 1 for e in cyc}, 5)
    assert c == (2 + (3 - 2)) % 5 == 3
    assert verify(G, lab) == 3
    assert all(lab.labels[e] == 1 for e in range(G.m))


def test_extend_by_factor_alpha_wraps_mod_k():
    # factor constant 2 on a 2-factor sums to 4 = 0 mod 4, so the
    # extension is a 1-sum: the formula alpha + (r - h) decides, not the
    # factor constant plus anything else
    G, cyc = k4_two_factor()
    lab, c = extend_by_factor(G, cyc, {e: 2 for e in cyc}, 4)
    assert c == 1
    assert verify(G, lab) == 1


def test_extend_by_factor_passthrough_h_equals_r():
    G = cycle(5)
    lab, c = extend_by_factor(G, range(G.m), {e: 3 for e in range(G.m)}, 7)
    assert c == 6
    assert dict(lab.labels) == {e: 3 for e in range(G.m)}


def test_extend_by_factor_rejections():
    G, cyc = k4_two_factor()
    with pytest.raises(LabelingError):
        extend_by_factor(G, cyc, {e: 1 for e in cyc}, 2)  # k = 2
    from kmagic import f_factor

    P = petersen()
    pm = sorted(f_factor(P, 1))
    with pytest.raises(LabelingError):
        extend_by_factor(P, pm, {e: 1 for e in pm}, 5)  # h = 1
    # non-magic factor labeling
    labs = {e: 1 for e in cyc}
    labs[cyc[0]] = 3
    with pytest.raises(LabelingError):
        extend_by_factor(G, cyc, labs, 7)


def test_labeling_json_roundtrip_and_shape():
    G = cycle(4)
    lab = EdgeLabeling(5, {0: 1, 1: 4, 2: 1, 3: 4})
    step = TraceStep("factor-split", {"h": 1, "a": 1, "b": 4})
    trace = ConstructionTrace((step,))
    text = labeling_to_json(lab, 0, trace)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    lab2, c2, steps = labeling_from_json(text)
    assert lab2 == lab
    assert c2 == 0
    assert steps[0]["rule"] == "factor-split"
    with pytest.raises(LabelingError):
        labeling_from_json("{}")
    with pytest.raises(LabelingError):
        labeling_from_json("not json")
    with pytest.raises(LabelingError):
        labeling_from_json('{"k": 5, "c": 0, "labels": [1, 2]}')


# ---------------------------------------------------------------------------
# the magic-sum twins


def sum_twins(compiled_kernel):
    """Both twin modules, each holding a magic_sum."""
    return {"pure-python": _backtrack_py, "compiled": compiled_kernel}


def reference_verify(G, lab):
    """verify as it reads without the twins: validate, then add up."""
    validate_labels(G, lab)
    sums = [0] * G.n
    for eid, x in lab.labels.items():
        u, v = G.endpoints(eid)
        sums[u] += x
        sums[v] += x
    sums = {s % lab.k for s in sums}
    return sums.pop() if len(sums) == 1 else None


@st.composite
def labeled_multigraphs(draw):
    """A multigraph with parallel edges, sometimes doubled, a modulus and
    labels: constant on a regular graph (so magic), random, or random
    and then broken in one place."""
    n = draw(st.integers(2, 8))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=14,
        )
    )
    G = build_graph(n, pairs)
    if draw(st.booleans()):
        G = double_graph(G).doubled
    k = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["constant", "random", "broken"]))
    if kind == "constant":
        x = draw(st.integers(1, k - 1))
        labels = {e: x for e in range(G.m)}
    else:
        labels = {e: draw(st.integers(1, k - 1)) for e in range(G.m)}
    if kind == "broken":
        fault = draw(st.sampled_from(["drop", "extra", "zero", "k", "negative", "float", "str", "bool"]))
        eid = draw(st.integers(0, G.m)) if G.m else 0
        if fault == "drop":
            labels.pop(eid, None)
        elif fault == "extra":
            labels[G.m] = 1
        elif G.m:
            labels[min(eid, G.m - 1)] = {
                "zero": 0, "k": k, "negative": -1, "float": 1.0, "str": "1", "bool": True
            }[fault]
    return G, EdgeLabeling(k, labels)


@given(labeled_multigraphs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sum_twins_and_verify_agree(compiled_kernel, case):
    G, lab = case
    answers = {
        name: twin.magic_sum(G.n, G.us, G.vs, lab.labels, lab.k)
        for name, twin in sum_twins(compiled_kernel).items()
    }
    assert answers["pure-python"] == answers["compiled"]
    try:
        want = reference_verify(G, lab)
    except LabelingError as exc:
        want = exc
    assert (answers["compiled"] == MALFORMED) == isinstance(want, LabelingError)
    for twin in sum_twins(compiled_kernel).values():
        with mock.patch.object(_twin, "module", twin):
            if isinstance(want, LabelingError):
                with pytest.raises(LabelingError) as raised:
                    verify(G, lab)
                assert str(raised.value) == str(want)
            else:
                assert verify(G, lab) == want


@pytest.mark.parametrize(
    "labels, message",
    [
        ({0: 1, 1: 1, 2: 1}, "label domain mismatch: missing [3], extra []"),
        ({0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, "label domain mismatch: missing [], extra [4]"),
        ({0: 0, 1: 1, 2: 1, 3: 1}, "edge 0: label 0 outside 1..4"),
        ({0: 1, 1: 5, 2: 1, 3: 1}, "edge 1: label 5 outside 1..4"),
        ({0: 1, 1: 1, 2: -1, 3: 1}, "edge 2: label -1 outside 1..4"),
        ({0: 1, 1: 1, 2: 1, 3: 1.0}, "edge 3: label 1.0 is not an integer"),
        ({0: "1", 1: 1, 2: 1, 3: 1}, "edge 0: label '1' is not an integer"),
    ],
    ids=["missing", "extra", "zero", "k", "negative", "float", "str"],
)
@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
def test_malformed_labels_keep_their_messages(twin, labels, message, request):
    impl = sum_twins(request.getfixturevalue("compiled_kernel"))[twin]
    G = cycle(4)
    assert impl.magic_sum(G.n, G.us, G.vs, labels, 5) == MALFORMED
    with mock.patch.object(_twin, "module", impl):
        with pytest.raises(LabelingError) as raised:
            verify(G, EdgeLabeling(5, labels))
    assert str(raised.value) == message


def test_k1_and_huge_k_stay_on_the_pure_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the compiled twin was asked")

    monkeypatch.setattr(_twin, "module", SimpleNamespace(magic_sum=refuse))
    G = cycle(4)
    assert verify(G, EdgeLabeling(1, {0: 3, 1: -3, 2: 3, 3: -3})) == 0
    k = 2**31 + 1
    assert verify(G, EdgeLabeling(k, {e: 2**31 for e in range(4)})) == 2**32 % k
    assert verify(G, EdgeLabeling(k, {0: 1, 1: 2, 2: 1, 3: 1})) is None
    with pytest.raises(LabelingError, match="outside"):
        verify(G, EdgeLabeling(k, {0: k, 1: 1, 2: 1, 3: 1}))


@pytest.mark.parametrize("twin", ["pure-python", "compiled"])
def test_sum_twins_reject_bad_input_alike(twin, request):
    impl = sum_twins(request.getfixturevalue("compiled_kernel"))[twin].magic_sum
    with pytest.raises(ValueError, match="k >= 2"):
        impl(2, [0], [1], {0: 1}, 1)
    with pytest.raises(ValueError, match="differ in length"):
        impl(3, [0, 1], [1], {0: 1, 1: 1}, 5)
    with pytest.raises(ValueError, match="endpoint"):
        impl(3, [0, 1, 2], [1, 2, 3], {0: 1, 1: 1, 2: 1}, 5)
    with pytest.raises(TypeError, match="dict"):
        impl(2, [0], [1], [1], 5)
    assert impl(0, [], [], {}, 5) is None
    with pytest.raises(ValueError, match="n >= 0"):
        impl(-1, [], [], {}, 5)
    # the graph's ends may come from one-shot iterators; a float end is no int
    assert impl(3, iter([0, 1, 2]), (v for v in [1, 2, 0]), {0: 1, 1: 1, 2: 1}, 5) == 2
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        impl(2, [0.0], [1], {0: 1}, 5)
    assert impl(3, [0], [1], {0: 2}, 5) is None  # vertex 2 has no edges and sums to 0
