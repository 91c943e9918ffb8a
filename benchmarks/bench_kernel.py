"""Check the compiled twins against their pure Python references, and
time both, layer by layer: the label search, the 2-factor split, the
magic-sum check, the split search, the vertex profile, the maximum
matching, then the solver driver, the prediction and the construction
rules above them.

Every table runs through one helper, compare: each row is timed under
each twin module in turn, and the answer it checks is that of the timed
call, so a twin that answers otherwise fails the run.  A fresh row asks
a new copy of its graph each call and pays for everything the graph
memoizes; a repeat row asks one copy again and reads the memo.

Every label-search case reaches the kernel, none settled by the parity
count first; unmatched28 has bridges, so it is searched piece by piece.
The heavy case stops at its node cap, on the same node in both twins.
The split-search rows of the cubic graph without a perfect matching at
k = 4 are where the spectrum-oracle benchmark spends its searches, and
the solver-driver table is that benchmark's medium job.  --quick caps
every search at one million nodes and shortens some batches.

Usage: python3 benchmarks/bench_kernel.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from digest import bridged_cubic_16, hub10, hub_quintic_16, two_hub_even, unmatched_cubic_28
from kmagic import (
    DEFAULT_BUDGET,
    MultiGraph,
    SolverBudget,
    _twin,
    brute_force_spectrum,
    build_graph,
    circulant,
    complete,
    construct,
    cycle,
    disjoint_union,
    double_graph,
    null_set,
    petersen,
    predict_spectrum,
    prism,
    random_regular,
    search_labeling,
)
from kmagic._backtrack_py import MALFORMED
from kmagic.factors import _gadget
from kmagic.solver import available_kernels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from corpus import _no_perfect_matching  # noqa: E402

QUICK_CAP = 10**6

# (label, graph, k, c, node cap or None for the default budget)
CASES = [
    ("K6 k=5 c=2 (found fast)", complete(6), 5, 2, None),
    ("petersen k=4 c=0 (found)", petersen(), 4, 0, None),
    ("C9 k=9 c=0 (absent, forced)", cycle(9), 9, 0, None),
    ("circ8{1,2} k=6 c=3 (found)", circulant(8, (1, 2)), 6, 3, None),
    ("unmatched28 k=6 c=0 (split, found)", unmatched_cubic_28(), 6, 0, None),
    ("hub10 k=4 c=0 (capped at 5.0M nodes)", hub10(), 4, 0, 5 * 10**6),
]

# (label, even-regular graph) for the 2-factor split
SPLIT_CASES = [
    ("2G of a random cubic n=60 (6-regular)", double_graph(random_regular(60, 3, seed=0)).doubled),
    ("2G of circulant n=40 r=8 (16-regular)", double_graph(circulant(40, (1, 2, 3, 4))).doubled),
    ("2G of circulant n=32 r=9 (18-regular)", double_graph(circulant(32, (1, 2, 3, 4, 16))).doubled),
    ("2G of hub10 (18-regular, parallel edges)", double_graph(hub10()).doubled),
    ("C5 + C3 + C4 (2-regular)", disjoint_union([cycle(5), cycle(3), cycle(4)])),
    ("2G of K4 + circulant n=9 r=6 + 2G of prism", disjoint_union(
        [double_graph(complete(4)).doubled, circulant(9, (1, 2, 3)), double_graph(prism(3)).doubled]
    )),
    ("random 4-regular n=1500 (long paths)", random_regular(1500, 4, seed=0)),
]

# (label, graph, k) for the magic-sum check; the graphs are regular, so
# all-ones labels are magic, and a 2 on edge 0 makes them not
SUM_CASES = [
    ("random cubic n=76 k=4", random_regular(76, 3, seed=0), 4),
    ("circulant n=40 r=8 k=5", circulant(40, (1, 2, 3, 4)), 5),
    ("2G of circulant n=16 r=9 k=7", double_graph(circulant(16, (1, 2, 3, 4, 8))).doubled, 7),
]

# (label, graph) with bridges, for the split search and the matching
BRIDGED_CASES = [
    ("bridged16", bridged_cubic_16()),
    ("hub_quintic_16", hub_quintic_16()),
    ("cubic16 without a perfect matching", build_graph(*_no_perfect_matching())),
]

# (label, graph) with several components, for the split search and the
# profile; nopm cubic16 is the cubic graph without a perfect matching above
DISCONNECTED_CASES = [
    ("petersen + nopm cubic16", disjoint_union([petersen(), BRIDGED_CASES[2][1]])),
    ("K4 + K1 + nopm cubic16", disjoint_union([complete(4), build_graph(1, []), BRIDGED_CASES[2][1]])),
]

# (label, graph, modulus) for the split search, every sum each
SPLIT_SEARCH_CASES = [
    (*BRIDGED_CASES[2], 4),
    (*BRIDGED_CASES[0], 6),
    (*BRIDGED_CASES[1], 4),
    (*DISCONNECTED_CASES[0], 4),
    (*DISCONNECTED_CASES[1], 4),
]

# (label, graph) for the vertex profile: every graph above, then three
# more disjoint unions
PROFILE_CASES = [(label, G) for label, G, *_ in CASES + SPLIT_CASES + SUM_CASES] + BRIDGED_CASES + [
    *DISCONNECTED_CASES,
    ("C5 + K4 + petersen + C3", disjoint_union([cycle(5), complete(4), petersen(), cycle(3)])),
    ("3 random cubic n=60", disjoint_union([random_regular(60, 3, seed=s) for s in range(3)])),
    ("circulant n=80 r=8 + K2 + K1", disjoint_union([circulant(80, (1, 2, 3, 4)), complete(2),
                                                      build_graph(1, [])])),
]

# (label, graph) for the maximum matching: graphs the factor layer
# matches, G itself on the 1-factor route and a gadget
MATCH_CASES = [
    BRIDGED_CASES[2],
    BRIDGED_CASES[0],
    ("gadget of random cubic n=600, 1-factor",
     _gadget(random_regular(600, 3, seed=0), [1] * 600)[0]),
]

# the spectrum-oracle benchmark's medium job: this union at k = 4
DRIVER_GRAPH = disjoint_union([BRIDGED_CASES[2][1], random_regular(8, 3, seed=0)])
DRIVER_K = 4

# the moduli of the prediction table: the two the graph's matching
# decides, then one of each class of k >= 5
PREDICT_KS = (3, 4, 6, 7)
NULL_SET_GRAPH = circulant(100, (1, 2, 3))
NULL_SET_KMAX = 2000

# (label, graph, k, c, the rule that answers, its h or None) for the
# construction-rule table
RULE_GRAPH = circulant(40, (1, 2, 3, 4))
RULE_CASES = [
    ("constant, circ n=40 r=8, k=8 c=0", RULE_GRAPH, 8, 0, "constant", None),
    ("split h=1, circ n=40 r=8, k=8 c=1", RULE_GRAPH, 8, 1, "factor-split", 1),
    ("split h=2, circ n=40 r=8, k=7 c=0", RULE_GRAPH, 7, 0, "factor-split", 2),
    ("doubling, two_hub_even(4), k=4 c=1", two_hub_even(4), 4, 1, "doubling-parameter-search", 3),
]

# an answer column, (heading, width, cell), cell(G, answer) giving its value
EDGES = ("edges", 6, lambda G, answer: len(G.us))


def compare(kernels: dict, title: str, unit: str, columns, rows) -> list:
    """Time every row under each twin module, assert that the twins
    answer alike, and print one line per row: its answer columns, then
    each twin's time per call in unit ("ms" or "us").

    rows hold (label, G, call, calls, repeats, fresh).  A batch makes
    calls calls call(kernel, H) with _twin.module set to kernel; H is a
    fresh copy of G for every call when fresh, else one copy asked once
    before the batches.  The time is the best of repeats batches, and the
    answer is that of the last timed call.  Returns the answers.
    """
    scale, digits = {"ms": (1e3, 3), "us": (1e6, 2)}[unit]
    header = f"{title:<44}" + "".join(f" {heading:>{width}}" for heading, width, _ in columns)
    header += "".join(f" {name + f' [{unit}]':>17}" for name in kernels)
    print(header)
    print("-" * len(header))
    agreed = []
    selected = _twin.module
    try:
        for label, G, call, calls, repeats, fresh in rows:
            answers, times = {}, {}
            for name, kernel in kernels.items():
                _twin.module = kernel
                asked = MultiGraph(G.n, G.us, G.vs)
                if not fresh:
                    call(kernel, asked)
                best = float("inf")
                for _ in range(repeats):
                    copies = [MultiGraph(G.n, G.us, G.vs) if fresh else asked for _ in range(calls)]
                    t0 = time.perf_counter()
                    for H in copies:
                        answer = call(kernel, H)
                    best = min(best, time.perf_counter() - t0)
                answers[name], times[name] = answer, best / calls
            first = next(iter(answers.values()))
            for name, got in answers.items():
                assert got == first, f"{title}, {label}: {name} answered otherwise"
            agreed.append(first)
            row = f"{label:<44}" + "".join(f" {str(cell(G, first)):>{width}}" for _, width, cell in columns)
            print(row + "".join(f" {scale * times[name]:>17.{digits}f}" for name in kernels))
    finally:
        _twin.module = selected
    print()
    return agreed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="cap searches at 1e6 nodes, shorten batches")
    quick = ap.parse_args().quick
    kernels = available_kernels()
    print(f"kernels: {', '.join(kernels)}\n")

    rows = []
    for label, G, k, c, cap in CASES:
        if quick:
            cap = min(cap or QUICK_CAP, QUICK_CAP)
        budget = None if cap is None else SolverBudget(node_cap=cap)
        rows.append((label, G, lambda kernel, H, k=k, c=c, b=budget: search_labeling(H, k, c, b), 1, 1, True))
    status = ("status", 9, lambda G, answer: answer.status)
    compare(kernels, "label search", "ms", [status, ("nodes", 8, lambda G, answer: answer.nodes)], rows)

    split = lambda kernel, H: kernel.petersen_split(H.n, H.us, H.vs)
    compare(kernels, "2-factor split", "ms", [("parts", 6, lambda G, answer: len(answer)), EDGES],
            [(label, G, split, 1 if quick else 20, 5, False) for label, G in SPLIT_CASES])

    rows = []
    for label, G, k in SUM_CASES:
        ones = (1,) * G.m
        rows.append((label, G, lambda kernel, H, k=k, ones=ones: [
            kernel.magic_sum(H.n, H.us, H.vs, labels, k) for labels in (ones, (2,) + ones[1:])
        ], 1000, 5, False))
    sums = ("sums", 9, lambda G, answer: answer)
    for (label, *_), answer in zip(SUM_CASES, compare(kernels, "magic-sum check", "us", [EDGES, sums], rows)):
        assert answer[0] not in (None, MALFORMED), f"{label}: the all-ones labeling has no sum"

    node_cap = DEFAULT_BUDGET.node_cap
    rows = [(f"{label} k={k} c={c}", G, lambda kernel, H, k=k, c=c: kernel.split_search(
        H.n, k, c, H.us, H.vs, node_cap), 20, 5, False) for label, G, k in SPLIT_SEARCH_CASES for c in range(k)]
    status = ("status", 6, lambda G, answer: {1: "found", 0: "absent"}.get(answer[0], "undec."))
    nodes = ("nodes", 7, lambda G, answer: answer[2])
    compare(kernels, "split search", "us", [status, nodes], rows)

    profile = lambda kernel, H: kernel.vertex_profile(H.n, H.us, H.vs)
    compare(kernels, "vertex profile", "us", [EDGES, ("parts", 6, lambda G, answer: len(answer[2]))],
            [(label, G, profile, 200, 5, False) for label, G in PROFILE_CASES])

    match = lambda kernel, H: kernel.maximum_matching(H.n, H.us, H.vs)
    exposed = ("exposed", 7, lambda G, answer: answer.count(-1))
    compare(kernels, "maximum matching", "us", [("nodes", 6, lambda G, answer: G.n), EDGES, exposed],
            [(label, G, match, 10, 5, False) for label, G in MATCH_CASES])

    G, k = DRIVER_GRAPH, DRIVER_K
    calls, repeats = (20, 3) if quick else (200, 7)
    rows = [
        ("predict_spectrum", lambda kernel, H: predict_spectrum(H, k)),
        ("brute_force_spectrum", lambda kernel, H: brute_force_spectrum(H, k)),
        ("3 split_search calls (c = 0, 1, 2)",
         lambda kernel, H: [kernel.split_search(H.n, k, c, H.us, H.vs, node_cap) for c in range(3)]),
    ]
    compare(kernels, f"solver driver, k={k}, {G.n}-vertex medium union", "us", [],
            [(label, G, call, calls, repeats, True) for label, call in rows])

    rows = [(f"predict_spectrum k={k}, {'fresh' if fresh else 'repeat'}", G,
             lambda kernel, H, k=k: predict_spectrum(H, k), calls, repeats, fresh)
            for k in PREDICT_KS for fresh in (True, False)]
    rows.append((f"null_set(circulant n=100 r=6, {NULL_SET_KMAX}), fresh", NULL_SET_GRAPH,
                 lambda kernel, H: null_set(H, NULL_SET_KMAX), 1, 2 if quick else 5, True))
    compare(kernels, f"prediction, {G.n}-vertex medium union", "us", [], rows)

    cases = [(case, fresh) for case in RULE_CASES for fresh in (True, False)]
    rows = [(f"{label}, {'fresh' if fresh else 'repeat'}", G, lambda kernel, H, k=k, c=c: construct(H, k, c),
             calls, repeats, fresh) for (label, G, k, c, _, _), fresh in cases]
    for ((label, *_, rule, h), _), answer in zip(cases, compare(kernels, "construction rules", "us", [], rows)):
        step = answer.trace.steps[-1]
        assert (step.rule, step.params.get("h")) == (rule, h), f"{label}: answered by {step}"
    print("all kernels returned identical results")


if __name__ == "__main__":
    main()
