"""Compare the six compiled twins, the backtracking kernel, the Petersen
2-factor split, the magic-sum check, the split search, the vertex
profile and the maximum matching, against their pure Python twins.

Runs the same searches through every available kernel, asserts the
results are identical (status, node count, and the labeling found), and
prints timings.  The heavy case is a search on a bridgeless graph capped
at 5M nodes, where the twins must stop on the same node; --quick caps
every search at one million nodes instead.  Every case reaches the
kernel: none is settled by the parity count or split into components
first.  One case has bridges, so the solver splits it and searches it
piece by piece, each piece with its own vertex targets and its child
bridges limited to their feasible labels.  Then every 2-factor split
runs through both split twins, which must return the same 2-factors;
its timings are milliseconds per call, the best of SPLIT_REPEATS
batches of SPLIT_CALLS calls (one call with --quick).  Then the magic-sum
check behind verify runs through both sum twins on a magic and a
non-magic labeling of each graph in SUM_CASES, which must get the same
answers, a sum for the magic one; its timings are microseconds per
call, the best of SUM_REPEATS batches of SUM_CALLS calls.  Then the
split search, the solver's one call per search, runs through both
split-search twins on three bridged graphs (bridged16 and
hub_quintic_16 of the digest, and the 16-vertex cubic graph without a
perfect matching of the spectrum-oracle benchmark) and on two
disconnected graphs (Petersen's graph beside that
cubic graph, and K4, an isolated vertex and that cubic graph), at every
sum of SPLIT_SEARCH_CASES' moduli, which must return the same status,
labeling and node count; its timings are microseconds per call, the
best of SPLIT_SEARCH_REPEATS batches of SPLIT_SEARCH_CALLS calls.  The
rows of the cubic graph without a perfect matching at k = 4, where the
spectrum-oracle benchmark spends its searches, and of bridged16 at
k = 6 measure the solver's cost per search, and the disconnected rows
its cost per search of a union.  Then the vertex profile, each vertex's
degree and component and each component's order, runs through both
profile twins on every graph above, whole, and on three more disjoint
unions in PROFILE_CASES, which must return the same profiles; its
timings are microseconds per call, the best of
PROFILE_REPEATS batches of PROFILE_CALLS calls.  Last, the maximum
matching behind every factor runs through both matching twins on the
cubic graph without a perfect matching, on bridged16 and on the gadget
of a 1-factor of a random cubic graph on 600 vertices, which must
return the same mates; its timings are microseconds per call, the best
of MATCH_REPEATS batches of MATCH_CALLS calls.  Then the solver driver:
the spectrum-oracle job's two calls, predict_spectrum and
brute_force_spectrum, and the three bare split_search calls the latter
makes, at k = 4 on the benchmark's medium union (the cubic graph without
a perfect matching beside a random cubic graph on 8 vertices), with each
twin module selected in turn; each call gets a fresh copy of the graph,
so no per-graph memo helps, and both twins must give the same answers.
Its timings are microseconds per call, the best of DRIVER_REPEATS
batches of DRIVER_CALLS calls (fewer with --quick).  Last, the
prediction: predict_spectrum on that union at each k of PREDICT_KS, on
fresh copies and asked again of one copy, which reads the graph's memo
of its class of k, and null_set(G, 2000) on fresh copies of a 6-regular
circulant on 100 vertices, with each twin module selected in turn, in
microseconds per call as above.

Usage: python3 benchmarks/bench_kernel.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from digest import bridged_cubic_16, hub10, hub_quintic_16, unmatched_cubic_28
from kmagic import (
    DEFAULT_BUDGET,
    MultiGraph,
    SolverBudget,
    _twin,
    brute_force_spectrum,
    build_graph,
    circulant,
    complete,
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
SPLIT_CALLS = 20
SPLIT_REPEATS = 5

# (label, graph, k) for the magic-sum check; the graphs are regular, so
# all-ones labels are magic
SUM_CASES = [
    ("random cubic n=76 k=4", random_regular(76, 3, seed=0), 4),
    ("circulant n=40 r=8 k=5", circulant(40, (1, 2, 3, 4)), 5),
    ("2G of circulant n=16 r=9 k=7", double_graph(circulant(16, (1, 2, 3, 4, 8))).doubled, 7),
]
SUM_CALLS = 2000
SUM_REPEATS = 5

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
SPLIT_SEARCH_CALLS = 20
SPLIT_SEARCH_REPEATS = 5

# (label, graph) for every graph above
ALL_GRAPHS = [(label, G) for label, G, *_ in CASES + SPLIT_CASES + SUM_CASES] + BRIDGED_CASES + DISCONNECTED_CASES

# (label, graph) for the vertex profile, beside every graph above
PROFILE_CASES = [
    ("C5 + K4 + petersen + C3", disjoint_union([cycle(5), complete(4), petersen(), cycle(3)])),
    ("3 random cubic n=60", disjoint_union([random_regular(60, 3, seed=s) for s in range(3)])),
    ("circulant n=80 r=8 + K2 + K1", disjoint_union([circulant(80, (1, 2, 3, 4)), complete(2),
                                                      build_graph(1, [])])),
]
PROFILE_CALLS = 200
PROFILE_REPEATS = 5

# (label, graph) for the maximum matching: graphs the factor layer
# matches, G itself on the 1-factor route and a gadget
MATCH_CASES = [
    BRIDGED_CASES[2],
    BRIDGED_CASES[0],
    ("gadget of random cubic n=600, 1-factor",
     _gadget(random_regular(600, 3, seed=0), [1] * 600)[0]),
]
MATCH_CALLS = 10
MATCH_REPEATS = 5

# the spectrum-oracle benchmark's medium job: this union at k = 4
DRIVER_GRAPH = disjoint_union([BRIDGED_CASES[2][1], random_regular(8, 3, seed=0)])
DRIVER_K = 4
DRIVER_CALLS, DRIVER_REPEATS = 200, 7
QUICK_DRIVER_CALLS, QUICK_DRIVER_REPEATS = 20, 3

# the moduli of the prediction table: the two the graph's matching
# decides, then one of each class of k >= 5
PREDICT_KS = (3, 4, 6, 7)
NULL_SET_GRAPH = circulant(100, (1, 2, 3))
NULL_SET_KMAX = 2000
NULL_SET_REPEATS, QUICK_NULL_SET_REPEATS = 5, 2


# the edge count of a case's graph, a column of every twin table
EDGES = ("edges", 6, lambda G, answers: G.m)


def compare_twins(kernels: dict, fn: str, title: str, columns, unit: str, calls: int,
                  repeats: int, cases) -> None:
    """Run the twin fn of every kernel on each case, assert that all twins
    answer alike, and print one row per case: its columns, then each
    twin's time per batch in unit ("ms" or "us"), the best of repeats
    timings of calls batches.

    cases holds (label, G, args, timed): the answers are fn(*a) for each
    a in args, and a batch calls fn(*a) for each a in timed.  columns
    holds (heading, width, cell) per column after the label, cell(G,
    answers) giving its value.
    """
    scale, digits = {"ms": (1e3, 3), "us": (1e6, 2)}[unit]
    twins = {name: getattr(kernel, fn) for name, kernel in kernels.items()}
    header = f"{title:<44}" + "".join(f" {heading:>{width}}" for heading, width, _ in columns)
    header += "".join(f" {name + f' [{unit}]':>17}" for name in twins)
    print(header)
    print("-" * len(header))
    for label, G, args, timed in cases:
        answers = {}
        times = {}
        for name, twin in twins.items():
            answers[name] = [twin(*a) for a in args]
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    for a in timed:
                        twin(*a)
                best = min(best, time.perf_counter() - t0)
            times[name] = best / calls
        first = next(iter(answers.values()))
        for name, got in answers.items():
            assert got == first, f"{label}: {name} answered otherwise ({fn})"
        row = f"{label:<44}" + "".join(f" {str(cell(G, first)):>{width}}" for _, width, cell in columns)
        row += "".join(f" {scale * times[name]:>17.{digits}f}" for name in twins)
        print(row)


def compare_splits(kernels: dict, calls: int) -> None:
    cases = [(label, G, [(G.n, G.us, G.vs)], [(G.n, G.us, G.vs)]) for label, G in SPLIT_CASES]
    parts = ("parts", 6, lambda G, answers: len(answers[0]))
    compare_twins(kernels, "petersen_split", "2-factor split", [parts, EDGES], "ms", calls,
                  SPLIT_REPEATS, cases)


def compare_sums(kernels: dict) -> None:
    cases = []
    for label, G, k in SUM_CASES:
        ones = (1,) * G.m
        args = [(G.n, G.us, G.vs, labels, k) for labels in (ones, (2,) + ones[1:])]
        for name, kernel in kernels.items():
            assert kernel.magic_sum(*args[0]) not in (None, MALFORMED), f"{label}: {name} found no sum"
        cases.append((label, G, args, args[:1]))
    sums = ("sums", 9, lambda G, answers: answers)
    compare_twins(kernels, "magic_sum", "magic-sum check", [EDGES, sums], "us", SUM_CALLS,
                  SUM_REPEATS, cases)


def compare_split_searches(kernels: dict) -> None:
    cases = []
    for label, G, k in SPLIT_SEARCH_CASES:
        for c in range(k):
            args = [(G.n, k, c, G.us, G.vs, DEFAULT_BUDGET.node_cap)]
            cases.append((f"{label} k={k} c={c}", G, args, args))
    status = ("status", 6, lambda G, answers: {1: "found", 0: "absent"}.get(answers[0][0], "undec."))
    nodes = ("nodes", 7, lambda G, answers: answers[0][2])
    compare_twins(kernels, "split_search", "split search", [status, nodes], "us",
                  SPLIT_SEARCH_CALLS, SPLIT_SEARCH_REPEATS, cases)


def compare_profiles(kernels: dict) -> None:
    cases = [(label, G, [(G.n, G.us, G.vs)], [(G.n, G.us, G.vs)]) for label, G in ALL_GRAPHS + PROFILE_CASES]
    parts = ("parts", 6, lambda G, answers: len(answers[0][2]))
    compare_twins(kernels, "vertex_profile", "vertex profile", [EDGES, parts], "us", PROFILE_CALLS,
                  PROFILE_REPEATS, cases)


def compare_matchings(kernels: dict) -> None:
    cases = [(label, g, [(g.n, g.us, g.vs)], [(g.n, g.us, g.vs)]) for label, g in MATCH_CASES]
    nodes = ("nodes", 6, lambda g, answers: g.n)
    edges = ("edges", 6, lambda g, answers: len(g.us))
    exposed = ("exposed", 7, lambda g, answers: answers[0].count(-1))
    compare_twins(kernels, "maximum_matching", "maximum matching", [nodes, edges, exposed], "us",
                  MATCH_CALLS, MATCH_REPEATS, cases)


def time_calls(kernels: dict, title: str, rows) -> None:
    """Print each twin module's microseconds per call for every row, and
    assert that the twins give the same answers.

    rows holds (label, G, call, fresh, calls, repeats): the time is the
    best of repeats batches of calls calls call(H), where H is a fresh
    copy of G for every call when fresh, so no per-graph memo helps, and
    otherwise one copy asked once before the batches.
    """
    header = f"{title:<44}" + "".join(f" {name + ' [us]':>17}" for name in kernels)
    print(header)
    print("-" * len(header))
    selected = _twin.module
    try:
        for label, G, call, fresh, calls, repeats in rows:
            answers, times = {}, {}
            for name, kernel in kernels.items():
                _twin.module = kernel
                asked = MultiGraph(G.n, G.us, G.vs)
                answers[name] = call(asked)
                best = float("inf")
                for _ in range(repeats):
                    copies = [MultiGraph(G.n, G.us, G.vs) if fresh else asked for _ in range(calls)]
                    t0 = time.perf_counter()
                    for H in copies:
                        call(H)
                    best = min(best, time.perf_counter() - t0)
                times[name] = best / calls
            first = next(iter(answers.values()))
            for name, got in answers.items():
                assert got == first, f"{label}: {name} answered otherwise"
            print(f"{label:<44}" + "".join(f" {1e6 * times[name]:>17.2f}" for name in kernels))
    finally:
        _twin.module = selected


def compare_driver(kernels: dict, calls: int, repeats: int) -> None:
    """One row per driver call, on fresh copies of DRIVER_GRAPH."""
    G, k = DRIVER_GRAPH, DRIVER_K
    rows = [
        ("predict_spectrum", lambda H: predict_spectrum(H, k)),
        ("brute_force_spectrum", lambda H: brute_force_spectrum(H, k)),
        ("3 split_search calls (c = 0, 1, 2)",
         lambda H: [_twin.module.split_search(H.n, k, c, H.us, H.vs, DEFAULT_BUDGET.node_cap)
                    for c in range(3)]),
    ]
    time_calls(kernels, f"solver driver, k={k}, {G.n}-vertex medium union",
               [(label, G, call, True, calls, repeats) for label, call in rows])


def compare_predictions(kernels: dict, calls: int, repeats: int, null_repeats: int) -> None:
    """predict_spectrum on DRIVER_GRAPH at each k of PREDICT_KS, on a
    fresh graph and asked again of one graph, then null_set up to
    NULL_SET_KMAX on fresh copies of NULL_SET_GRAPH, one call a batch."""
    rows = []
    for k in PREDICT_KS:
        for fresh in (True, False):
            label = f"predict_spectrum k={k}, {'fresh' if fresh else 'repeat'}"
            rows.append((label, DRIVER_GRAPH, lambda H, k=k: predict_spectrum(H, k), fresh, calls, repeats))
    rows.append((f"null_set(circulant n=100 r=6, {NULL_SET_KMAX}), fresh", NULL_SET_GRAPH,
                 lambda H: null_set(H, NULL_SET_KMAX), True, 1, null_repeats))
    time_calls(kernels, f"prediction, {DRIVER_GRAPH.n}-vertex medium union", rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="cap searches at 1e6 nodes")
    args = ap.parse_args()

    kernels = available_kernels()
    print(f"kernels: {', '.join(kernels)}")
    header = f"{'case':<44} {'status':<10} {'nodes':>12}"
    for name in kernels:
        header += f" {name + ' [s]':>16}"
    header += f" {'speedup':>9}"
    print(header)
    print("-" * len(header))

    for label, G, k, c, cap in CASES:
        if args.quick:
            cap = min(cap or QUICK_CAP, QUICK_CAP)
        budget = None if cap is None else SolverBudget(node_cap=cap)
        results = {}
        times = {}
        for name, impl in kernels.items():
            t0 = time.perf_counter()
            res = search_labeling(G, k, c, budget, kernel=impl)
            times[name] = time.perf_counter() - t0
            results[name] = res

        first = next(iter(results.values()))
        for name, res in results.items():
            assert res.status == first.status, f"{label}: {name} disagrees on status"
            assert res.nodes == first.nodes, f"{label}: {name} disagrees on node count"
            same_lab = (res.labeling is None) == (first.labeling is None) and (
                res.labeling is None or res.labeling.labels == first.labeling.labels
            )
            assert same_lab, f"{label}: {name} found a different labeling"

        row = f"{label:<44} {first.status:<10} {first.nodes:>12}"
        for name in kernels:
            row += f" {times[name]:>16.4f}"
        if "compiled" in kernels and "pure-python" in kernels and times["compiled"] > 0:
            row += f" {times['pure-python'] / times['compiled']:>8.1f}x"
        print(row)

    print()
    compare_splits(kernels, 1 if args.quick else SPLIT_CALLS)
    print()
    compare_sums(kernels)
    print()
    compare_split_searches(kernels)
    print()
    compare_profiles(kernels)
    print()
    compare_matchings(kernels)
    print()
    if args.quick:
        calls, repeats, null_repeats = QUICK_DRIVER_CALLS, QUICK_DRIVER_REPEATS, QUICK_NULL_SET_REPEATS
    else:
        calls, repeats, null_repeats = DRIVER_CALLS, DRIVER_REPEATS, NULL_SET_REPEATS
    compare_driver(kernels, calls, repeats)
    print()
    compare_predictions(kernels, calls, repeats, null_repeats)
    print("all kernels returned identical results")


if __name__ == "__main__":
    main()
