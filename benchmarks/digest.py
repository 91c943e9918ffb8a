"""Digest of every construct answer over a fixed 38-graph corpus.

Runs construct(G, k, c, SolverBudget(node_cap=2000)) for k = 1..12,
every c in Z_k (c in -6..6 at k = 1), on each corpus graph, and prints
two SHA-256 digests over the answers in that order:

- full: graph name, k, c, status, verified sum, sorted labels and the
  trace of every call;
- status: graph name, k, c and status only.

It also prints how many found calls each rule answered: the rule of
the first trace step that is neither a fallthrough nor an inner step of
a factor extension.

A change that must leave every answer unchanged leaves the full digest
unchanged; one that may change which labeling is found, but no
existence answer, leaves the status digest unchanged.  With
--expect-full HEX or --expect-status HEX the script exits with status 1
when that digest differs from HEX.  Every matching is kmagic's own, so
the full digest depends on no third-party package.

Usage: PYTHONPATH=src python3 benchmarks/digest.py [--expect-full HEX] [--expect-status HEX]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter

from kmagic import (
    SolverBudget,
    build_graph,
    circulant,
    complete,
    complete_bipartite,
    construct,
    cycle,
    disjoint_union,
    double_graph,
    petersen,
    prism,
    random_regular,
)

BUDGET = SolverBudget(node_cap=2000)
MODULI = range(1, 13)
INTEGER_SUMS = range(-6, 7)  # the c asked at k = 1


def bridged_cubic_16():
    """A hub joined by bridges to three K4s, each with one edge
    subdivided: cubic, no perfect matching."""
    pairs = []
    for base in (1, 6, 11):
        a, b, x, y, w = range(base, base + 5)
        pairs += [(a, w), (w, b), (a, x), (a, y), (b, x), (b, y), (x, y)]
        pairs.append((0, w))
    return build_graph(16, pairs)


def bridged_cubic_10():
    """A hub joined by bridges to three triangles with one doubled edge:
    a cubic multigraph without a perfect matching."""
    pairs = []
    for w in (1, 4, 7):
        x, y = w + 1, w + 2
        pairs += [(0, w), (w, x), (w, y), (x, y), (x, y)]
    return build_graph(10, pairs)


def two_hub_even(r):
    """r copies of K_{r+1} - e, the two ends of each removed edge joined
    to hubs 0 and 1: r-regular for even r, of even order, and without a
    perfect matching (removing the hubs leaves r odd components)."""
    pairs = []
    for base in range(2, 2 + r * (r + 1), r + 1):
        block = range(base, base + r + 1)
        pairs += [(u, v) for u in block for v in block if u < v and (u, v) != (base, base + 1)]
        pairs += [(0, base), (1, base + 1)]
    return build_graph(2 + r * (r + 1), pairs)


def corpus() -> list[tuple[str, object]]:
    return [
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("K6", complete(6)),
        ("K7", complete(7)),
        ("K9", complete(9)),
        ("K3,3", complete_bipartite(3, 3)),
        ("K4,4", complete_bipartite(4, 4)),
        ("K5,5", complete_bipartite(5, 5)),
        ("petersen", petersen()),
        ("prism3", prism(3)),
        ("prism4", prism(4)),
        ("prism5", prism(5)),
        ("C3+C4", disjoint_union([cycle(3), cycle(4)])),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("C9", cycle(9)),
        ("circ(8;1,2)", circulant(8, (1, 2))),
        ("circ(6;1,2)", circulant(6, (1, 2))),
        ("circ(10;1,2)", circulant(10, (1, 2))),
        ("circ(12;1,2,3)", circulant(12, (1, 2, 3))),
        ("circ(9;1,2,3)", circulant(9, (1, 2, 3))),
        ("circ(12;1,2,3,4)", circulant(12, (1, 2, 3, 4))),
        ("bridged16", bridged_cubic_16()),
        ("bridged10", bridged_cubic_10()),
        ("rr(12,3,s1)", random_regular(12, 3, seed=1)),
        ("rr(14,4,s2)", random_regular(14, 4, seed=2)),
        ("rr(10,5,s3)", random_regular(10, 5, seed=3)),
        ("rr(15,4,s4)", random_regular(15, 4, seed=4)),
        ("rr(20,3,s5)", random_regular(20, 3, seed=5)),
        ("rr(16,4,s6)", random_regular(16, 4, seed=6)),
        ("petersen+K4", disjoint_union([petersen(), complete(4)])),
        ("K5+K5", disjoint_union([complete(5), complete(5)])),
        ("octahedron+circ(8;1,2)", disjoint_union([circulant(6, (1, 2)), circulant(8, (1, 2))])),
        ("2K4", double_graph(complete(4)).doubled),
        ("2petersen", double_graph(petersen()).doubled),
        ("2C5", double_graph(cycle(5)).doubled),
        ("two_hub_even(4)", two_hub_even(4)),
        ("two_hub_even(6)", two_hub_even(6)),
    ]


def answering_rule(trace):
    """The rule that answered a found call."""
    return next(
        s.rule for s in trace.steps
        if s.rule not in ("fallthrough", "spectrum-undecided") and s.scope != "factor"
    )


def answers():
    """(full record, status record, result) of every call, in corpus order."""
    for name, G in corpus():
        for k in MODULI:
            for c in INTEGER_SUMS if k == 1 else range(k):
                res = construct(G, k, c, BUDGET)
                labels = None if res.labeling is None else sorted(res.labeling.labels.items())
                full = [name, k, c, res.status, res.c, labels, res.trace.to_jsonable()]
                yield full, [name, k, c, res.status], res


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--expect-full", metavar="HEX", help="fail unless the full digest is HEX")
    ap.add_argument("--expect-status", metavar="HEX", help="fail unless the status digest is HEX")
    args = ap.parse_args()

    full, status = hashlib.sha256(), hashlib.sha256()
    calls = 0
    tally = Counter()
    t0 = time.perf_counter()
    for f, s, res in answers():
        full.update(json.dumps(f, sort_keys=True).encode() + b"\n")
        status.update(json.dumps(s, sort_keys=True).encode() + b"\n")
        calls += 1
        if res.status == "found":
            tally[answering_rule(res.trace)] += 1
    elapsed = time.perf_counter() - t0
    print(f"calls   {calls}  ({elapsed:.2f} s)")
    print(f"full    {full.hexdigest()}")
    print(f"status  {status.hexdigest()}")
    for rule, count in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
        print(f"found   {count:5d}  {rule}")
    failed = False
    for name, got, want in (("full", full, args.expect_full), ("status", status, args.expect_status)):
        if want is not None and got.hexdigest() != want:
            print(f"{name} digest differs from the expected {want}", file=sys.stderr)
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
