"""Digests of every construct answer and every exhaustive-oracle answer
over two fixed corpora.

The construct part runs construct(G, k, c, SolverBudget(node_cap=2000))
for k = 1..12, every c in Z_k (c in -6..6 at k = 1), on each of 39
graphs, and prints two SHA-256 digests over the answers in that order:

- full: graph name, k, c, status, verified sum, sorted labels and the
  trace of every call;
- status: graph name, k, c and status only.

It also prints how many found calls each rule answered: the rule of
the first trace step that is not a fallthrough.

The oracle part runs brute_force_spectrum(G, k, SolverBudget(node_cap=
10**5)) for k = 2..7 on each of 8 graphs, most of them without a
perfect matching, where the exhaustive search does the work.  Its two
digests cover:

- status: graph name, k and the answer per residue (y, n, or ? where
  the oracle left it undecided);
- full: the status record plus, for every c in Z_k, the status, node
  count and sorted labels of search_labeling(G, k, c) at the same cap.

A change that must leave every answer unchanged leaves the full digests
unchanged; one that may change which labeling is found, but no
existence answer, leaves the status digests unchanged.  A change to the
exhaustive search may move an oracle answer from ? to y or n, never
from y to n or back.  With --expect-full, --expect-status,
--expect-oracle-full or --expect-oracle-status HEX the script exits
with status 1 when that digest differs from HEX.  --dump FILE writes
the full record of every call as one JSON line, so that the dumps of two
versions diff call by call.  Every matching is kmagic's own, so the
digests depend on no third-party package.

Usage: PYTHONPATH=src python3 benchmarks/digest.py [--expect-full HEX] [--expect-status HEX]
           [--expect-oracle-full HEX] [--expect-oracle-status HEX] [--dump FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from collections import Counter

from kmagic import (
    SolverBudget,
    brute_force_spectrum,
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
    search_labeling,
)

BUDGET = SolverBudget(node_cap=2000)
MODULI = range(1, 13)
INTEGER_SUMS = range(-6, 7)  # the c asked at k = 1
ORACLE_BUDGET = SolverBudget(node_cap=10**5)
ORACLE_MODULI = range(2, 8)


def bridged_cubic_16():
    """Cubic graph on 16 vertices: a hub joined by bridges to three
    copies of K4 with one edge subdivided.  Has no perfect matching
    (removing the hub leaves three odd components), so no spanning
    subgraph with all degrees 1 mod 3 exists."""
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
    """r copies of K_{r+1} minus an edge, the two ends of each removed
    edge joined to hubs 0 and 1.  For even r it is r-regular, of even
    order, and has no perfect matching: removing the hubs leaves r odd
    components.  The doubling search answers its odd sums at even k, by
    the split over the copies of its edges in a factor of odd degree of
    the doubled graph."""
    pairs = []
    for base in range(2, 2 + r * (r + 1), r + 1):
        block = range(base, base + r + 1)
        pairs += [(u, v) for u in block for v in block if u < v and (u, v) != (base, base + 1)]
        pairs += [(0, base), (1, base + 1)]
    return build_graph(2 + r * (r + 1), pairs)


def unmatched_cubic_28():
    """Cubic graph on 28 vertices without a perfect matching in which no
    vertex has only cut edges: hubs 0, 1 and 2, each joined by a bridge to
    the subdividing vertex of its own K4 with one edge subdivided, and two
    5-vertex blocks on a, b, c, d, e (edges de, da, db, ec, ea, bc) whose
    a, b and c are joined to hubs 0, 1 and 2.  Removing the hubs leaves
    five odd components.  The label-2 edges of a zero sum mod 4 on a cubic
    graph form a perfect matching, so there is none here."""
    pairs = []
    base = 3
    for hub in range(3):
        a, b, x, y, w = range(base, base + 5)
        pairs += [(a, w), (w, b), (a, x), (a, y), (b, x), (b, y), (x, y), (hub, w)]
        base += 5
    for _ in range(2):
        a, b, c, d, e = range(base, base + 5)
        pairs += [(d, e), (d, a), (d, b), (e, c), (e, a), (b, c), (a, 0), (b, 1), (c, 2)]
        base += 5
    return build_graph(28, pairs)


def hub_quintic_16():
    """5-regular multigraph on 16 vertices without a perfect matching: a
    hub joined to vertex a of each of five triangles a, b, c with edge
    multiplicities ab 2, ac 2 and bc 3.  Its zero sum mod 3 has neither
    an h-factor split nor a doubling split, so the solver finds it."""
    pairs = []
    for a in (1, 4, 7, 10, 13):
        b, c = a + 1, a + 2
        pairs += [(0, a)] + [(a, b)] * 2 + [(a, c)] * 2 + [(b, c)] * 3
    return build_graph(16, pairs)


def hub10():
    """9-regular bridgeless multigraph on 10 vertices without a perfect
    matching: a hub joined by 3 parallel edges to one vertex of each of
    three triangles whose sides have multiplicities 3, 3 and 6.  Removing
    the hub leaves three odd components, yet a factor with degrees in
    {1, 4} exists."""
    pairs = []
    for a in (1, 4, 7):
        b, c = a + 1, a + 2
        pairs += [(0, a)] * 3 + [(a, b)] * 3 + [(a, c)] * 3 + [(b, c)] * 6
    return build_graph(10, pairs)


def quintic38():
    """5-regular graph on 38 vertices, bridgeless and without a perfect
    matching: five copies of K7 minus the triangle 456 and the edges 01
    and 23, with vertices 4, 5 and 6 of each joined to hubs 0, 1 and 2.
    Removing the hubs leaves five odd components.  Theory leaves its zero
    sum mod 4 to the solver, whose search takes 64,414 nodes."""
    missing = {(4, 5), (4, 6), (5, 6), (0, 1), (2, 3)}
    pairs = []
    for base in range(3, 38, 7):
        pairs += [(base + i, base + j) for i in range(7) for j in range(i + 1, 7) if (i, j) not in missing]
        pairs += [(base + 4, 0), (base + 5, 1), (base + 6, 2)]
    return build_graph(38, pairs)


# two random cubic graphs (random_regular(12, 3, seed=7) and
# random_regular(16, 3, seed=8)), kept as edge lists so that a change to
# the generator cannot change the corpus
CUBIC12 = [(9, 6), (9, 3), (9, 10), (3, 5), (5, 7), (7, 11), (0, 2), (1, 3), (8, 6), (8, 1),
           (10, 6), (4, 0), (1, 7), (4, 2), (0, 11), (2, 5), (4, 10), (11, 8)]
CUBIC16 = [(13, 1), (3, 6), (15, 12), (12, 7), (5, 3), (3, 9), (15, 6), (11, 7), (1, 9), (11, 12),
           (5, 13), (0, 2), (10, 14), (14, 8), (2, 6), (13, 15), (11, 10), (9, 0), (8, 4), (10, 5),
           (14, 1), (0, 4), (2, 8), (7, 4)]


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
        ("two_hub_even(8)", two_hub_even(8)),
    ]


def oracle_corpus() -> list[tuple[str, object]]:
    return [
        ("bridged16", bridged_cubic_16()),
        ("bridged10", bridged_cubic_10()),
        ("unmatched_cubic_28", unmatched_cubic_28()),
        ("hub_quintic_16", hub_quintic_16()),
        ("hub10", hub10()),
        ("quintic38", quintic38()),
        ("cubic12", build_graph(12, CUBIC12)),
        ("cubic16", build_graph(16, CUBIC16)),
    ]


def answering_rule(trace):
    """The rule that answered a found call."""
    return next(
        s.rule for s in trace.steps
        if s.rule not in ("fallthrough", "spectrum-undecided")
    )


def answers():
    """(full record, status record, result) of every call, in corpus order."""
    for name, G in corpus():
        for k in MODULI:
            for c in INTEGER_SUMS if k == 1 else range(k):
                res = construct(G, k, c, BUDGET)
                labels = None if res.labeling is None else list(enumerate(res.labeling.labels))
                full = [name, k, c, res.status, res.c, labels, res.trace.to_jsonable()]
                yield full, [name, k, c, res.status], res


def oracle_answers():
    """(full record, status record) of every oracle call, in corpus order."""
    for name, G in oracle_corpus():
        for k in ORACLE_MODULI:
            spec = brute_force_spectrum(G, k, ORACLE_BUDGET)
            answer = "".join(
                "?" if spec.contains(c) is None else "yn"[not spec.contains(c)] for c in range(k)
            )
            searches = []
            for c in range(k):
                res = search_labeling(G, k, c, ORACLE_BUDGET)
                labels = None if res.labeling is None else list(enumerate(res.labeling.labels))
                searches.append([res.status, res.nodes, labels])
            yield [name, k, answer, searches], [name, k, answer]


def digest(records, dump, section):
    """(call count, full digest, status digest) over (full, status) records."""
    full, status = hashlib.sha256(), hashlib.sha256()
    calls = 0
    for f, s in records:
        line = json.dumps(f, sort_keys=True)
        full.update(line.encode() + b"\n")
        status.update(json.dumps(s, sort_keys=True).encode() + b"\n")
        calls += 1
        if dump is not None:
            dump.write(f"{section} {line}\n")
    return calls, full.hexdigest(), status.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--expect-full", metavar="HEX", help="fail unless the full digest is HEX")
    ap.add_argument("--expect-status", metavar="HEX", help="fail unless the status digest is HEX")
    ap.add_argument("--expect-oracle-full", metavar="HEX",
                    help="fail unless the oracle's full digest is HEX")
    ap.add_argument("--expect-oracle-status", metavar="HEX",
                    help="fail unless the oracle's status digest is HEX")
    ap.add_argument("--dump", metavar="FILE", help="write the full record of every call to FILE")
    args = ap.parse_args()

    tally = Counter()

    def construct_records():
        for f, s, res in answers():
            if res.status == "found":
                tally[answering_rule(res.trace)] += 1
            yield f, s

    with open(args.dump, "w", encoding="utf-8") if args.dump else contextlib.nullcontext() as dump:
        t0 = time.perf_counter()
        calls, full, status = digest(construct_records(), dump, "construct")
        print(f"calls   {calls}  ({time.perf_counter() - t0:.2f} s)")
        print(f"full    {full}")
        print(f"status  {status}")
        for rule, count in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
            print(f"found   {count:5d}  {rule}")
        t0 = time.perf_counter()
        oracle_calls, oracle_full, oracle_status = digest(oracle_answers(), dump, "oracle")
        print(f"oracle calls   {oracle_calls}  ({time.perf_counter() - t0:.2f} s)")
        print(f"oracle full    {oracle_full}")
        print(f"oracle status  {oracle_status}")
    failed = False
    for name, got, want in (
        ("full", full, args.expect_full),
        ("status", status, args.expect_status),
        ("oracle full", oracle_full, args.expect_oracle_full),
        ("oracle status", oracle_status, args.expect_oracle_status),
    ):
        if want is not None and got != want:
            print(f"{name} digest differs from the expected {want}", file=sys.stderr)
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
