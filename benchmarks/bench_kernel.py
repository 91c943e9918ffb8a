"""Compare the compiled backtracking kernel against the pure Python twin.

Runs the same searches through every available kernel, asserts the
results are identical (status, node count, and the labeling found), and
prints timings.  The heavy case is an absence proof on a connected graph
that visits about 5M nodes; --quick caps every search at one million
nodes instead.  Every case reaches the kernel: none is settled by the
parity count or split into components first.

Usage: python3 benchmarks/bench_kernel.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from kmagic import (
    MultiGraph,
    SolverBudget,
    build_graph,
    circulant,
    complete,
    cycle,
    petersen,
    prism,
    search_labeling,
)
from kmagic.solver import available_kernels


def bridged_prisms() -> MultiGraph:
    """Cubic graph on 34 vertices: a hub joined by bridges to three
    copies of prism(5), each with one rim edge subdivided by the vertex
    that takes the bridge.  The hub's edges are all bridges, so no 0-sum
    4-magic labeling exists, and the search has to prove it."""
    P = prism(5)
    pairs: list[tuple[int, int]] = []
    for base in (1, 12, 23):
        w = base + 10
        pairs.append((0, w))
        pairs += [(base + P.edges[0].u, w), (w, base + P.edges[0].v)]
        pairs += [(base + e.u, base + e.v) for e in P.edges[1:]]
    return build_graph(34, pairs)


CASES = [
    ("K6 k=5 c=2 (found fast)", complete(6), 5, 2),
    ("petersen k=4 c=0 (found)", petersen(), 4, 0),
    ("C9 k=9 c=0 (absent, forced)", cycle(9), 9, 0),
    ("circ8{1,2} k=6 c=3 (found)", circulant(8, (1, 2)), 6, 3),
    ("bridged prisms k=4 c=0 (absent, 5.0M nodes)", bridged_prisms(), 4, 0),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="cap searches at 1e6 nodes")
    args = ap.parse_args()

    budget = SolverBudget(exhaustive_states=1, node_cap=10**6) if args.quick else None
    kernels = available_kernels()
    print(f"kernels: {', '.join(kernels)}")
    header = f"{'case':<44} {'status':<10} {'nodes':>12}"
    for name in kernels:
        header += f" {name + ' [s]':>16}"
    header += f" {'speedup':>9}"
    print(header)
    print("-" * len(header))

    for label, G, k, c in CASES:
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

    print("all kernels returned identical results")


if __name__ == "__main__":
    main()
