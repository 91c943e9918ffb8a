"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every comparison in this file is exact set or value equality; there are
no tolerance knobs.  The oracle side is always brute_force_spectrum or
exhaustive_factor_search, which share no formulas with the predicted
side.  Run with -s to see the per-criterion lines.
"""

import time

import pytest

from kmagic import (
    GraphError,
    brute_force_spectrum,
    complete,
    construct,
    cycle,
    double_graph,
    EdgeLabeling,
    exhaustive_factor_search,
    extend_by_factor,
    f_factor,
    fold,
    petersen,
    predict_spectrum,
    random_regular,
    two_factorization,
    verify,
)
from kmagic.factorization import check_factor

from conftest import CORPUS_BUILDERS, hub_quintic_16

CORPUS_NAMES = sorted(CORPUS_BUILDERS)
SOLVER_STEPS = {"spectrum-undecided", "solver", "solver-exhausted", "solver-budget-exceeded"}


def report(num: int, title: str, failures: list[str], extra: str = "") -> None:
    word = "PASS" if not failures else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} {title}: {word}{tail}")
    if failures:
        pytest.fail(f"criterion {num}: {len(failures)} failures\n" + "\n".join(failures[:20]))


@pytest.fixture(scope="module")
def corpus():
    return {name: CORPUS_BUILDERS[name]() for name in CORPUS_NAMES}


@pytest.fixture(scope="module")
def oracle_cache(corpus):
    """Brute-force spectra for the corpus at k = 3..6, computed once."""
    cache = {}
    for name in CORPUS_NAMES:
        for k in range(3, 7):
            cache[name, k] = brute_force_spectrum(corpus[name], k)
    return cache


def test_criterion_1_cycle_spectra_match_formula():
    t0 = time.monotonic()
    failures = []
    for n in range(3, 10):
        G = cycle(n)
        for k in range(3, 9):
            pred = predict_spectrum(G, k)
            orac = brute_force_spectrum(G, k)
            if pred.undecided or orac.undecided:
                failures.append(f"C{n} k={k}: undecided")
            elif pred.residues != orac.residues:
                failures.append(
                    f"C{n} k={k}: predict {sorted(pred.residues)}"
                    f" != oracle {sorted(orac.residues)}"
                )
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        failures.append(f"cycle grid took {elapsed:.1f}s, limit 120s")
    report(1, "cycle spectra, n=3..9, k=3..8", failures, f"{elapsed:.2f}s")


def test_criterion_2_corpus_prediction_matches_oracle(corpus, oracle_cache):
    failures = []
    for name in CORPUS_NAMES:
        for k in range(3, 7):
            pred = predict_spectrum(corpus[name], k)
            orac = oracle_cache[name, k]
            if pred.undecided or orac.undecided:
                failures.append(f"{name} k={k}: undecided")
            elif pred.residues != orac.residues:
                failures.append(
                    f"{name} k={k}: predict {sorted(pred.residues)}"
                    f" != oracle {sorted(orac.residues)}"
                )
    report(2, "corpus predict == oracle, k=3..6", failures)


def test_criterion_3_construction_sound_and_complete(corpus, oracle_cache):
    failures = []
    for name in CORPUS_NAMES:
        G = corpus[name]
        for k in range(3, 7):
            members = oracle_cache[name, k].residues
            for c in range(k):
                res = construct(G, k, c)
                if c in members:
                    if res.status != "found":
                        failures.append(f"{name} k={k} c={c}: {res.status}, oracle has it")
                    elif verify(G, res.labeling) != c:
                        failures.append(f"{name} k={k} c={c}: labeling does not verify")
                elif res.status != "absent":
                    failures.append(f"{name} k={k} c={c}: {res.status}, oracle excludes it")
    report(3, "construct found/absent matches oracle, k=3..6", failures)


def test_criterion_4_point_values(oracle_cache):
    expected = {
        ("K5", 6): {0, 2, 4},
        ("K5", 4): {0, 2},
        ("petersen", 5): {0, 1, 2, 3, 4},
    }
    failures = []
    for (name, k), want in expected.items():
        orac = oracle_cache[name, k]
        pred = predict_spectrum(CORPUS_BUILDERS[name](), k)
        if orac.residues != want:
            failures.append(f"{name} k={k}: oracle {sorted(orac.residues)} != {sorted(want)}")
        if pred.residues != want:
            failures.append(f"{name} k={k}: predict {sorted(pred.residues)} != {sorted(want)}")
    C3 = cycle(3)
    for route, spec in (("oracle", brute_force_spectrum(C3, 3)), ("predict", predict_spectrum(C3, 3))):
        if spec.residues != {1, 2}:
            failures.append(f"C3 k=3 {route}: {sorted(spec.residues)} != [1, 2]")
    report(4, "frozen point values by both routes", failures)


def test_criterion_5_factor_machinery(corpus):
    failures = []
    for name in CORPUS_NAMES:
        G = corpus[name]
        D = double_graph(G).doubled
        dec = two_factorization(D)
        seen: set[int] = set()
        for part in dec.parts:
            if seen & part:
                failures.append(f"{name}: doubled 2-factors overlap")
            seen |= part
            try:
                check_factor(D, part, 2)
            except Exception as exc:
                failures.append(f"{name}: doubled part not a 2-factor: {exc}")
        if seen != set(range(D.m)):
            failures.append(f"{name}: doubled 2-factors miss edges")

    pm = f_factor(petersen(), 1)
    if pm is None:
        failures.append("petersen: no perfect matching found")
    else:
        try:
            check_factor(petersen(), pm, 1)
        except Exception as exc:
            failures.append(f"petersen matching: {exc}")
    if f_factor(complete(5), 1) is not None:
        failures.append("K5: perfect matching reported on odd order")

    for name in CORPUS_NAMES:
        G = corpus[name]
        if G.m > 16:
            continue
        r = max(G.degrees)
        for h in range(r + 1):
            got = f_factor(G, h)
            want = exhaustive_factor_search(G, [h] * G.n)
            if (got is None) != (want is None):
                failures.append(f"{name} h={h}: matching {got is not None}, exhaustive {want is not None}")
    report(5, "2-factorizations and f-factors vs exhaustive", failures)


def test_criterion_6_five_regular_zero_sum():
    failures = []
    # k >= 5: the constant label, else the factor split on K6's perfect
    # matching, or without one the doubling search, which splits a
    # weighting of degree h = 2 (2a + 3b = 0) or, at k = 8, of degree
    # h = 4 (4a + b = 0); with or without a perfect matching, no solver step
    for G in (complete(6), hub_quintic_16()):
        for k in range(5, 13):
            res = construct(G, k, 0)
            if res.status != "found" or verify(G, res.labeling) != 0:
                failures.append(f"k={k}, n={G.n}: construct status {res.status}")
            elif SOLVER_STEPS & set(res.trace.rules()):
                failures.append(f"k={k}, n={G.n}: solver step in {res.trace.rules()}")
    # k = 3: K6's perfect matching gives a factor split; without one the
    # zero sum falls to the solver
    for G, rule in ((complete(6), "factor-split"), (hub_quintic_16(), "solver")):
        res = construct(G, 3, 0)
        if res.status != "found" or verify(G, res.labeling) != 0:
            failures.append(f"k=3, n={G.n}: construct status {res.status}")
        elif res.trace.rules()[-1] != rule:
            failures.append(f"k=3, n={G.n}: expected {rule}, trace {res.trace.rules()}")
    report(6, "5-regular zero sums: factor split, doubling search and solver", failures)


def test_criterion_7_invariants_and_transform_contracts(corpus):
    failures = []
    # spectrum invariants over the corpus
    for name in CORPUS_NAMES:
        G = corpus[name]
        r = G.degrees[0]
        for k in range(3, 9):
            spec = predict_spectrum(G, k)
            if spec.undecided:
                failures.append(f"{name} k={k}: prediction undecided")
                continue
            res = spec.residues
            if {(k - c) % k for c in res} != res:
                failures.append(f"{name} k={k}: spectrum not symmetric")
            if k % 2 == 0 and G.n % 2 == 1 and any(c % 2 for c in res):
                failures.append(f"{name} k={k}: odd sum on odd order, even k")
            from math import gcd

            d = gcd(r, k)
            for t in range(k):
                v = (t * d) % k
                if v == 0 and d == 1:
                    continue
                if v not in res:
                    failures.append(f"{name} k={k}: multiple {v} of gcd {d} missing")

    # transform contracts on seeded random regular graphs
    graphs = []
    seed = 0
    while len(graphs) < 110 and seed < 3000:
        n = 4 + seed % 7  # 4..10
        r = 2 + seed % 4  # 2..5
        seed += 1
        if r >= n or (n * r) % 2:
            continue
        try:
            graphs.append(random_regular(n, r, seed=seed))
        except GraphError:
            continue
    if len(graphs) < 100:
        failures.append(f"only {len(graphs)} random graphs generated")
    for i, G in enumerate(graphs):
        k = 3 + i % 6  # 3..8
        r = G.degrees[0]
        c0 = r % k
        res = construct(G, k, c0)
        if res.status != "found" or verify(G, res.labeling) != c0:
            failures.append(f"graph {i} (n={G.n}, r={r}) k={k}: constant sum not found")
            continue
        comp = EdgeLabeling(k, tuple(k - x for x in res.labeling.labels))
        if verify(G, comp) != (k - c0) % k:
            failures.append(f"graph {i} k={k}: complement sum wrong")
        D = double_graph(G)
        ones = EdgeLabeling(k, (1,) * D.doubled.m)
        folded, cf = fold(D, ones, 1)
        if cf != (2 * r) % k or verify(G, folded) != cf:
            failures.append(f"graph {i} k={k}: fold divisor 1 broke the sum")
        half, ch = fold(D, ones, 2)
        if ch != c0 or half.labels != (1,) * G.m:
            failures.append(f"graph {i} k={k}: fold divisor 2 is not the identity here")
        ext, ce = extend_by_factor(G, range(G.m), res.labeling.labels, k)
        if ce != c0 or ext.labels != res.labeling.labels:
            failures.append(f"graph {i} k={k}: full-factor extension changed the labeling")
    report(
        7,
        "invariants (corpus) and transform contracts (random graphs)",
        failures,
        f"{len(graphs)} random graphs",
    )


def test_criterion_8_exactness_of_this_gate():
    # the gate itself must compare exactly: no approximate assertions
    # anywhere in this file, and every criterion above is present
    import pathlib

    src = pathlib.Path(__file__).read_text(encoding="ascii")
    failures = []
    for token in ("pytest." + "approx", "math." + "isclose", "rel" + "_tol", "abs" + "_tol"):
        if token in src:
            failures.append(f"tolerance construct {token} found in the acceptance gate")
    for i in range(1, 8):
        if f"def test_criterion_{i}_" not in src:
            failures.append(f"criterion {i} test missing")
    report(8, "gate uses exact comparisons only", failures)
