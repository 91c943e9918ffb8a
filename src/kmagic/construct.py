"""Rule-driven construction of c-sum k-magic labelings.

construct() first predicts the spectrum; a c outside it is reported
absent with the excluding rule in the trace.  Otherwise a fixed cascade
of constructions is tried, cheapest first, and the exact solver runs
only when every rule misses: a constant label, then

- r <= 2: the h-factor split on a perfect matching, which reaches the
  sums a constant misses on a union of even cycles.
- even r >= 4: constants on the Petersen 2-factors, which miss only an
  odd c at even k or at k = 1; the h-factor split, which reaches it on
  a perfect matching; without one, the doubling search, which folds
  factors of odd degree of the doubled graph.
- odd r, c = 0: at k = 3 and 4 the h-factor split on a perfect matching
  M or a 2-factor of G - M; else the doubling search, 5-regular included.
- odd r, c != 0: the mod-3 factor (k = 3, 3 | r); the doubling search,
  whose h = 2 candidates are the gcd and even-k folds and their
  complements; the h-factor split.

_rule_sequence gives the argument for each class.  A rule whose formula
goes illegal at a boundary (a label vanishing mod k) falls through to
the next rule and the event is recorded in the trace.  Every labeling
handed back has been re-verified against the requested sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, FactorError, KmagicError, LabelingError, RegularityError
from .factorization import double_graph, two_factorization
from .factors import f_factor, mod3_factor
from .graphs import MultiGraph, regularity
from .labelings import (
    ConstructionTrace,
    EdgeLabeling,
    TraceStep,
    fold,
    verify,
)
from .solver import SolverBudget, search_labeling
from .spectrum import predict_spectrum


@dataclass(frozen=True)
class ConstructResult:
    """Outcome of construct: status in {found, absent, undecided}."""

    status: str
    labeling: EdgeLabeling | None
    c: int | None
    trace: ConstructionTrace


class _Skip(Exception):
    """Rule did not produce a labeling."""


class _NotApplicable(_Skip):
    """Guard failed; not worth a trace entry."""


class _Miss(_Skip):
    """Rule applied but its formula went illegal; recorded in the trace."""


def _norm(c: int, k: int) -> int:
    return c % k if k > 1 else c


def _accept(G, k, c, labels, rule, params, extra_steps=()):
    """Re-verify a candidate assignment and close the trace with it.

    labels is a dict no caller uses again, so the labeling takes it as
    it is and only the trace step gets a copy."""
    lab = EdgeLabeling(k, labels)
    try:
        got = verify(G, lab)
    except LabelingError as exc:
        raise _Miss(f"{rule}: {exc}") from None
    if got != _norm(c, k):
        raise _Miss(f"{rule}: verified sum {got}, wanted {_norm(c, k)}")
    steps = list(extra_steps)
    steps.append(TraceStep(rule, dict(params), labels=dict(labels)))
    return lab, steps


# ---------------------------------------------------------------------------
# individual rules


def _rule_constant(G, r, k, c, budget):
    """All edges get one label a with r*a = c; rule (gcd) and friends."""
    if k >= 2:
        for a in range(1, k):
            if (r * a) % k == c % k:
                return _accept(G, k, c, dict.fromkeys(range(G.m), a), "constant", {"a": a})
        raise _NotApplicable("no constant label fits")
    if c != 0 and c % r == 0:
        a = c // r
        return _accept(G, k, c, dict.fromkeys(range(G.m), a), "constant", {"a": a})
    raise _NotApplicable("no constant label fits")


def _two_factor_values(rho: int, k: int, c: int) -> list[int] | None:
    """Per-2-factor constants x_i with 2*sum(x_i) = c, all nonzero: rho - 2
    ones and a pair b1 <= b2, the smallest b1 first.

    rho >= 2, as r = 2*rho >= 4 here, and one constant on every 2-factor
    is never tried: 2*rho*a = c is the constant rule, which runs first."""
    if k >= 2:
        cn = c % k
        for b1 in range(1, k):
            for b2 in range(b1, k):
                if (2 * (rho - 2) + 2 * b1 + 2 * b2) % k == cn:
                    return [1] * (rho - 2) + [b1, b2]
        return None
    if c % 2 != 0:
        return None
    s2 = c // 2 - (rho - 2)
    u, v = (1, s2 - 1) if s2 != 1 else (2, -1)
    if u == 0 or v == 0:
        return None
    return [1] * (rho - 2) + [u, v]


def _rule_two_factor_constants(G, r, k, c, budget):
    """Zero-sum and even-sum workhorse for even degree."""
    parts = two_factorization(G).parts
    values = _two_factor_values(len(parts), k, c)
    if values is None:
        raise _NotApplicable("no 2-factor constants reach the sum")
    labels: dict[int, int] = {}
    for part, x in zip(parts, values):
        for eid in part:
            labels[eid] = x
    return _accept(G, k, c, labels, "two-factor-constants", {"values": values})


def _label_pairs(k, c, t, s, divisors=(1,)):
    """(a, b, divisor) with (t*a + s*b) / divisor = c and a, b nonzero, a
    and b of one parity under divisor 2: every pair of residues mod k for
    k >= 2, else a solved exactly for b in 1, 2, -1, -2."""
    for divisor in divisors:
        if k >= 2:
            for a in range(1, k):
                for b in range(1, k):
                    if divisor == 2 and (a - b) % 2 != 0:
                        continue
                    if ((t * a + s * b) // divisor) % k == c % k:
                        yield a, b, divisor
        else:
            for b in (1, 2, -1, -2):
                num = c * divisor - s * b
                if num % t != 0:
                    continue
                a = num // t
                if a == 0 or (divisor == 2 and (a - b) % 2 != 0):
                    continue
                yield a, b, divisor


def _rule_factor_split(G, r, k, c, budget):
    """An h-factor labeled a against its complement labeled b."""
    for t in range(1, r):
        if (t * G.n) % 2 != 0:
            continue
        F = f_factor(G, t)
        if F is None:
            continue
        for a, b, _ in _label_pairs(k, c, t, r - t):
            labels = {e: a if e in F else b for e in range(G.m)}
            return _accept(G, k, c, labels, "factor-split", {"h": t, "a": a, "b": b})
    raise _Miss("no factor split reaches the sum")


def _fold_factor(G, k, c, h, a, b, divisor):
    """Label an h-factor of the doubled graph a, every other edge b, and
    fold with the divisor.  The doubled graph has an h-factor: the
    caller has found its _pair_copy_counts."""
    D = double_graph(G)
    F = f_factor(D.doubled, h)
    lab2 = {e: a if e in F else b for e in range(D.doubled.m)}
    params = {"h": h, "a": a, "b": b, "divisor": divisor}
    step = TraceStep("doubling-parameter-search", params, labels=dict(lab2), scope="doubled")
    try:
        folded, got = fold(D, EdgeLabeling(k, lab2), divisor)
    except LabelingError as exc:
        raise _Miss(f"fold: {exc}") from None
    if got != _norm(c, k):
        raise _Miss(f"fold: folded sum {got}, wanted {_norm(c, k)}")
    return _accept(G, k, c, folded.labels, "fold", {"divisor": divisor}, extra_steps=[step])


def _pair_copy_counts(G, h):
    """How many of its two copies a source edge has in the doubled graph's
    h-factor, as a set over all source edges: a subset of {0, 1, 2}, or
    None when the doubled graph has no h-factor.  Found once per graph
    and h."""

    def counts():
        D = double_graph(G)
        inside = f_factor(D.doubled, h)
        if inside is None:
            return None
        return frozenset((orig in inside) + (dup in inside) for orig, dup in D.pairs)

    return G.memo(f"pair copy counts/{h}", counts)


def _rule_doubling_search(G, r, k, c, budget):
    """Parametric doubling: an h-factor of the 2r-regular doubled graph
    labeled a, the complement b, folded with divisor 1 or 2.  h runs over
    the degrees of the parity of r + 1 (see _rule_sequence).  Tries all
    (a, b) pairs except those under which some source edge would fold
    to 0."""
    for h in range(1 + r % 2, 2 * r, 2):
        for a, b, divisor in _label_pairs(k, c, h, 2 * r - h, (1, 2)):
            counts = _pair_copy_counts(G, h)
            if counts is None:
                break
            if any(_norm((j * a + (2 - j) * b) // divisor, k) == 0 for j in counts):
                continue
            try:
                return _fold_factor(G, k, c, h, a, b, divisor)
            except _Skip:
                continue
    raise _Miss("no doubling parameters reach the sum")


def _rule_mod3_factor(G, r, k, c, budget):
    """k = 3, r = 3 mod 6: factor with degrees 1 mod 3 labeled 2 against
    ones gives the 1-sum; its complement the 2-sum."""
    try:
        H = mod3_factor(G, budget)
    except BudgetError as exc:
        raise _Miss(f"mod-3 factor undecided: {exc}") from None
    if H is None:
        raise _Miss("no mod-3 factor")
    cn = c % 3
    labels = {e: 2 if e in H else 1 for e in range(G.m)}
    if cn == 1:
        return _accept(G, 3, cn, labels, "mod3-factor", {"factor_label": 2})
    flipped = {e: 3 - v for e, v in labels.items()}
    return _accept(
        G, 3, cn, flipped, "mod3-factor", {"factor_label": 1, "complemented": True}
    )


# ---------------------------------------------------------------------------
# dispatcher


# closing trace step of a solver answer, by its status
_SOLVER_STEP = {
    "found": "solver",
    "absent": "solver-exhausted",
    "undecided": "solver-budget-exceeded",
}


def _solver_result(G, k, c, budget, pre_steps):
    if k == 1:
        steps = pre_steps + [
            TraceStep("undecided", {"reason": "no exhaustive search over the integers"})
        ]
        return ConstructResult("undecided", None, None, ConstructionTrace(tuple(steps)))
    res = search_labeling(G, k, c, budget)
    lab = res.labeling if res.status == "found" else None
    step = TraceStep(
        _SOLVER_STEP[res.status], {"nodes": res.nodes},
        labels=None if lab is None else dict(lab.labels),
    )
    return ConstructResult(
        res.status, lab, None if lab is None else c % k,
        ConstructionTrace(tuple(pre_steps + [step])),
    )


def _rule_sequence(G, r, k, c):
    """Dispatch order; first entry to succeed wins.

    Why each class of (r, k, c) needs no other rule.  At k = 2 the
    spectrum is {r mod 2}, which the constant label 1 reaches, so no
    later rule runs there.

    - r <= 2: at r = 1 the constant label c reaches every sum but 0,
      which the spectrum excludes.  At r = 2 a constant a with 2a = c
      exists unless c is odd at even k, 0 at odd k, or odd or 0 at
      k = 1.  The spectrum admits those sums only on a graph whose
      cycles are all even.  Such a graph has a perfect matching M, and
      factor-split at h = 1 labels M a and the rest b with a + b = c,
      a and b nonzero.
    - even r >= 4: with rho = r/2 >= 2 nonzero 2-factor constants, 2
      times their sum is any multiple of 2 mod k, so two-factor-constants
      reaches every c at odd k and every even c at even k or at k = 1.
      For an odd c, a perfect matching (which any 2-factor of even
      cycles contains) lets factor-split at h = 1 solve
      a + (r - 1)b = c: at even k, gcd(r - 1, k) <= k/2 leaves a b with
      (r - 1)b != c, and at k = 1, b = 1 or 2 does.  So the doubling
      search sees only an odd c on a graph without a perfect matching.
      It folds factors of odd degree h of the doubled graph: h and
      2r - h are then odd, so that ha + (2r - h)b has the parity of
      a + b and divisor 1 reaches odd sums.  A factor of even degree h
      folds only to even sums, as divisor 1 gives ha + (2r - h)b, which
      is even, and divisor 2 needs a = b (mod 2), so that
      (ha + (2r - h)b)/2 = rb + h(a - b)/2 is even.
    - odd r, c = 0: the 5-regular doublings are doubling candidates,
      [k - 4, 1] with divisor 1 at h = 2 and [2, 2, 4] with divisor 2
      at h = 4.
    - odd r, c != 0: factor-split comes last, as on a graph without a
      perfect matching it runs the factor gadget for every h.  The gcd
      and even-k folds are h = 2 doubling candidates, and the complement
      of a divisor-1 fold of [x, y] is the fold of [k - x, k - y].  At
      odd k the h = 2, divisor-1 candidates miss for at most
      gcd(r - 1, k) + gcd(r - 2, k) values of b.  At the k = 3b boundary
      of 3 | r these two gcds are coprime and prime to 3, so they sum
      to at most k/3 + 1 < k - 1 and some b is left.
    """
    cn = _norm(c, k)
    rules: list[tuple[str, object]] = [("constant", _rule_constant)]
    if r <= 2:
        rules.append(("factor-split", _rule_factor_split))
    elif r % 2 == 0:
        rules.append(("two-factor-constants", _rule_two_factor_constants))
        rules.append(("factor-split", _rule_factor_split))
        rules.append(("doubling-parameter-search", _rule_doubling_search))
    elif cn == 0:
        if k in (3, 4):
            rules.append(("factor-split", _rule_factor_split))
        if k != 4:
            rules.append(("doubling-parameter-search", _rule_doubling_search))
    else:
        if k == 3 and r % 6 == 3:
            rules.append(("mod3-factor", _rule_mod3_factor))
        rules.append(("doubling-parameter-search", _rule_doubling_search))
        rules.append(("factor-split", _rule_factor_split))
    return rules


def construct(
    G: MultiGraph, k: int, c: int, budget: SolverBudget | None = None
) -> ConstructResult:
    """Build a c-sum k-magic labeling of a regular graph, or explain why not.

    Returns found (labeling, verified sum, trace), absent (trace cites
    the excluding rule or the exhausted search), or undecided (budget).
    """
    if k < 1:
        raise KmagicError(f"modulus must be >= 1, got {k}")
    r = regularity(G)
    if r is None or r < 1:
        raise RegularityError(f"construction needs a regular graph with r >= 1, got r={r}")
    cn = _norm(c, k)
    spec = predict_spectrum(G, k, budget)
    member = spec.contains(cn)
    if member is False:
        step = TraceStep(
            "spectrum-excluded", {"c": cn, "k": k, "why": list(spec.provenance)}
        )
        return ConstructResult("absent", None, None, ConstructionTrace((step,)))
    pre: list[TraceStep] = []
    if member is None:
        pre.append(TraceStep("spectrum-undecided", {"c": cn, "k": k}))
        return _solver_result(G, k, cn, budget, pre)
    for name, fn in _rule_sequence(G, r, k, cn):
        try:
            lab, steps = fn(G, r, k, cn, budget)
        except _NotApplicable:
            continue
        except (_Miss, FactorError) as exc:
            pre.append(TraceStep("fallthrough", {"rule": name, "reason": str(exc)}))
            continue
        return ConstructResult(
            "found", lab, cn, ConstructionTrace(tuple(pre + steps))
        )
    return _solver_result(G, k, cn, budget, pre)
