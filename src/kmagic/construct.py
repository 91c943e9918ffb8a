"""Rule-driven construction of c-sum k-magic labelings.

construct() first predicts the spectrum; a c outside it is reported
absent with the excluding rule in the trace.  Otherwise every graph runs
one fixed cascade, cheapest first, in which each rule decides for
itself whether it applies: a constant label, the mod-3 factor, the
h-factor split, the doubling search.  The exact solver runs only when
every rule misses.  Why the cascade is complete on a graph with a
perfect matching (at k = 2 the constant label 1 reaches the spectrum
{r mod 2}):

- r <= 2: a constant or the split on a perfect matching answers.
- even r: the split on the first Petersen 2-factor, 2a + (r - 2)b,
  reaches every sum that constants on the r/2 2-factors reach (every c
  at odd k, every even c at even k or k = 1), except c = 0 at odd k
  when r/2 = 1 (mod k), which h = 4 reaches.  An odd c at even k or at
  k = 1 needs a factor of odd degree, such as a perfect matching.
- odd r: the split at h = 1 or h = 2 reaches every sum a constant
  misses.

The doubling search serves graphs without one.  A rule whose formula
goes illegal at a boundary (a label vanishing mod k) falls through to
the next rule and the event is recorded in the trace.  Every labeling
handed back has been re-verified against the requested sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, FactorError, KmagicError, LabelingError, RegularityError
from .factorization import double_graph
from .factors import f_factor, mod3_factor
from .graphs import MultiGraph, regularity
from .labelings import ConstructionTrace, EdgeLabeling, TraceStep, fold, verify
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


def _rule_mod3_factor(G, r, k, c, budget):
    """k = 3, r = 3 mod 6, c != 0: a factor with degrees 1 mod 3 labeled 2
    against ones gives the 1-sum; its complement the 2-sum.  There no
    constant fits, as r*a = 0 mod 3 for every a."""
    if k != 3 or r % 6 != 3 or c == 0:
        raise _NotApplicable("the mod-3 factor serves only nonzero sums mod 3 at r = 3 mod 6")
    try:
        H = mod3_factor(G, budget)
    except BudgetError as exc:
        raise _Miss(f"mod-3 factor undecided: {exc}") from None
    if H is None:
        raise _Miss("no mod-3 factor")
    x = 2 if c == 1 else 1
    labels = {e: x if e in H else 3 - x for e in range(G.m)}
    params = {"factor_label": 2} if c == 1 else {"factor_label": 1, "complemented": True}
    return _accept(G, 3, c, labels, "mod3-factor", params)


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
    """An h-factor labeled a against its complement labeled b, at the
    first h = 1, 2, ... where G has an h-factor and some pair fits.

    At r = 1 the constant c reaches every sum but 0, which the spectrum
    excludes.  At r = 2 a constant a with 2a = c exists unless c is odd
    at even k, 0 at odd k, or odd or 0 at k = 1; the spectrum admits
    those sums only on a graph whose cycles are all even, whose perfect
    matching M labeled a and the rest b gives a + b = c.  At even r >= 4
    an odd c at even k or at k = 1 is reached on a perfect matching too:
    a + (r - 1)b = c, since at even k gcd(r - 1, k) <= k/2 leaves a b
    with (r - 1)b != c, and at k = 1, b = 1 or 2 does."""
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
    labeled a, the complement b, folded with divisor 1 or 2.  Tries all
    (a, b) pairs except those under which some source edge would fold
    to 0.  It answers what the factor split misses on graphs without a
    perfect matching.

    h runs over the degrees of the parity of r + 1.  At even r it sees
    only an odd c, and folds factors of odd degree h: h and 2r - h are
    then odd, so that ha + (2r - h)b has the parity of a + b and divisor
    1 reaches odd sums.  A factor of even degree h folds only to even
    sums, as divisor 1 gives ha + (2r - h)b, which is even, and divisor
    2 needs a = b (mod 2), so that (ha + (2r - h)b)/2 = rb + h(a - b)/2
    is even.

    At odd r the gcd and even-k folds are h = 2 candidates, and the
    complement of a divisor-1 fold of [x, y] is the fold of
    [k - x, k - y].  At odd k the h = 2, divisor-1 candidates miss for
    at most gcd(r - 1, k) + gcd(r - 2, k) values of b.  At the k = 3b
    boundary of 3 | r these two gcds are coprime and prime to 3, so
    they sum to at most k/3 + 1 < k - 1 and some b is left.  For c = 0
    the 5-regular doublings are candidates too, [k - 4, 1] with divisor
    1 at h = 2 and [2, 2, 4] with divisor 2 at h = 4."""
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


# every graph runs these in order, cheapest first; the first to succeed wins
_CASCADE = (
    ("constant", _rule_constant),
    ("mod3-factor", _rule_mod3_factor),
    ("factor-split", _rule_factor_split),
    ("doubling-parameter-search", _rule_doubling_search),
)


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
        step = TraceStep("spectrum-excluded", {"c": cn, "k": k, "why": list(spec.provenance)})
        return ConstructResult("absent", None, None, ConstructionTrace((step,)))
    pre: list[TraceStep] = []
    if member is None:
        pre.append(TraceStep("spectrum-undecided", {"c": cn, "k": k}))
        return _solver_result(G, k, cn, budget, pre)
    for name, fn in _CASCADE:
        try:
            lab, steps = fn(G, r, k, cn, budget)
        except _NotApplicable:
            continue
        except (_Miss, FactorError) as exc:
            pre.append(TraceStep("fallthrough", {"rule": name, "reason": str(exc)}))
            continue
        return ConstructResult("found", lab, cn, ConstructionTrace(tuple(pre + steps)))
    return _solver_result(G, k, cn, budget, pre)
