"""Rule-driven construction of c-sum k-magic labelings.

construct() first predicts the spectrum; a c outside it is reported
absent with the excluding rule in the trace.  Otherwise every graph runs
one fixed cascade, cheapest first, in which each rule decides for
itself whether it applies: a constant label, the h-factor split, the
doubling search.  The exact solver runs only when every rule misses.
Why the cascade is complete on a graph with a perfect matching (at
k = 2 the constant label 1 reaches the spectrum {r mod 2}):

- r <= 2: a constant or the split on a perfect matching answers.
- even r: the split on the first Petersen 2-factor, 2a + (r - 2)b,
  reaches every sum that constants on the r/2 2-factors reach (every c
  at odd k, every even c at even k or k = 1), except c = 0 at odd k
  when r/2 = 1 (mod k), which h = 4 reaches.  An odd c at even k or at
  k = 1 needs a factor of odd degree, such as a perfect matching.
- odd r: the split at h = 1 or h = 2 reaches every sum a constant
  misses; at k = 3 and r = 3 mod 6, h = 1 alone does.

The doubling search serves graphs without one.  Both factor rules label
through one split over a weighting, one weight w[e] per edge id: the
weights at each vertex add up to h mod k, and e gets b + w[e](a - b),
so every vertex sums to h*a + (r - h)*b.  The factor split weighs an
h-factor of G 1 and the rest 0, or at h = 1, k = 3 and r = 3 mod 6
without a perfect matching, a factor whose degrees are all 1 mod 3; the
doubling search weighs each edge by how many of its two copies lie in
an h-factor of the doubled graph 2G.  Each weighting is read through its
label plan, made once per graph and weighting and kept in G.memo: the
factor split's under "split plan/{h}" (G's h-factor, or None when G has
none) and "mod3 plan", the doubling search's under "copy plan/{h}".  A
plan holds the weights present, which decide the label pairs, and a
gather that builds the m labels from the label of each weight in one
call.  Both rules look for a label pair before they ask for a factor,
so an h that no pair reaches costs no factor.
A rule whose formula goes illegal at a boundary (a label vanishing mod
k) falls through to the next rule and the event is recorded in the
trace.  Every labeling handed back has been re-verified against the
requested sum.  It lives in the result alone: the trace records the
rule that made it and that rule's parameters, not the labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import BudgetError, FactorError, KmagicError, LabelingError, RegularityError
from .factorization import double_graph
from .factors import f_factor, mod3_factor
from .graphs import MultiGraph, regularity
from .labelings import ConstructionTrace, EdgeLabeling, TraceStep, verify
from .solver import SolverBudget, search_labeling
from .spectrum import predict_spectrum


@dataclass(frozen=True)
class ConstructResult:
    """Outcome of construct: status in {found, absent, undecided}."""

    status: str
    labeling: EdgeLabeling | None
    c: int | None
    trace: ConstructionTrace


class _Miss(Exception):
    """Rule applied but its formula went illegal; recorded in the trace."""


def _norm(c: int, k: int) -> int:
    return c % k if k > 1 else c


def _accept(G, k, c, labels, rule, params):
    """Re-verify a candidate assignment: the labeling and the trace step
    that records how it was made.  labels is a tuple with edge i's label
    at index i, which the labeling takes as it is."""
    lab = EdgeLabeling(k, labels)
    try:
        got = verify(G, lab)
    except LabelingError as exc:
        raise _Miss(f"{rule}: {exc}") from None
    if got != _norm(c, k):
        raise _Miss(f"{rule}: verified sum {got}, wanted {_norm(c, k)}")
    return lab, TraceStep(rule, params)


def _rule_constant(G, r, k, c, budget):
    """All edges get one label a with r*a = c, or None when none fits;
    rule (gcd) and friends."""
    if k >= 2:
        a = next((a for a in range(1, k) if (r * a) % k == c % k), None)
    else:
        a = c // r if c != 0 and c % r == 0 else None
    if a is not None:
        return _accept(G, k, c, (a,) * G.m, "constant", {"a": a})


# the weights of a factor split: the factor's edges 1, the rest 0
_FACTOR_WEIGHTS = frozenset((0, 1))


def _label_pairs(k, c, r, h, weights):
    """(a, b) with h*a + (r - h)*b = c whose labels b + j(a - b) are
    nonzero for each weight j in weights: b at 0, a at 1, 2a - b at 2.
    Every pair of residues mod k for k >= 2, a outer, else a solved
    exactly for b in 1, 2, -1, -2, 4, -4."""
    s = r - h
    if k >= 2:
        c %= k
        for a in range(1 if 1 in weights else 0, k):
            for b in range(1 if 0 in weights else 0, k):
                if (h * a + s * b) % k == c and not (2 in weights and (2 * a - b) % k == 0):
                    yield a, b
    else:
        for b in (1, 2, -1, -2, 4, -4):
            a, rest = divmod(c - s * b, h)
            if rest == 0 and (a or 1 not in weights) and not (2 in weights and 2 * a == b):
                yield a, b


class _Plan(NamedTuple):
    """The label plan of a weighting, one weight per edge id: the weights
    present, which decide the label pairs, and gather, which reads edge
    e's label off a table of the label of each weight, 0, 1 and 2, so one
    C call gather(by_weight) builds the m labels."""

    weights: frozenset[int]
    gather: Callable[[tuple[int, int, int]], tuple[int, ...]]


def _plan(w):
    """The label plan of the weighting w."""
    get = itemgetter(*w)
    # at m = 1 itemgetter hands back the bare label, not a 1-tuple
    return _Plan(frozenset(w), get if len(w) > 1 else lambda by_weight: (get(by_weight),))


def _factor_plan(G, F):
    """The plan of the weighting that weighs the factor F 1 and the rest 0."""
    return None if F is None else _plan(tuple(map(F.__contains__, range(G.m))))


def _split(G, k, c, h, plan, pair, rule):
    """Label each edge e with b + w[e](a - b), w being the weighting
    that plan, G's memoized label plan, was made from; a vertex's weights
    add up to h mod k, so its labels add up to h*a + (r - h)*b.  The rule
    found the pair (a, b) before it asked for the plan, which reads no
    weight per call: one gather builds the labels from b, a and 2a - b,
    the labels of the weights 0, 1 and 2 (each pair is a residue mod k at
    k >= 2)."""
    a, b = pair
    labels = plan.gather((b, a, _norm(2 * a - b, k)))
    return _accept(G, k, c, labels, rule, {"h": h, "a": a, "b": b})


def _rule_factor_split(G, r, k, c, budget):
    """An h-factor labeled a against its complement labeled b, at the
    first h = 1, 2, ... where some pair fits and G has an h-factor.  The
    pairs come first: an h that no pair reaches costs no factor.  A
    factor of degree 1..r - 1 leaves both weights, 0 and 1, at every
    vertex, so its pairs are listed once per h, before its plan is read.

    At r = 1 the constant c reaches every sum but 0, which the spectrum
    excludes.  At r = 2 a constant a with 2a = c exists unless c is odd
    at even k, 0 at odd k, or odd or 0 at k = 1; the spectrum admits
    those sums only on a graph whose cycles are all even, whose perfect
    matching M labeled a and the rest b gives a + b = c.  At even r >= 4
    an odd c at even k or at k = 1 is reached on a perfect matching too:
    a + (r - 1)b = c, since at even k gcd(r - 1, k) <= k/2 leaves a b
    with (r - 1)b != c, and at k = 1, b = 1 or 2 does.

    At k = 3 and r = 3 mod 6 a constant reaches only c = 0, as r*a = 0
    mod 3 for every a, and h = 1 reaches the rest: (a, b) = (2, 1) for
    the 1-sum and (1, 2) for the 2-sum.  There the h = 1 factor is the
    mod-3 factor when G has no perfect matching: its degrees are all
    1 mod 3, so at k = 3 it weighs like a 1-factor.  A search for it
    left undecided by the budget is a miss at h = 1."""
    for h in range(1, r):
        if (h * G.n) % 2 != 0:
            continue
        pair = next(_label_pairs(k, c, r, h, _FACTOR_WEIGHTS), None)
        if pair is None:
            continue
        plan = G.memo(f"split plan/{h}", lambda: _factor_plan(G, f_factor(G, h)))
        if plan is None and h == 1 and k == 3 and r % 6 == 3:
            try:
                plan = G.memo("mod3 plan", lambda: _factor_plan(G, mod3_factor(G, budget)))
            except BudgetError:
                pass
        if plan is not None:
            return _split(G, k, c, h, plan, pair, "factor-split")
    raise _Miss("no factor split reaches the sum")


def _copy_plan(G, h):
    """The plan of the weighting that weighs each source edge by how many
    of its two copies lie in the doubled graph's h-factor, 0, 1 or 2, or
    None when the doubled graph has no h-factor.  Found once per graph
    and h."""

    def plan():
        D = double_graph(G)
        inside = f_factor(D.doubled, h)
        if inside is None:
            return None
        return _plan(tuple((orig in inside) + (dup in inside) for orig, dup in D.pairs))

    return G.memo(f"copy plan/{h}", plan)


def _rule_doubling_search(G, r, k, c, budget):
    """The split over the weighting an h-factor of the 2r-regular doubled
    graph 2G gives G: each edge weighs the number of its copies inside
    the factor, 0, 1 or 2.  It answers what the factor split misses on
    graphs without a perfect matching.

    h runs over the degrees of the parity of r + 1.  At even r it sees
    only an odd c, and an even-h weighting only ever sums to an even c,
    as h*a + (r - h)*b is then even."""
    for h in range(1 + r % 2, 2 * r, 2):
        if not any(_label_pairs(k, c, r, h, ())):
            continue
        plan = _copy_plan(G, h)
        if plan is not None:
            pair = next(_label_pairs(k, c, r, h, plan.weights), None)
            if pair is not None:
                return _split(G, k, c, h, plan, pair, "doubling-parameter-search")
    raise _Miss("no doubling parameters reach the sum")


# every graph runs these in order, cheapest first; the first to succeed wins
_CASCADE = (
    ("constant", _rule_constant),
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
    step = TraceStep(_SOLVER_STEP[res.status], {"nodes": res.nodes})
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
            found = fn(G, r, k, cn, budget)
        except (_Miss, FactorError) as exc:
            pre.append(TraceStep("fallthrough", {"rule": name, "reason": str(exc)}))
            continue
        if found is not None:
            lab, step = found
            return ConstructResult("found", lab, cn, ConstructionTrace((*pre, step)))
    return _solver_result(G, k, cn, budget, pre)
