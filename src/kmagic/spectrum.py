"""Sum spectra: brute-force computation and closed-form prediction.

The sum spectrum of G mod k is the set of residues c admitting a c-sum
k-magic labeling.  brute_force_spectrum decides membership by budgeted
backtracking, one search per unit orbit; predict_spectrum applies the
characterization of completely k-magic regular graphs.  Where the
characterization asks for a predicate, theory settles it first: the
zero-sum 4-magic status of an odd-degree graph by a perfect matching,
whose absence also settles it for a cubic graph, and mod-3 factor
existence by a perfect matching.  The budgeted solver decides only what
is left, searching a graph one 2-edge-connected piece at a time.  At
k = 2 the only label is 1, so the spectrum is {r mod 2} in closed form
and the oracle there is independent of the prediction.  Disconnected
graphs are handled component by component and the spectra intersected,
since a magic labeling restricts to every component.

The prediction reads only three facts of each component, each from one
source: the degree (regularity), the order (the graph's vertex profile)
and, only at k = 3 and 4 with odd degree, whether it has a perfect
matching (kmagic.factors.has_perfect_matching), all components answered
by one maximum matching of the whole graph.  A component is built as a
graph of its own only where the solver still decides: a zero sum mod 4
at odd r >= 5, or a mod-3 factor at r = 3 mod 6, r > 3, without a
perfect matching.  The oracle reads only whether each search found a
labeling, so it takes the status of one split_search call and builds
no labeling.

The prediction depends on k only through k in {1, 2, 3, 4} and, for
k >= 5, the parity of k: conditions (2)-(4) and every answer at r <= 2
read only r, the order and k mod 2.  So each graph keeps one prediction
per class (MultiGraph.memo).  At k = 1, odd k >= 5 and even k >= 5 that
is a symbolic tag (Z, Z*, 2Z or 2Z*) with its provenance, from which
each call builds its own k's residues, under "spectrum/1",
"spectrum/odd" and "spectrum/even"; no solver is asked there, so the
key holds no budget.  At k = 3 and 4, where the solver may be asked,
it is the SpectrumSet itself under "spectrum/<k>/<node_cap>", so an
answer left undecided under a small cap never stands for a larger one.
k = 2 is the closed form, computed on every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd

from .errors import BudgetError, KmagicError, RegularityError
from .factors import has_perfect_matching, unmatched_mod3_factor
from .graphs import MultiGraph, _vertex_profile, component_graph, regularity
from .solver import DEFAULT_BUDGET, SolverBudget, _search_status

SYMBOLIC_TAGS = ("Z", "Z*", "2Z", "2Z*")  # * marks "zero excluded"

# Conditions under which a regular graph of degree r and order n >= 3 is
# completely k-magic; cited in provenance strings by number.
CONDITIONS = {
    1: "condition (1): 2-regular with every cycle even, k >= 3",
    2: "condition (2): k >= 5, odd degree r >= 3",
    3: "condition (3): k >= 5, even degree r >= 4, even order",
    4: "condition (4): odd k >= 5, even degree r >= 4, odd order",
    5: "condition (5): k = 4, r >= 3, even order, zero-sum 4-magic",
    6: "condition (6): k = 3 and (r % 3 != 0, or r % 6 == 0, or a mod-3 factor exists)",
}


@dataclass(frozen=True)
class SpectrumSet:
    """A sum spectrum: finite residue set mod k, or symbolic for k = 1."""

    k: int
    residues: frozenset[int] | None = None
    symbolic: str | None = None
    provenance: tuple[str, ...] = ()
    undecided: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if (self.residues is None) == (self.symbolic is None):
            raise KmagicError("exactly one of residues and symbolic must be set")
        if self.symbolic is not None and self.symbolic not in SYMBOLIC_TAGS:
            raise KmagicError(f"unknown symbolic tag {self.symbolic!r}")
        if (self.k == 1) != (self.symbolic is not None):
            raise KmagicError("k = 1 spectra are symbolic, k >= 2 spectra are residue sets")

    def contains(self, c: int) -> bool | None:
        """Membership of c, or None when the solver left c undecided."""
        if self.symbolic is not None:
            even_only = self.symbolic.startswith("2")
            no_zero = self.symbolic.endswith("*")
            if even_only and c % 2 != 0:
                return False
            if no_zero and c == 0:
                return False
            return True
        c %= self.k
        if c in self.undecided:
            return None
        return c in self.residues

    def is_complete(self) -> bool:
        if self.symbolic is not None:
            return self.symbolic == "Z"
        return not self.undecided and self.residues == frozenset(range(self.k))

    def to_json(self) -> str:
        payload: dict = {
            "complete": self.is_complete(),
            "k": self.k,
            "provenance": list(self.provenance),
            "undecided": sorted(self.undecided),
        }
        if self.symbolic is not None:
            payload["symbolic"] = self.symbolic
        else:
            payload["spectrum"] = sorted(self.residues)
        return json.dumps(payload, sort_keys=True) + "\n"


def _regular_degree(G: MultiGraph) -> int:
    """G's common degree r; raises RegularityError unless G is r-regular, r >= 1."""
    r = regularity(G)
    if r is None or r < 1:
        raise RegularityError(f"need a regular graph with r >= 1, got r={r}")
    return r


def brute_force_spectrum(G: MultiGraph, k: int, budget: SolverBudget | None = None) -> SpectrumSet:
    """Spectrum by exhaustive backtracking, one search per unit orbit.

    Multiplying every label by a unit u of Z_k turns a c-sum labeling
    into a uc-sum one, so all c with the same gcd(c, k) are in or out
    together.  Each class is searched at its smallest member first; the
    next member is tried only while the searches come back undecided
    (capped), and a class is reported undecided, never guessed, only
    when every member is.
    """
    if k < 2:
        raise RegularityError("brute force needs k >= 2")
    _regular_degree(G)
    verdict: dict[int, bool] = {}  # gcd(c, k) -> whether that class is in the spectrum
    for c in range(k):
        d = gcd(c, k)
        if d not in verdict:
            status = _search_status(G, k, c, budget)
            if status != "undecided":
                verdict[d] = status == "found"
    return SpectrumSet(
        k,
        residues=frozenset(c for c in range(k) if verdict.get(gcd(c, k))),
        provenance=("solver",),
        undecided=frozenset(c for c in range(k) if gcd(c, k) not in verdict),
    )


def zero_sum_4_magic(G: MultiGraph, budget: SolverBudget | None = None) -> tuple[bool | None, str]:
    """Does G admit a 0-sum 4-magic labeling?  (decision, reason).

    Even degree settles it positively.  For odd degree, a perfect
    matching M settles it positively: G - M is (r-1)-regular with r-1
    even, so by Petersen's 2-factor theorem it has a 2-factor F, and F
    labeled 1 with every other edge labeled 2 sums to 2(r-1) = 0 mod 4
    at each vertex.  Without one, a cubic graph has none: a zero sum has
    an odd number of label-2 edges at each vertex, and three 2s sum to
    2 mod 4, so its label-2 edges would form a perfect matching.  For
    r >= 5 the solver decides (None when the budget runs out).
    """
    r = _regular_degree(G)
    if r < 3:
        raise RegularityError(f"zero-sum 4-magic test needs r >= 3, got {r}")
    return _zero_sum_4(G, r, None, budget)


def _zero_sum_4(
    G: MultiGraph, r: int, i: int | None, budget: SolverBudget | None
) -> tuple[bool | None, str]:
    """zero_sum_4_magic of component i of the r-regular G, r >= 3, or of
    G itself when i is None.  The matching is asked only at odd r, and the
    component is built as a graph of its own only for the solver."""
    if r % 2 == 0:
        return True, "even degree: pairs of 2-factors labeled to cancel mod 4"
    if has_perfect_matching(G, i):
        return True, (
            "odd degree with a perfect matching M: a 2-factor of G - M labeled 1,"
            " the rest 2, sums to 2(r-1) = 0 mod 4"
        )
    if r == 3:
        return False, "cubic without a perfect matching: the label-2 edges of a zero sum mod 4 would form one"
    status = _search_status(G if i is None else component_graph(G, i)[0], 4, 0, budget)
    if status == "found":
        return True, "solver found a zero-sum labeling"
    if status == "absent":
        return False, "solver exhausted the search space"
    return None, "solver budget exceeded"


def _component_tag(r: int, n: int, k: int) -> tuple[str, str]:
    """Spectrum tag of a connected r-regular component of order n, with
    its reason, at k = 1 (over the integers) or in k's class: k >= 5, or
    k >= 3 when r <= 2.  There the answer reads only r, n and k mod 2,
    and at k >= 3 the tag names residues (_tag_residues)."""
    if r == 1:
        if k == 1:
            return "Z*", "1-regular: each vertex sum is its single label"
        return "Z*", "1-regular: spectrum is the nonzero residues"
    if r == 2:
        # the component is connected, so it is one cycle, of length n
        if n % 2 == 0:
            if k == 1:
                return "Z", "2-regular, even cycles: alternating integer labels x and c - x"
            return "Z", CONDITIONS[1]
        if k == 1:
            return "2Z*", "odd cycle forces a constant label x with sum 2x"
        if k % 2 == 1:
            return "Z*", "odd cycle, odd k: constant labels reach every nonzero residue"
        return "2Z", "odd cycle, even k: sums 2x cover exactly the even residues"
    if k == 1:
        if n % 2 == 0:
            return "Z", f"degree {r} >= 3 and even order admit every integer sum"
        return "2Z", "odd order admits exactly the even integer sums"
    if r % 2 == 1:
        return "Z", CONDITIONS[2]
    if n % 2 == 0:
        return "Z", CONDITIONS[3]
    if k % 2 == 1:
        return "Z", CONDITIONS[4]
    return "2Z", "even k >= 6, even degree, odd order: only even sums are possible and all occur"


def _intersect_symbolic(tags: list[str]) -> str:
    even_only = any(t.startswith("2") for t in tags)
    no_zero = any(t.endswith("*") for t in tags)
    return ("2" if even_only else "") + "Z" + ("*" if no_zero else "")


def _tag_residues(tag: str, k: int) -> range:
    """The residues mod k >= 3 that tag names: 2Z the even ones, a *
    without zero."""
    step = 2 if tag[0] == "2" else 1
    return range(step if tag[-1] == "*" else 0, k, step)


def _class_entry(G: MultiGraph, r: int, k: int) -> tuple[str, tuple[str, ...]]:
    """(tag, provenance) of the r-regular G at k = 1 or in the class of
    k >= 5, kept in G.memo under "spectrum/1", "spectrum/odd" or
    "spectrum/even"."""
    key = "spectrum/1" if k == 1 else ("spectrum/even", "spectrum/odd")[k % 2]
    return G.memo(key, lambda: _class_spectrum(G, r, k))


def _class_spectrum(G: MultiGraph, r: int, k: int) -> tuple[str, tuple[str, ...]]:
    """(tag, provenance) of the whole graph at k = 1 or in the class of
    k >= 5: its components' tags, intersected."""
    orders = _vertex_profile(G)[2]
    tags = []
    prov = []
    for i, n in enumerate(orders):
        tag, why = _component_tag(r, n, k)
        tags.append(tag)
        prov.append(why if len(orders) == 1 else f"component {i}: {why}")
    return _intersect_symbolic(tags), tuple(prov)


def _component_spectrum(
    G: MultiGraph, r: int, i: int, n: int, k: int, budget: SolverBudget | None
) -> tuple[set[int], set[int], list[str]]:
    """(residues, undecided, provenance) for component i, of order n, of
    the r-regular G, k = 3 or 4.  Whether it has a perfect matching is
    asked, and it is built as a graph of its own for the solver, only
    where the answer needs it."""
    full = set(range(k))
    if r <= 2:
        tag, why = _component_tag(r, n, k)
        return set(_tag_residues(tag, k)), set(), [why]
    if k == 4:
        if n % 2 == 1:
            return {0, 2}, set(), [
                "k = 4, odd order: zero-sum holds for the (necessarily even) degree, other sums must be even"
            ]
        if r % 2 == 0:
            return full, set(), [CONDITIONS[5] + "; zero-sum automatic for even degree"]
        decision, reason = _zero_sum_4(G, r, i, budget)
        if decision is True:
            return full, set(), [CONDITIONS[5] + f"; {reason}"]
        if decision is False:
            return {1, 2, 3}, set(), [
                f"k = 4, odd degree, not zero-sum ({reason}); nonzero residues via constant labels"
            ]
        return {1, 2, 3}, {0}, [f"k = 4: zero-sum status undecided ({reason})"]
    if r % 3 != 0 or r % 6 == 0:
        return full, set(), [CONDITIONS[6]]
    # a perfect matching is a mod-3 factor, and at r = 3 the only kind;
    # otherwise the 1-sum label search decides, the one the oracle runs
    found = has_perfect_matching(G, i)
    shared = ""
    if not found and r > 3:
        try:
            found = unmatched_mod3_factor(component_graph(G, i)[0], budget) is not None
        except BudgetError as exc:
            return {0}, {1, 2}, [f"k = 3, r % 6 == 3: mod-3 factor undecided ({exc})"]
        shared = "; decided by the 1-sum 3-magic search the oracle also runs"
    if found:
        return full, set(), [CONDITIONS[6] + "; mod-3 factor found" + shared]
    return {0}, set(), [
        "k = 3, r % 6 == 3, no mod-3 factor: only the zero sum survives" + shared
    ]


def _small_modulus_spectrum(G: MultiGraph, r: int, k: int, budget: SolverBudget | None) -> SpectrumSet:
    """The prediction at k = 3 or 4: each component's spectrum, intersected."""
    orders = _vertex_profile(G)[2]
    residue_sets = []
    undecided_sets = []
    prov: list[str] = []
    for i, n in enumerate(orders):
        res, und, why = _component_spectrum(G, r, i, n, k, budget)
        residue_sets.append(res)
        undecided_sets.append(und)
        prov.extend(w if len(orders) == 1 else f"component {i}: {w}" for w in why)
    definite = set.intersection(*(rs | us for rs, us in zip(residue_sets, undecided_sets)))
    certain = set.intersection(*residue_sets)
    return SpectrumSet(
        k,
        residues=frozenset(certain),
        provenance=tuple(prov),
        undecided=frozenset(definite - certain),
    )


def predict_spectrum(G: MultiGraph, k: int, budget: SolverBudget | None = None) -> SpectrumSet:
    """Spectrum from the characterization, without exhaustive search.

    k = 1 yields a symbolic set over the integers; k = 2 the closed form
    {r mod 2}, the all-ones labeling being the only one; k >= 3 uses the
    completeness conditions plus the bordering exact spectra.

    The answer depends on k only through k in {1, 2, 3, 4} and, for
    k >= 5, the parity of k, so it is computed once per graph and class
    (MultiGraph.memo).  At k = 1, at odd k >= 5 and at even k >= 5 the
    graph keeps one tag (Z, Z*, 2Z or 2Z*) with its provenance, under
    "spectrum/1", "spectrum/odd" and "spectrum/even", and each call
    builds its own k's residues from it; the solver is never asked
    there.  At k = 3 and 4, where it can be, the graph keeps the
    SpectrumSet under "spectrum/<k>/<node_cap>", so an answer left
    undecided under a small cap is never returned for a larger one.
    k = 2 is computed on every call.
    """
    if k < 1:
        raise KmagicError(f"modulus must be >= 1, got {k}")
    r = _regular_degree(G)
    if k == 2:
        why = f"k = 2: every label is 1, so every vertex sums to r = {r}, which is {r % 2} mod 2"
        return SpectrumSet(2, residues=frozenset({r % 2}), provenance=(why,))
    if k == 3 or k == 4:
        node_cap = (budget or DEFAULT_BUDGET).node_cap
        return G.memo(
            f"spectrum/{k}/{node_cap}", lambda: _small_modulus_spectrum(G, r, k, budget)
        )
    tag, provenance = _class_entry(G, r, k)
    if k == 1:
        return SpectrumSet(1, symbolic=tag, provenance=provenance)
    return SpectrumSet(k, residues=frozenset(_tag_residues(tag, k)), provenance=provenance)


def is_completely_k_magic(
    G: MultiGraph, k: int, budget: SolverBudget | None = None
) -> tuple[bool | None, tuple[str, ...]]:
    """Decision with provenance; None when a predicate stayed undecided."""
    if k < 2:
        raise RegularityError("completeness is asked for k >= 2")
    if G.n < 3:
        raise RegularityError("completeness is asked for order >= 3")
    spec = predict_spectrum(G, k, budget)
    if spec.is_complete():
        return True, spec.provenance
    if spec.undecided and spec.residues | spec.undecided == set(range(k)):
        return None, spec.provenance
    missing = sorted(set(range(k)) - set(spec.residues) - set(spec.undecided))
    return False, spec.provenance + (f"missing sums: {missing}",)


def null_set(G: MultiGraph, kmax: int, budget: SolverBudget | None = None) -> dict[int, bool | None]:
    """For k = 1..kmax: does G admit a zero-sum k-magic labeling?

    Values are True/False, or None where the predicted k = 4 status ran
    out of budget.  k = 2, 3 and 4 ask predict_spectrum.  At k = 1 and
    k >= 5 the answer is read off the class tag in the graph's memo (see
    predict_spectrum), which holds zero exactly when it has no *, so no
    residue set is built and the graph keeps at most five prediction
    entries however large kmax is.  An irregular G raises
    RegularityError.
    """
    if kmax < 1:
        raise RegularityError("kmax must be >= 1")
    r = _regular_degree(G)
    return {
        k: predict_spectrum(G, k, budget).contains(0)
        if 2 <= k <= 4
        else not _class_entry(G, r, k)[0].endswith("*")
        for k in range(1, kmax + 1)
    }
