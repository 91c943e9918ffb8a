"""Edge labelings, verification, and the labeling transforms.

A labeling assigns every edge a nonzero residue mod k (any nonzero
integer when k = 1).  It is c-sum magic when every vertex's incident
labels add up to c.  The transforms here build one labeling from
another: complementation (label -> k - label), folding a labeling of a
doubled graph back onto the source, and extending a labeled factor by
all-ones on the remaining edges.  construct calls none of them; it
labels G directly and keeps only verify and the trace types.  A trace
records the steps of a construction, each a rule and its parameters;
the labeling itself lives once, beside the trace, as it does in the
JSON file of labeling_to_json.

verify, which every transform and every construction runs on its
result, checks the labeling and its vertex sums in one pass of the
magic-sum check: the magic_sum of the twin module kmagic._twin selects,
the compiled one when the extension imports, else the pure reference.
A k past the compiled twin's C int goes to the reference.  k = 1
(plain integer labels) and a k that is no int stay outside both twins,
on validate_labels and plain sums.  A labeling either twin finds
malformed goes to validate_labels too, which names the fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import _twin
from ._backtrack_py import MALFORMED
from .errors import LabelingError, RegularityError
from .factorization import DoublingMap, check_factor
from .graphs import MultiGraph, regularity


@dataclass(frozen=True)
class EdgeLabeling:
    """Labels keyed by edge id; k = 1 means labels are plain integers."""

    k: int
    labels: dict[int, int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LabelingError(f"modulus must be >= 1, got {self.k}")


def validate_labels(G: MultiGraph, lab: EdgeLabeling) -> None:
    """Raise LabelingError unless lab covers E(G) exactly with legal values."""
    ids = set(lab.labels)
    expected = set(range(G.m))
    if ids != expected:
        missing = sorted(expected - ids)[:5]
        extra = sorted(ids - expected)[:5]
        raise LabelingError(f"label domain mismatch: missing {missing}, extra {extra}")
    for eid, val in lab.labels.items():
        if not isinstance(val, int):
            raise LabelingError(f"edge {eid}: label {val!r} is not an integer")
        if lab.k == 1:
            if val == 0:
                raise LabelingError(f"edge {eid}: zero label")
        elif not 1 <= val <= lab.k - 1:
            raise LabelingError(f"edge {eid}: label {val} outside 1..{lab.k - 1}")


def _sums(G: MultiGraph, labels: Mapping[int, int], k: int, edge_ids: Iterable[int]) -> list[int]:
    sums = [0] * G.n
    us, vs = G.us, G.vs
    for eid in edge_ids:
        sums[us[eid]] += labels[eid]
        sums[vs[eid]] += labels[eid]
    if k > 1:
        sums = [s % k for s in sums]
    return sums


def verify(G: MultiGraph, lab: EdgeLabeling) -> int | None:
    """Magic sum c if every vertex sum equals c, else None.

    Raises LabelingError on a malformed labeling (zero, missing, or
    out-of-range label); returns None for a legal labeling whose vertex
    sums are not constant.
    """
    k = lab.k
    if isinstance(k, int) and k >= 2:
        c = _twin.for_modulus(k).magic_sum(G.n, G.us, G.vs, lab.labels, k)
        if c != MALFORMED:
            return c
    validate_labels(G, lab)
    sums = _sums(G, lab.labels, lab.k, range(G.m))
    if G.n == 0:
        return None
    return sums[0] if len(set(sums)) == 1 else None


def verify_subset(G: MultiGraph, labels: Mapping[int, int], k: int, edge_ids: Iterable[int]) -> int | None:
    """Magic sum of a labeled spanning subgraph given by edge ids."""
    ids = sorted(edge_ids)
    if set(ids) != set(labels):
        raise LabelingError("labels do not match the given edge ids")
    for eid in ids:
        val = labels[eid]
        if val == 0 or (k > 1 and not 1 <= val <= k - 1):
            raise LabelingError(f"edge {eid}: label {val} illegal mod {k}")
    sums = _sums(G, labels, k, ids)
    return sums[0] if len(set(sums)) == 1 else None


def complement(G: MultiGraph, lab: EdgeLabeling) -> EdgeLabeling:
    """Replace every label x by k - x, turning a c-sum into a (k-c)-sum."""
    if lab.k == 1:
        raise LabelingError("complement needs k >= 2")
    if verify(G, lab) is None:
        raise LabelingError("complement input does not verify")
    return EdgeLabeling(lab.k, {eid: lab.k - v for eid, v in lab.labels.items()})


def fold(D: DoublingMap, lab2: EdgeLabeling, divisor: int) -> tuple[EdgeLabeling, int]:
    """Fold a labeling of the doubled graph back onto the source.

    Each source edge receives the sum of its two copies' labels, divided
    by the divisor (1 or 2).  With divisor 1 the magic sum is preserved;
    with divisor 2 the result verifies with a sum s where 2s is the
    doubled sum mod k.  Raises LabelingError when a folded label
    vanishes, a pair sum is odd under divisor 2, or the input does not
    verify.
    """
    if divisor not in (1, 2):
        raise LabelingError(f"divisor must be 1 or 2, got {divisor}")
    c2 = verify(D.doubled, lab2)
    if c2 is None:
        raise LabelingError("doubled labeling does not verify")
    k = lab2.k
    folded: dict[int, int] = {}
    for orig, dup in D.pairs:
        s = lab2.labels[orig] + lab2.labels[dup]
        if divisor == 2:
            if s % 2 != 0:
                raise LabelingError(f"edge pair ({orig}, {dup}): odd sum {s}")
            s //= 2
        if k > 1:
            s %= k
        if s == 0:
            raise LabelingError(f"edge pair ({orig}, {dup}): folded label vanishes")
        folded[orig] = s
    out = EdgeLabeling(k, folded)
    c = verify(D.source, out)
    if c is None:
        raise LabelingError("folded labeling is not magic")
    if divisor == 1 and k > 1 and c != c2 % k:
        raise LabelingError("fold with divisor 1 changed the magic sum")
    if divisor == 2 and k > 1 and (2 * c - c2) % k != 0:
        raise LabelingError("fold with divisor 2 broke the sum relation")
    return out, c


def extend_by_factor(
    G: MultiGraph, factor_edges: Iterable[int], lab_H: Mapping[int, int], k: int
) -> tuple[EdgeLabeling, int]:
    """Label a factor as given and everything else with 1.

    For an r-regular G and an h-factor verifying with sum a, the result
    verifies with a + (r - h) mod k.  Requires k != 2 and 2 <= h <= r
    (h = r is an allowed passthrough).
    """
    if k == 2:
        raise LabelingError("extension by ones needs k != 2")
    r = regularity(G)
    if r is None:
        raise RegularityError("extension needs a regular graph")
    factor = sorted(set(factor_edges))
    degs = [0] * G.n
    us, vs = G.us, G.vs
    for eid in factor:
        degs[us[eid]] += 1
        degs[vs[eid]] += 1
    h = degs[0] if G.n else 0
    check_factor(G, factor, h)
    if not 2 <= h <= r:
        raise LabelingError(f"factor degree {h} outside 2..{r}")
    alpha = verify_subset(G, dict(lab_H), k, factor)
    if alpha is None:
        raise LabelingError("factor labeling does not verify")
    labels = {eid: 1 for eid in range(G.m)}
    labels.update({eid: lab_H[eid] for eid in factor})
    out = EdgeLabeling(k, labels)
    c = alpha + (r - h)
    if k > 1:
        c %= k
    got = verify(G, out)
    if got != c:
        raise LabelingError(f"extension verified {got}, expected {c}")
    return out, c


# ---------------------------------------------------------------------------
# construction traces


@dataclass(frozen=True)
class TraceStep:
    """One recorded construction step.

    rule names the construction applied and params carries its numeric
    choices.  scope is always "graph": construct labels the graph itself.
    It stays because perfbench/tracer.py reads it.
    """

    rule: str
    params: dict = field(default_factory=dict)
    scope: str = "graph"

    def to_jsonable(self) -> dict:
        return {"params": self.params, "rule": self.rule, "scope": self.scope}


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]

    def to_jsonable(self) -> list[dict]:
        return [s.to_jsonable() for s in self.steps]

    def rules(self) -> list[str]:
        return [s.rule for s in self.steps]


def labeling_to_json(lab: EdgeLabeling, c: int, trace: ConstructionTrace | None = None) -> str:
    payload = {
        "c": c,
        "k": lab.k,
        "labels": {str(eid): v for eid, v in sorted(lab.labels.items())},
        "trace": trace.to_jsonable() if trace is not None else [],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def labeling_from_json(text: str) -> tuple[EdgeLabeling, int, list[dict]]:
    """Read a labeling file.  Raises LabelingError unless it is an object
    whose k and labels are JSON integers (a float or a boolean is not),
    whose edge ids are written as canonical decimals ("5", not "05",
    "+5" or "0_5") and in which no object repeats a key, so that every
    edge has exactly one label."""
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
        labels = payload["labels"]
        if not isinstance(labels, dict):
            raise LabelingError("bad labeling file: labels is not an object")
        k = payload["k"]
        if type(k) is not int:
            raise LabelingError(f"bad labeling file: modulus {k!r} is not an integer")
        for i, v in labels.items():
            if str(int(i)) != i:
                raise LabelingError(f"bad labeling file: edge id {i!r} is not a canonical decimal")
            if type(v) is not int:
                raise LabelingError(f"bad labeling file: edge {i}: label {v!r} is not an integer")
        lab = EdgeLabeling(k, {int(i): v for i, v in labels.items()})
        return lab, payload["c"], payload.get("trace", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise LabelingError(f"bad labeling file: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("an object repeats a key")
    return obj
