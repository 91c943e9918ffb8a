"""Running one job through kmagic's public API and checking its answer.

``run_job`` is the timed part.  ``check_job`` is not timed: it encodes
the answer as one character per decided question (``y``/``n``, ``?``
for undecided) and lists the self-consistency problems it finds.  The
checks call the ``verify`` captured at import, before any tracing
patches the package, so they never count as work of the program.
"""

from __future__ import annotations

import kmagic
from kmagic import SolverBudget

_verify = kmagic.verify

# The oracle's hard instances were sized for a cap of 10^6 nodes (about
# one second each with the pure kernel); label-fresh only falls back to
# the solver, and 10^5 keeps those fallbacks short.  In sweep-reuse every
# k = 4 question about the odd-degree graphs (r = 3, 9) repeats one search
# whose size is luck: 1.6k to 59k nodes on random cubic graphs of order
# 60, and up to the cap.  At 10^5 that luck moved a run's rate by 10%;
# 10^4 bounds it to a few hundredths of a round and leaves most of those
# searches decided.
BUDGETS = {
    "spectrum-oracle": SolverBudget(node_cap=10**6),
    "label-fresh": SolverBudget(node_cap=10**5),
    "sweep-reuse": SolverBudget(node_cap=10**4),
}


def _ch(value) -> str:
    return "?" if value is None else ("y" if value else "n")


def run_job(workload: str, G, args: tuple):
    budget = BUDGETS[workload]
    if workload == "spectrum-oracle":
        (k,) = args
        return kmagic.brute_force_spectrum(G, k, budget), kmagic.predict_spectrum(G, k, budget)
    if workload == "label-fresh":
        k, c = args
        return kmagic.construct(G, k, c, budget)
    kind = args[0]
    if kind == "predict":
        return kmagic.predict_spectrum(G, args[1], budget)
    if kind == "construct":
        return kmagic.construct(G, args[1], args[2], budget)
    if kind == "null_set":
        return kmagic.null_set(G, args[1], budget)
    if kind == "complete":
        return kmagic.is_completely_k_magic(G, args[1], budget)[0]
    raise ValueError(f"unknown call {args!r}")


def _spectrum_answer(spec, k: int) -> str:
    if k == 1:
        return "".join(_ch(spec.contains(c)) for c in range(4))
    return "".join(_ch(spec.contains(c)) for c in range(k))


def _check_labeling(G, res, k: int, c: int) -> list[str]:
    want = c % k if k > 1 else c
    if res.status != "found":
        return []
    got = _verify(G, res.labeling)
    if got != want or res.c != want:
        return [f"labeling verifies to {got}, reported {res.c}, wanted {want}"]
    return []


def check_job(workload: str, G, args: tuple, out, context: dict) -> tuple[str, list[str]]:
    """(answer string, problems).  context holds per-graph predictions
    made earlier in the same sweep."""
    if workload == "spectrum-oracle":
        (k,) = args
        orac, pred = out
        problems = [
            f"residue {c}: oracle {orac.contains(c)} vs predict {pred.contains(c)}"
            for c in range(k)
            if None not in (orac.contains(c), pred.contains(c))
            and orac.contains(c) != pred.contains(c)
        ]
        return _spectrum_answer(orac, k) + _spectrum_answer(pred, k), problems
    if workload == "label-fresh":
        k, c = args
        return _ch({"found": True, "absent": False}.get(out.status)), _check_labeling(G, out, k, c)
    kind = args[0]
    if kind == "predict":
        context[args[1]] = out
        return _spectrum_answer(out, args[1]), []
    if kind == "construct":
        k, c = args[1], args[2]
        problems = _check_labeling(G, out, k, c)
        member = context[k].contains(c)
        if (member is True and out.status == "absent") or (
            member is False and out.status != "absent"
        ):
            problems.append(f"construct says {out.status}, prediction says {member}")
        return _ch({"found": True, "absent": False}.get(out.status)), problems
    if kind == "null_set":
        problems = [
            f"null_set[{k}] = {v}, prediction says {context[k].contains(0)}"
            for k, v in out.items()
            if v != context[k].contains(0)
        ]
        return "".join(_ch(out[k]) for k in sorted(out)), problems
    k = args[1]
    spec = context[k]
    if spec.is_complete():
        expected = True
    elif spec.undecided and spec.residues | spec.undecided == set(range(k)):
        expected = None
    else:
        expected = False
    problems = [] if out == expected else [f"complete = {out}, prediction implies {expected}"]
    return _ch(out), problems
