"""Command line front end.

Commands: gen, label, verify, spectrum, factorize, null-set, compare.
Exit codes: 0 success; 1 feasible-but-negative (no labeling, not magic,
factor absent, prediction mismatch); 2 invalid input; 3 budget exceeded
or undecided.  All JSON output is key-sorted and newline-terminated.
The env var MAGIC_SOLVER_BUDGET overrides the solver node cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .construct import construct
from .errors import BudgetError, KmagicError, RegularityError
from .factorization import FactorDecomposition, two_factorization
from .factors import f_factor, mod3_factor
from .graphs import FAMILIES, MultiGraph, generate, parse_graph, regularity, write_graph
from .labelings import labeling_from_json, labeling_to_json, verify
from .solver import DEFAULT_BUDGET, SolverBudget
from .spectrum import brute_force_spectrum, null_set, predict_spectrum

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


def _budget() -> SolverBudget:
    raw = os.environ.get("MAGIC_SOLVER_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return SolverBudget(node_cap=int(raw))
    except (ValueError, KmagicError):
        raise KmagicError(f"MAGIC_SOLVER_BUDGET must be a positive integer, got {raw!r}") from None


def _read_input(path) -> str:
    """Text of an input file; an unreadable or non-ASCII file is invalid input."""
    try:
        return Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise KmagicError(f"cannot read {path}: {exc}") from None


def _read_graph(path) -> MultiGraph:
    return parse_graph(_read_input(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _gen_params(args) -> dict:
    params: dict = {}
    if args.n is not None:
        params["n"] = args.n
    if args.r is not None:
        params["r"] = args.r
    if args.seed is not None:
        params["seed"] = args.seed
    if args.n2 is not None:
        params["n2"] = args.n2
    if args.offsets is not None:
        try:
            params["offsets"] = [int(t) for t in args.offsets.split(",") if t]
        except ValueError:
            raise KmagicError(f"bad --offsets value {args.offsets!r}") from None
    if args.parts is not None:
        parts = []
        for token in args.parts.split(","):
            fam, _, num = token.partition(":")
            if fam not in FAMILIES:
                raise KmagicError(f"unknown family {fam!r} in --parts")
            sub: dict = {}
            if num:
                try:
                    sub["n"] = int(num)
                except ValueError:
                    raise KmagicError(f"bad part size {num!r} in --parts") from None
            parts.append((fam, sub))
        params["parts"] = parts
    return params


def _cmd_gen(args) -> int:
    G = generate(args.family, _gen_params(args))
    _emit(write_graph(G), args.output)
    return EXIT_OK


def _cmd_label(args) -> int:
    G = _read_graph(args.file)
    res = construct(G, args.k, args.c, _budget())
    chain = " > ".join(s.rule for s in res.trace.steps) or "(empty)"
    print(f"label: {res.status} c={args.c % args.k if args.k > 1 else args.c} via {chain}")
    if res.status == "found":
        _emit(labeling_to_json(res.labeling, res.c, res.trace), args.output)
        return EXIT_OK
    return EXIT_UNDECIDED if res.status == "undecided" else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    G = _read_graph(args.file)
    lab, recorded, _ = labeling_from_json(_read_input(args.labeling))
    c = verify(G, lab)
    if c is None:
        print("not magic")
        return EXIT_NEGATIVE
    if c != (recorded % lab.k if lab.k > 1 else recorded):
        print(f"sum {c} differs from the recorded c = {recorded}")
        return EXIT_NEGATIVE
    print(c)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    G = _read_graph(args.file)
    budget = _budget()
    if args.method == "predict":
        spec = predict_spectrum(G, args.k, budget)
        sys.stdout.write(spec.to_json())
        return EXIT_UNDECIDED if spec.undecided else EXIT_OK
    if args.method == "oracle":
        spec = brute_force_spectrum(G, args.k, budget)
        sys.stdout.write(spec.to_json())
        return EXIT_UNDECIDED if spec.undecided else EXIT_OK
    pred, orac, undecided, match = _predict_vs_oracle(G, args.k, budget)
    payload = {
        "k": args.k,
        "match": match,
        "oracle": sorted(orac.residues),
        "predict": sorted(pred.residues),
        "undecided": sorted(undecided),
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    if not match:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED if undecided else EXIT_OK


def _predict_vs_oracle(G: MultiGraph, k: int, budget: SolverBudget):
    """Both spectra, the residues either left undecided, and whether the
    decided residues agree."""
    pred = predict_spectrum(G, k, budget)
    orac = brute_force_spectrum(G, k, budget)
    undecided = set(pred.undecided) | set(orac.undecided)
    match = all(
        (c in pred.residues) == (c in orac.residues) for c in range(k) if c not in undecided
    )
    return pred, orac, undecided, match


def _cmd_factorize(args) -> int:
    G = _read_graph(args.file)
    if args.mode == "two-factors":
        _emit(two_factorization(G).to_json(), args.output)
        return EXIT_OK
    if args.mode == "f-factor":
        if args.h is None:
            raise KmagicError("--h is required with --mode f-factor")
        r = regularity(G)
        if r is None:
            raise RegularityError("f-factor mode needs a regular graph")
        factor = f_factor(G, args.h)
        if factor is None:
            print("no factor")
            return EXIT_NEGATIVE
        rest = frozenset(range(G.m)) - factor
        dec = FactorDecomposition((factor, rest), (args.h, r - args.h))
        _emit(dec.to_json(), args.output)
        return EXIT_OK
    try:
        factor = mod3_factor(G, _budget())
    except BudgetError:
        print("undecided")
        return EXIT_UNDECIDED
    if factor is None:
        print("no factor")
        return EXIT_NEGATIVE
    payload = {"edges": sorted(factor), "degrees_mod_3": 1}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def _cmd_null_set(args) -> int:
    G = _read_graph(args.file)
    flags = null_set(G, args.kmax, _budget())
    payload = {
        "kmax": args.kmax,
        "null_set": sorted(k for k, v in flags.items() if v is True),
        "undecided": sorted(k for k, v in flags.items() if v is None),
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_UNDECIDED if payload["undecided"] else EXIT_OK


def _parse_k_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise KmagicError(f"--k-range wants A..B, got {text!r}")
    try:
        ks = range(int(lo), int(hi) + 1)
    except ValueError:
        raise KmagicError(f"--k-range wants A..B, got {text!r}") from None
    if not ks:
        raise KmagicError(f"--k-range {text!r} is empty")
    return ks


def _cmd_compare(args) -> int:
    budget = _budget()
    ks = _parse_k_range(args.k_range)
    paths = sorted(Path(args.corpus).glob("*.txt"))
    if not paths:
        raise KmagicError(f"no *.txt graph files under {args.corpus}")
    failed = False
    for path in paths:
        G = _read_graph(path)
        for k in ks:
            _, _, undecided, ok = _predict_vs_oracle(G, k, budget)
            if undecided:
                word = "UNDECIDED"
            elif ok:
                word = "PASS"
            else:
                word = "FAIL"
                failed = True
            print(f"{path.name} k={k} {word}")
    return EXIT_NEGATIVE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kmagic",
        description="c-sum k-magic labelings and sum spectra of regular graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated graph")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--r", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--n2", type=int, help="second side for complete_bipartite")
    gen.add_argument("--offsets", help="comma-separated circulant offsets")
    gen.add_argument("--parts", help="disjoint_union parts, e.g. cycle:3,cycle:4")
    gen.add_argument("-o", "--output")
    gen.set_defaults(fn=_cmd_gen)

    lab = sub.add_parser("label", help="construct a c-sum k-magic labeling")
    lab.add_argument("file")
    lab.add_argument("--k", type=int, required=True)
    lab.add_argument("--c", type=int, required=True)
    lab.add_argument("-o", "--output")
    lab.set_defaults(fn=_cmd_label)

    ver = sub.add_parser("verify", help="check a labeling file against a graph")
    ver.add_argument("file")
    ver.add_argument("labeling")
    ver.set_defaults(fn=_cmd_verify)

    spec = sub.add_parser("spectrum", help="predicted or brute-force sum spectrum")
    spec.add_argument("file")
    spec.add_argument("--k", type=int, required=True)
    spec.add_argument("--method", choices=("predict", "oracle", "both"), default="predict")
    spec.set_defaults(fn=_cmd_spectrum)

    fac = sub.add_parser("factorize", help="factor decompositions")
    fac.add_argument("file")
    fac.add_argument("--mode", choices=("two-factors", "f-factor", "mod3"), required=True)
    fac.add_argument("--h", type=int)
    fac.add_argument("-o", "--output")
    fac.set_defaults(fn=_cmd_factorize)

    nul = sub.add_parser("null-set", help="moduli admitting a zero-sum labeling")
    nul.add_argument("file")
    nul.add_argument("--kmax", type=int, required=True)
    nul.set_defaults(fn=_cmd_null_set)

    cmp_ = sub.add_parser("compare", help="predict vs oracle over a corpus directory")
    cmp_.add_argument("--corpus", required=True)
    cmp_.add_argument("--k-range", required=True)
    cmp_.set_defaults(fn=_cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except KmagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
