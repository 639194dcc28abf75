"""Command-line front end.

Exit codes: 0 success, 1 usage/domain errors (including any failed
verification check), 2 exhausted resource budgets, 3 broken internal
invariants.  Every error prints a single machine-parsable line to stderr:
``error[<kind>]: <detail>``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction

from . import engine, paperlab
from .coeff import semiring_from_literal
from .errors import BudgetError, Budgets, DomainError, InternalError, UsageError
from .monoid import monoid_from_literal
from .polyexpr import parse as parse_poly


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    try:
        n = int(text)
        if n > 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _report_flags(p):
    """--out and the budget flags; ``verify paper`` takes only these."""
    p.add_argument("--out", default=None, help="write the report to this path")
    # dest names are the Budgets fields they set
    p.add_argument("--oracle-budget", dest="oracle_candidates", type=_positive_int)
    p.add_argument("--z-budget", dest="z_nodes", type=_positive_int)
    p.add_argument("--knapsack-budget", dest="knapsack_nodes", type=_positive_int)
    p.add_argument("--degree-limit", dest="degree_limit", type=_positive_int)


def _common_flags(p, formats=("json", "pretty")):
    _report_flags(p)
    p.add_argument("--output", default="json", choices=formats)


def _monoid_flag(p):
    p.add_argument("--monoid", default="nat", help="exponent monoid: nat or gens:q1,q2,...")


def _context_flags(p, strategy=True):
    _common_flags(p)
    p.add_argument("--coeffs", default="nat", help="coefficient semiring: nat or quad:<d>")
    _monoid_flag(p)
    if strategy:
        p.add_argument("--strategy", default="auto", choices=["auto", "oracle", "zx"])


_PARSER = None


def build_parser():
    """The argument parser, built at the first call and returned again by
    every later one (``parse_args`` leaves it unchanged)."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    top = _Parser(prog="semifactor", description="factorization invariants, exactly")
    sub = top.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="operations on polynomial expressions")
    poly_sub = poly.add_subparsers(dest="op", required=True)
    for op in (
        "divisors",
        "factorizations",
        "lengths",
        "elasticity",
        "is-atom",
        "is-monolithic",
        "decompose",
        "certify",
        "lenfn",
    ):
        p = poly_sub.add_parser(op)
        _context_flags(p, op != "lenfn")
        p.add_argument("expr")
    fam = poly_sub.add_parser("expand-family")
    _common_flags(fam)
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--m", type=int, default=None, help="defaults to n")
    fam.add_argument("--k", type=int, default=0)

    mon = sub.add_parser("monoid", help="operations on exponent monoids")
    mon_sub = mon.add_subparsers(dest="op", required=True)
    for op, nargs in (
        ("atoms", 0),
        ("member", 1),
        ("factorize", 1),
        ("mcd", "+"),
        ("gcd", "+"),
    ):
        p = mon_sub.add_parser(op)
        _common_flags(p)
        _monoid_flag(p)
        if nargs:
            p.add_argument("args", nargs=nargs, type=_rational, metavar="q")

    ver = sub.add_parser("verify", help="run the reference suite")
    ver_sub = ver.add_subparsers(dest="op", required=True)
    vp = ver_sub.add_parser("paper")
    _report_flags(vp)
    vp.add_argument("--only", action="append", default=None, help="run only this check id")

    sw = sub.add_parser("sweep", help="parameter sweeps")
    sw_sub = sw.add_subparsers(dest="op", required=True)
    se = sw_sub.add_parser("elasticity")
    _common_flags(se, ("json", "csv"))
    se.add_argument("--n", required=True, help="comma-separated values, each >= 2")
    se.add_argument("--k", required=True, help="comma-separated values, each >= 1")

    _PARSER = top
    return top


def _budgets(args) -> Budgets:
    """The budget flags given, else the ``Budgets`` defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(Budgets)}
    return replace(Budgets(), **{k: v for k, v in given.items() if v is not None})


def _context(args):
    return semiring_from_literal(args.coeffs), monoid_from_literal(args.monoid)


def _strategy(args):
    return {"auto": "auto", "oracle": "oracle", "zx": "zx_fastpath"}[args.strategy]


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _elem_jsonable(e):
    return e.num if e.denom == 1 else str(e)


def _sorted_polys(polys):
    return [str(g) for g in sorted(polys, key=engine.sort_key)]


def _run_poly(args):
    b = _budgets(args)
    if args.op == "expand-family":
        m = args.m if args.m is not None else args.n
        f = paperlab.expand_family(args.n, m, args.k, b.degree_limit)
        return {"n": args.n, "m": m, "k": args.k, "expr": str(f)}
    S, M = _context(args)
    f = parse_poly(args.expr, S, M)
    if args.op == "lenfn":
        return {"expr": str(f), "length": engine.length_fn(f, b)}
    strat = _strategy(args)
    if args.op == "divisors":
        ds = engine.divisors(f, strat, b)
        return {
            "expr": str(f),
            "strategy_used": ds.strategy_used,
            "count": len(ds.divisors),
            "divisors": _sorted_polys(ds.divisors),
        }
    if args.op == "factorizations":
        zs = engine.factorizations(f, strat, b)
        z_out = sorted(sorted(str(p) for p in z.parts) for z in zs)
        return {"expr": str(f), "count": len(z_out), "Z": z_out}
    if args.op in ("lengths", "elasticity"):
        lengths, rho = engine.length_profile(f, strat, b)
        return {"expr": str(f), "L": sorted(lengths), "elasticity": _frac(rho)}
    if args.op == "is-atom":
        return {"expr": str(f), "is_atom": engine.is_atom(f, strat, b)}
    if args.op == "is-monolithic":
        return {"expr": str(f), "is_monolithic": engine.is_monolithic(f, strat, b)}
    if args.op == "decompose":
        parts = engine.monolithic_decompose(f, strat, b)
        return {"expr": str(f), "parts": [str(p) for p in parts]}
    if args.op == "certify":
        rep = engine.atomic_certificate(f, strat, b)
        return {
            "expr": str(f),
            "passes": rep.passes,
            "parts": [
                {
                    "part": str(p.part),
                    "coeff_mcd": sorted(S.render(v) for v in p.coeff_mcd),
                    "exp_mcd": sorted((_elem_jsonable(e) for e in p.exp_mcd), key=str),
                    "passes": p.passes,
                }
                for p in rep.per_part
            ],
        }
    raise UsageError(f"unknown poly operation {args.op!r}")


def _run_monoid(args):
    M = monoid_from_literal(args.monoid)
    if args.op == "atoms":
        return {
            "monoid": M.literal(),
            "atoms": [_elem_jsonable(a) for a in sorted(M.atoms())],
        }
    values = args.args
    if args.op == "member":
        return {"monoid": M.literal(), "q": str(values[0]), "member": M.member(values[0])}
    budget = _budgets(args).knapsack_nodes
    if args.op == "factorize":
        zs = M.factorizations(values[0], node_budget=budget)
        ordered = sorted(zs, key=lambda z: tuple(map(M.num_of, z)))
        z_out = [[_elem_jsonable(e) for e in z] for z in ordered]
        return {
            "monoid": M.literal(),
            "m": _elem_jsonable(M.elem(values[0])),
            "Z": z_out,
            "L": sorted({len(z) for z in zs}),
        }
    if args.op == "mcd":
        out = sorted(M.mcd(values, node_budget=budget))
        return {"monoid": M.literal(), "mcd": [_elem_jsonable(e) for e in out]}
    if args.op == "gcd":
        g = M.gcd(values, node_budget=budget)
        return {"monoid": M.literal(), "gcd": None if g is None else _elem_jsonable(g)}
    raise UsageError(f"unknown monoid operation {args.op!r}")


def _run_verify(args):
    b = _budgets(args)
    results = paperlab.run_paper_suite(b, args.only)
    text = paperlab.report_json(results, b, args.only)
    failed = any(r.status == "fail" for r in results)
    return text, (1 if failed else 0)


def _run_sweep(args):
    b = _budgets(args)
    try:
        n_values = [int(v) for v in args.n.split(",")]
        k_values = [int(v) for v in args.k.split(",")]
    except ValueError:
        raise UsageError("--n and --k take comma-separated integers") from None
    rows = paperlab.elasticity_sweep(n_values, k_values, b)
    if args.output == "csv":
        return paperlab.sweep_csv(rows), 0
    return json.dumps({"rows": paperlab.sweep_jsonable(rows)}, sort_keys=True) + "\n", 0


def _pretty(payload) -> str:
    lines = []

    def walk(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:" if key else f"{pad}")
            for k2, v2 in value.items():
                walk(k2, v2, indent + (1 if key else 0))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in payload.items():
        walk(k, v, 0)
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path):
    if out_path:
        tmp = f"{out_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            text, code = _run_verify(args)
        elif args.command == "sweep":
            text, code = _run_sweep(args)
        else:
            payload = _run_poly(args) if args.command == "poly" else _run_monoid(args)
            text = (
                _pretty(payload)
                if args.output == "pretty"
                else json.dumps(payload, sort_keys=True) + "\n"
            )
            code = 0
        _emit(text, getattr(args, "out", None))
        return code
    except (UsageError, DomainError) as exc:
        kind = "usage" if isinstance(exc, UsageError) else "domain"
        print(f"error[{kind}]: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"error[budget]: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
