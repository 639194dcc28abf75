"""Command-line front end.

Exit codes: 0 success, 1 usage/domain errors (including any failed
verification check), 2 exhausted resource budgets, 3 broken internal
invariants.  Every error prints a single machine-parsable line to stderr:
``error[<kind>]: <detail>``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields, replace

from . import engine, paperlab
from .errors import BudgetError, Budgets, DomainError, InternalError, ParseError, UsageError
from .polyexpr import monoid_from_literal, read_number, semiring_from_literal
from .polyexpr import parse as parse_poly


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(want, least=0, rational=False):
    """An argparse ``type``: the whole argument read by ``read_number``,
    at least ``least``; else the usage error ``want`` naming the text."""

    def convert(text):
        with contextlib.suppress(ParseError):
            if (q := read_number(text, rational)) >= least:
                return q
        raise argparse.ArgumentTypeError(want.format(text))

    return convert


_positive_int = _number("want a positive integer, got {!r}", least=1)
_nonnegative_int = _number("want a nonnegative integer, got {!r}")
_rational = _number("not a rational number: {!r}", rational=True)


def _report_flags(p):
    """--out and one flag per ``Budgets`` field, named in its metadata;
    ``verify paper`` takes only these."""
    p.add_argument("--out", default=None, help="write the report to this path")
    for f in fields(Budgets):
        p.add_argument(f.metadata["flag"], dest=f.name, type=_positive_int)


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
        p.add_argument("--strategy", default="auto", choices=["auto", "oracle"])


def _elem_jsonable(e):
    return e.num if e.denom == 1 else str(e)


def _divisors(f, args, b):
    ds = engine.divisors(f, args.strategy, b)
    ordered = sorted(ds.divisors, key=engine.sort_key)
    return {
        "strategy_used": ds.strategy_used,
        "count": len(ordered),
        "divisors": [str(g) for g in ordered],
    }


def _factorizations(f, args, b):
    zs = engine.factorizations(f, args.strategy, b)
    z_out = sorted(sorted(str(p) for p in z.parts) for z in zs)
    return {"count": len(z_out), "Z": z_out}


def _lengths(f, args, b):
    lengths, rho = engine.length_profile(f, args.strategy, b)
    return {"L": sorted(lengths), "elasticity": f"{rho.numerator}/{rho.denominator}"}


def _certify(f, args, b):
    rep = engine.atomic_certificate(f, args.strategy, b)
    return {
        "passes": rep.passes,
        "parts": [
            {
                "part": str(p.part),
                "coeff_mcd": sorted(f.semiring.render(v) for v in p.coeff_mcd),
                "exp_mcd": sorted((_elem_jsonable(e) for e in p.exp_mcd), key=str),
                "passes": p.passes,
            }
            for p in rep.per_part
        ],
    }


# op -> handler(f, args, budgets): the payload after "expr"; poly
# expand-family reads no expression and is dispatched on its own
_POLY_OPS = {
    "divisors": _divisors,
    "factorizations": _factorizations,
    "lengths": _lengths,
    "elasticity": _lengths,
    "is-atom": lambda f, args, b: {"is_atom": engine.is_atom(f, args.strategy, b)},
    "is-monolithic": lambda f, args, b: {
        "is_monolithic": engine.is_monolithic(f, args.strategy, b)
    },
    "decompose": lambda f, args, b: {
        "parts": [str(p) for p in engine.monolithic_decompose(f, args.strategy, b)]
    },
    "certify": _certify,
    "lenfn": lambda f, args, b: {"length": engine.length_fn(f, b)},
}


def _factorize(M, args, b):
    q = args.args[0]
    zs = M.factorizations(q, node_budget=b.knapsack_nodes)
    return {
        "m": _elem_jsonable(M.elem(q)),
        # tuples of one monoid's ExpElems sort as their scaled numerators do
        "Z": [[_elem_jsonable(e) for e in z] for z in sorted(zs)],
        "L": sorted({len(z) for z in zs}),
    }


def _mcd(M, args, b):
    out = sorted(M.mcd(args.args, node_budget=b.knapsack_nodes))
    return {"mcd": [_elem_jsonable(e) for e in out]}


def _gcd(M, args, b):
    g = M.gcd(args.args, node_budget=b.knapsack_nodes)
    return {"gcd": None if g is None else _elem_jsonable(g)}


# op -> (number of q arguments, handler(M, args, budgets)): the payload
# after "monoid"
_MONOID_OPS = {
    "atoms": (0, lambda M, args, b: {"atoms": [_elem_jsonable(a) for a in sorted(M.atoms())]}),
    "member": (1, lambda M, args, b: {"q": str(args.args[0]), "member": M.member(args.args[0])}),
    "factorize": (1, _factorize),
    "mcd": ("+", _mcd),
    "gcd": ("+", _gcd),
}

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
    for op in _POLY_OPS:
        p = poly_sub.add_parser(op)
        _context_flags(p, op != "lenfn")
        p.add_argument("expr")
    fam = poly_sub.add_parser("expand-family")
    _common_flags(fam)
    fam.add_argument("--n", type=_nonnegative_int, required=True)
    fam.add_argument("--m", type=_nonnegative_int, default=None, help="defaults to n")
    fam.add_argument("--k", type=_nonnegative_int, default=0)

    mon = sub.add_parser("monoid", help="operations on exponent monoids")
    mon_sub = mon.add_subparsers(dest="op", required=True)
    for op, (nargs, _) in _MONOID_OPS.items():
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


def _run_poly(args):
    b = _budgets(args)
    if args.op == "expand-family":
        m = args.m if args.m is not None else args.n
        f = paperlab.expand_family(args.n, m, args.k, b.degree_limit)
        return {"n": args.n, "m": m, "k": args.k, "expr": str(f)}
    M = monoid_from_literal(args.monoid, b.knapsack_nodes)
    f = parse_poly(args.expr, semiring_from_literal(args.coeffs), M)
    return {"expr": str(f), **_POLY_OPS[args.op](f, args, b)}


def _run_monoid(args):
    b = _budgets(args)
    M = monoid_from_literal(args.monoid, b.knapsack_nodes)
    return {"monoid": M.literal(), **_MONOID_OPS[args.op][1](M, args, b)}


def _run_verify(args):
    b = _budgets(args)
    results = paperlab.run_paper_suite(b, args.only)
    text = paperlab.report_json(results, b, args.only)
    failed = any(r.status == "fail" for r in results)
    return text, (1 if failed else 0)


def _run_sweep(args):
    b = _budgets(args)
    try:
        n_values = [read_number(v) for v in args.n.split(",")]
        k_values = [read_number(v) for v in args.k.split(",")]
    except ParseError:
        raise UsageError("--n and --k take comma-separated integers") from None
    rows = paperlab.elasticity_sweep(n_values, k_values, b)
    if args.output == "csv":
        return paperlab.sweep_csv(rows)
    return json.dumps({"rows": rows}, sort_keys=True) + "\n"


def _pretty(payload) -> str:
    """One ``key: value`` line per payload entry, lists as JSON."""
    return "".join(
        f"{k}: {json.dumps(v) if isinstance(v, list) else v}\n" for k, v in payload.items()
    )


def _emit(text: str, out_path):
    if out_path:
        tmp = f"{out_path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            text, code = _run_verify(args)
        elif args.command == "sweep":
            text, code = _run_sweep(args), 0
        else:
            payload = _run_poly(args) if args.command == "poly" else _run_monoid(args)
            text = (
                _pretty(payload)
                if args.output == "pretty"
                else json.dumps(payload, sort_keys=True) + "\n"
            )
            code = 0
        _emit(text, args.out)
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
