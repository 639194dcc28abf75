"""Executable reference suite: every worked computation the library is
built around, re-run from scratch and reported in a machine-readable form.

Checks are independent, deterministic (fixed seeds, sorted output) and
never raise for an ordinary failure: a failed check carries a
counterexample payload, and an exhausted budget marks the check skipped
with the reason.
"""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import engine
from .coeff import Nat, Quad
from .errors import (
    DEFAULT_BUDGETS, BudgetError, Budgets, DomainError, InternalError, UsageError, check_degree
)
from .intfactor import IntPoly
from .monoid import make_monoid, nat_monoid
from .polyexpr import PolyExpr, parse

SUITE_VERSION = "1.0"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    paper_anchor: str
    status: str  # pass | fail | skipped
    details: dict


def expand_family(
    n: int, m: int, k: int = 0, degree_limit: int = DEFAULT_BUDGETS.degree_limit
) -> PolyExpr:
    """(x+n)^m (x^2-x+1) (x+1)^k as a nonnegative polynomial expression,
    refused before expansion when its degree exceeds ``degree_limit``."""
    _check_family(n, m, k)
    check_degree(m + 2 + k, degree_limit)
    ip = family_int(n, m, k)
    if not ip.is_nonnegative:
        raise DomainError(
            f"(x+{n})^{m} (x^2-x+1) (x+1)^{k} has a negative coefficient"
        )
    S, M = Nat(), nat_monoid()
    return PolyExpr.from_terms(S, M, [(i, c) for i, c in enumerate(ip.coeffs) if c])


def _check_family(n, m, k):
    if n < 1 or m < 0 or k < 0:
        raise UsageError("family parameters must satisfy n >= 1, m >= 0, k >= 0")


def family_int(n: int, m: int, k: int = 0) -> IntPoly:
    """The same product expanded over the integers."""
    _check_family(n, m, k)
    return IntPoly.of([n, 1]) ** m * IntPoly.of([1, -1, 1]) * IntPoly.of([1, 1]) ** k


def _parse_nat(text):
    return parse(text, Nat(), nat_monoid())


# -- individual checks -------------------------------------------------------

def _check_lfs_witness(budgets):
    f1 = _parse_nat("x+1")
    f2 = _parse_nat("x^3+1")
    f3 = _parse_nat("x^2+x+1")
    f4 = _parse_nat("x^4+x^2+1")
    target = _parse_nat("x^5+x^4+x^3+x^2+x+1")
    failures = []
    if f1 * f4 != target or f2 * f3 != target:
        failures.append("product identity does not hold")
    zs = engine.factorizations(target, budgets=budgets)
    got = sorted(sorted(str(p) for p in z.parts) for z in zs)
    want = [["x+1", "x^4+x^2+1"], ["x^2+x+1", "x^3+1"]]
    if got != want:
        failures.append(f"factorization set is {got}, expected {want}")
    lengths = sorted(z.length for z in zs)
    if lengths != [2, 2]:
        failures.append(f"lengths are {lengths}, expected [2, 2]")
    return failures, {"factorizations": got, "lengths": lengths, "product": str(target)}


def _check_hfs_witness(budgets):
    f1 = _parse_nat("x^4+x^2+x+1")
    f2 = _parse_nat("x^6+x^5+x^3+1")
    f3 = _parse_nat("x+1")
    f4 = _parse_nat("x^2+1")
    f5 = _parse_nat("x^7+2x^4+1")
    expanded = _parse_nat("x^10+x^9+x^8+3x^7+2x^6+2x^5+2x^4+x^3+x^2+x+1")
    failures = []
    prod = f1 * f2
    if prod != f3 * f4 * f5 or prod != expanded:
        failures.append("product identity does not hold")
    if not engine.is_atom(f1, budgets=budgets):
        failures.append(f"{f1} is not reported as an atom")
    if not engine.is_atom(f2, budgets=budgets):
        failures.append(f"{f2} is not reported as an atom")
    lengths, rho = engine.length_profile(prod, budgets=budgets)
    if min(lengths) != 2:
        failures.append(f"min length is {min(lengths)}, expected 2")
    if max(lengths) < 3:
        failures.append(f"max length is {max(lengths)}, expected >= 3")
    return failures, {
        "L": sorted(lengths),
        "elasticity": f"{rho.numerator}/{rho.denominator}",
        "product": str(prod),
    }


def _check_membership_family(budgets):
    failures = []
    table = []
    for n in range(1, 7):
        for m in range(1, 7):
            nonneg = family_int(n, m).is_nonnegative
            table.append({"n": n, "m": m, "nonnegative": nonneg})
            if nonneg != (m >= n):
                failures.append(f"n={n}, m={m}: nonnegative={nonneg}")
    return failures, {"cases": len(table), "table": table}


def _check_irreducible_family(budgets):
    failures = []
    checked = []
    for n in range(1, 5):
        f = expand_family(n, n, 0, budgets.degree_limit)
        if not engine.is_atom(f, budgets=budgets):
            failures.append(f"n={n}: {f} is not reported as an atom")
        checked.append({"n": n, "expr": str(f)})
    return failures, {"family": checked}


def _check_elasticity_family(budgets):
    failures = []
    rows = []
    for n in (2, 3):
        for k in (1, 2, 3):
            f = expand_family(n, n, k, budgets.degree_limit)
            zs = engine.factorizations(f, budgets=budgets)
            lengths = sorted(z.length for z in zs)
            rho = Fraction(max(lengths), min(lengths))
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "lengths": lengths,
                    "elasticity": f"{rho.numerator}/{rho.denominator}",
                }
            )
            if len(zs) != 2 or lengths != sorted([k + 1, k + n]):
                failures.append(f"n={n}, k={k}: lengths {lengths}")
            if rho != Fraction(k + n, k + 1):
                failures.append(f"n={n}, k={k}: elasticity {rho}")
    return failures, {"rows": rows}


def _check_quad_sqrt6(budgets):
    S = Quad(6)
    failures = []
    checked = 0
    for total in range(1, 11):
        for bb in range(total + 1):
            a = (bb, total - bb)
            for s in S.divisors_of(a, budgets.oracle_candidates):
                checked += 1
                if s[0] + s[1] > total:
                    failures.append(f"divisor {S.render(s)} of {S.render(a)} breaks the bound")
    zs = S.atom_factorizations((6, 0), budgets.oracle_candidates)
    got = sorted(sorted(S.render(v) for v in z) for z in zs)
    want = [["2", "3"], ["r", "r"]]
    if got != want:
        failures.append(f"factorizations of 6 are {got}, expected {want}")
    return failures, {"divisor_pairs_checked": checked, "six": got}


def _check_monolithic_example(budgets):
    f = _parse_nat("x^2+x^3")
    failures = []
    if not engine.is_monolithic(f, budgets=budgets):
        failures.append(f"{f} not reported monolithic")
    report = engine.atomic_certificate(f, budgets=budgets)
    if not report.passes:
        failures.append("certificate fails")
    part = report.per_part[0]
    if sorted(part.coeff_mcd) != [1]:
        failures.append(f"coefficient mcd is {sorted(part.coeff_mcd)}")
    if sorted(e.value for e in part.exp_mcd) != [2]:
        failures.append(f"exponent mcd is {sorted(str(e) for e in part.exp_mcd)}")
    return failures, {
        "expr": str(f),
        "coeff_mcd": sorted(part.coeff_mcd),
        "exp_mcd": sorted(str(e) for e in part.exp_mcd),
    }


def _check_puiseux_demo(budgets):
    failures = []
    m1 = make_monoid([Fraction(1, 2), Fraction(3, 4)], budgets.knapsack_nodes)
    m2 = make_monoid([2, 3], budgets.knapsack_nodes)
    if sorted(str(a) for a in m1.atoms()) != ["1/2", "3/4"]:
        failures.append(f"atoms of {m1.literal()} are {sorted(str(a) for a in m1.atoms())}")
    # scaling m -> m/4 must preserve factorization counts and lengths
    for num in range(0, 25):
        if not m2.member_num(num):
            continue
        z2 = m2.factorizations(Fraction(num), node_budget=budgets.knapsack_nodes)
        z1 = m1.factorizations(Fraction(num, 4), node_budget=budgets.knapsack_nodes)
        if len(z1) != len(z2) or sorted(len(t) for t in z1) != sorted(len(t) for t in z2):
            failures.append(f"scaling mismatch at {num}/4")
    trunc = make_monoid([1, Fraction(3, 2), Fraction(9, 4)], budgets.knapsack_nodes)
    if sorted(str(a) for a in trunc.atoms()) != ["1", "3/2", "9/4"]:
        failures.append(f"atoms of truncation are {sorted(str(a) for a in trunc.atoms())}")
    zs = trunc.factorizations(Fraction(9, 2), node_budget=budgets.knapsack_nodes)
    lengths = sorted(len(t) for t in zs)
    if lengths != [2, 3, 4]:
        failures.append(f"lengths of 9/2 in the truncation are {lengths}")
    pair = [Fraction(1, 2), Fraction(3, 4)]
    mcd_02 = sorted(str(e) for e in m1.mcd(pair, budgets.knapsack_nodes))
    if mcd_02 != ["0"]:
        failures.append(f"mcd of the atom pair is {mcd_02}")
    return failures, {
        "truncation_lengths": lengths,
        "truncation_elasticity": f"{max(lengths)}/{min(lengths)}",
        "atom_pair_mcd": mcd_02,
    }


def _check_length_function_suite(budgets):
    rng = random.Random(74025)
    failures = []
    contexts = [
        (Nat(), nat_monoid(), "nat/nat"),
        (Nat(), make_monoid([2, 3], budgets.knapsack_nodes), "nat/<2,3>"),
        (Quad(6), nat_monoid(), "quad6/nat"),
    ]
    pairs = 0
    for S, M, label in contexts:
        members = [n for n in range(9) if M.member_num(n)]
        for _ in range(120):
            f = _random_poly(rng, S, M, members)
            g = _random_poly(rng, S, M, members)
            pairs += 1
            fg = f * g
            lf, lg, lfg = (engine.length_fn(h, budgets) for h in (f, g, fg))
            if lfg < lf + lg:
                failures.append(f"{label}: l({f} * {g}) = {lfg} < {lf} + {lg}")
            # scaling by D is a bijection, so numerators compare as exponents
            sumset = {a + b for a in f.nums for b in g.nums}
            if sumset != set(fg.nums):
                failures.append(f"{label}: support of {f} * {g} is not the sumset")
            if (lf == 0) != f.is_one:
                failures.append(f"{label}: zero-length mismatch for {f}")
    return failures, {"pairs": pairs}


def _random_poly(rng, S, M, members):
    """Up to 4 terms at distinct scaled numerators drawn from ``members``,
    with nonzero coefficients: canonical once sorted, so nothing is merged."""
    pairs = []
    for n in rng.sample(members, rng.randint(1, min(4, len(members)))):
        if isinstance(S, Nat):
            c = rng.randint(1, 5)
        else:
            c = (rng.randint(0, 3), rng.randint(0, 3))
            if c == (0, 0):
                c = (1, 0)
        pairs.append((n, c))
    pairs.sort(reverse=True)
    nums, coeffs = zip(*pairs)
    return PolyExpr(S, M, nums, coeffs)


# check id -> (paper anchor, check)
_CHECKS = {
    "elasticity-family": ("(x+n)^n (x^2-x+1) (x+1)^k has exactly two factorizations, "
                          "of lengths k+1 and k+n", _check_elasticity_family),
    "hfs-witness": ("(x^4+x^2+x+1)(x^6+x^5+x^3+1) = (x+1)(x^2+1)(x^7+2x^4+1): "
                    "a length-2 and a length>=3 factorization of one element", _check_hfs_witness),
    "irreducible-family": ("(x+n)^n (x^2-x+1) is an atom of the nonnegative polynomials",
                           _check_irreducible_family),
    "length-function-suite": ("l(f) = l_c(lc f) + l_e(deg f) + |supp f| - 1 vanishes exactly "
                              "on units and is superadditive", _check_length_function_suite),
    "lfs-witness": ("(x+1)(x^4+x^2+1) = (x^3+1)(x^2+x+1): two distinct equal-length "
                    "factorizations", _check_lfs_witness),
    "membership-family": ("(x+n)^m (x^2-x+1) has nonnegative coefficients iff m >= n",
                          _check_membership_family),
    "monolithic-example": ("x^2+x^3 splits only with a monomial side", _check_monolithic_example),
    "puiseux-demo": ("invariants of <1/2,3/4> and the truncation <1,3/2,9/4>", _check_puiseux_demo),
    "quad-sqrt6-suite": ("divisors in N0[sqrt(6)] satisfy b'+c' <= b+c; 6 = 2*3 = sqrt(6)^2",
                         _check_quad_sqrt6),
}
ANCHORS = {cid: anchor for cid, (anchor, _) in _CHECKS.items()}


def run_paper_suite(budgets: Budgets = DEFAULT_BUDGETS, only=None):
    """Run the reference checks (all of them, or the ids in ``only``) and
    report one CheckResult per check."""
    selected = sorted(_CHECKS)
    if only:
        unknown = [cid for cid in only if cid not in _CHECKS]
        if unknown:
            raise UsageError(f"unknown check ids {unknown}; valid: {selected}")
        selected = sorted(only)
    results = []
    for cid in selected:
        anchor, check = _CHECKS[cid]
        try:
            failures, details = check(budgets)
            status = "pass" if not failures else "fail"
            if failures:
                details = dict(details)
                details["counterexamples"] = failures
        except BudgetError as exc:
            status = "skipped"
            details = {"reason": str(exc)}
        results.append(CheckResult(cid, anchor, status, details))
    return results


def report_json(results, budgets: Budgets = DEFAULT_BUDGETS, only=None) -> str:
    """The report of ``run_paper_suite(budgets, only)``; its ``config`` is the
    budget fields plus ``only``."""
    doc = {
        "suite_version": SUITE_VERSION,
        "config": dict(asdict(budgets), only=sorted(only) if only else None),
        "results": [asdict(r) for r in results],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- sweeps ------------------------------------------------------------------

def elasticity_sweep(n_values, k_values, budgets: Budgets = DEFAULT_BUDGETS):
    """Rows (n, k, L, elasticity "a/b") for the two-factorization family,
    each re-verified against the engine's length profile; a row whose budget
    runs out is kept as skipped, with the reason."""
    rows = []
    for n in sorted(set(n_values)):
        for k in sorted(set(k_values)):
            if n < 2 or k < 1:
                raise UsageError(f"sweep needs n >= 2 and k >= 1, got n={n}, k={k}")
            try:
                f = expand_family(n, n, k, budgets.degree_limit)
                lengths, rho = engine.length_profile(f, budgets=budgets)
            except BudgetError as exc:
                rows.append({"n": n, "k": k, "status": "skipped", "reason": str(exc)})
                continue
            expected = Fraction(k + n, k + 1)
            if sorted(lengths) != sorted({k + 1, k + n}) or rho != expected:
                raise InternalError(
                    f"engine profile for n={n}, k={k} disagrees with (k+n)/(k+1)"
                )
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "min_len": min(lengths),
                    "max_len": max(lengths),
                    "elasticity": f"{rho.numerator}/{rho.denominator}",
                    "status": "ok",
                }
            )
    return rows


def sweep_csv(rows) -> str:
    """The rows of ``elasticity_sweep`` as CSV; a skipped row keeps only n and k."""
    lines = ["n,k,min_len,max_len,elasticity_num,elasticity_den"]
    for r in rows:
        if r["status"] != "ok":
            lines.append(f"{r['n']},{r['k']},,,,")
            continue
        num, den = r["elasticity"].split("/")
        lines.append(f"{r['n']},{r['k']},{r['min_len']},{r['max_len']},{num},{den}")
    return "\n".join(lines) + "\n"
