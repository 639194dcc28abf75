"""Divisor enumeration and factorization invariants for polynomial expressions.

Two divisor strategies are available and kept deliberately independent:

* ``zx_fastpath`` (Nat coefficients only): substitute y = x^(1/D), factor the
  resulting integer polynomial completely, then walk all sub-multisets of
  the content primes and irreducible factors, keeping a product exactly when
  it and its cofactor both have nonnegative coefficients and supports inside
  the exponent monoid.

* ``oracle``: enumerate candidate divisors directly.  A candidate support is
  a set of monoid members that each additively divide some support element
  of f (and whose extremes are compatible with f's degree and trailing
  exponent); candidate coefficients are bounded componentwise by the largest
  component in f, with leading/trailing coefficients restricted to exact
  divisors.  Only candidates up to half the degree are enumerated; each hit
  also contributes its cofactor, and divisor sets are closed under
  cofactors.  The component bound is sound because the semirings are
  additively reduced: every coefficient product of a splitting contributes
  to a coefficient of f without cancellation.

Results are cached per canonical form; all values are immutable.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .coeff import Nat
from .errors import BudgetError, DomainError, UsageError
from .intfactor import IntPoly, _mul, factor_int_poly
from .polyexpr import PolyExpr, ambient_exact_div

STRATEGY_AUTO = "auto"
STRATEGY_ORACLE = "oracle"
STRATEGY_ZX = "zx_fastpath"


@dataclass(frozen=True)
class Budgets:
    oracle_candidates: int = 10**6
    z_nodes: int = 10**5
    knapsack_nodes: int = 10**6
    degree_limit: int = 24


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class DivisorSet:
    base: PolyExpr
    divisors: frozenset
    strategy_used: str


@dataclass(frozen=True)
class Factorization:
    parts: tuple  # atoms in canonical order

    @property
    def length(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class PartCertificate:
    part: PolyExpr
    coeff_mcd: frozenset
    exp_mcd: frozenset
    passes: bool


@dataclass(frozen=True)
class CertificateReport:
    target: PolyExpr
    monolithic_parts: tuple
    per_part: tuple
    passes: bool


def sort_key(f: PolyExpr):
    """Canonical order: ascending degree, then term-by-term comparison."""
    S = f.semiring
    nums = f.exponent_nums()
    return (nums[0] if nums else -1, tuple((n, S.sort_key(c)) for n, (_, c) in zip(nums, f.terms)))


_DIV_CACHE: dict = {}
_DIV_LOCK = threading.Lock()


def clear_caches():
    with _DIV_LOCK:
        _DIV_CACHE.clear()


def divisors(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> DivisorSet:
    """All g in the semidomain with g*h = f for some h, plus the strategy used."""
    budgets = budgets or DEFAULT_BUDGETS
    if f.is_zero:
        raise DomainError("the zero polynomial has no divisor set")
    strat = _resolve_strategy(f, strategy)
    key = (f, strat, budgets)
    with _DIV_LOCK:
        hit = _DIV_CACHE.get(key)
    if hit is not None:
        return hit
    if strat == STRATEGY_ZX:
        found = _zx_divisors(f, budgets)
    else:
        found = _oracle_divisors(f, budgets)
    result = DivisorSet(base=f, divisors=frozenset(found), strategy_used=strat)
    with _DIV_LOCK:
        _DIV_CACHE[key] = result
    return result


def _resolve_strategy(f, strategy):
    if strategy == STRATEGY_AUTO:
        return STRATEGY_ZX if isinstance(f.semiring, Nat) else STRATEGY_ORACLE
    if strategy == STRATEGY_ZX:
        if not isinstance(f.semiring, Nat):
            raise UsageError("zx_fastpath requires nat coefficients")
        return STRATEGY_ZX
    if strategy == STRATEGY_ORACLE:
        return STRATEGY_ORACLE
    raise UsageError(f"unknown divisor strategy {strategy!r}")


def _zx_divisors(f, budgets):
    S, M = f.semiring, f.monoid
    nums = f.exponent_nums()
    dense = [0] * (nums[0] + 1)
    for n, (_, c) in zip(nums, f.terms):
        dense[n] = c
    fac = factor_int_poly(IntPoly.of(dense), degree_limit=budgets.degree_limit)
    items = [([p], 1) for p in fac.content] + [
        (list(poly.coeffs), mult) for poly, mult in fac.factors
    ]
    # collapse duplicate content primes into (prime, multiplicity)
    grouped: dict = {}
    for coeffs, mult in items:
        t = tuple(coeffs)
        grouped[t] = grouped.get(t, 0) + mult
    entries = sorted(grouped.items())
    found = set()
    count = 0
    for exps in product(*(range(m + 1) for _, m in entries)):
        count += 1
        if count > budgets.oracle_candidates:
            raise BudgetError(
                f"fast-path divisor enumeration exceeded {budgets.oracle_candidates} candidates"
            )
        g = [1]
        h = [1]
        for (coeffs, mult), e in zip(entries, exps):
            for _ in range(e):
                g = _mul(g, list(coeffs))
            for _ in range(mult - e):
                h = _mul(h, list(coeffs))
        gp = _poly_from_dense(g, S, M)
        if gp is None:
            continue
        if _poly_from_dense(h, S, M) is None:
            continue
        found.add(gp)
    return found


def _poly_from_dense(coeffs, S, M):
    """Dense y-coefficients back to a polynomial expression, or None when a
    coefficient is negative or an exponent falls outside the monoid."""
    terms = []
    for n, c in enumerate(coeffs):
        if c == 0:
            continue
        if c < 0 or not M.member_num(n):
            return None
        terms.append((M.elem_of_num(n), c))
    terms.reverse()
    return PolyExpr(S, M, tuple(terms))


def _oracle_divisors(f, budgets):
    S, M = f.semiring, f.monoid
    nums = f.exponent_nums()
    deg_num, trail_num = nums[0], nums[-1]
    lc, tc = f.leading_coeff, f.trailing_coeff
    maxcomp = max(S.max_component(c) for _, c in f.terms)
    half = deg_num // 2
    admissible = [
        m
        for m in range(half + 1)
        if M.member_num(m) and any(sn >= m and M.member_num(sn - m) for sn in nums)
    ]
    lc_divs = sorted(S.divisors_of(lc), key=S.sort_key)
    tc_divs = sorted(S.divisors_of(tc), key=S.sort_key)
    both_divs = [v for v in lc_divs if v in set(tc_divs)]
    mids = S.values_with_components_at_most(maxcomp)
    one = PolyExpr.one(S, M)
    found = {one, f}
    count = 0
    max_size = min(len(f.terms), len(admissible))
    for size in range(1, max_size + 1):
        for support in combinations(admissible, size):
            top, bottom = support[-1], support[0]
            if not M.member_num(deg_num - top):
                continue
            if not M.member_num(trail_num - bottom):
                continue
            if size == 1:
                choices = [both_divs]
            else:
                choices = [tc_divs] + [mids] * (size - 2) + [lc_divs]
            for combo in product(*choices):
                count += 1
                if count > budgets.oracle_candidates:
                    raise BudgetError(
                        f"oracle divisor enumeration exceeded "
                        f"{budgets.oracle_candidates} candidates"
                    )
                g = PolyExpr(
                    S,
                    M,
                    tuple(
                        (M.elem_of_num(n), c)
                        for n, c in zip(reversed(support), reversed(combo))
                    ),
                )
                q = ambient_exact_div(f, g)
                if q is not None:
                    found.add(g)
                    found.add(q)
    return found


def s_divides(g: PolyExpr, f: PolyExpr) -> bool:
    """Whether g divides f inside the semidomain."""
    return ambient_exact_div(f, g) is not None


def is_atom(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> bool:
    if f.is_zero:
        raise DomainError("0 is not eligible for atom testing")
    if f.is_one:
        return False
    return len(divisors(f, strategy, budgets).divisors) == 2


def is_monolithic(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> bool:
    """True when every splitting f = g*h has a monomial side."""
    if f.is_zero:
        raise DomainError("0 is not eligible for monolithic testing")
    if len(f.terms) == 1:
        return True
    for g in divisors(f, strategy, budgets).divisors:
        if len(g.terms) < 2:
            continue
        h = ambient_exact_div(f, g)
        if len(h.terms) >= 2:
            return False
    return True


def monolithic_decompose(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None):
    """Some list of monolithic parts with product f (not unique in general)."""
    if f.is_zero or f.is_one:
        raise DomainError("monolithic decomposition needs a nonzero nonunit")
    if len(f.terms) == 1:
        return [f]
    for g in sorted(divisors(f, strategy, budgets).divisors, key=sort_key):
        if len(g.terms) < 2:
            continue
        h = ambient_exact_div(f, g)
        if len(h.terms) >= 2:
            # both sides have strictly smaller support; recurse
            return monolithic_decompose(g, strategy, budgets) + monolithic_decompose(
                h, strategy, budgets
            )
    return [f]


def _atoms_within(dset, one):
    """Atoms among a cofactor-closed divisor set, canonically ordered."""
    ordered = sorted(dset, key=sort_key)
    out = []
    for g in ordered:
        if g == one:
            continue
        if any(h != one and h != g and s_divides(h, g) for h in ordered):
            continue
        out.append(g)
    return out


def factorizations(
    f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None
) -> frozenset:
    """The complete set Z(f) of atom multisets with product f."""
    budgets = budgets or DEFAULT_BUDGETS
    if f.is_zero or f.is_one:
        raise DomainError("factorization sets are defined for nonzero nonunits")
    dset = divisors(f, strategy, budgets).divisors
    one = PolyExpr.one(f.semiring, f.monoid)
    atoms = _atoms_within(dset, one)
    memo = {}
    nodes = 0

    def rec(target, start):
        nonlocal nodes
        key = (target, start)
        hit = memo.get(key)
        if hit is not None:
            return hit
        nodes += 1
        if nodes > budgets.z_nodes:
            raise BudgetError(f"factorization recursion exceeded {budgets.z_nodes} nodes")
        if target == one:
            out = frozenset({()})
        else:
            acc = set()
            for j in range(start, len(atoms)):
                q = ambient_exact_div(target, atoms[j])
                if q is None:
                    continue
                for rest in rec(q, j):
                    acc.add((j,) + rest)
            out = frozenset(acc)
        memo[key] = out
        return out

    tuples = rec(f, 0)
    return frozenset(Factorization(tuple(atoms[j] for j in tup)) for tup in tuples)


def length_profile(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None):
    """(L(f), elasticity).  A unit has an empty length set and elasticity 1."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no length set")
    if f.is_one:
        return frozenset(), Fraction(1)
    zs = factorizations(f, strategy, budgets)
    lengths = frozenset(z.length for z in zs)
    return lengths, Fraction(max(lengths), min(lengths))


def atomic_certificate(
    f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None
) -> CertificateReport:
    """Per-part check that coefficient and exponent lists admit maximal
    common divisors, over some monolithic decomposition of f."""
    parts = monolithic_decompose(f, strategy, budgets)
    per = []
    for part in parts:
        coeffs = [c for _, c in part.terms]
        exps = [e for e, _ in part.terms]
        cm = frozenset(part.semiring.mcd_set(coeffs))
        em = part.monoid.mcd(exps)
        per.append(PartCertificate(part, cm, em, bool(cm) and bool(em)))
    return CertificateReport(
        target=f,
        monolithic_parts=tuple(parts),
        per_part=tuple(per),
        passes=all(p.passes for p in per),
    )


def length_fn(f: PolyExpr) -> int:
    """Length function built from the coefficient and exponent lengths plus
    the support size; zero exactly at the unit, superadditive under products."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no length")
    return (
        f.semiring.length(f.leading_coeff)
        + f.monoid.length(f.degree)
        + len(f.terms)
        - 1
    )
