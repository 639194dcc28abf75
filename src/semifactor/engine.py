"""Divisor enumeration and factorization invariants for polynomial expressions.

Two divisor strategies are available and kept deliberately independent:

* ``zx_fastpath`` (Nat coefficients only): substitute y = x^(1/D) and
  factor the resulting integer polynomial completely.  Z[y] factors
  uniquely, so every divisor of f is the product of the content primes and
  irreducible factors taken with a multiplicity vector e <= m, where m is
  f's own vector.  The box of vectors is walked depth-first, one product
  per point, and e is kept exactly when its product and the product of
  m - e both have nonnegative coefficients and supports inside the exponent
  monoid.

* ``oracle``: enumerate candidate divisors directly.  A candidate support is
  a set of monoid members that each additively divide some support element
  of f (and whose extremes are compatible with f's degree and trailing
  exponent); candidate coefficients are bounded componentwise by the largest
  component in f, with leading/trailing coefficients restricted to exact
  divisors.  Only candidates up to half the degree are enumerated; each hit
  also contributes its cofactor, and divisor sets are closed under
  cofactors.  The component bound is sound because the semirings are
  additively reduced: every coefficient product of a splitting contributes
  to a coefficient of f without cancellation.  For the same reason
  evaluation at x = 1 is a semiring homomorphism S[M] -> S: f = g*h gives
  f(1) = g(1)*h(1) with h(1) in S, so a candidate g is dropped unless
  f(1)/g(1) exists in S, with no negative component.  g(1) depends only on
  the coefficients, so the coefficient tuples are tested once per support
  size, before any long division; every candidate still counts against the
  budget.

``divisors`` indexes a divisor set once: its members in ``sort_key`` order
and, for zx, the vector of each.  Atoms, Z(f), ``is_monolithic`` and
``monolithic_decompose`` work on positions in that order, and every
divisibility question among them goes through one quotient kernel,
``_quot``: for g, h in D(f), h divides g exactly when g/h is again in D(f).
For zx that is the vector e_g - e_h, found by a subtraction and a lookup
with no polynomial division; for the oracle it is one ``ambient_exact_div``,
run only when h(1) divides g(1) in S.
``monolithic_decompose`` splits each part inside the list of f, because
D(g) = {h in D(f) : g/h in D(f)} and filtering keeps the order.

The engine reads a polynomial's scaled exponent numerators ``nums`` and
its ``coeffs`` and builds every divisor from them; it never builds an
``ExpElem``.

Results are cached per canonical form and budgets, at most
``_DIV_CACHE_SIZE`` of them (a full cache evicts its oldest entry); the
cached lattice also keeps its atom positions and Z(f) once computed.  All
returned values are immutable.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import prod
from operator import sub

from .coeff import Nat
from .errors import DEFAULT_BUDGETS, BudgetError, Budgets, DomainError, UsageError
from .intfactor import IntPoly, _mul, factor_int_poly
from .polyexpr import PolyExpr, ambient_exact_div

STRATEGY_AUTO = "auto"
STRATEGY_ORACLE = "oracle"
STRATEGY_ZX = "zx_fastpath"


@dataclass(eq=False)
class _Lattice:
    """Positions of a divisor set: ``ordered`` is the set in ``sort_key``
    order; ``vecs`` holds each divisor's multiplicity vector (zx) or is None
    (oracle); ``pos`` maps a vector (zx) or a divisor (oracle) to its
    position; ``unit`` and ``base`` are the positions of 1 and of f;
    ``ones`` holds each divisor's value at x = 1 (oracle) or is None (zx).
    ``atoms`` and ``z`` keep the atom positions and Z(f) once computed;
    the lattice is cached per budgets, so Z(f) is kept only for the
    budgets it was computed under."""

    ordered: tuple
    vecs: tuple | None
    pos: dict
    unit: int
    base: int
    ones: tuple | None = None
    atoms: tuple | None = None
    z: frozenset | None = None


@dataclass(frozen=True)
class DivisorSet:
    base: PolyExpr
    divisors: frozenset
    strategy_used: str
    _lattice: _Lattice = field(default=None, compare=False, repr=False)


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
    nums = f.nums
    return (nums[0] if nums else -1, tuple(zip(nums, f.coeffs)))


_DIV_CACHE: dict = {}
_DIV_CACHE_SIZE = 1024
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
        by_vec = sorted(_zx_divisors(f, budgets).items(), key=lambda kv: sort_key(kv[1]))
        ordered = tuple(g for _, g in by_vec)
        vecs = tuple(e for e, _ in by_vec)
        pos = {e: i for i, e in enumerate(vecs)}
        # f's vector is the componentwise, hence lexicographic, maximum
        unit, base = pos[(0,) * len(vecs[0])], pos[max(vecs)]
        ones = None
    else:
        ordered = tuple(sorted(_oracle_divisors(f, budgets), key=sort_key))
        vecs = None
        pos = {g: i for i, g in enumerate(ordered)}
        unit, base = pos[PolyExpr.one(f.semiring, f.monoid)], pos[f]
        ones = tuple(_at_one(f.semiring, g.coeffs) for g in ordered)
    lattice = _Lattice(ordered, vecs, pos, unit, base, ones)
    result = DivisorSet(f, frozenset(ordered), strat, lattice)
    with _DIV_LOCK:
        if len(_DIV_CACHE) >= _DIV_CACHE_SIZE:
            del _DIV_CACHE[next(iter(_DIV_CACHE))]
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
    """Multiplicity vector -> divisor, over the box of sub-multisets of the
    content primes and irreducible factors of f(y^D) in Z[y].

    The box is walked depth-first along the tree in which a point's parent
    lowers its last nonzero entry by one, so every point costs one product
    of its parent with one factor.  A point is kept when it and its cofactor
    (the complementary point) both lie in the semidomain; a point outside it
    can still have children inside, e.g. (y^2-y+1)(y+1) = y^3+1.
    """
    S, M = f.semiring, f.monoid
    nums = f.nums
    _check_degree(nums[0], budgets)
    dense = [0] * (nums[0] + 1)
    for n, c in zip(nums, f.coeffs):
        dense[n] = c
    fac = factor_int_poly(IntPoly.of(dense), degree_limit=budgets.degree_limit)
    # collapse duplicate content primes into (prime, multiplicity)
    grouped: dict = {}
    for p in fac.content:
        grouped[(p,)] = grouped.get((p,), 0) + 1
    for poly, mult in fac.factors:
        grouped[poly.coeffs] = grouped.get(poly.coeffs, 0) + mult
    entries = sorted(grouped.items())
    factors = [list(coeffs) for coeffs, _ in entries]
    top = tuple(mult for _, mult in entries)
    if prod(m + 1 for m in top) > budgets.oracle_candidates:
        raise BudgetError(
            f"fast-path divisor enumeration exceeded {budgets.oracle_candidates} candidates"
        )
    inside = {}
    # (point, its parent's y-polynomial, index of the factor raised; -1 at the root)
    stack = [((0,) * len(top), [1], -1)]
    while stack:
        e, g, j = stack.pop()
        if j >= 0:
            g = _mul(g, factors[j])
        gp = _poly_from_dense(g, S, M)
        if gp is not None:
            inside[e] = gp
        for k in range(max(j, 0), len(top)):
            if e[k] < top[k]:
                stack.append((e[:k] + (e[k] + 1,) + e[k + 1 :], g, k))
    return {
        e: gp
        for e, gp in inside.items()
        if tuple(map(sub, top, e)) in inside
    }


def _check_degree(deg_num, budgets):
    """Refuse a scaled degree above ``degree_limit`` before any work that
    grows with it."""
    if deg_num > budgets.degree_limit:
        raise BudgetError(
            f"degree {deg_num} exceeds the factorization limit {budgets.degree_limit}"
        )


def _poly_from_dense(coeffs, S, M):
    """Dense y-coefficients back to a polynomial expression, or None when a
    coefficient is negative or an exponent falls outside the monoid."""
    nums, cs = [], []
    for n, c in enumerate(coeffs):
        if c == 0:
            continue
        if c < 0 or not M.member_num(n):
            return None
        nums.append(n)
        cs.append(c)
    return PolyExpr(S, M, tuple(reversed(nums)), tuple(reversed(cs)))


def _at_one(S, coeffs):
    """The value at x = 1 of a polynomial with these coefficients: an int
    sum over Nat, a componentwise sum of (b, c) pairs over Quad."""
    return sum(coeffs) if isinstance(S, Nat) else tuple(map(sum, zip(*coeffs)))


def _oracle_divisors(f, budgets):
    S, M = f.semiring, f.monoid
    nums = f.nums
    deg_num, trail_num = nums[0], nums[-1]
    _check_degree(deg_num, budgets)
    lc, tc = f.coeffs[0], f.coeffs[-1]
    maxcomp = max(map(S.max_component, f.coeffs))
    half = deg_num // 2
    admissible = [
        m
        for m in range(half + 1)
        if M.member_num(m) and any(sn >= m and M.member_num(sn - m) for sn in nums)
    ]
    lc_divs = sorted(S.divisors_of(lc, budgets.oracle_candidates))
    tc_divs = sorted(S.divisors_of(tc, budgets.oracle_candidates))
    both_divs = [v for v in lc_divs if v in set(tc_divs)]
    mids = S.values_with_components_at_most(maxcomp)
    f1 = _at_one(S, f.coeffs)
    divides_f1 = {}
    one = PolyExpr.one(S, M)
    found = {one, f}
    count = 0
    max_size = min(len(nums), len(admissible))
    for size in range(1, max_size + 1):
        if size == 1:
            choices = [both_divs]
        else:
            choices = [tc_divs] + [mids] * (size - 2) + [lc_divs]
        per_support = prod(map(len, choices))
        # coefficient tuples (leading first) whose value at 1 divides f(1),
        # listed at the first support of this size within the budget, so a
        # size over the budget is never walked
        tuples = None
        for support in combinations(admissible, size):
            top, bottom = support[-1], support[0]
            if not M.member_num(deg_num - top):
                continue
            if not M.member_num(trail_num - bottom):
                continue
            count += per_support
            if count > budgets.oracle_candidates:
                raise BudgetError(
                    f"oracle divisor enumeration exceeded "
                    f"{budgets.oracle_candidates} candidates"
                )
            if tuples is None:
                tuples = []
                for combo in product(*choices):
                    g1 = _at_one(S, combo)
                    ok = divides_f1.get(g1)
                    if ok is None:
                        ok = divides_f1[g1] = S.exact_div(f1, g1) is not None
                    if ok:
                        tuples.append(combo[::-1])
            exps = support[::-1]
            for coeffs in tuples:
                g = PolyExpr(S, M, exps, coeffs)
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


def _quot(lat: _Lattice, i: int, j: int):
    """Position of ordered[i] / ordered[j], or None when ordered[j] does not
    divide ordered[i].  Both lie in D(f), so any quotient does too.

    zx: Z[y] factors uniquely, so h | g exactly when e_g - e_h is the vector
    of a divisor (a vector with a negative entry is never a key).  Oracle:
    h | g in S[M] implies h(1) | g(1) in S, so most pairs are ruled out by
    their values at 1 before any long division.
    """
    if lat.vecs is not None:
        return lat.pos.get(tuple(map(sub, lat.vecs[i], lat.vecs[j])))
    g = lat.ordered[i]
    if g.semiring.exact_div(lat.ones[i], lat.ones[j]) is None:
        return None
    q = ambient_exact_div(g, lat.ordered[j])
    return None if q is None else lat.pos[q]


def _split(lat: _Lattice, t: int):
    """The first (i, k), in sort_key order of i, with ordered[t] =
    ordered[i] * ordered[k] and neither side a monomial; None if there is
    none.  The divisors of ordered[t] are {h in D(f) : ordered[t]/h in D(f)}
    in the same order, so this is the split that divisors(ordered[t]) gives."""
    for i, g in enumerate(lat.ordered):
        if len(g.nums) >= 2:
            k = _quot(lat, t, i)
            if k is not None and len(lat.ordered[k].nums) >= 2:
                return i, k
    return None


def is_monolithic(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> bool:
    """True when every splitting f = g*h has a monomial side."""
    if f.is_zero:
        raise DomainError("0 is not eligible for monolithic testing")
    if len(f.nums) == 1:
        return True
    lat = divisors(f, strategy, budgets)._lattice
    return _split(lat, lat.base) is None


def monolithic_decompose(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None):
    """Some list of monolithic parts with product f (not unique in general)."""
    if f.is_zero or f.is_one:
        raise DomainError("monolithic decomposition needs a nonzero nonunit")
    if len(f.nums) == 1:
        return [f]
    lat = divisors(f, strategy, budgets)._lattice

    def parts(t):
        # both sides of a split have strictly smaller support
        split = _split(lat, t)
        return [lat.ordered[t]] if split is None else parts(split[0]) + parts(split[1])

    return parts(lat.base)


def _atoms_within(lat: _Lattice):
    """Positions of the atoms of a divisor set, in sort_key order."""
    if lat.atoms is not None:
        return lat.atoms
    out = []
    for i in range(len(lat.ordered)):
        if i == lat.unit:
            continue
        if any(
            j != lat.unit and j != i and _quot(lat, i, j) is not None
            for j in range(len(lat.ordered))
        ):
            continue
        out.append(i)
    lat.atoms = tuple(out)
    return lat.atoms


def factorizations(
    f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None
) -> frozenset:
    """The complete set Z(f) of atom multisets with product f."""
    budgets = budgets or DEFAULT_BUDGETS
    if f.is_zero or f.is_one:
        raise DomainError("factorization sets are defined for nonzero nonunits")
    lat = divisors(f, strategy, budgets)._lattice
    if lat.z is not None:
        return lat.z
    atoms = _atoms_within(lat)
    # memo[(t, s)]: the factorizations of position t into atoms s, s+1, ...
    # as index tuples.  Depth-first with an explicit stack, since a chain of
    # quotients is as long as the longest factorization; each frame is its
    # key, its children's keys (t / atom j, j) and the next child to wait for.
    memo = {}
    stack = []
    nodes = 0

    def push(key):
        nonlocal nodes
        nodes += 1
        if nodes > budgets.z_nodes:
            raise BudgetError(f"factorization recursion exceeded {budgets.z_nodes} nodes")
        target, start = key
        children = []
        if target != lat.unit:
            for j in range(start, len(atoms)):
                q = _quot(lat, target, atoms[j])
                if q is not None:
                    children.append((q, j))
        stack.append([key, children, 0])

    push((lat.base, 0))
    while stack:
        frame = stack[-1]
        key, children, i = frame
        while i < len(children) and children[i] in memo:
            i += 1
        frame[2] = i
        if i < len(children):
            push(children[i])
            continue
        stack.pop()
        if key[0] == lat.unit:
            memo[key] = frozenset({()})
        else:
            memo[key] = frozenset((j,) + rest for q, j in children for rest in memo[(q, j)])
    lat.z = frozenset(
        Factorization(tuple(lat.ordered[atoms[j]] for j in tup)) for tup in memo[(lat.base, 0)]
    )
    return lat.z


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
        cm = frozenset(part.semiring.mcd_set(part.coeffs))
        em = part.monoid.mcd(e for e, _ in part.terms)
        per.append(PartCertificate(part, cm, em, bool(cm) and bool(em)))
    return CertificateReport(
        target=f,
        monolithic_parts=tuple(parts),
        per_part=tuple(per),
        passes=all(p.passes for p in per),
    )


def length_fn(f: PolyExpr, budgets: Budgets = None) -> int:
    """Length function built from the coefficient and exponent lengths plus
    the support size; zero exactly at the unit, superadditive under products.
    The exponent length's DP counts against ``budgets.knapsack_nodes``."""
    budgets = budgets or DEFAULT_BUDGETS
    if f.is_zero:
        raise DomainError("the zero polynomial has no length")
    return (
        f.semiring.length(f.coeffs[0])
        + f.monoid._length_num(f.nums[0], budgets.knapsack_nodes)
        + len(f.nums)
        - 1
    )
