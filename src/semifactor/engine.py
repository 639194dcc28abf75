"""Divisor enumeration and factorization invariants for polynomial expressions.

Two divisor strategies are kept deliberately independent.  Callers ask for
``auto``, which runs the first on Nat coefficients and the second otherwise,
or for ``oracle``; ``DivisorSet.strategy_used`` names the one that ran:

* ``zx_fastpath`` (Nat coefficients only): substitute y = x^(1/D) and
  factor the resulting integer polynomial completely.  Z[y] factors
  uniquely, so every divisor of f is the product of the content primes and
  irreducible factors taken with a multiplicity vector e <= m, where m is
  f's own vector, and e is kept exactly when its product and the product
  of m - e both have nonnegative coefficients and supports inside the
  exponent monoid.  The box is built a factor at a time on Kronecker-packed
  integers (the slot codec of ``intfactor._Slots``): each point costs one
  big-integer product, its two tests are masks, and the packed values order
  the kept points as ``sort_key`` does, so each is decoded once, in order,
  and at most once per session for all the lattices that share it.

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

A divisor set is indexed once, as a lattice: its members in ``sort_key``
order and, for zx, the vector of each as one int with a guard bit above
each entry.  Atoms, Z(f), ``is_monolithic`` and ``monolithic_decompose``
read positions in that order, and every divisibility question among them
goes through one quotient kernel, ``_quot``: for g, h in D(f), h divides g
exactly when g/h is again in D(f).  For zx that is the vector e_g - e_h:
v_g with every guard bit set, minus v_h, keeps all guard bits exactly when
no entry is negative, then one lookup; for the oracle it is one
``ambient_exact_div``, run only when h(1) divides g(1) in S.
Atoms, L(f) and splits come from one pass (``_atoms_within``) that visits
every divisor after its proper divisors, the dynamic programming of
Barron, O'Neill and Pelayo (Math. Comp. 2017) on the divisor lattice; only
``factorizations`` builds Z(f), from the same order.  Its keys (t, s) stand
for the factorizations of t into atoms s, s+1, ...: a walk multiples first
finds the keys f needs, and the budget ``z_nodes`` counts them before any
factorization is built (x^360 over <7, ..., 13> has 2055 keys, so a budget
of 2054 refuses it at once); a walk divisors first then fills each key from
its children (t/a_j, j), j >= s.  Additive reduction gives supp(gh) =
supp g + supp h, so a non-monomial has a non-monomial atom, and t = g*h
with g, h non-monomials exactly when a non-monomial atom a | t has a
non-monomial t/a = (g/a)*h: the pass keeps the sort-least such a per t.

The engine reads a polynomial's scaled exponent numerators ``nums`` and
its ``coeffs`` and builds every divisor from them.  Lengths and common
divisors come from the kernels of the monoid and the semiring on that
canonical data (``_length_num``, ``_mcd_nums``, ``_length``, ``_mcd_set``);
an ``ExpElem`` is built only for the maximal common divisors a certificate
reports.

Two ``functools.lru_cache``s, at most ``_CACHE_SIZE`` (1024) entries each
(the least recently used is evicted first), hold the engine's state.
Lattices are cached per canonical form, strategy and budgets; each keeps
its atoms, length sets, splits and Z(f) once computed, and the
``DivisorSet`` that only ``divisors`` builds, on its first call.  Decoded
zx divisors are cached per semiring, monoid, slot width and packed value
(``_decoded``), so the lattices of one session that share a divisor share
one ``PolyExpr`` and decode it once.  ``clear_caches`` empties both.  All
returned values are immutable.
"""
from __future__ import annotations

import functools
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress, product
from math import isqrt, prod

from .coeff import Nat
from .errors import DEFAULT_BUDGETS, BudgetError, Budgets, DomainError, UsageError, check_degree
from .intfactor import IntPoly, _eval, _Slots, factor_int_poly
from .polyexpr import PolyExpr, ambient_exact_div

STRATEGY_AUTO = "auto"
STRATEGY_ORACLE = "oracle"
STRATEGY_ZX = "zx_fastpath"
_CACHE_SIZE = 1024  # entries of each lru_cache below


@dataclass(eq=False)
class _Lattice:
    """Positions of a divisor set found by ``strategy``: ``ordered`` is the
    set in ``sort_key`` order; ``pos`` maps a vector (zx) or a divisor
    (oracle) to its position; ``unit`` and ``base`` are the positions of 1
    and of f.  ``vecs`` holds each multiplicity vector as one int, a guard
    bit (``guard``) above each entry, so a proper divisor's is the smaller
    (zx), or is None (oracle); ``ones`` holds each value at x = 1 (oracle)
    or is None (zx).  ``atoms``, ``lengths`` (L of each position as a bit
    set), ``splits`` (each position's atom to peel, or -1), ``z`` and the
    ``DivisorSet`` that ``divisors`` returns are kept once computed."""

    strategy: str
    ordered: tuple
    vecs: tuple | None
    pos: dict
    unit: int
    base: int
    ones: tuple | None = None
    guard: int = 0
    atoms: tuple | None = None
    lengths: tuple | None = None
    splits: tuple | None = None
    z: frozenset | None = None
    divisor_set: DivisorSet | None = None


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


def clear_caches():
    _divisor_set.cache_clear()
    _decoded.cache_clear()


def divisors(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> DivisorSet:
    """All g in the semidomain with g*h = f for some h, plus the strategy used."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no divisor set")
    lat = _lattice_of(f, strategy, budgets)
    if lat.divisor_set is None:  # threads that race here build equal sets
        lat.divisor_set = DivisorSet(f, frozenset(lat.ordered), lat.strategy, lat)
    return lat.divisor_set


def _lattice_of(f, strategy, budgets):
    return _divisor_set(f, _resolve_strategy(f, strategy), budgets or DEFAULT_BUDGETS)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _divisor_set(f, strat, budgets):
    """The ``_Lattice`` of f for a resolved strategy and budgets."""
    if strat == STRATEGY_ZX:
        return _zx_divisors(f, budgets)
    ordered = tuple(sorted(_oracle_divisors(f, budgets), key=sort_key))
    pos = {g: i for i, g in enumerate(ordered)}
    ones = tuple(_at_one(f.semiring, g.coeffs) for g in ordered)
    unit = pos[PolyExpr.one(f.semiring, f.monoid)]
    return _Lattice(strat, ordered, None, pos, unit, pos[f], ones)


def _resolve_strategy(f, strategy):
    if strategy == STRATEGY_AUTO:
        return STRATEGY_ZX if isinstance(f.semiring, Nat) else STRATEGY_ORACLE
    if strategy == STRATEGY_ORACLE:
        return STRATEGY_ORACLE
    raise UsageError(f"unknown divisor strategy {strategy!r}")


def _zx_divisors(f, budgets):
    """The lattice of the box of sub-multisets of the content primes and
    irreducible factors of f(y^D), built one factor at a time.

    A point g divides f(y), so |g_i| <= 2^n*||f||_2 (Mignotte), and the
    product of the factors' 1-norms bounds it too.  With 2^(w-1) above the
    smaller, X = g(2^w) + H has slots g_i + 2^(w-1): g >= 0 when all their
    top bits (H) are set, and its support lies in the monoid when the
    non-member slots (NM) hold 2^(w-1) alone.  A point is kept when it and
    its cofactor pass; a failing point can lie below passing ones, e.g.
    (y^2-y+1)(y+1) = y^3+1.  The kept points are sorted by G = g(2^w):
    with nonnegative coefficients in fixed slots the top slot compares
    first and 0 sorts below any coefficient, which is ``sort_key`` order,
    so 1 comes first and f last; each is decoded, in that order, through
    the session's cache ``_decoded``."""
    n = f.nums[0]
    check_degree(n, budgets.degree_limit)
    dense = [0] * (n + 1)
    for k, c in zip(f.nums, f.coeffs):
        dense[k] = c
    fac = factor_int_poly(IntPoly.of(dense), degree_limit=budgets.degree_limit)
    # (coefficients, multiplicity): each content prime once, then the factors
    content = Counter((p,) for p in fac.content)
    entries = [*content.items(), *((poly.coeffs, m) for poly, m in fac.factors)]
    if prod(m + 1 for _, m in entries) > budgets.oracle_candidates:
        raise BudgetError(
            f"fast-path divisor enumeration exceeded {budgets.oracle_candidates} candidates"
        )
    mignotte = (isqrt(sum(c * c for c in f.coeffs)) + 1) << n
    bound = min(mignotte, prod(sum(map(abs, c)) ** m for c, m in entries))
    slots = _Slots(2 * bound)  # one bit to spare for the sign
    w = slots.bits
    H = slots.pack([1 << (w - 1)] * (n + 1))
    NM = sum(((1 << w) - 1) << (w * k) for k in range(n + 1) if not f.monoid.member_num(k))
    # (multiplicity vector, a guard bit above each factor's field; value at
    # 2^w) per point; the last factor's points are tested, never all stored
    box, steps, guard, shift = [(0, 1)], [(0, 1)], 0, 0
    for coeffs, m in entries:
        box = [(v + d, G * P) for v, G in box for d, P in steps]
        F = _eval(coeffs, 1 << w)
        steps = [(k << shift, F**k) for k in range(m + 1)]
        shift += m.bit_length() + 1
        guard |= 1 << (shift - 1)
    box = ((v + d, G * P) for v, G in box for d, P in steps)
    inside = {v: G for v, G in box if (X := G + H) & H == H and not (X ^ H) & NM}
    top = max(inside)  # f's vector, the componentwise hence packed maximum
    vecs = sorted((v for v in inside if top - v in inside), key=inside.__getitem__)
    S, M = f.semiring, f.monoid
    ordered = tuple(_decoded(S, M, w, inside[v]) for v in vecs)
    pos = {v: i for i, v in enumerate(vecs)}
    return _Lattice(STRATEGY_ZX, ordered, tuple(vecs), pos, 0, len(vecs) - 1, guard=guard)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _decoded(S, M, w, G):
    """The polynomial over S and M whose coefficients lie in the w-bit slots
    of G = g(2^w), the top slot first.  Each slot of a kept point holds a
    nonnegative coefficient below 2^(w-1), so (M, w, G) names one
    polynomial, whatever the degree of the element it divides; lattices of
    one session share it."""
    count = -(-G.bit_length() // w)
    cs = _Slots(1 << (w - 1)).unpack(G, count)[::-1]
    return PolyExpr(S, M, tuple(compress(range(count - 1, -1, -1), cs)), tuple(filter(None, cs)))


def _at_one(S, coeffs):
    """The value at x = 1 of a polynomial with these coefficients: an int
    sum over Nat, a componentwise sum of (b, c) pairs over Quad."""
    return sum(coeffs) if isinstance(S, Nat) else tuple(map(sum, zip(*coeffs)))


def _oracle_divisors(f, budgets):
    S, M = f.semiring, f.monoid
    nums = f.nums
    deg_num, trail_num = nums[0], nums[-1]
    check_degree(deg_num, budgets.degree_limit)
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
    both_divs = sorted(set(lc_divs).intersection(tc_divs))
    mids = S.values_with_components_at_most(maxcomp)
    f1 = _at_one(S, f.coeffs)
    divides_f1 = {}
    one = PolyExpr.one(S, M)
    found = {one, f}
    count = 0
    max_size = min(len(nums), len(admissible))
    for size in range(1, max_size + 1):
        choices = [both_divs] if size == 1 else [tc_divs] + [mids] * (size - 2) + [lc_divs]
        per_support = prod(map(len, choices))
        # coefficient tuples (leading first) whose value at 1 divides f(1),
        # listed at the first support of this size within the budget, so a
        # size over the budget is never walked
        tuples = None
        for support in combinations(admissible, size):
            if not (M.member_num(deg_num - support[-1]) and M.member_num(trail_num - support[0])):
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
                        ok = divides_f1[g1] = S._exact_div(f1, g1) is not None
                    if ok:
                        tuples.append(combo[::-1])
            exps = support[::-1]
            for coeffs in tuples:
                g = PolyExpr(S, M, exps, coeffs)
                q = ambient_exact_div(f, g)
                if q is not None:
                    found.update((g, q))
    return found


def s_divides(g: PolyExpr, f: PolyExpr) -> bool:
    """Whether g divides f inside the semidomain."""
    return ambient_exact_div(f, g) is not None


def is_atom(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> bool:
    if f.is_zero:
        raise DomainError("0 is not eligible for atom testing")
    if f.is_one:
        return False
    return len(_lattice_of(f, strategy, budgets).ordered) == 2


def _quot(lat: _Lattice, i: int, j: int):
    """Position of ordered[i] / ordered[j], or None when ordered[j] does not
    divide ordered[i].  Both lie in D(f), so any quotient does too.

    zx: Z[y] factors uniquely, so h | g exactly when e_g - e_h is the vector
    of a divisor: a guarded subtraction, a test and a lookup.  Oracle:
    h | g in S[M] implies h(1) | g(1) in S, so most pairs are ruled out by
    their values at 1 before any long division.
    """
    if lat.vecs is not None:
        guard = lat.guard
        d = (lat.vecs[i] | guard) - lat.vecs[j]
        return lat.pos.get(d ^ guard) if d & guard == guard else None
    g = lat.ordered[i]
    if g.semiring._exact_div(lat.ones[i], lat.ones[j]) is None:
        return None
    q = ambient_exact_div(g, lat.ordered[j])
    return None if q is None else lat.pos[q]


def is_monolithic(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None) -> bool:
    """True when every splitting f = g*h has a monomial side."""
    if f.is_zero:
        raise DomainError("0 is not eligible for monolithic testing")
    if len(f.nums) == 1:
        return True
    lat = _lattice_of(f, strategy, budgets)
    _atoms_within(lat)
    return lat.splits[lat.base] < 0


def monolithic_decompose(f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None):
    """Monolithic parts with product f: each but the last is the sort-least
    non-monomial atom of what remains whose cofactor is not a monomial."""
    if f.is_zero or f.is_one:
        raise DomainError("monolithic decomposition needs a nonzero nonunit")
    if len(f.nums) == 1:
        return [f]
    lat = _lattice_of(f, strategy, budgets)
    _atoms_within(lat)
    parts, t = [], lat.base
    while (a := lat.splits[t]) >= 0:
        parts.append(lat.ordered[a])
        t = _quot(lat, t, a)
    return parts + [lat.ordered[t]]


def _visit_order(lat: _Lattice):
    """The positions with every proper divisor first.  zx: by packed vector,
    which grows with every entry.  Oracle: by degree, then ``_value_key``
    (a proper divisor has a lower degree or a constant cofactor)."""
    if lat.vecs is not None:
        return sorted(range(len(lat.vecs)), key=lat.vecs.__getitem__)
    S = lat.ordered[0].semiring
    keys = [(g.nums[0], _value_key(S, v)) for g, v in zip(lat.ordered, lat.ones)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _value_key(S, v):
    """floor(4v) for the value v = g(1) = b + c*sqrt(d) over quad, v itself
    over nat.  If g = h*q with q a constant other than 1 (the only unit),
    then q(1) >= sqrt(2) and h(1) >= 1, so 4v grows by at least 1.66."""
    if type(v) is not tuple:
        return v
    b, c = v
    return 4 * b + isqrt(16 * S.d * c * c)


def _atoms_within(lat: _Lattice):
    """Positions of the atoms of a divisor set, in sort_key order, from one
    pass in ``_visit_order`` that also fills ``lat.lengths`` and
    ``lat.splits``: t is an atom when no atom before it divides it (a
    nonunit's least nonunit divisor is an atom), else L(t) is the union of
    1 + L(t/a) over the atoms a | t, and splits[t] is the first of these a
    (in position order) with a and t/a non-monomials.  A length set is a
    bit set (bit k for length k), so 1 + L is a shift."""
    if lat.atoms is None:
        wide = [len(g.nums) > 1 for g in lat.ordered]
        lengths, splits = [1] * len(wide), [-1] * len(wide)
        atoms = []
        for t in _visit_order(lat):
            if t == lat.unit:
                continue
            bits, split = 0, -1
            for a in atoms:
                if (q := _quot(lat, t, a)) is not None:
                    bits |= lengths[q]
                    if split < 0 and wide[q] and wide[a]:
                        split = a
            if not bits:
                insort(atoms, t)
                bits = 1
            lengths[t], splits[t] = bits << 1, split
        # atoms last: a thread that sees them reads lengths and splits
        lat.lengths, lat.splits, lat.atoms = tuple(lengths), tuple(splits), tuple(atoms)
    return lat.atoms


def factorizations(
    f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None
) -> frozenset:
    """The complete set Z(f) of atom multisets with product f."""
    budgets = budgets or DEFAULT_BUDGETS
    if f.is_zero or f.is_one:
        raise DomainError("factorization sets are defined for nonzero nonunits")
    lat = _lattice_of(f, strategy, budgets)
    if lat.z is not None:
        return lat.z
    atoms = _atoms_within(lat)
    # key (t, s): the factorizations of position t into atoms s, s+1, ...
    # Multiples first, a needed position lists its children (t / atom j, j)
    # once, for every j from its least needed s, and needs them in turn; the
    # keys are counted before any set is built, then filled divisors first.
    needs, children = {lat.base: {0}}, {}
    for t in reversed(_visit_order(lat)):
        if t in needs and t != lat.unit:
            children[t] = kids = [
                (q, j)
                for j in range(min(needs[t]), len(atoms))
                if (q := _quot(lat, t, atoms[j])) is not None
            ]
            for q, j in kids:
                needs.setdefault(q, set()).add(j)
    if sum(map(len, needs.values())) > budgets.z_nodes:
        raise BudgetError(f"factorization recursion exceeded {budgets.z_nodes} nodes")
    memo = {(lat.unit, s): frozenset([()]) for s in needs[lat.unit]}
    for t, kids in reversed(children.items()):
        for s in needs[t]:
            memo[t, s] = frozenset((j,) + z for q, j in kids if j >= s for z in memo[q, j])
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
    lat = _lattice_of(f, strategy, budgets)
    _atoms_within(lat)
    bits = lat.lengths[lat.base]
    lengths = frozenset(k for k in range(bits.bit_length()) if bits >> k & 1)
    return lengths, Fraction(max(lengths), min(lengths))


def atomic_certificate(
    f: PolyExpr, strategy: str = STRATEGY_AUTO, budgets: Budgets = None
) -> CertificateReport:
    """Per-part check that coefficient and exponent lists admit maximal
    common divisors, over some monolithic decomposition of f."""
    if f.is_zero or f.is_one:
        raise DomainError("atomicity certificates are defined for nonzero nonunits")
    budgets = budgets or DEFAULT_BUDGETS
    parts = monolithic_decompose(f, strategy, budgets)
    S, M = f.semiring, f.monoid
    per = []
    for part in parts:
        # canonical data: the kernels, without the checks of their wrappers
        cm = frozenset(S._mcd_set(part.coeffs))
        em = frozenset(map(M.elem_of_num, M._mcd_nums(part.nums, budgets.knapsack_nodes)))
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
    The exponent length's staircases count against ``budgets.knapsack_nodes``."""
    budgets = budgets or DEFAULT_BUDGETS
    if f.is_zero:
        raise DomainError("the zero polynomial has no length")
    return (
        f.semiring._length(f.coeffs[0])
        + f.monoid._length_num(f.nums[0], budgets.knapsack_nodes)
        + len(f.nums)
        - 1
    )
