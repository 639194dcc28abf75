"""Complete factorization of univariate integer polynomials.

Pipeline: integer content and sign extraction, Yun squarefree decomposition
(gcds by the primitive polynomial remainder sequence), factorization modulo
a small deterministic prime by distinct-degree factorization and
Cantor-Zassenhaus equal-degree splitting (a seeded local random source),
lifting to exactly p^l, the least prime power above twice a Mignotte bound
for factors of half the degree, and subset recombination.  Linear modular
factors lift as roots by Newton iteration, the others by quadratic Hensel
lifting of their cofactor.  Recombination builds each candidate from the
subset or its complement, whichever has at most half the degree, and prunes
it by its trailing coefficient and its value at 1 before exact trial
division.  All arithmetic is on integers, no rationals: divisions are
pseudo-divisions, exact divisions, or divisions modulo p^k by a monic or
invertible leading coefficient.  Long products use Kronecker substitution.
Every factorization is re-multiplied before it is returned.

Dense representation throughout: a polynomial is a list of ints, lowest
degree first, no trailing zeros (the zero polynomial is the empty list).
"""
from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from itertools import combinations, zip_longest

from .coeff import prime_factors
from .errors import DEFAULT_BUDGETS, BudgetError, DomainError, InternalError, UsageError


# -- dense integer polynomial helpers --------------------------------------

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c):
    return len(c) - 1


def _add(a, b):
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a, b):
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a, b):
    if not a or not b:
        return []
    if len(a) * len(b) >= _KRONECKER_MIN_TERMS:
        return _mul_kronecker(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


# Below this many coefficient products the schoolbook loop is faster than
# packing and unpacking (both about 20 us at 10 x 10 terms on CPython 3.11).
_KRONECKER_MIN_TERMS = 100


def _mul_kronecker(a, b):
    """Kronecker substitution: evaluate both at 2^k, one big-integer
    product, read the product's coefficients back as signed k-bit digits."""
    n = len(a) + len(b) - 1
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    kb = bound.bit_length() // 8 + 1  # bytes per digit, one bit to spare for the sign
    k = 8 * kb
    A = B = 0
    for c in reversed(a):
        A = (A << k) + c
    for c in reversed(b):
        B = (B << k) + c
    # adding 2^(k-1) to every digit makes them all nonnegative
    half = 1 << (k - 1)
    halves = int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")
    raw = (A * B + halves).to_bytes(kb * n, "little")
    return _trim([int.from_bytes(raw[i:i + kb], "little") - half for i in range(0, kb * n, kb)])


def _scale(a, k):
    return _trim([x * k for x in a])


def _deriv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def _eval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _content(a):
    g = 0
    for x in a:
        g = math.gcd(g, x)
    return g


def _primitive(a):
    """(content, primitive part with positive leading coefficient)."""
    if not a:
        return 0, []
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return g, [x // g for x in a]


def _div_exact(a, b):
    """Quotient of a by b when it is an integer polynomial and the remainder
    vanishes; otherwise None."""
    if not b:
        raise DomainError("division by the zero polynomial")
    rem = list(a)
    db = _deg(b)
    blc = b[-1]
    quo = [0] * max(len(a) - db, 0)
    for pos in range(len(rem) - 1 - db, -1, -1):
        q, r = divmod(rem[pos + db], blc)
        if r:
            return None
        quo[pos] = q
        # rem[pos + db] cancels against q * b[db] and is never read again
        for j in range(db):
            rem[pos + j] -= q * b[j]
    if any(rem[:db]):
        return None
    return _trim(quo)


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    rem = list(a)
    db = _deg(b)
    blc = b[-1]
    for pos in range(len(rem) - 1 - db, -1, -1):
        t = rem[pos + db]
        for i in range(pos + db):
            rem[i] *= blc
        for j in range(db):
            rem[pos + j] -= t * b[j]
    return _trim(rem[:db])


def _gcd_z(a, b):
    """Primitive gcd with positive leading coefficient, [] for two zero
    inputs: the primitive polynomial remainder sequence, integers only."""
    a = _primitive(_trim(list(a)))[1]
    b = _primitive(_trim(list(b)))[1]
    while b:
        a, b = b, _primitive(_prem(a, b))[1]
    return a


# -- public types -----------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, coeffs):
        cs = list(coeffs)
        if any(not isinstance(x, int) or isinstance(x, bool) for x in cs):
            raise UsageError(f"integer coefficients required: {cs!r}")
        return cls(tuple(_trim(cs)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_nonnegative(self):
        return all(c >= 0 for c in self.coeffs)

    def eval(self, x):
        return _eval(list(self.coeffs), x)

    def __add__(self, other):
        return IntPoly(tuple(_add(list(self.coeffs), list(other.coeffs))))

    def __sub__(self, other):
        return IntPoly(tuple(_sub(list(self.coeffs), list(other.coeffs))))

    def __mul__(self, other):
        return IntPoly(tuple(_mul(list(self.coeffs), list(other.coeffs))))

    def __pow__(self, n):
        out = [1]
        for _ in range(n):
            out = _mul(out, list(self.coeffs))
        return IntPoly(tuple(out))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xp = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(xp)
                elif c == -1:
                    parts.append(f"-{xp}")
                else:
                    parts.append(f"{c}{xp}")
        text = "+".join(parts)
        return text.replace("+-", "-")


@dataclass(frozen=True)
class IntFactorization:
    sign: int
    content: tuple[int, ...]  # prime multiset, ascending
    factors: tuple  # ((IntPoly, multiplicity), ...), canonical order

    def expand(self) -> IntPoly:
        out = [self.sign]
        for p in self.content:
            out = _scale(out, p)
        for poly, mult in self.factors:
            for _ in range(mult):
                out = _mul(out, list(poly.coeffs))
        return IntPoly(tuple(out))


# -- squarefree decomposition (Yun) -----------------------------------------

def squarefree_decompose(F: IntPoly):
    """Pairwise-coprime squarefree parts with multiplicities.

    F = content * prod(part_i ^ mult_i); parts are primitive with positive
    leading coefficient.  A constant input has no parts.
    """
    if F.is_zero:
        raise DomainError("the zero polynomial has no squarefree decomposition")
    f = _primitive(list(F.coeffs))[1]
    if _deg(f) == 0:
        return []
    df = _deriv(f)
    a = _gcd_z(f, df)
    if _deg(a) == 0:
        return [(IntPoly(tuple(f)), 1)]
    b = _div_exact(f, a)
    c = _div_exact(df, a)
    d = _sub(c, _deriv(b))
    parts = []
    i = 1
    while _deg(b) > 0:
        a = _gcd_z(b, d) if d else _primitive(b)[1]
        if _deg(a) > 0:
            parts.append((IntPoly(tuple(a)), i))
        b = _div_exact(b, a)
        c = _div_exact(d, a) if d else []
        d = _sub(c, _deriv(b))
        i += 1
    return parts


# -- GF(p) arithmetic --------------------------------------------------------
#
# Products are formed over Z and reduced once; the remainder kernel reads
# every leading coefficient mod p and reduces the rest once, at the end.

def _p_trim(c, p):
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _p_sub(a, b, p):
    return _p_trim(_sub(a, b), p)


def _p_mul(a, b, p):
    return _p_trim(_mul(a, b), p)


def _p_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [(x * inv) % p for x in a]


def _p_rem(a, b, p):
    """Remainder of an integer list a by a reduced b with b[-1] != 0 mod p,
    reduced and trimmed.  Works in place on a, which the caller gives up."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for pos in range(len(a) - 1 - db, -1, -1):
        q = a[pos + db] * inv % p
        if q:
            a[pos:pos + db] = [x - q * y for x, y in zip(a[pos:pos + db], b)]
    return _p_trim(a[:db], p)


def _p_divmod(a, b, p):
    b = _p_trim(list(b), p)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    a = [x % p for x in a]
    quo = [0] * max(len(a) - db, 0)
    for pos in range(len(a) - 1 - db, -1, -1):
        q = a[pos + db] * inv % p
        if q:
            quo[pos] = q
            a[pos:pos + db] = [x - q * y for x, y in zip(a[pos:pos + db], b)]
    return _p_trim(quo, p), _p_trim(a[:db], p)


def _p_gcd(a, b, p):
    """Monic gcd of reduced a and b over GF(p); [] when both are zero."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _p_rem(a, b, p)
    return _p_monic(a, p) if a else []


def _p_powmod(base, e, mod, p):
    """base^e mod `mod` over GF(p), for e >= 1 and a reduced base."""
    result = base
    for bit in bin(e)[3:]:
        result = _p_rem(_mul(result, result), mod, p)
        if bit == "1":
            result = _p_rem(_mul(result, base), mod, p)
    return result


def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p):
    pairs (g, d), g the product of the monic irreducible factors of degree d."""
    out = []
    h = [0, 1]  # x^(p^d) mod f
    d = 0
    while 2 * (d + 1) <= _deg(f):
        d += 1
        h = _p_powmod(h, p, f, p)
        g = _p_gcd(f, _p_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _p_divmod(f, g, p)[0]
            h = _p_rem(h, f, p)
    if len(f) > 1:
        out.append((f, _deg(f)))
    return out


# A Cantor-Zassenhaus draw fails to split with probability below 3/4 (the
# worst case is two linear factors over GF(3)), so this many failures in one
# factorization mean a broken invariant, not bad luck.
_EDF_MAX_FAILURES = 100
_EDF_SEED = 0


def _edf(g, d, p, rng):
    """Cantor-Zassenhaus equal-degree splitting of a monic squarefree g over
    GF(p) whose irreducible factors all have degree d."""
    e = (p**d - 1) // 2
    out = []
    todo = [g]
    failures = 0
    while todo:
        u = todo.pop()
        if _deg(u) == d:
            out.append(u)
            continue
        a = _p_trim([rng.randrange(p) for _ in range(_deg(u))], p)
        if len(a) > 1:
            if p == 2:
                # trace a + a^2 + ... + a^(2^(d-1)) lies in GF(2) mod each factor
                b = t = a
                for _ in range(d - 1):
                    t = _p_rem(_mul(t, t), u, p)
                    b = _p_trim(_add(b, t), p)
            else:
                # a^((p^d-1)/2) is +1 or -1 mod each factor prime to a
                b = _p_sub(_p_powmod(a, e, u, p), [1], p)
            s = _p_gcd(u, b, p)
            if 0 < _deg(s) < _deg(u):
                todo += [s, _p_divmod(u, s, p)[0]]
                continue
        failures += 1
        if failures > _EDF_MAX_FAILURES:
            raise InternalError(f"equal-degree splitting failed {failures} times over GF({p})")
        todo.append(u)
    return out


def _factor_mod_p(f, p):
    """Monic irreducible factors of a monic squarefree f over GF(p), sorted:
    distinct-degree factorization, then equal-degree splitting with a
    seeded local random source."""
    rng = random.Random(_EDF_SEED)
    out = []
    for g, d in _ddf(f, p):
        out += _edf(g, d, p, rng)
    if sum(len(u) - 1 for u in out) != _deg(f):
        raise InternalError(f"modular factor degrees do not add up to {_deg(f)}")
    return sorted(out, key=lambda u: (len(u), u))


def _primes():
    yield 2
    yield 3
    n = 5
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _choose_prime(f):
    """Smallest prime keeping the degree and squarefreeness of f mod p."""
    lc = abs(f[-1])
    for p in _primes():
        if lc % p == 0:
            continue
        fp = _p_trim(list(f), p)
        dfp = _p_trim(_deriv(fp), p)
        if not dfp:
            continue
        if _deg(_p_gcd(fp, dfp, p)) == 0:
            return p


# -- Hensel lifting ----------------------------------------------------------

def _tr(c, m):
    """Reduce coefficients into the symmetric range (-m/2, m/2]."""
    half = m // 2
    return _trim([half - (half - x) % m for x in c])


def _divmod_monic(a, b, m):
    """Division by a monic b with coefficient arithmetic mod m; quotient and
    remainder in the symmetric range."""
    a = _tr(a, m)
    db = _deg(b)
    half = m // 2
    quo = [0] * max(len(a) - db, 0)
    for pos in range(len(a) - 1 - db, -1, -1):
        q = a[pos + db] % m
        if q > half:
            q -= m
        if q:
            quo[pos] = q
            a[pos:pos + db] = [x - q * y for x, y in zip(a[pos:pos + db], b)]
    return _trim(quo), _tr(a[:db], m)


def _lift_factors(M, f, g, h, s, t):
    """Lift f = g*h mod m to mod M, for M dividing m^2, given
    s*g + t*h = 1 mod m (h monic)."""
    e = _tr(_sub(f, _mul(g, h)), M)
    q, r = _divmod_monic(_mul(s, e), h, M)
    g1 = _tr(_add(g, _add(_mul(t, e), _mul(q, g))), M)
    h1 = _tr(_add(h, r), M)
    return g1, h1


def _lift_bezout(M, g1, h1, s, t):
    """Lift s*g + t*h = 1 from mod m to mod M for the lifted g1, h1."""
    b = _tr(_sub(_add(_mul(s, g1), _mul(t, h1)), [1]), M)
    c, d = _divmod_monic(_mul(s, b), h1, M)
    s1 = _tr(_sub(s, d), M)
    t1 = _tr(_sub(t, _add(_mul(t, b), _mul(c, g1))), M)
    return s1, t1


def _hensel_lift(p, f, fs, l):
    """Lift monic mod-p factors of f (= lc(f) * prod fs mod p) to mod p^l."""
    r = len(fs)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_tr(_scale(f, inv), pl)]
    k = r // 2
    g = [lc % p]
    for u in fs[:k]:
        g = _p_mul(g, u, p)
    h = [1]
    for u in fs[k:]:
        h = _p_mul(h, u, p)
    s, t = _bezout_pair(g, h, p)
    g, h, s, t = (_tr(u, p) for u in (g, h, s, t))
    # quadratic steps, the last one only to p^l; the Bezout pair of the
    # last step would never be used
    m = p
    while m < pl:
        M = min(m * m, pl)
        g, h = _lift_factors(M, f, g, h, s, t)
        if M < pl:
            s, t = _lift_bezout(M, g, h, s, t)
        m = M
    return _hensel_lift(p, g, fs[:k], l) + _hensel_lift(p, h, fs[k:], l)


def _lift_root(p, f, a, l):
    """Lift a simple root a of f mod p to the root mod p^l congruent to it,
    by Newton iteration a - f(a)/f'(a) with a precision that squares."""
    pl = p**l
    df = _deriv(f)
    m = p
    while m < pl:
        m = min(m * m, pl)
        a = (a - _eval(f, a) * pow(_eval(df, a), -1, m)) % m
    return a


def _lift(p, f, fs, l):
    """The lifts to mod p^l of the monic mod-p factors fs of f, in order.

    A linear factor x - a lifts as a root of f, by O(n) scalar steps; the
    other factors are lifted by _hensel_lift from the cofactor of those
    roots, f mod p^l divided by every x - a (the lifts are unique, so this
    gives the same factors as lifting fs together)."""
    pl = p**l
    roots = {i: _lift_root(p, f, -u[0] % p, l) for i, u in enumerate(fs) if len(u) == 2}
    if not roots:
        return _hensel_lift(p, f, fs, l)
    lifted = [None] * len(fs)
    g = _tr(f, pl)
    for i, a in roots.items():
        lifted[i] = _tr([-a, 1], pl)
        # synthetic division by x - a; the remainder f(a) vanishes mod p^l
        q = [0] * _deg(g)
        c = g[-1]
        for k in range(_deg(g) - 1, -1, -1):
            q[k] = c
            c = (g[k] + a * c) % pl
        g = _tr(q, pl)
    others = [i for i in range(len(fs)) if i not in roots]
    if others:
        for i, u in zip(others, _hensel_lift(p, g, [fs[i] for i in others], l)):
            lifted[i] = u
    return lifted


def _bezout_pair(g, h, p):
    """s, t with s*g + t*h = 1 over GF(p), deg s < deg h, deg t < deg g."""
    r0, r1 = _p_trim(list(g), p), _p_trim(list(h), p)
    s0, s1 = [1], []
    while r1:
        q, r = _p_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _p_sub(s0, _p_mul(q, s1, p), p)
    if _deg(r0) != 0:
        raise InternalError("modular factors are not coprime")
    inv = pow(r0[0], -1, p)
    s = _p_trim([x * inv for x in s0], p)
    s = _p_rem(s, h, p)
    # t = (1 - s*g) / h exactly over GF(p)
    num = _p_sub([1], _p_mul(s, g, p), p)
    t, rem = _p_divmod(num, h, p)
    if rem:
        raise InternalError("Bezout completion has a nonzero remainder")
    return s, t


# -- Zassenhaus recombination ------------------------------------------------

def _may_divide(lc, v, vals, m):
    """Whether lc * prod(vals), reduced into the symmetric range mod m, is
    nonzero and divides lc * v."""
    t = lc
    for x in vals:
        t = t * x % m
    if t > m // 2:
        t -= m
    return t != 0 and lc * v % t == 0


def _zassenhaus(f):
    """Irreducible factors of a primitive squarefree f with positive lc."""
    n = _deg(f)
    if n == 1:
        return [f]
    # every candidate below is lc(rest)/lc(g) * g for a factor g of degree
    # m <= n/2, and |g|_1 <= 2^m |f|_2 (Mignotte): its coefficients and its
    # values at 0 and 1 lie within the bound
    bound = f[-1] * (1 << (n // 2)) * (math.isqrt(sum(c * c for c in f)) + 1)
    p = _choose_prime(f)
    l = 1
    pl = p
    while pl <= 2 * bound:
        l += 1
        pl *= p
    fs = _factor_mod_p(_p_monic(_p_trim(list(f), p), p), p)
    if len(fs) == 1:
        return [f]
    factors = sorted(_lift(p, f, fs, l), key=lambda u: (len(u), u))
    ones = [sum(u) % pl for u in factors]  # values at 1
    rest = f
    out = []
    s = 1
    while 2 * s <= len(factors):
        found = False
        lc, rest0, rest1 = rest[-1], rest[0], sum(rest)
        for subset in combinations(range(len(factors)), s):
            # the candidate comes from the subset or its complement, whichever
            # has degree at most deg(rest)/2, so the bound covers it
            side = subset
            if 2 * sum(len(factors[i]) - 1 for i in subset) > _deg(rest):
                side = [i for i in range(len(factors)) if i not in subset]
            # a true factor's constant term and value at 1, times
            # lc(rest)/lc(factor), divide lc(rest)*rest(0) and lc(rest)*rest(1)
            # (trailing-coefficient test of Abbott, Shoup and Zimmermann)
            if rest0 and not _may_divide(lc, rest0, [factors[i][0] for i in side], pl):
                continue
            if rest1 and not _may_divide(lc, rest1, [ones[i] for i in side], pl):
                continue
            g = [lc]
            for i in side:
                g = _mul(g, factors[i])
            cand = _primitive(_tr(g, pl))[1]
            q = _div_exact(rest, cand)
            if q is not None:
                if side is subset:
                    out.append(cand)
                    rest = q
                else:
                    out.append(q)
                    rest = cand
                keep = [i for i in range(len(factors)) if i not in subset]
                factors = [factors[i] for i in keep]
                ones = [ones[i] for i in keep]
                found = True
                break
        if not found:
            s += 1
    if _deg(rest) >= 1:
        out.append(rest)
    elif rest != [1]:
        raise InternalError(f"recombination left a non-unit constant {rest}")
    return sorted(out, key=lambda u: (len(u), u))


# -- top level ---------------------------------------------------------------

# At most _CACHE_SIZE factorizations are kept; a full cache evicts its
# oldest entry.
_CACHE: dict = {}
_CACHE_SIZE = 1024
_CACHE_LOCK = threading.Lock()


def clear_cache():
    with _CACHE_LOCK:
        _CACHE.clear()


def _factor_primitive(prim):
    """Irreducible factors with multiplicities of a primitive polynomial
    with positive leading coefficient; cached on the coefficient tuple."""
    key = tuple(prim)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit
    counts = {}
    for part, mult in squarefree_decompose(IntPoly(key)):
        for irr in _zassenhaus(list(part.coeffs)):
            t = tuple(irr)
            counts[t] = counts.get(t, 0) + mult
    result = tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    with _CACHE_LOCK:
        if len(_CACHE) >= _CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]
        _CACHE[key] = result
    return result


def factor_int_poly(
    F: IntPoly, degree_limit: int = DEFAULT_BUDGETS.degree_limit
) -> IntFactorization:
    """Complete factorization of F into sign, prime content and irreducibles."""
    if F.is_zero:
        raise DomainError("the zero polynomial has no factorization")
    if F.degree > degree_limit:
        raise BudgetError(f"degree {F.degree} exceeds the factorization limit {degree_limit}")
    coeffs = list(F.coeffs)
    cont, prim = _primitive(coeffs)
    sign = -1 if cont < 0 else 1
    cont = abs(cont)
    pairs = _factor_primitive(prim) if _deg(prim) > 0 else ()
    result = IntFactorization(
        sign=sign,
        content=tuple(prime_factors(cont)) if cont > 1 else (),
        factors=tuple((IntPoly(t), m) for t, m in pairs),
    )
    if result.expand() != F:
        raise InternalError(f"factorization of {F} failed re-multiplication")
    return result
