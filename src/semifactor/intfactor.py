"""Complete factorization of univariate integer polynomials.

Pipeline: integer content and sign extraction; division by x and x - 1 as
often as they divide; one scan of a bounded memo of the irreducibles
already proved (least recently used evicted first), each hit divided out
as often as it divides; Yun squarefree decomposition of the cofactor left
(each gcd and both its cofactors from one heuristic evaluation, then a
modular gcd: one integer gcd of two values read back as a polynomial,
else, when that fails or the values would be too large, Brown's
small-primes modular gcd); and, for each squarefree part, factorization
modulo a small deterministic prime by distinct-degree factorization and
Cantor-Zassenhaus equal-degree splitting (a seeded local random source;
a product of linear factors over a small field by its roots instead),
lifting to exactly p^l, the least prime power above twice a Mignotte bound
for factors of half the degree, and subset recombination.  Linear modular
factors lift as roots by Newton iteration, the others by quadratic Hensel
lifting of their cofactor.  Recombination builds each candidate from the
subset or its complement, whichever has at most half the degree, and prunes
it by its trailing coefficient and its value at 1 before exact trial
division.  All arithmetic is on integers, no rationals: divisions are
exact divisions or divisions modulo p^k by a monic or invertible leading
coefficient.  Every factorization is checked before it
is returned, by comparing values at a power of two large enough that equal
values mean equal polynomials.

Arithmetic modulo a fixed monic polynomial runs on a packed kernel
(``_Ring``): a polynomial is one int with a fixed-width slot per
coefficient (the ``_Slots`` codec, which the engine's divisor walk shares),
a product is one big-integer product, and a remainder takes two more from
the precomputed reversed inverse of the modulus.  Distinct-
degree factorization steps by one p-th power per degree, and equal-degree
splitting takes one power a^((p^d-1)/2) per draw for odd p (Cantor and
Zassenhaus, Math. Comp. 1981); each Hensel step divides by the monic
factor through its own series inverse.  Euclidean steps, whose divisor
changes at every step, stay on lists and share one division loop
(``_p_divmod``).

Dense representation throughout: a polynomial is a list of ints, lowest
degree first, no trailing zeros (the zero polynomial is the empty list).
"""
from __future__ import annotations

import math
import operator
import random
import sys
import threading
from array import array
from dataclasses import dataclass
from itertools import accumulate, combinations, zip_longest

from .coeff import prime_factors
from .errors import DEFAULT_BUDGETS, DomainError, InternalError, UsageError, check_degree


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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _scale(a, k):
    return _trim([x * k for x in a])


def _deriv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def _eval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _primitive(a):
    """(content, primitive part with positive leading coefficient)."""
    if not a:
        return 0, []
    g = math.gcd(*a)
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


def _pow(a, n):
    """a^n for n >= 0, by repeated squaring."""
    out = [1]
    while n:
        if n & 1:
            out = _mul(out, a)
        n >>= 1
        if n:
            a = _mul(a, a)
    return out


# The heuristic gcd forms values of up to (deg + 2) * bits(xi) bits, and its
# cost grows with the square of that size: about 1.4 ms at 2^14 bits and
# 13 ms at 2^16.  Above this cap the modular gcd runs instead.
_HEU_BITS = 1 << 16


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) for nonzero a and b, with g their primitive gcd with
    positive leading coefficient; when g = 1 the cofactors are a and b
    themselves.

    First the heuristic gcd at one point (GCDHEU: Char, Geddes and Gonnet,
    J. Symbolic Comput. 1989): for an integer xi >= 2*min(|a|inf, |b|inf) + 2,
    read gamma = gcd(a(xi), b(xi)) back as balanced base-xi digits (each at
    most xi/2 in absolute value) into H, and let G be its primitive part.  G
    is accepted when it divides a and b, and the two quotients are the
    cofactors.  An accepted G is the gcd: G divides g, so g = G*k in Z[x],
    and g(xi) divides gamma = cont(H)*G(xi), so k(xi) divides cont(H), with
    0 < |cont(H)| <= xi/2.  Every root of k is a root of a and of b, so it
    lies below 1 + min(|a|inf, |b|inf) <= xi/2 in absolute value (Cauchy),
    and |k(xi)| > (xi/2)^deg k: k is constant, and 1 since g and G are
    primitive with positive leading coefficients.  When gamma <= xi/2, H is
    that constant and G = 1 needs no check.  xi is 256 times that bound, so
    that a small common factor of the two values that is not a value of g
    still reads back as content of H.

    When G fails its check, or the values would exceed ``_HEU_BITS`` bits,
    the small-primes modular gcd decides (Brown, JACM 1971).  A prime p not
    dividing c = gcd(lc a, lc b) does not divide lc g, so the monic gcd of
    the images mod p has degree at least deg g: a constant image proves
    g = 1, and one of degree deg g is g/lc(g) mod p.  Images of the least
    degree seen so far, scaled to leading coefficient c, are combined by
    Chinese remaindering into H = (c/lc g)*g mod the product of their
    primes; an image of higher degree is skipped, one of lower degree
    starts H again.  When the symmetric lift of H repeats, its primitive
    part G is checked as above.  A G that divides a and b divides g and has
    the least image degree, at least deg g, so G = g.  Finitely many primes
    give a higher degree, so once the product of the primes exceeds twice
    the coefficients of (c/lc g)*g the lift repeats and passes."""
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    for G in _gcd_candidates(a, b):
        if len(G) == 1:
            return [1], a, b
        qa = _div_exact(a, G)
        if qa is not None:
            qb = _div_exact(b, G)
            if qb is not None:
                return G, qa, qb


def _gcd_candidates(a, b):
    """The primitive candidates of ``_gcd_cofactors`` for non-constant a and
    b, in order; [1] is proved, the others need the check."""
    na, nb = max(map(abs, a)), max(map(abs, b))
    xi = (2 * min(na, nb) + 2) << 8
    if (max(len(a), len(b)) + 1) * max(xi, na, nb).bit_length() <= _HEU_BITS:
        gamma = math.gcd(_eval(a, xi), _eval(b, xi))
        half = xi >> 1
        h = []
        while gamma:
            gamma, r = divmod(gamma, xi)
            if r > half:
                r -= xi
                gamma += 1
            h.append(r)
        yield _primitive(h)[1]
    c = math.gcd(a[-1], b[-1])
    H, m = [], 1
    for p in _primes():
        if c % p == 0:
            continue
        u = _p_gcd(_p_trim(a, p), _p_trim(b, p), p)
        if len(u) == 1:
            yield [1]
        if H and len(u) > len(H):
            continue
        if len(u) != len(H):
            H, m = _tr([c * x for x in u], p), p
            continue
        # H + m*t agrees with H mod m and with c*u mod p
        inv = pow(m, -1, p)
        t = [(c * x - y) * inv % p for x, y in zip(u, H)]
        if any(t):
            H = _tr([y + m * s for y, s in zip(H, t)], m * p)
        else:
            yield _primitive(H)[1]
        m *= p


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
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise UsageError(f"polynomial powers need a nonnegative integer, got {n!r}")
        return IntPoly(tuple(_pow(list(self.coeffs), n)))

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
        out = [self.sign * math.prod(self.content)]
        for poly, mult in self.factors:
            out = _mul(out, _pow(list(poly.coeffs), mult))
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
    # each step is one gcd with its cofactors: b = f/a and c = f'/a first
    a, b, c = _gcd_cofactors(f, _deriv(f))
    if _deg(a) == 0:
        return [(IntPoly(tuple(f)), 1)]
    d = _sub(c, _deriv(b))
    parts = []
    i = 1
    while _deg(b) > 0:
        # b is primitive with positive leading coefficient, so gcd(b, 0) = b
        a, b, c = _gcd_cofactors(b, d) if d else (b, [1], [])
        if _deg(a) > 0:
            parts.append((IntPoly(tuple(a)), i))
        d = _sub(c, _deriv(b))
        i += 1
    return parts


# -- packed arithmetic modulo a monic polynomial ----------------------------
#
# A polynomial with coefficients in [0, m) is packed into one int, one
# fixed-width slot per coefficient, lowest degree in the lowest slot
# (Kronecker substitution at x = 2^w), so a product of polynomials is one
# big-integer product.  The slot width is chosen once, wide enough that no
# sum of products formed before the next reduction carries into the next
# slot; a difference adds a multiple of m to every slot first, so no slot
# borrows either.  Every result is unpacked and reduced mod m once.  The
# remainder by the monic modulus f of degree n is the classical one from
# the precomputed reversed inverse (von zur Gathen and Gerhard, Modern
# Computer Algebra, 9.1): for a dividend c of degree at most n + k, the
# quotient is the top k + 1 coefficients of (c div x^n) * (x^(n+k) div f).

_SWAP = sys.byteorder == "big"  # packed ints are little-endian slot arrays
_WORD = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Slots:
    """Packed polynomials with nonnegative coefficients below ``bound``:
    ``size``-byte slots, read back as machine words (array ``code``) when
    that is 1, 2, 4 or 8 bytes."""

    __slots__ = ("size", "code", "bits")

    def __init__(self, bound):
        size = (bound.bit_length() + 7) // 8
        self.size = size = 1 << (size - 1).bit_length() if size <= 8 else size
        self.code = _WORD.get(size)
        self.bits = 8 * size

    def pack(self, c):
        """One int from nonnegative coefficients below the slot bound."""
        if self.code:
            a = array(self.code, c)
            if _SWAP:
                a.byteswap()
            return int.from_bytes(a.tobytes(), "little")
        return int.from_bytes(b"".join([x.to_bytes(self.size, "little") for x in c]), "little")

    def unpack(self, X, count):
        """The lowest ``count`` slots of X."""
        raw = (X & ((1 << self.bits * count) - 1)).to_bytes(self.size * count, "little")
        if self.code:
            a = array(self.code, raw)
            if _SWAP:
                a.byteswap()
            return a
        size = self.size
        return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


class _Ring(_Slots):
    """Z/m[x] modulo a monic f of degree n (coefficients in [0, m)).

    Elements are packed polynomials of degree < n.  ``divmod`` takes packed
    dividends of degree < n + qdeg + 1 whose slots stay below ``digit`` (by
    default: products of two elements); the slots also hold any coefficient
    below ``bound``, for the caller's own products."""

    __slots__ = ("m", "n", "qdeg", "f", "g", "off")

    def __init__(self, f, m, qdeg=None, digit=None, bound=0):
        n = len(f) - 1
        self.m, self.n = m, n
        self.qdeg = qdeg = max(n - 2, 0) if qdeg is None else qdeg
        digit = n * m * m if digit is None else digit
        # the widest slots: the dividend's top times g, and a remainder
        # before its reduction (dividend plus offset)
        super().__init__(max((qdeg + 1) * digit * m, digit + 2 * n * m * m, bound))
        # g = rev(inv) = x^(n+qdeg) div f, with inv = 1/rev(f) mod x^(qdeg+1):
        # inv[i] = -(rev(f)[1] inv[i-1] + ... + rev(f)[n] inv[i-n]), built
        # from the top: g = [inv[i-1], ..., inv[0]] at step i
        back = f[n - 1::-1] if n else []
        g = [1]
        for _ in range(qdeg):
            g.insert(0, -sum(map(operator.mul, back, g)) % m)
        self.f = self.pack(f[:n])
        self.g = self.pack(g)
        # a multiple of m in every slot, above any coefficient of q * f
        self.off = self.pack([n * m * m] * n)

    def reduce(self, X, count=None):
        """Coefficients of X reduced mod m: the first n, or ``count``."""
        m = self.m
        return [x % m for x in self.unpack(X, self.n if count is None else count)]

    def divmod(self, C, count):
        """Quotient and remainder (reduced lists, lengths count - n and n)
        of a packed dividend with ``count`` slots."""
        n, w = self.n, self.bits
        k = count - n  # quotient length
        if k <= 0:
            return [], self.reduce(C)
        q = self.reduce((C >> (n * w)) * (self.g >> ((self.qdeg + 1 - k) * w)) >> ((k - 1) * w), k)
        return q, self.reduce(C + self.off - self.pack(q) * self.f)

    def mul(self, A, B):
        """A*B mod f."""
        return self.pack(self.divmod(A * B, 2 * self.n - 1)[1])

    def pow(self, A, e):
        """A^e for e >= 1."""
        R = A
        for bit in bin(e)[3:]:
            R = self.mul(R, R)
            if bit == "1":
                R = self.mul(R, A)
        return R


# -- GF(p) arithmetic on lists -----------------------------------------------
#
# For the Euclidean steps, whose divisor changes at every step.  Products
# are formed over Z and reduced once; the division loop reads every
# leading coefficient mod p and reduces the rest once, at the end.

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


def _p_divmod(a, b, p):
    """Quotient and remainder, reduced and trimmed, of an integer list a by
    b with b[-1] != 0 mod p.  Works in place on a, which the caller gives up."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
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
        a, b = b, _p_divmod(a, b, p)[1]
    return _p_monic(a, p) if a else []


def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f over GF(p):
    pairs (g, d), g the product of the monic irreducible factors of degree d.

    x^(p^d) is kept modulo the input f, one p-th power per degree; the gcd
    with the part of f still unsplit reduces it further."""
    out = []
    ring = _Ring(f, p)
    X = ring.pack([0, 1])
    H = X  # x^(p^d) mod the input f
    d = 0
    while 2 * (d + 1) <= _deg(f):
        d += 1
        H = ring.pow(H, p)
        g = _p_gcd(f, _trim(ring.reduce(H + ring.off - X)), p)
        if len(g) > 1:
            out.append((g, d))
            f = _p_divmod(list(f), g, p)[0]
    if len(f) > 1:
        out.append((f, _deg(f)))
    return out


# A Cantor-Zassenhaus draw fails to split with probability below 3/4 (the
# worst case is two linear factors over GF(3)), so this many failures in one
# factorization mean a broken invariant, not bad luck.
_EDF_MAX_FAILURES = 100
_EDF_SEED = 0


def _split_power(ring, A, d):
    """For a random A modulo a product of irreducibles of degree d: the
    trace A + A^2 + ... + A^(2^(d-1)) over GF(2), else A^((p^d-1)/2) - 1.
    Modulo each factor the first lies in GF(2) and the second is 0 or -2
    when A is prime to it."""
    p = ring.m
    if p == 2:
        B = T = A
        for _ in range(d - 1):
            T = ring.mul(T, T)
            B += T
        return B
    return ring.pow(A, (p**d - 1) // 2) + ring.off - 1


def _edf(g, d, p, rng):
    """Cantor-Zassenhaus equal-degree splitting of a monic squarefree g over
    GF(p) whose irreducible factors all have degree d.

    Every draw is powered modulo g, whatever part of g it is to split, so
    all draws share one ring.  Linear factors of g with p <= 64 deg g come
    from its roots instead, by Horner evaluation at every point of GF(p):
    measured against splitting for p up to 1031 and deg g up to 16, that
    takes at most half the time up to this cut-off, and breaks even near
    p = 130 to 260 times deg g."""
    if _deg(g) == d:
        return [g]
    if d == 1 and p <= 64 * _deg(g):
        vals = [0] * p
        for c in reversed(g):
            vals = [(v * a + c) % p for a, v in enumerate(vals)]
        roots = [a for a, v in enumerate(vals) if not v]
        if len(roots) != _deg(g):
            raise InternalError(f"{len(roots)} roots over GF({p}) for a product of {_deg(g)} linear factors")
        return [[-a % p, 1] for a in roots]
    ring = _Ring(g, p)
    out = []
    todo = [g]
    failures = 0
    while todo:
        u = todo.pop()
        if _deg(u) == d:
            out.append(u)
            continue
        while True:
            a = _p_trim([rng.randrange(p) for _ in range(_deg(u))], p)
            if len(a) > 1:
                s = _p_gcd(u, _trim(ring.reduce(_split_power(ring, ring.pack(a), d))), p)
                if 0 < _deg(s) < _deg(u):
                    todo += [s, _p_divmod(u, s, p)[0]]
                    break
            failures += 1
            if failures > _EDF_MAX_FAILURES:
                raise InternalError(f"equal-degree splitting failed {failures} times over GF({p})")
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
#
# One quadratic step lifts f = g*h from mod m to mod M (M dividing m^2), as
# in Modern Computer Algebra, Algorithm 15.10, with coefficients in [0, m).
# Each correction (f - g*h, s*g + t*h - 1, and what follows from them) is a
# multiple of m, so it is computed divided by m and mod M/m: both divisions
# of a step are by h mod M/m, from one precomputed inverse.

def _tr(c, m):
    """Reduce coefficients into the symmetric range (-m/2, m/2]."""
    half = m // 2
    return _trim([half - (half - x) % m for x in c])


def _lift_correction(m, M, X, count, G, s, t, ring):
    """(u, r) for the x whose ``count`` slots in X hold m*x mod M (plus
    multiples of M): (q, r) = divmod(s*x, h) and u = t*x + q*g mod M/m, with
    count - deg h coefficients.  ``ring`` divides by h modulo M/m, and G is
    g packed.  For x = (f - g*h)/m the lift is g + m*u, h + m*r; for
    x = (s*g + t*h - 1)/m it is s - m*r, t - m*u."""
    mq = M // m
    P = ring.pack([y // m % mq for y in ring.unpack(X, count)])
    q, r = ring.divmod(ring.pack(s) * P, len(s) + count - 1)
    return ring.reduce(ring.pack(t) * P + ring.pack(q) * G, count - ring.n), r


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
    # quadratic steps, the last one only to p^l; the Bezout pair of the
    # last step would never be used
    n = len(f)
    m = p
    while m < pl:
        M = min(m * m, pl)
        mq = M // m
        # division by h mod M/m; the slots also hold s*g + t*h, below 2n*m*M
        ring = _Ring([x % mq for x in h], mq, n - 2, n * m * mq, (2 * n * m + 1) * M)
        # f - g*h vanishes mod m; a multiple of M in every slot stays above
        # any coefficient of g*h
        G = ring.pack(g)
        off = -(-min(len(g), len(h)) * m * m // M) * M
        E = ring.pack([x % M + off for x in f]) - G * ring.pack(h)
        u, r = _lift_correction(m, M, E, n, G, s, t, ring)
        g = [x + m * y for x, y in zip(g, u)]
        h = [x + m * y for x, y in zip(h, r)] + [1]
        if M < pl:
            # s*g + t*h - 1 (M - 1 for -1) vanishes mod m, for the lifted g, h
            G = ring.pack(g)
            B = ring.pack(s) * G + ring.pack(t) * ring.pack(h) + M - 1
            u, r = _lift_correction(m, M, B, len(g) + len(h) - 2, G, s, t, ring)
            s = [(x - m * y) % M for x, y in zip_longest(s, r, fillvalue=0)]
            t = [(x - m * y) % M for x, y in zip_longest(t, u, fillvalue=0)]
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
        # the remainder f(a) vanishes mod p^l
        g = _tr(_p_divmod(g, [-a, 1], pl)[0], pl)
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
    rest = f
    out = []
    s = 1
    while 2 * s <= len(factors):
        # per rest: the factors' degrees, constant terms and values at 1
        degs = [len(u) - 1 for u in factors]
        consts = [u[0] for u in factors]
        ones = [sum(u) % pl for u in factors]
        every = frozenset(range(len(factors)))
        found = False
        lc, rest0, rest1 = rest[-1], rest[0], sum(rest)
        for subset in combinations(range(len(factors)), s):
            # the candidate comes from the subset or its complement, whichever
            # has degree at most deg(rest)/2, so the bound covers it
            side = subset
            if 2 * sum(map(degs.__getitem__, subset)) > _deg(rest):
                side = every.difference(subset)
            # a true factor's constant term and value at 1, times
            # lc(rest)/lc(factor), divide lc(rest)*rest(0) and lc(rest)*rest(1)
            # (trailing-coefficient test of Abbott, Shoup and Zimmermann)
            if rest0 and not _may_divide(lc, rest0, map(consts.__getitem__, side), pl):
                continue
            if rest1 and not _may_divide(lc, rest1, map(ones.__getitem__, side), pl):
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
                factors = [factors[i] for i in sorted(every.difference(subset))]
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

# The irreducibles proved by _zassenhaus, least recently used first: each
# primitive coefficient tuple with positive lc maps to its degree, lc and
# values at 0 and 1.  Entries come from inputs with x and x - 1 divided out,
# so no entry is x or x - 1 and neither value is 0.
_MEMO_SIZE = 1024
_memo = {}
_memo_lock = threading.Lock()


def clear_cache():
    with _memo_lock:
        _memo.clear()


def _part_values(f):
    """(deg f, lc f, f(0), f(1)) for the memo's integer tests.  A memo
    entry g that divides f has deg g <= deg f, lc g | lc f, g(0) | f(0) and
    g(1) | f(1); those tests reject little when f(0) or f(1) is 0, since
    every integer divides 0, so ``_factor_primitive`` divides x and x - 1
    out of f before any scan."""
    return len(f) - 1, f[-1], f[0], sum(f)


def _irreducible_factors(part):
    """The irreducible factors of a squarefree part, given as a coefficient
    tuple, as a sorted tuple of coefficient tuples, from ``_zassenhaus``;
    they join the memo as its newest entries."""
    new = [tuple(u) for u in _zassenhaus(list(part))]
    with _memo_lock:
        for g in new:
            _memo.pop(g, None)
            _memo[g] = _part_values(g)
        while len(_memo) > _MEMO_SIZE:
            del _memo[next(iter(_memo))]
    return tuple(sorted(new, key=lambda u: (len(u), u)))


def _factor_primitive(prim):
    """Irreducible factors with multiplicities of a primitive polynomial
    with positive leading coefficient.

    x and x - 1 are divided out first, then the memo is scanned once,
    newest first, over all that is left: an entry g is tried by exact
    division only when it passes the tests of ``_part_values``, and a hit
    is divided out as often as it divides and moves to the newest end.
    Only a cofactor that is not constant goes through Yun's squarefree
    decomposition, and each of its parts through ``_irreducible_factors``:
    no memo entry divides a part, since it would have divided the whole."""
    k = next(i for i, c in enumerate(prim) if c)
    rest = prim[k:]
    counts = {(0, 1): k} if k else {}
    while sum(rest) == 0:
        # rest = (x - 1) q, q[i] = rest[i + 1] + ... + rest[n]
        rest = list(accumulate(rest[:0:-1]))[::-1]
        counts[(-1, 1)] = counts.get((-1, 1), 0) + 1
    df, lf, f0, f1 = _part_values(rest)
    hits = []
    with _memo_lock:
        for g, (dg, lg, g0, g1) in reversed(_memo.items()):
            if df == 0:
                break
            m = 0
            while not (dg > df or lf % lg or f0 % g0 or f1 % g1):
                q = _div_exact(rest, g)
                if q is None:
                    break
                rest, m = q, m + 1
                df, lf, f0, f1 = _part_values(rest)
            if m:
                counts[g] = m
                hits.append(g)
        for g in hits:
            _memo[g] = _memo.pop(g)
    if df > 0:
        for part, mult in squarefree_decompose(IntPoly(tuple(rest))):
            for t in _irreducible_factors(part.coeffs):
                counts[t] = counts.get(t, 0) + mult
    return tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))


def _is_product(F, fac):
    """Whether ``fac.expand() == F``, from one evaluation at x = 2^w.

    The product P has |P|inf <= c * prod |g|_1^m (c the content), so every
    coefficient of F - P is below 2^w in absolute value, and a nonzero such
    polynomial does not vanish at 2^w: its top term outweighs all the
    others."""
    c = math.prod(fac.content)
    bound = c
    for poly, mult in fac.factors:
        bound *= sum(map(abs, poly.coeffs)) ** mult
    x = 1 << (max(map(abs, F.coeffs)) + bound).bit_length()
    value = fac.sign * c
    for poly, mult in fac.factors:
        value *= _eval(poly.coeffs, x) ** mult
    return _eval(F.coeffs, x) == value


def factor_int_poly(
    F: IntPoly, degree_limit: int = DEFAULT_BUDGETS.degree_limit
) -> IntFactorization:
    """Complete factorization of F into sign, prime content and irreducibles."""
    if F.is_zero:
        raise DomainError("the zero polynomial has no factorization")
    check_degree(F.degree, degree_limit)
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
    if not _is_product(F, result):
        raise InternalError(f"factorization of {F} failed re-multiplication")
    return result
