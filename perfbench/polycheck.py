"""Independent polynomial arithmetic for checking the library's answers.

Nothing here calls semifactor.  A polynomial is a dict {exponent: coeff}
with integer exponents (already scaled by the monoid's denominator) and no
zero coefficients.  A coefficient is an int, or a pair (b, c) standing for
b + c*sqrt(d) when the functions are given the radicand d.
"""
from __future__ import annotations

import re
from fractions import Fraction

_TERM = re.compile(r"^(?:\((\d+),(\d+)\)|(\d+))?\*?(x(?:\^(?:\{(\d+)/(\d+)\}|(\d+)))?)?$")


def parse_text(text: str, denom: int = 1, quad: bool = False) -> dict:
    """The library's canonical text form back to a dict, exponents scaled."""
    out = {}
    for part in text.split("+"):
        m = _TERM.match(part)
        if not m or not part:
            raise ValueError(f"unreadable term {part!r} in {text!r}")
        pb, pc, n, xpart, qn, qd, en = m.groups()
        if pb is not None:
            coeff = (int(pb), int(pc))
        elif n is not None:
            coeff = (int(n), 0) if quad else int(n)
        else:
            coeff = (1, 0) if quad else 1
        if xpart is None:
            exp = Fraction(0)
        elif qn is not None:
            exp = Fraction(int(qn), int(qd))
        elif en is not None:
            exp = Fraction(int(en))
        else:
            exp = Fraction(1)
        scaled = exp * denom
        if scaled.denominator != 1 or scaled in out:
            raise ValueError(f"bad exponent {exp} in {text!r}")
        out[int(scaled)] = coeff
    return out


def from_dense(coeffs) -> dict:
    return {i: c for i, c in enumerate(coeffs) if c}


def _cmul(a, b, d):
    if d is None:
        return a * b
    return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cadd(a, b, d):
    return a + b if d is None else (a[0] + b[0], a[1] + b[1])


def _zero(c):
    return c == 0 or c == (0, 0)


def mul(f: dict, g: dict, d: int = None) -> dict:
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = ea + eb
            out[e] = _cadd(out[e], _cmul(ca, cb, d), d) if e in out else _cmul(ca, cb, d)
    return {e: c for e, c in out.items() if not _zero(c)}


def prod(polys, d: int = None) -> dict:
    out = {0: 1 if d is None else (1, 0)}
    for p in polys:
        out = mul(out, p, d)
    return out


def nonneg(f: dict) -> bool:
    return all((c > 0) if isinstance(c, int) else (min(c) >= 0 and c != (0, 0)) for c in f.values())


def int_div(f: dict, g: dict):
    """Quotient of integer polynomials when g divides f in Z[y], else None."""
    rem = dict(f)
    gdeg = max(g)
    glc = g[gdeg]
    quo = {}
    while rem:
        rdeg = max(rem)
        if rdeg < gdeg:
            return None
        qc, r = divmod(rem[rdeg], glc)
        if r:
            return None
        qe = rdeg - gdeg
        quo[qe] = qc
        for e, c in g.items():
            v = rem.get(qe + e, 0) - qc * c
            if v:
                rem[qe + e] = v
            else:
                rem.pop(qe + e, None)
    return quo


def key(f: dict):
    """Hashable canonical form."""
    return tuple(sorted(f.items()))


def has_rational_root(coeffs) -> bool:
    """Rational root test for an integer polynomial given lowest degree first."""
    a0, an = coeffs[0], coeffs[-1]
    if a0 == 0:
        return True
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for r in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * r + c
                if acc == 0:
                    return True
    return False


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def numerical_members(gens, limit) -> bytearray:
    """member[n] == 1 when n <= limit is a sum of the generators."""
    member = bytearray(limit + 1)
    member[0] = 1
    for n in range(1, limit + 1):
        member[n] = any(g <= n and member[n - g] for g in gens)
    return member


def count_factorizations(gens, m) -> int:
    """Number of multisets of generators summing to m (coin change)."""
    ways = [1] + [0] * m
    for g in gens:
        for n in range(g, m + 1):
            ways[n] += ways[n - g]
    return ways[m]


def max_length(gens, m) -> int:
    """Greatest number of generators summing to m; -1 when m is no sum."""
    best = [0] + [-1] * m
    for n in range(1, m + 1):
        cands = [best[n - g] for g in gens if g <= n and best[n - g] >= 0]
        best[n] = max(cands) + 1 if cands else -1
    return best[m]


def prime_count(n: int) -> int:
    """Number of prime factors of n >= 1, with multiplicity."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)
