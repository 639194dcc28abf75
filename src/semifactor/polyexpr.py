"""Polynomial expressions over a coefficient semiring and an exponent monoid.

Canonical form: strictly descending exponents, no zero coefficients, every
exponent a member of the monoid.  The zero polynomial has no terms.
Because the coefficient semirings are additively reduced there is never
cancellation: the support of a product is the sumset of the supports.

A ``PolyExpr`` stores each exponent once, as its scaled numerator
n = D * num / denom, D the monoid's denominator: ``nums`` and ``coeffs``
are parallel tuples; equality also compares the context, the hash does not.
Products, division and the divisor code add and compare integers and check
them with ``ExpMonoid.member_num``; exponent lengths and common divisors come
from the numerator kernels ``ExpMonoid._length_num`` and
``ExpMonoid._mcd_nums``, since ``length``, ``mcd`` and ``gcd`` are boundary
wrappers.  An ``ExpElem`` is built only at the API boundary: by ``terms``,
``degree``, ``trailing_degree`` and ``support`` on request, and by
``format_poly`` while rendering.  ``Fraction`` remains only
for exponents that arrive as rationals: the parser, and ``from_terms`` given
a ``Fraction``, an ``int`` or a ``str``.

Exact division of f by g is long division in the ambient ring (``Z`` or
``Z[sqrt(d)]``) after the substitution y = x^(1/D), which turns all
exponents into integers.  Each quotient term is final once computed, so the
division stops with no quotient at the first term whose coefficient is not
in the semiring or whose exponent is not in the monoid; the remainder, which
may leave the semiring, must vanish.

All text is read here, by one scanner: expressions, the context literals
and, through ``read_number``, every number on the command line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .coeff import CoeffSemiring, Nat, Quad
from .errors import DEFAULT_BUDGETS, DomainError, ExponentNotInMonoidError, ParseError, UsageError
from .monoid import ExpElem, ExpMonoid, make_monoid, nat_monoid


@dataclass(frozen=True)
class PolyExpr:
    """A canonical polynomial: ``nums`` are the scaled exponent numerators,
    strictly descending members of the monoid, and ``coeffs`` the matching
    nonzero coefficients.  The constructor takes canonical data as is;
    ``from_terms`` and ``parse`` build it from any input."""

    semiring: CoeffSemiring
    monoid: ExpMonoid
    nums: tuple
    coeffs: tuple

    @classmethod
    def from_terms(cls, semiring, monoid, terms):
        """Build canonical form: validate, merge like terms, sort, drop zeros."""
        pairs = []
        for exp, coeff in terms:
            coeff = semiring.validate(coeff)
            if isinstance(exp, ExpElem):
                n = monoid._scale(exp.num, exp.denom)
            else:
                exp = Fraction(exp)
                n = monoid._scale(exp.numerator, exp.denominator)
            if n is None:
                raise DomainError(f"exponent {exp} is not a member of {monoid.literal()}")
            pairs.append((n, coeff))
        return cls._merge_nums(semiring, monoid, pairs)

    @classmethod
    def _merge_nums(cls, semiring, monoid, pairs):
        """Canonical form from (numerator, coeff) pairs of members and
        valid coefficients, in any order: merge like terms, drop zeros."""
        acc = {}
        for n, coeff in pairs:
            prev = acc.get(n)
            acc[n] = coeff if prev is None else semiring._add(prev, coeff)
        nums = sorted((n for n, c in acc.items() if not semiring.is_zero(c)), reverse=True)
        return cls(semiring, monoid, tuple(nums), tuple(acc[n] for n in nums))

    @classmethod
    def zero(cls, semiring, monoid):
        return cls(semiring, monoid, (), ())

    @classmethod
    def one(cls, semiring, monoid):
        return cls.from_terms(semiring, monoid, [(0, semiring.one)])

    # inspection ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """((ExpElem, coeff), ...) with strictly descending exponents."""
        return tuple(zip(map(self.monoid.elem_of_num, self.nums), self.coeffs))

    @property
    def is_zero(self):
        return not self.nums

    @property
    def is_one(self):
        return self.nums == (0,) and self.semiring.is_unit(self.coeffs[0])

    def _nonzero(self):
        if not self.nums:
            raise DomainError("the zero polynomial has no canonical-form data")

    @property
    def degree(self) -> ExpElem:
        self._nonzero()
        return self.monoid.elem_of_num(self.nums[0])

    @property
    def leading_coeff(self):
        self._nonzero()
        return self.coeffs[0]

    @property
    def trailing_degree(self) -> ExpElem:
        self._nonzero()
        return self.monoid.elem_of_num(self.nums[-1])

    @property
    def trailing_coeff(self):
        self._nonzero()
        return self.coeffs[-1]

    @property
    def support(self) -> frozenset[ExpElem]:
        self._nonzero()
        return frozenset(map(self.monoid.elem_of_num, self.nums))

    @property
    def is_monomial(self) -> bool:
        self._nonzero()
        return len(self.nums) == 1

    # arithmetic ----------------------------------------------------------

    def __hash__(self):
        return hash((self.nums, self.coeffs))

    def _same_context(self, other):
        S, M = other.semiring, other.monoid  # identity first: the contexts are shared
        if (self.semiring is S or self.semiring == S) and (self.monoid is M or self.monoid == M):
            return
        raise UsageError(
            f"mismatched contexts: ({self.semiring.literal()}, {self.monoid.literal()})"
            f" vs ({S.literal()}, {M.literal()})"
        )

    def __add__(self, other):
        self._same_context(other)
        return PolyExpr._merge_nums(
            self.semiring,
            self.monoid,
            [*zip(self.nums, self.coeffs), *zip(other.nums, other.coeffs)],
        )

    def __mul__(self, other):
        self._same_context(other)
        S = self.semiring
        pairs = tuple(zip(other.nums, other.coeffs))
        return PolyExpr._merge_nums(
            S,
            self.monoid,
            [
                (na + nb, S._mul(ca, cb))
                for na, ca in zip(self.nums, self.coeffs)
                for nb, cb in pairs
            ],
        )

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise UsageError(f"polynomial powers need a nonnegative integer, got {n!r}")
        out = PolyExpr.one(self.semiring, self.monoid)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"PolyExpr({format_poly(self)!r})"


def ambient_exact_div(f: PolyExpr, g: PolyExpr):
    """Quotient f/g inside the semiring, or None when it does not exist there.

    Long division runs over the ambient ring with integer exponents
    (y = x^(1/D)).  A quotient term outside the semiring or the monoid ends
    it: the quotient in the ring is unique, so no later step can repair it.
    """
    f._same_context(g)
    if g.is_zero:
        raise DomainError("division by the zero polynomial")
    if f.is_zero:
        raise DomainError("division of the zero polynomial")
    S = f.semiring
    M = f.monoid
    rem = dict(zip(f.nums, f.coeffs))
    gterms = tuple(zip(g.nums, g.coeffs))
    gdeg, glc = gterms[0]
    qnums, qcoeffs = [], []
    while rem:
        rdeg = max(rem)
        qe = rdeg - gdeg
        if not M.member_num(qe):
            return None
        # a leading remainder with a negative component has no quotient in S
        # either: products of semiring values are never negative
        qc = S._exact_div(rem[rdeg], glc)
        if qc is None:
            return None
        qnums.append(qe)
        qcoeffs.append(qc)
        for e, c in gterms:
            ne = qe + e
            nv = S.sub(rem.get(ne, S.zero), S._mul(qc, c))
            if S.is_zero(nv):
                rem.pop(ne, None)
            else:
                rem[ne] = nv
    return PolyExpr(S, M, tuple(qnums), tuple(qcoeffs))


# text form ---------------------------------------------------------------
#
#   poly  := term ('+' term)*
#   term  := coeff [['*'] xpart] | xpart
#   coeff := decimal-integer | '(' int ',' int ')'     (pairs only for quad)
#   xpart := 'x' ['^' exp]
#   exp   := int ['/' int] | '{' int ['/' int] '}'
#   coeffs := 'nat' | 'quad:' int
#   monoid := 'nat' | 'gens:' int ['/' int] (',' int ['/' int])*
#
# Whitespace is insignificant.


# ASCII only: str.isdigit and int() also take e.g. '²' and '٣'
_DIGITS = re.compile("[0-9]+")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.i)
        self.i += 1

    def at_end(self):
        return self.peek() == ""

    def read_int(self):
        self.skip()
        start = self.i
        digits = _DIGITS.match(self.text, start)
        if not digits:
            raise ParseError("expected a decimal integer", start)
        self.i = digits.end()
        try:
            return int(digits[0])
        except ValueError:  # longer than the interpreter's int-string limit
            n = self.i - start
            raise ParseError(f"integer literal of {n} digits is too long", start) from None

    def read_rational(self):
        num = self.read_int()
        if self.peek() == "/":
            self.i += 1
            den = self.read_int()
            if den == 0:
                raise ParseError("zero denominator", self.i)
            return Fraction(num, den)
        return Fraction(num)


def read_number(text: str, rational=False):
    """The whole of ``text`` as an int, or with ``rational`` an int or int/int; else ParseError."""
    sc = _Scanner(text)
    q = sc.read_rational() if rational else sc.read_int()
    if not sc.at_end():
        raise ParseError("expected the end of the number", sc.i)
    return q


def semiring_from_literal(text: str) -> CoeffSemiring:
    """Parse "nat" or "quad:<d>" into a semiring object."""
    if text == "nat":
        return Nat()
    if text.startswith("quad:"):
        try:
            d = read_number(text[5:])
        except ParseError:
            raise UsageError(f"bad quadratic radicand in {text!r}") from None
        return Quad(d)
    raise UsageError(f"unknown coefficient semiring literal {text!r} (want nat or quad:<d>)")


def monoid_from_literal(text: str, node_budget=DEFAULT_BUDGETS.knapsack_nodes) -> ExpMonoid:
    """Parse "nat" or "gens:q1,q2,..." into an ExpMonoid built under node_budget."""
    if text == "nat":
        return nat_monoid()
    if text.startswith("gens:"):
        try:
            gens = [read_number(part, rational=True) for part in text[5:].split(",")]
        except ParseError:
            raise UsageError(f"bad generator list in {text!r}") from None
        return make_monoid(gens, node_budget)
    raise UsageError(f"unknown monoid literal {text!r} (want nat or gens:q1,q2,...)")


def parse(text: str, semiring: CoeffSemiring, monoid: ExpMonoid) -> PolyExpr:
    sc = _Scanner(text)
    if sc.at_end():
        raise ParseError("empty expression", 0)
    raw_terms = []
    while True:
        raw_terms.append(_parse_term(sc, semiring))
        if sc.at_end():
            break
        sc.take("+")
    pairs = []
    for exp, coeff in raw_terms:
        n = monoid._scale(exp.numerator, exp.denominator)
        if n is None:
            raise ExponentNotInMonoidError(exp, monoid.literal())
        pairs.append((n, coeff))
    # _parse_term builds only valid coefficients
    return PolyExpr._merge_nums(semiring, monoid, pairs)


def _parse_term(sc: _Scanner, semiring):
    ch = sc.peek()
    coeff = None
    if "0" <= ch <= "9":
        coeff = semiring.from_int(sc.read_int())
    elif ch == "(":
        if not isinstance(semiring, Quad):
            raise ParseError("pair coefficients need a quadratic semiring", sc.i)
        sc.take("(")
        b = sc.read_int()
        sc.take(",")
        c = sc.read_int()
        sc.take(")")
        coeff = (b, c)
    if coeff is not None:
        if sc.peek() == "*":
            sc.i += 1
        elif sc.peek() != "x":
            return (Fraction(0), coeff)
        return (_parse_xpart(sc), coeff)
    if ch == "x":
        return (_parse_xpart(sc), semiring.one)
    raise ParseError(f"expected a term, found {ch!r}" if ch else "expected a term", sc.i)


def _parse_xpart(sc: _Scanner):
    sc.take("x")
    if sc.peek() != "^":
        return Fraction(1)
    sc.i += 1
    if sc.peek() == "{":
        sc.take("{")
        q = sc.read_rational()
        sc.take("}")
        return q
    return sc.read_rational()


def format_poly(f: PolyExpr) -> str:
    """Canonical text form; parse(format_poly(f)) == f."""
    if f.is_zero:
        return "0"
    S = f.semiring
    quad = isinstance(S, Quad)
    parts = []
    for n, c in zip(f.nums, f.coeffs):
        e = f.monoid.elem_of_num(n)
        if e.num == 0:
            xpart = ""
        elif e.denom != 1:
            xpart = f"x^{{{e.num}/{e.denom}}}"
        elif e.num == 1:
            xpart = "x"
        else:
            xpart = f"x^{e.num}"
        if quad:
            cpart = "" if c == S.one and xpart else f"({c[0]},{c[1]})"
            sep = "*" if cpart and xpart else ""
        else:
            cpart = "" if c == 1 and xpart else str(c)
            sep = ""
        parts.append(f"{cpart}{sep}{xpart}")
    return "+".join(parts)
