"""Coefficient semirings: the nonnegative integers and quadratic extensions.

Values are plain data.  ``Nat`` works on ``int`` and ``Quad(d)`` on pairs
``(b, c)`` standing for ``b + c*sqrt(d)`` with both entries nonnegative.
Each semiring S sits inside an integral domain R (``Z`` for Nat, ``Z[sqrt(d)]``
for Quad) whose values have the same shape with signed entries.  The
semiring object carries the arithmetic, the divisibility theory and the one
ring operation that leaves S, ``sub``; ``exact_div`` divides a ring value by
a semiring value and answers only with a quotient back in S.

Each public operation is written once, in ``CoeffSemiring``: it checks its
arguments once and calls the semiring's ``_``-kernel, which takes canonical
values unchecked; library code holding canonical values calls the kernels.

All functions are pure; semiring objects are frozen and safe to share
between threads.  ``polyexpr`` reads the ``quad:<d>`` literal.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import (
    DEFAULT_BUDGETS,
    BudgetError,
    DomainError,
    InternalError,
    LengthFunctionUnavailableError,
    UsageError,
)


# Trial division runs below _TRIAL_BOUND; what is left is tested with
# Baillie-PSW (Miller-Rabin, then a strong Lucas test) and split from a
# square root of 1 or by Pollard-Brent rho, which may take _RHO_BUDGET
# iterations per factorization (a few tenths of a second).
_TRIAL_BOUND = 1000
_RHO_BUDGET = 2 * 10**5
# Miller-Rabin to these bases is a proof of primality below 3.3 * 10**24
# (Sorenson and Webster 2015); above it, Baillie-PSW has no known
# counterexample.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Bases 2 .. _SPLIT_BASES - 1 are tried for a nontrivial square root of 1
# before rho; strong pseudoprimes to the bases above split this way.
_SPLIT_BASES = 100


def prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending.

    BudgetError when Pollard-Brent rho runs out of iterations."""
    out = []
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    todo = [n] if n > 1 else []
    budget = _RHO_BUDGET
    while todo:
        m = todo.pop()
        # every prime factor of m is at least _TRIAL_BOUND
        d = 0 if m < _TRIAL_BOUND * _TRIAL_BOUND else _prime_or_divisor(m)
        if d == 0:
            out.append(m)
            continue
        if d == 1:
            d, budget = _rho_divisor(m, budget)
        todo += [d, m // d]
    return sorted(out)


def _strong_test(n: int, a: int) -> int:
    """0 when odd n is a strong probable prime to base a; else a proper
    divisor gcd(x - 1, n) when x^2 = 1 with x != +-1 mod n turns up, else 1."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return 0
    for _ in range(s - 1):
        y = x * x % n
        if y == n - 1:
            return 0
        if y == 1:
            return math.gcd(x - 1, n)
        x = y
    return math.gcd(x - 1, n) if x * x % n == 1 else 1


def _prime_or_divisor(n: int) -> int:
    """Baillie-PSW for odd n > the largest base, whose Miller-Rabin tests
    also look for a divisor: 0 when n is a probable prime (Miller-Rabin to
    the bases _MR_BASES, then the strong Lucas test).  Otherwise n is
    composite, and the result is a proper divisor from the first nontrivial
    square root of 1 met to a base below _SPLIT_BASES, or 1 when none is;
    every base is tested once."""
    composite = False
    for a in _MR_BASES:
        g = _strong_test(n, a)
        if g > 1:
            return g
        composite = composite or g == 1
    if not composite and _strong_lucas(n):
        return 0
    for a in range(2, _SPLIT_BASES):
        if a not in _MR_BASES:
            g = _strong_test(n, a)
            if g > 1:
                return g
    return 1


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie and Wagstaff 1980)."""
    r = math.isqrt(n)
    if r * r == n:
        return False  # no D would exist
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k by the binary expansion of d, from k = 1 (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U + V)/2, V_(k+1) = (D*U + V)/2, halved mod odd n
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _rho_divisor(n: int, budget: int):
    """A proper divisor of an odd composite n by Pollard-Brent rho, and the
    iterations left of ``budget``."""
    batch = 128  # steps between gcds
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(batch, r - k)
                budget -= steps
                if budget < 0:
                    raise BudgetError(
                        f"no factor of a {n.bit_length()}-bit cofactor within "
                        f"{_RHO_BUDGET} Pollard rho iterations"
                    )
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget
    raise InternalError(f"Pollard rho found no divisor of the composite {n}")


class CoeffSemiring:
    """Protocol shared by the concrete semirings below.

    Each defines ``zero``, ``one``, ``validate`` (v itself, else a
    ``UsageError``), ``sub`` (in the ambient ring, so it may leave the
    semiring), ``render``, ``literal``, ``max_component``, ``from_int``,
    ``values_with_components_at_most(bound)`` (the nonzero values with
    components <= bound, sized and listed only when iterated, so the oracle
    reads the size against its budget first) and the unchecked kernels
    behind the checked entries below, whose divisor searches spend the
    caller's ``budget`` (``Nat`` ignores it: its factoring has its own).
    """

    zero = None
    one = None

    # each semiring defines _add and _mul on canonical values, unchecked;
    # polynomial arithmetic calls them directly on its canonical operands
    def add(self, a, b):
        return self._add(self.validate(a), self.validate(b))

    def mul(self, a, b):
        return self._mul(self.validate(a), self.validate(b))

    def is_zero(self, v):
        return v == self.zero

    def is_unit(self, v):
        return v == self.one

    def divisors_of(self, a, budget=DEFAULT_BUDGETS.oracle_candidates):
        """All divisors of a nonzero a; a search that tries candidates
        counts them against budget first."""
        if self.validate(a) == self.zero:
            raise DomainError("0 has no divisor set")
        return self._divisors_of(a, budget)

    def exact_div(self, a, b):
        """The q in the semiring with q*b == a, or None.

        b is a nonzero semiring value; a may be any value of the ambient ring.
        """
        if self.validate(b) == self.zero:
            raise DomainError("division by 0")
        return self._exact_div(a, b)

    def atom_factorizations(self, a, budget=DEFAULT_BUDGETS.oracle_candidates):
        """Complete set of atom multisets with product a, as sorted tuples."""
        if self.validate(a) in (self.zero, self.one):
            raise DomainError(f"{self.render(a)} has no factorization into atoms")
        return self._atom_factorizations(a, budget)

    def mcd_set(self, vals, budget=DEFAULT_BUDGETS.oracle_candidates):
        """All maximal common divisors of a nonempty list of nonzero values.

        Maximality is taken under the divisibility preorder: d is kept when
        no other common divisor is a proper multiple of d.  Equivalently the
        quotients vals/d admit no common non-unit divisor.
        """
        vals = list(vals)
        if not vals:
            raise UsageError("mcd of an empty list")
        for v in vals:
            if self.validate(v) == self.zero:
                raise DomainError("mcd undefined when 0 is among the values")
        return self._mcd_set(vals, budget)

    def length(self, a):
        if self.validate(a) == self.zero:
            raise DomainError("length undefined at 0")
        return self._length(a)


@dataclass(frozen=True)
class Nat(CoeffSemiring):
    """The semiring of nonnegative integers."""

    zero = 0
    one = 1

    # no fields: every Nat is equal, and these skip the generated tuple compare
    def __eq__(self, other):
        return type(other) is Nat

    def __hash__(self):
        return 0

    def validate(self, v):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise UsageError(f"not a nonnegative integer: {v!r}")
        return v

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def _divisors_of(self, a, budget):
        # built from the prime factorization, which has its own budget
        divs = [1]
        for q, e in Counter(prime_factors(a)).items():
            divs = [d * q**i for d in divs for i in range(e + 1)]
        return set(divs)

    def _exact_div(self, a, b):
        q, r = divmod(a, b)
        return q if r == 0 and q >= 0 else None

    def _atom_factorizations(self, a, budget):
        return frozenset({tuple(prime_factors(a))})

    def _mcd_set(self, vals, budget):
        return {math.gcd(*vals)}

    def _length(self, a):
        return len(prime_factors(a))

    def render(self, v):
        return str(self.validate(v))

    def max_component(self, v):
        return v

    def values_with_components_at_most(self, bound):
        return range(1, bound + 1)

    def from_int(self, n):
        return self.validate(n)

    def literal(self):
        return "nat"


class _Pairs:
    """The pairs (b, c) != (0, 0) with 0 <= b, c < side, b major: sized, and
    listed only when iterated."""

    def __init__(self, side):
        self.side = side

    def __len__(self):
        return self.side * self.side - 1

    def __iter__(self):
        return (divmod(i, self.side) for i in range(1, self.side * self.side))


@dataclass(frozen=True)
class Quad(CoeffSemiring):
    """Pairs (b, c) standing for b + c*sqrt(d), b and c nonnegative integers.

    d must be >= 2 and not a perfect square, so 1 and sqrt(d) are rationally
    independent and the pair representation is unique.
    """

    d: int

    zero = (0, 0)
    one = (1, 0)

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 2:
            raise UsageError(f"quadratic radicand must be an integer >= 2, got {self.d!r}")
        if math.isqrt(self.d) ** 2 == self.d:
            raise UsageError(f"quadratic radicand must not be a perfect square, got {self.d}")

    def __eq__(self, other):
        return type(other) is Quad and other.d == self.d

    def __hash__(self):
        return self.d

    def validate(self, v):
        # unrolled: this runs on both arguments of every checked add and mul
        if isinstance(v, tuple) and len(v) == 2:
            b, c = v
            if (
                isinstance(b, int)
                and isinstance(c, int)
                and not isinstance(b, bool)
                and not isinstance(c, bool)
                and b >= 0
                and c >= 0
            ):
                return v
        raise UsageError(f"not a nonnegative (b, c) pair: {v!r}")

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _mul(self, a, b):
        return (a[0] * b[0] + self.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def _divisors_of(self, a, budget):
        # Every divisor (b', c') of (b, c) satisfies b' + c' <= b + c: the
        # cofactor is nonzero, so each of its components contributes at least
        # once (or d >= 2 times) to the componentwise sums of the product.
        # The scan tries every such pair, so it is counted against the
        # budget before it starts.
        total = a[0] + a[1]
        pairs = (total + 1) * (total + 2) // 2 - 1
        if pairs > budget:
            raise BudgetError(
                f"divisors of {self.render(a)} need {pairs} candidate pairs, "
                f"over the budget of {budget}"
            )
        return {
            (b, c)
            for b in range(total + 1)
            for c in range(0 if b else 1, total + 1 - b)
            if self._exact_div(a, (b, c)) is not None
        }

    def _exact_div(self, a, b):
        # a/b = a*conj(b)/N(b) with the norm N(b) = b0^2 - d*b1^2, which may
        # be negative but is nonzero for b != 0 since d is not a square
        n = b[0] * b[0] - self.d * b[1] * b[1]
        p, rp = divmod(a[0] * b[0] - self.d * a[1] * b[1], n)
        q, rq = divmod(a[1] * b[0] - a[0] * b[1], n)
        if rp or rq or p < 0 or q < 0:
            return None
        return (p, q)

    def _atom_factorizations(self, a, budget):
        # divs holds every divisor of each of its members: an atom is one
        # that no other member divides
        divs = self._divisors_of(a, budget) - {self.one}
        atoms = sorted(s for s in divs if all(self._exact_div(s, t) is None for t in divs - {s}))

        results = set()

        def rec(target, start, stack):
            if target == self.one:
                results.add(tuple(stack))
                return
            for j in range(start, len(atoms)):
                q = self._exact_div(target, atoms[j])
                if q is not None:
                    stack.append(atoms[j])
                    rec(q, j, stack)
                    stack.pop()

        rec(a, 0, [])
        return frozenset(results)

    def _mcd_set(self, vals, budget):
        commons = [
            s
            for s in self._divisors_of(vals[0], budget)
            if all(self._exact_div(v, s) is not None for v in vals[1:])
        ]
        return {
            s
            for s in commons
            if not any(s2 != s and self._exact_div(s2, s) is not None for s2 in commons)
        }

    def _length(self, a):
        # b + floor(sqrt(d))*c - 1 is superadditive whenever floor(sqrt(d))^2
        # <= d; it separates units only when floor(sqrt(d)) >= 2, i.e. d >= 4,
        # and d = 4 is a perfect square, so the least radicand here is 5.
        t = math.isqrt(self.d)
        if t < 2:
            raise LengthFunctionUnavailableError(
                f"no supported length function for quad:{self.d} (need d >= 5)"
            )
        return a[0] + t * a[1] - 1

    def render(self, v):
        self.validate(v)
        b, c = v
        if b == 0 and c == 0:
            return "0"
        parts = []
        if b:
            parts.append(str(b))
        if c:
            parts.append("r" if c == 1 else f"{c}*r")
        return "+".join(parts)

    def max_component(self, v):
        return max(v)

    def values_with_components_at_most(self, bound):
        return _Pairs(bound + 1)

    def from_int(self, n):
        return (Nat().validate(n), 0)

    def literal(self):
        return f"quad:{self.d}"
