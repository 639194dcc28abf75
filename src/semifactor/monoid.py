"""Finitely generated additive submonoids of the nonnegative rationals.

A monoid is stored scaled: with D the least common denominator of its
generators, D*M is a submonoid of the nonnegative integers and every
computation reduces to integer arithmetic.  Membership is answered in O(1)
from the Apery table of D*M (least member in each residue class modulo the
smallest generator), built once at construction with a Dijkstra sweep.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import BudgetError, DomainError, UsageError

DEFAULT_KNAPSACK_BUDGET = 10**6


@dataclass(frozen=True)
class ExpElem:
    """An exponent num/denom in lowest terms; construct via ExpMonoid.elem."""

    num: int
    denom: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.denom)

    def __lt__(self, other):
        return self.num * other.denom < other.num * self.denom

    def __le__(self, other):
        return self.num * other.denom <= other.num * self.denom

    def __str__(self):
        return str(self.num) if self.denom == 1 else f"{self.num}/{self.denom}"


def _apery_table(gens: tuple[int, ...]) -> tuple[int, list]:
    """Least monoid element in each residue class mod min(gens); None = empty class."""
    a = min(gens)
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] != d:
            continue
        for g in gens:
            nd = d + g
            nr = nd % a
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return a, dist


def _member_int(apery, amin, n):
    if n < 0:
        return False
    least = apery[n % amin]
    return least is not None and n >= least


class ExpMonoid:
    """A reduced, finitely generated submonoid of (Q>=0, +)."""

    __slots__ = ("denom", "gens", "min_gens", "_amin", "_apery")

    def __init__(self, denom: int, gens):
        gens = frozenset(gens)
        if denom < 1 or not gens or any(not isinstance(g, int) or g <= 0 for g in gens):
            raise UsageError("monoid needs a positive denominator and positive integer generators")
        self.denom = denom
        self.gens = gens
        self.min_gens = frozenset(self._minimal(sorted(gens)))
        self._amin, self._apery = _apery_table(tuple(sorted(self.min_gens)))

    @staticmethod
    def _minimal(sorted_gens):
        # g is an atom of <gens> exactly when the other generators cannot sum to it
        out = []
        for g in sorted_gens:
            others = tuple(h for h in sorted_gens if h != g)
            if not others:
                out.append(g)
                continue
            amin, apery = _apery_table(others)
            if not _member_int(apery, amin, g):
                out.append(g)
        return out

    def __eq__(self, other):
        if not isinstance(other, ExpMonoid):
            return NotImplemented
        return self.denom == other.denom and self.min_gens == other.min_gens

    def __hash__(self):
        return hash((self.denom, self.min_gens))

    def __repr__(self):
        return f"ExpMonoid({self.literal()!r})"

    def literal(self) -> str:
        if self.denom == 1 and self.min_gens == frozenset({1}):
            return "nat"
        parts = ",".join(str(Fraction(g, self.denom)) for g in sorted(self.min_gens))
        return f"gens:{parts}"

    # membership ---------------------------------------------------------

    def member_num(self, n: int) -> bool:
        """Membership of n/D, for integer n."""
        return _member_int(self._apery, self._amin, n)

    def member(self, q) -> bool:
        q = Fraction(q)
        if q < 0:
            raise DomainError(f"membership is only defined for nonnegative rationals, got {q}")
        scaled = q * self.denom
        return scaled.denominator == 1 and self.member_num(int(scaled))

    # element handling ---------------------------------------------------

    def elem(self, q) -> ExpElem:
        if isinstance(q, ExpElem):
            q = q.value
        q = Fraction(q)
        if q < 0 or not self.member(q):
            raise DomainError(f"{q} is not a member of {self.literal()}")
        return ExpElem(q.numerator, q.denominator)

    def elem_of_num(self, n: int) -> ExpElem:
        g = gcd(n, self.denom)
        return ExpElem(n // g, self.denom // g)

    def num_of(self, e: ExpElem) -> int:
        scaled = e.value * self.denom
        if scaled.denominator != 1 or not self.member_num(int(scaled)):
            raise DomainError(f"{e} is not a member of {self.literal()}")
        return int(scaled)

    # structure ----------------------------------------------------------

    def atoms(self) -> frozenset[ExpElem]:
        return frozenset(self.elem_of_num(g) for g in self.min_gens)

    def divides(self, a: ExpElem, b: ExpElem) -> bool:
        """Additive divisibility: b - a is a member."""
        return self.member_num(self.num_of(b) - self.num_of(a))

    def factorizations(self, m, node_budget: int = DEFAULT_KNAPSACK_BUDGET):
        """All multisets of atoms summing to m, as ascending tuples of ExpElem."""
        n = self.num_of(self.elem(m))
        atoms_desc = sorted(self.min_gens, reverse=True)
        results = []
        nodes = 0

        def rec(rem, start, stack):
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise BudgetError(f"factorization search exceeded {node_budget} nodes")
            if rem == 0:
                results.append(tuple(reversed(stack)))
                return
            for j in range(start, len(atoms_desc)):
                g = atoms_desc[j]
                if g > rem or not self.member_num(rem - g):
                    continue
                stack.append(g)
                rec(rem - g, j, stack)
                stack.pop()

        rec(n, 0, [])
        return frozenset(tuple(self.elem_of_num(g) for g in fac) for fac in results)

    def mcd(self, elems) -> frozenset[ExpElem]:
        """All divisibility-maximal common divisors of a nonempty collection."""
        nums = self._common_input(elems)
        commons = self._common_divisors(nums)
        maximal = [
            d
            for d in commons
            if not any(d2 != d and self.member_num(d2 - d) for d2 in commons)
        ]
        return frozenset(self.elem_of_num(d) for d in maximal)

    def gcd(self, elems):
        """The common divisor divisible by all others, when one exists."""
        nums = self._common_input(elems)
        commons = self._common_divisors(nums)
        for d in commons:
            if all(self.member_num(d - d2) for d2 in commons):
                return self.elem_of_num(d)
        return None

    def _common_input(self, elems):
        elems = list(elems)
        if not elems:
            raise UsageError("common divisors of an empty list")
        return [self.num_of(self.elem(e)) for e in elems]

    def _common_divisors(self, nums):
        mn = min(nums)
        return [
            d
            for d in range(mn + 1)
            if self.member_num(d) and all(self.member_num(x - d) for x in nums)
        ]

    def length(self, m) -> int:
        """Greatest factorization length of m; superadditive and 0 only at 0."""
        n = self.num_of(self.elem(m))
        best = [None] * (n + 1)
        best[0] = 0
        mins = sorted(self.min_gens)
        for i in range(1, n + 1):
            if not self.member_num(i):
                continue
            cands = [best[i - g] for g in mins if g <= i and best[i - g] is not None]
            best[i] = max(cands) + 1
        return best[n]


def make_monoid(rational_gens) -> ExpMonoid:
    """Normalize rational generators into an ExpMonoid.

    The denominator is the least common denominator of the reduced input
    fractions; generators are stored scaled by it.
    """
    gens = list(rational_gens)
    if not gens:
        raise UsageError("a monoid needs at least one generator")
    fracs = []
    for q in gens:
        q = Fraction(q)
        if q <= 0:
            raise UsageError(f"generators must be positive, got {q}")
        fracs.append(q)
    denom = lcm(*(q.denominator for q in fracs))
    return ExpMonoid(denom, frozenset(int(q * denom) for q in fracs))


def nat_monoid() -> ExpMonoid:
    return make_monoid([1])


def monoid_from_literal(text: str) -> ExpMonoid:
    """Parse "nat" or "gens:q1,q2,..." into an ExpMonoid."""
    if text == "nat":
        return nat_monoid()
    if text.startswith("gens:"):
        body = text[5:]
        try:
            fracs = [Fraction(part) for part in body.split(",") if part != ""]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad generator list in {text!r}") from None
        if not fracs:
            raise UsageError(f"empty generator list in {text!r}")
        return make_monoid(fracs)
    raise UsageError(f"unknown monoid literal {text!r} (want nat or gens:q1,q2,...)")
