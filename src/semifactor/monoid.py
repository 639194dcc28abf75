"""Finitely generated additive submonoids of the nonnegative rationals.

A monoid is stored scaled: with D the least common denominator of its
generators, D*M is a submonoid of the nonnegative integers and every
computation reduces to integer arithmetic.  Between parsing and rendering an
exponent is handled as its scaled numerator n = D * num / denom: ``num_of``
checks that n is an integer and a member with integers only, and
``Fraction`` appears only where the input is a rational (``num_of``,
``member``, ``make_monoid``) and in ``ExpElem.value``.  Membership is
answered in O(1) from the Apery table of D*M (least member in each residue
class modulo the smallest generator a), built once at construction with a
Dijkstra sweep.  Both tables have one entry per class, so a is checked
against the default knapsack budget before either is allocated.

The greatest factorization length is answered in O(1) from a second table
with one entry per residue class mod a, built by the same sweep at the
first ``length`` call.  A factorization of n whose parts other than a are
g_1, ..., g_k has length (n - w)/a with w = sum(g_i - a), so the longest
one minimizes w.  For each class the table keeps the lexicographically
least pair (w, r) over the sums r of the other minimal generators in that
class; then L(n) = (n - w)/a exactly when n >= r.  Below that threshold
(r <= (a - 1) * max generator, independent of n) a DP up to n answers,
its n + 1 cells counted against a node budget.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DEFAULT_BUDGETS, BudgetError, DomainError, UsageError


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


def _least_sums(a: int, steps, table: str) -> list:
    """Least sum of a multiset of ``steps`` in each residue class mod a
    (Dijkstra over the classes); None = no sum lies in that class.  The a
    classes are checked against the default knapsack budget before the
    ``table`` is allocated."""
    budget = DEFAULT_BUDGETS.knapsack_nodes
    if a > budget:
        raise BudgetError(
            f"{table} table needs {a} residue classes, over the budget of {budget}"
        )
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] != d:
            continue
        for g in steps:
            nd = d + g
            nr = nd % a
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def _apery_table(gens: tuple[int, ...]) -> tuple[int, list]:
    """Least monoid element in each residue class mod min(gens); None = empty class."""
    a = min(gens)
    return a, _least_sums(a, gens, "Apery")


def _length_table(gens: tuple[int, ...]) -> list:
    """Per residue class mod a = min(gens): the lexicographically least
    (w, r) over sums r of the other generators in that class, where
    w = sum(g - a); None = no such sum.

    The pair is packed as w*K + r with K a multiple of a above every r the
    sweep compares (a settled sum has at most a - 1 parts, and the sweep
    looks one part further), so each packed step is congruent to its
    generator, packed sums order lexicographically, and one sweep of
    ``_least_sums`` builds the table.
    """
    a = min(gens)
    K = 2 * a * max(gens)
    packed = _least_sums(a, [(g - a) * K + g for g in gens if g != a], "length")
    return [None if p is None else divmod(p, K) for p in packed]


class ExpMonoid:
    """A reduced, finitely generated submonoid of (Q>=0, +)."""

    __slots__ = ("denom", "gens", "min_gens", "_amin", "_apery", "_lengths")

    def __init__(self, denom: int, gens):
        gens = frozenset(gens)
        if denom < 1 or not gens or any(not isinstance(g, int) or g <= 0 for g in gens):
            raise UsageError("monoid needs a positive denominator and positive integer generators")
        self.denom = denom
        self.gens = gens
        self._amin, self._apery = _apery_table(tuple(gens))
        # g is an atom exactly when no smaller generator h leaves a member
        # g - h: a sum of two or more generators equal to g has only smaller parts
        self.min_gens = frozenset(
            g for g in gens if not any(h < g and self.member_num(g - h) for h in gens)
        )
        self._lengths = None  # built by the first length() call

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
        if n < 0:
            return False
        least = self._apery[n % self._amin]
        return least is not None and n >= least

    def member(self, q) -> bool:
        q = Fraction(q)
        if q < 0:
            raise DomainError(f"membership is only defined for nonnegative rationals, got {q}")
        return self._scale(q.numerator, q.denominator) is not None

    def _scale(self, num: int, denom: int):
        """Scaled numerator D * num/denom of a member, the fraction in any
        form; None when it is not a member."""
        n, rest = divmod(num * self.denom, denom)
        return None if rest or not self.member_num(n) else n

    # element handling ---------------------------------------------------

    def elem(self, q) -> ExpElem:
        return self.elem_of_num(self.num_of(q))

    def elem_of_num(self, n: int) -> ExpElem:
        g = gcd(n, self.denom)
        return ExpElem(n // g, self.denom // g)

    def num_of(self, q) -> int:
        """Scaled numerator of a member given as an ExpElem or a rational;
        DomainError when D * q is not an integer or not a member."""
        if not isinstance(q, ExpElem):
            q = ExpElem(*Fraction(q).as_integer_ratio())
        n = self._scale(q.num, q.denom)
        if n is None:
            raise DomainError(f"{q} is not a member of {self.literal()}")
        return n

    # structure ----------------------------------------------------------

    def atoms(self) -> frozenset[ExpElem]:
        return frozenset(self.elem_of_num(g) for g in self.min_gens)

    def divides(self, a: ExpElem, b: ExpElem) -> bool:
        """Additive divisibility: b - a is a member."""
        return self.member_num(self.num_of(b) - self.num_of(a))

    def factorizations(self, m, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes):
        """All multisets of atoms summing to m, as ascending tuples of ExpElem.

        Depth-first over atoms in descending order with an explicit stack;
        every visited node counts against ``node_budget``.  A node keeps its
        chosen atoms as a linked list (atom, parent list), smallest first.
        """
        n = self.num_of(m)
        atoms_desc = sorted(self.min_gens, reverse=True)
        member = self.member_num
        results = []
        nodes = 0
        todo = [(n, 0, None)]
        while todo:
            rem, start, chosen = todo.pop()
            nodes += 1
            if nodes > node_budget:
                raise BudgetError(f"factorization search exceeded {node_budget} nodes")
            if rem == 0:
                results.append(chosen)
                continue
            for j in range(start, len(atoms_desc)):
                g = atoms_desc[j]
                if g <= rem and member(rem - g):
                    todo.append((rem - g, j, (g, chosen)))
        elems = {g: self.elem_of_num(g) for g in atoms_desc}
        out = set()
        for chosen in results:
            fac = []
            while chosen is not None:
                g, chosen = chosen
                fac.append(elems[g])
            out.add(tuple(fac))
        return frozenset(out)

    def mcd(self, elems, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes) -> frozenset[ExpElem]:
        """All divisibility-maximal common divisors of a nonempty collection.

        A common divisor d is maximal exactly when no d + g, g an atom, is
        one: if a common divisor d' has d' - d a nonzero member, then for an
        atom g in a factorization of d' - d, d + g divides d' and so is a
        common divisor too.
        """
        commons = self._common_divisors(self._common_input(elems), node_budget)
        maximal = [d for d in commons if not any(d + g in commons for g in self.min_gens)]
        return frozenset(self.elem_of_num(d) for d in maximal)

    def gcd(self, elems, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes):
        """The common divisor divisible by all others, when one exists.

        The common divisors are finite, so every one lies below a maximal
        one; the gcd exists exactly when there is a single maximal one.
        """
        maximal = self.mcd(elems, node_budget)
        return next(iter(maximal)) if len(maximal) == 1 else None

    def _common_input(self, elems):
        elems = list(elems)
        if not elems:
            raise UsageError("common divisors of an empty list")
        return [self.num_of(e) for e in elems]

    def _common_divisors(self, nums, node_budget) -> set:
        candidates = min(nums) + 1
        if candidates > node_budget:
            raise BudgetError(
                f"common-divisor search needs {candidates} candidates, "
                f"over the budget of {node_budget}"
            )
        return {
            d
            for d in range(candidates)
            if self.member_num(d) and all(self.member_num(x - d) for x in nums)
        }

    def length(self, m, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes) -> int:
        """Greatest factorization length of m; superadditive and 0 only at 0.

        With a the smallest atom and (w, r) the length-table entry of the
        class of n = D*m mod a, L(n) = (n - w)/a once n >= r; below r a DP
        over 0..n answers (r, and so the DP, is bounded by the generators).
        The DP's n + 1 cells count against ``node_budget`` before any is
        allocated.
        """
        return self._length_num(self.num_of(m), node_budget)

    def _length_num(self, n: int, node_budget: int) -> int:
        """``length`` of the member with scaled numerator n."""
        if self._lengths is None:
            self._lengths = _length_table(tuple(sorted(self.min_gens)))
        # n is a member, so its class holds a sum of the other atoms
        w, r = self._lengths[n % self._amin]
        if n >= r:
            return (n - w) // self._amin
        if n + 1 > node_budget:
            raise BudgetError(f"length DP needs {n + 1} cells, over the budget of {node_budget}")
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
