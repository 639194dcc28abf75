"""Finitely generated additive submonoids of the nonnegative rationals.

A monoid is stored scaled: with D the least common denominator of its
generators, D*M is a submonoid of the nonnegative integers and every
computation reduces to integer arithmetic.  Between parsing and rendering an
exponent is handled as its scaled numerator n = D * num / denom: ``num_of``
checks that n is an integer and a member with integers only, and
``Fraction`` appears only where the input is a rational (``num_of``,
``member``, ``make_monoid``) and in ``ExpElem.value``.  Library code calls
the numerator kernels ``_length_num`` and ``_mcd_nums``; ``length``, ``mcd``
and ``gcd`` are their boundary wrappers, which take members as ``ExpElem``
or rationals and return ``ExpElem``.

Membership reads the Apery table: the least member of each residue class
modulo the smallest generator a, built at construction one generator at a
time.  The greatest factorization length L comes from one search per
class: a sum r of k generators has w = r - a*k, and each member n >= r of
its class has a factorization of length (n - w)/a.  Run at the first
``length`` call, the search gives each class's staircase of pairs no other
beats in both r and w, and L(n) exactly for every n.  ``polyexpr`` reads
the ``gens:`` literal.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, inf, lcm

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

    def __str__(self):
        return str(self.num) if self.denom == 1 else f"{self.num}/{self.denom}"


def _staircase(a: int, gens, budget: int):
    """Iterator, by ascending r, over the pairs (r, w) with r a sum of
    ``gens`` and w = r - a * (number of parts) that no pair of the same
    class mod a matches or beats in both: w descends within a class.  A
    heap settles pairs by r (the shortest-path view of Boecker and Liptak,
    Algorithmica 48, 2007); a popped pair is kept when its w is below its
    class's last kept w, and only kept pairs are extended, since one
    beating a prefix of a sum beats the sum.  ``budget`` counts the a
    classes before the table is allocated, then every kept pair.
    """
    if a > budget:
        raise BudgetError(f"length table needs {a} residue classes, over the budget of {budget}")
    steps = [(g, g - a) for g in gens if g != a]

    def settle():
        bar = [inf] * a  # w of the last pair kept in each class
        kept = 0
        heap = [(0, 0)]
        while heap:
            pair = r, w = heapq.heappop(heap)
            if w >= bar[r % a]:
                continue
            kept += 1
            if kept > budget:
                raise BudgetError(f"length table exceeded the budget of {budget} pairs")
            bar[r % a] = w
            yield pair
            for g, dw in steps:
                if w + dw < bar[(r + g) % a]:
                    heapq.heappush(heap, (r + g, w + dw))

    return settle()


def _with_gen(least, g):
    """The least sums per class mod a = len(least) (inf for none) once g
    joins the generators: each cycle c, c + g, c + 2g, ... of classes mod a
    is walked once round from its least entry, which nothing improves (the
    round-robin step of Boecker and Liptak, Algorithmica 48, 2007)."""
    a = len(least)
    out = list(least)
    d = gcd(a, g)
    for start in range(d):
        c = min(range(start, a, d), key=out.__getitem__)
        r = out[c]  # the least sum of the class last walked
        for _ in range(a // d - 1):
            c = (c + g) % a
            r += g
            if out[c] < r:
                r = out[c]
            else:
                out[c] = r
    return out


class ExpMonoid:
    """A reduced, finitely generated submonoid of (Q>=0, +)."""

    __slots__ = (
        "denom", "gens", "min_gens", "_amin", "_apery", "_window", "_stairs", "_suffix", "_hash"
    )

    def __init__(self, denom: int, gens):
        gens = frozenset(gens)
        if denom < 1 or not gens or any(not isinstance(g, int) or g <= 0 for g in gens):
            raise UsageError("monoid needs a positive denominator and positive integer generators")
        self.denom = denom
        self.gens = gens
        self._amin = a = min(gens)
        budget = DEFAULT_BUDGETS.knapsack_nodes
        if a > budget:
            raise BudgetError(f"Apery table needs {a} residue classes, over the budget of {budget}")
        # the least sums of the generators so far, ascending: g is an atom
        # exactly when they do not reach it, since a sum of two or more
        # generators equal to g has only smaller parts
        least = [0] + [inf] * (a - 1)
        atoms = [a]
        for g in sorted(gens)[1:]:
            if g < least[g % a]:
                atoms.append(g)
                least = _with_gen(least, g)
        self.min_gens = frozenset(atoms)
        self._hash = hash((denom, self.min_gens))
        self._apery = [None if r == inf else r for r in least]
        self._window = a + max(r for r in least if r != inf)  # see _mcd_nums
        self._stairs = None  # built by the first length() call
        self._suffix = None  # built by the first factorizations() call that prunes

    def __eq__(self, other):
        if not isinstance(other, ExpMonoid):
            return NotImplemented
        return self.denom == other.denom and self.min_gens == other.min_gens

    def __hash__(self):
        return self._hash

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

        These are the count vectors with c_1*g_1 + ... + c_k*g_k = D*m.  On
        an explicit stack every atom g but the smallest, largest first, takes
        each count from 0 to rem // g, rem what the larger atoms leave; an
        entry with count c pushes the same atom's count c + 1 beside it, so
        the stack holds at most two entries per atom.  The smallest atom a
        closes a factorization when it divides rem.  For each suffix of the
        atoms, a table of its least sum in each class mod a (its Apery
        table) prunes the search: a next count is pushed only when the atom
        and the smaller ones can still sum to the rem it leaves, and above
        the last atom before a, a count the smaller atoms cannot complete is
        passed over untried.  Every count tried and every atom listed counts
        against ``node_budget``, checked before the list is built: 6 in
        <2,3> tries the counts 0, 1, 2 of 3 and lists (2, 2, 2) and (3, 3),
        8 nodes in all.  The k tables of a classes, k the number of atoms
        but a, are built once per monoid, by k round-robin steps; when k*a
        is over ``node_budget`` the search runs without them, and prunes
        nothing.
        """
        *others, a = sorted(self.min_gens, reverse=True)
        k = len(others)
        elems = [self.elem_of_num(g) for g in (a, *reversed(others))]
        # least[i][c % mod]: the least sum of others[i:] and a in the class c
        # mod a; modulo 1, every class reaches 0
        least, mod = [[0]] * (k + 1), 1
        if k * a <= node_budget:
            if self._suffix is None:
                tables = [[0] + [inf] * (a - 1)]
                for g in reversed(others):
                    tables.append(_with_gen(tables[-1], g))
                self._suffix = tables[::-1]
            least, mod = self._suffix, a
        out = []
        nodes = 0
        todo = [(self.num_of(m), ())]  # (rem, the counts of others[:len(counts)])
        while todo:
            rem, counts = todo.pop()
            i = len(counts)
            # a count of the last of others is always tried; above it, a
            # count with no factorization below it is passed over untried,
            # on to the same atom's next count (at most a of them in a row,
            # since the classes of rem repeat)
            tried = i == k or rem >= least[i][rem % mod]
            if i:  # the same atom's next count, while others[i - 1:] reach rem
                nxt = rem - others[i - 1]
                if nxt >= least[i - 1][nxt % mod]:
                    todo.append((nxt, (*counts[:-1], counts[-1] + 1)))
            if not tried:
                continue
            closes = i == k and rem % a == 0
            # the count tried here, then the atoms about to be listed
            nodes += (i > 0) + (rem // a + sum(counts) if closes else 0)
            if nodes > node_budget:
                raise BudgetError(f"factorization search exceeded {node_budget} nodes")
            if i < k:
                todo.append((rem, (*counts, 0)))
            elif closes:
                counts = (rem // a, *reversed(counts))
                out.append(tuple(chain.from_iterable(map(repeat, elems, counts))))
        return frozenset(out)

    def mcd(self, elems, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes) -> frozenset[ExpElem]:
        """All divisibility-maximal common divisors of a nonempty collection:
        the boundary wrapper of ``_mcd_nums``."""
        nums = self._mcd_nums([self.num_of(e) for e in elems], node_budget)
        return frozenset(map(self.elem_of_num, nums))

    def _mcd_nums(self, nums, node_budget: int) -> list[int]:
        """``mcd`` of members given as scaled numerators, as scaled numerators.

        A common divisor d is maximal exactly when no d + g, g an atom, is
        one: if a common divisor d' has d' - d a nonzero member, then for an
        atom g in a factorization of d' - d, d + g divides d' and so is a
        common divisor too.  Only the window of the top a + W candidates
        (``_window``), min(nums) - a - W < d <= min(nums), is scanned, a the
        smallest atom and W the largest Apery value: below it, each
        x - d - a is at least W and in the class of the member x - d, hence
        a member, so d + a is a common divisor and d is not maximal.  All min(nums) + 1 candidates
        still count against ``node_budget``, which overstates the work.
        """
        if not nums:
            raise UsageError("common divisors of an empty list")
        candidates = min(nums) + 1
        if candidates > node_budget:
            raise BudgetError(
                f"common-divisor search needs {candidates} candidates, "
                f"over the budget of {node_budget}"
            )
        commons = {
            d
            for d in range(max(candidates - self._window, 0), candidates)
            if self.member_num(d) and all(self.member_num(x - d) for x in nums)
        }
        return [d for d in commons if not any(d + g in commons for g in self.min_gens)]

    def gcd(self, elems, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes):
        """The common divisor divisible by all others, when one exists.

        The common divisors are finite, so every one lies below a maximal
        one; the gcd exists exactly when there is a single maximal one.
        """
        maximal = self.mcd(elems, node_budget)
        return next(iter(maximal)) if len(maximal) == 1 else None

    def length(self, m, node_budget: int = DEFAULT_BUDGETS.knapsack_nodes) -> int:
        """Greatest factorization length of m; superadditive and 0 only at 0.

        With a the smallest atom, L(n) = (n - w)/a for n = D*m and (r, w)
        the last pair with r <= n of n's class staircase.  The staircases are
        built at the first call, their a classes and then their pairs counted
        against ``node_budget``.
        """
        return self._length_num(self.num_of(m), node_budget)

    def _length_num(self, n: int, node_budget: int) -> int:
        """``length`` of the member with scaled numerator n."""
        a = self._amin
        if self._stairs is None:
            pairs = _staircase(a, self.min_gens, node_budget)
            stairs = [[] for _ in range(a)]
            for pair in pairs:
                stairs[pair[0] % a].append(pair)
            self._stairs = stairs
        # n is a member, so the first pair of its class has r <= n, and w <= r
        stair = self._stairs[n % a]
        return (n - stair[bisect_right(stair, (n, n)) - 1][1]) // a


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
