import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

import semifactor as sf
from semifactor import monoid
from semifactor.errors import BudgetError, DomainError, UsageError


def brute_factorizations(gens, target):
    """Independent enumeration: plain recursion over sorted generators,
    no membership pruning, no shared code with the library."""
    gens = sorted(gens)
    out = set()

    def rec(rest, lo, acc):
        if rest == 0:
            out.add(tuple(acc))
            return
        for g in gens:
            if g < lo or g > rest:
                continue
            rec(rest - g, g, acc + [g])

    rec(target, 0, [])
    return out


def coin_change_counts(atoms, limit):
    """Reference: the number of multisets of ``atoms`` summing to each
    n <= limit, by the coin-change DP (one atom at a time)."""
    ways = [1] + [0] * limit
    for g in atoms:
        for n in range(g, limit + 1):
            ways[n] += ways[n - g]
    return ways


def dp_max_lengths(atoms, limit):
    """Reference: greatest factorization length of every n <= limit by a DP
    over the atoms, None where n is not a sum of them."""
    best = [None] * (limit + 1)
    best[0] = 0
    for i in range(1, limit + 1):
        cands = [best[i - g] for g in atoms if g <= i and best[i - g] is not None]
        if cands:
            best[i] = max(cands) + 1
    return best


class TestMakeMonoid:
    def test_nat(self):
        m = sf.make_monoid([1])
        assert m.denom == 1 and m.gens == {1} and m.min_gens == {1}
        assert m.literal() == "nat"

    def test_two_three(self):
        m = sf.make_monoid([2, 3])
        assert m.denom == 1 and m.min_gens == {2, 3}

    def test_halves(self):
        m = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        assert m.denom == 4 and m.gens == {2, 3}

    def test_redundant_generator_dropped(self):
        m = sf.make_monoid([2, 3, 7])
        assert m.min_gens == {2, 3}

    def test_bad_input(self):
        with pytest.raises(UsageError):
            sf.make_monoid([])
        with pytest.raises(UsageError):
            sf.make_monoid([0])
        with pytest.raises(UsageError):
            sf.make_monoid([Fraction(-1, 2)])

    def test_equality_uses_minimal_presentation(self):
        assert sf.make_monoid([2, 3, 7]) == sf.make_monoid([3, 2])
        assert sf.make_monoid([1]) != sf.make_monoid([2, 3])

    def test_equality_with_a_non_monoid(self):
        assert sf.nat_monoid().__eq__("nat") is NotImplemented
        assert sf.nat_monoid() != "nat"

    def test_literal_round_trip(self):
        for gens in ([1], [2, 3], [Fraction(1, 2), Fraction(3, 4)]):
            m = sf.make_monoid(gens)
            assert sf.monoid_from_literal(m.literal()) == m


class TestMembership:
    def test_examples(self):
        m23 = sf.make_monoid([2, 3])
        assert not m23.member(1)
        assert m23.member(7)
        halves = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        assert halves.member(Fraction(5, 4))
        assert not halves.member(Fraction(1, 4))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sf.make_monoid([2, 3]).member(-1)

    def test_consistent_with_divides(self):
        m = sf.make_monoid([2, 3])
        for a in range(0, 30):
            if not m.member_num(a):
                continue
            ea = m.elem(a)
            for b in range(a, 30):
                if not m.member_num(b):
                    continue
                assert m.divides(ea, m.elem(b)) == m.member(b - a)

    def test_identity_divides_everything(self):
        m = sf.make_monoid([2, 3])
        zero = m.elem(0)
        for n in (0, 2, 3, 12):
            assert m.divides(zero, m.elem(n))

    def test_two_divides_five_not_three(self):
        m = sf.make_monoid([2, 3])
        assert m.divides(m.elem(2), m.elem(5))
        assert not m.divides(m.elem(2), m.elem(3))

    def test_against_direct_dp(self):
        # cross-check the Apery-based membership with a plain DP
        for gens in ([2, 3], [4, 6], [3, 5, 7], [6, 10, 15]):
            m = sf.make_monoid(gens)
            limit = 120
            reachable = [False] * (limit + 1)
            reachable[0] = True
            for n in range(1, limit + 1):
                reachable[n] = any(n >= g and reachable[n - g] for g in gens)
            for n in range(limit + 1):
                assert m.member_num(n) == reachable[n], (gens, n)


class TestAtoms:
    def test_examples(self):
        assert {a.value for a in sf.nat_monoid().atoms()} == {1}
        assert {a.value for a in sf.make_monoid([2, 3]).atoms()} == {2, 3}
        halves = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        assert {a.value for a in halves.atoms()} == {Fraction(1, 2), Fraction(3, 4)}

    def test_atoms_are_the_singleton_factorization_elements(self):
        m = sf.make_monoid([2, 3])
        atom_values = {a.value for a in m.atoms()}
        for n in range(1, 20):
            if not m.member_num(n):
                continue
            zs = m.factorizations(n)
            is_atom = zs == frozenset({(m.elem(n),)})
            assert is_atom == (n in atom_values)


class TestFactorizations:
    def test_six_two_ways(self):
        m = sf.make_monoid([2, 3])
        zs = m.factorizations(6)
        assert {tuple(e.value for e in z) for z in zs} == {(2, 2, 2), (3, 3)}

    def test_atom_single(self):
        m = sf.make_monoid([2, 3])
        assert {tuple(e.value for e in z) for z in m.factorizations(2)} == {(2,)}

    def test_zero_empty_multiset(self):
        m = sf.make_monoid([2, 3])
        assert m.factorizations(0) == frozenset({()})

    def test_scaled_copy(self):
        halves = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        zs = halves.factorizations(Fraction(3, 2))
        assert {tuple(e.value for e in z) for z in zs} == {
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
            (Fraction(3, 4), Fraction(3, 4)),
        }

    def test_non_member_rejected(self):
        with pytest.raises(DomainError):
            sf.make_monoid([2, 3]).factorizations(1)

    def test_budget(self):
        m = sf.make_monoid([1])
        with pytest.raises(BudgetError):
            m.factorizations(50, node_budget=10)

    def test_budget_counts_every_node(self):
        # 6 in <2,3>: the counts 0, 1, 2 of atom 3, then the atoms of
        # (2, 2, 2) and (3, 3) -> eight nodes
        m = sf.make_monoid([2, 3])
        assert len(m.factorizations(6, node_budget=8)) == 2
        with pytest.raises(BudgetError):
            m.factorizations(6, node_budget=7)

    @pytest.mark.parametrize(
        "gens",
        [[5, 7, 11], [6, 9, 20], [4, 7, 10], [7, 8, 13], [Fraction(1, 2), Fraction(3, 4)]],
    )
    def test_counts_match_coin_change(self, gens):
        m = sf.make_monoid(gens)
        atom_nums = sorted(m.min_gens)
        ways = coin_change_counts(atom_nums, 220 * m.denom)
        for q in range(120, 221):
            if m.member(q):
                assert len(m.factorizations(q)) == ways[q * m.denom], (gens, q)

    def test_refused_before_any_list(self):
        # the first count vector tried, 5 * 10^11 atoms 2, is over the
        # budget before its list is built
        m = sf.make_monoid([2, 3])
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="exceeded 10 nodes"):
            m.factorizations(10**12, node_budget=10)
        assert time.perf_counter() - start < 0.5

    def test_dead_counts_are_skipped(self):
        # 107 over <7, ..., 13> has 1 257 factorizations, listed within
        # 20 000 nodes once no count of the larger atoms that the smaller
        # ones cannot complete is tried
        m = sf.make_monoid(list(range(7, 14)))
        zs = m.factorizations(107, node_budget=20000)
        assert len(zs) == coin_change_counts(range(7, 14), 107)[107] == 1257
        assert all(sum(e.num for e in z) == 107 for z in zs)

    def test_tables_within_the_budget(self):
        # <7, ..., 13> has 6 tables of 7 classes: within a budget of 41 the
        # search runs without them, and 20 needs more nodes than that
        m = sf.make_monoid(list(range(7, 14)))
        zs = m.factorizations(19, node_budget=41)
        assert {tuple(e.num for e in z) for z in zs} == brute_factorizations(range(7, 14), 19)
        with pytest.raises(BudgetError):
            m.factorizations(20, node_budget=41)
        assert m._suffix is None
        zs = m.factorizations(20, node_budget=42)
        assert {tuple(e.num for e in z) for z in zs} == brute_factorizations(range(7, 14), 20)
        assert len(m._suffix) == 7

    def test_large_smallest_atom_answers_at_once(self):
        # 2 tables of 999 983 classes are over the default budget, so a query
        # costs only its own nodes, as does one refused by a budget of 10
        m = sf.make_monoid([999983, 999984, 1999999])
        start = time.perf_counter()
        assert len(m.factorizations(3999966)) == 1
        assert len(m.factorizations(1999967, node_budget=10)) == 1
        with pytest.raises(BudgetError):
            m.factorizations(999983 * 999984, node_budget=10)
        assert time.perf_counter() - start < 0.5
        assert m._suffix is None

    @pytest.mark.parametrize("gens", [[7, 8, 9, 10, 11, 12, 13], [5, 9, 11, 13], [6, 10, 15]])
    def test_pruned_search_lists_every_factorization(self, gens):
        # at the default budget, every member up to 80 against brute force
        m = sf.make_monoid(gens)
        for n in range(81):
            if m.member_num(n):
                got = {tuple(e.num for e in z) for z in m.factorizations(n)}
                assert got == brute_factorizations(gens, n), (gens, n)

    @pytest.mark.parametrize("gens", [[1], [2, 3], [3, 5, 7], [4, 6, 9]])
    def test_exhaustive_cross_check(self, gens):
        m = sf.make_monoid(gens)
        atom_nums = sorted(m.min_gens)
        for n in range(0, 61):
            if not m.member_num(n):
                continue
            got = {tuple(int(e.value * m.denom) for e in z) for z in m.factorizations(n)}
            assert got == brute_factorizations(atom_nums, n), (gens, n)


class TestMcdGcd:
    def test_atom_pair(self):
        m = sf.make_monoid([2, 3])
        assert {e.value for e in m.mcd([2, 3])} == {0}
        assert m.gcd([2, 3]).value == 0

    def test_four_six(self):
        m = sf.make_monoid([2, 3])
        assert {e.value for e in m.mcd([4, 6])} == {4}
        assert m.gcd([4, 6]).value == 4

    def test_singleton(self):
        m = sf.make_monoid([2, 3])
        assert {e.value for e in m.mcd([5])} == {5}
        assert m.gcd([5]).value == 5

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            sf.make_monoid([2, 3]).mcd([])

    @pytest.mark.parametrize("gens", [[2, 3], [3, 5, 7], [4, 6], [5, 6, 13], [6, 9, 20]])
    def test_against_definition(self, gens):
        # mcd: common divisors with no other common divisor above them;
        # gcd: the common divisor above all others, checked pairwise
        m = sf.make_monoid(gens)
        members = [n for n in range(0, 41) if m.member_num(n)]
        for pair in itertools.combinations(members, 2):
            commons = [d for d in members if all(m.member_num(x - d) for x in pair)]
            above = {d: [d2 for d2 in commons if m.member_num(d2 - d)] for d in commons}
            maximal = {d for d in commons if above[d] == [d]}
            greatest = [d for d in commons if all(m.member_num(d - d2) for d2 in commons)]
            assert {e.num for e in m.mcd(pair)} == maximal, (gens, pair)
            g = m.gcd(pair)
            assert (None if g is None else g.num) == (greatest[0] if greatest else None)

    def test_budget_counts_candidates(self):
        # min(4, 6) + 1 = 5 candidate divisors 0..4
        m = sf.make_monoid([2, 3])
        assert m.gcd([4, 6], node_budget=5).value == 4
        assert {e.value for e in m.mcd([4, 6], node_budget=5)} == {4}
        for op in (m.mcd, m.gcd):
            with pytest.raises(BudgetError):
                op([4, 6], node_budget=4)

    def test_default_budget_stops_huge_inputs(self):
        with pytest.raises(BudgetError):
            sf.make_monoid([2, 3]).mcd([10**8, 10**8 + 1])

    def test_maximality_property(self):
        m = sf.make_monoid([3, 5, 7])
        for pair in itertools.combinations([3, 5, 6, 7, 8, 10, 12, 14, 15], 2):
            if not all(m.member_num(x) for x in pair):
                continue
            elems = [m.elem(x) for x in pair]
            mcds = m.mcd(elems)
            assert mcds
            for d in mcds:
                assert all(m.divides(d, e) for e in elems)
                for d2num in range(0, min(pair) + 1):
                    if not m.member_num(d2num):
                        continue
                    d2 = m.elem(d2num)
                    if all(m.divides(d2, e) for e in elems) and m.divides(d, d2):
                        assert d2 == d


class TestLength:
    def test_examples(self):
        assert sf.nat_monoid().length(5) == 5
        assert sf.make_monoid([2, 3]).length(6) == 3
        assert sf.make_monoid([2, 3]).length(0) == 0

    def test_non_member_rejected(self):
        with pytest.raises(DomainError):
            sf.make_monoid([2, 3]).length(1)

    def test_matches_max_factorization_length(self):
        m = sf.make_monoid([3, 5, 7])
        for n in range(0, 40):
            if not m.member_num(n):
                continue
            zs = m.factorizations(n)
            expected = max((len(z) for z in zs), default=0)
            assert m.length(n) == expected

    def test_superadditive_all_small_pairs(self):
        m = sf.make_monoid([2, 3])
        members = [n for n in range(0, 61) if m.member_num(n)]
        for a in members:
            for b in members:
                if a + b > 60:
                    continue
                assert m.length(a + b) >= m.length(a) + m.length(b)
                assert (m.length(a) == 0) == (a == 0)


class TestLengthTable:
    FIXED = [
        [4, 6],
        [Fraction(1, 2), Fraction(3, 4)],
        [6, 9, 20],
        [5, 6, 13],  # class 3 steps down at 18 = 6+6+6, past 13
        [1],
        [7],
        # the other lenfn monoids of the cli-mixed benchmark, a geometric
        # truncation <(3/2)^n : n <= 6> scaled by 64, and a large first atom
        [5, 7, 11],
        [4, 7, 10],
        [7, 8, 13],
        [64, 96, 144, 216, 324, 486, 729],
        [500, 501, 999],
    ]

    def monoids(self):
        rng = random.Random(20240501)
        for gens in self.FIXED:
            yield sf.make_monoid(gens)
        for _ in range(80):
            yield sf.make_monoid([rng.randint(1, 25) for _ in range(rng.randint(1, 4))])

    def test_matches_dp_on_both_sides_of_each_threshold(self):
        # every staircase pair (r, w) is a threshold of its class: each member
        # n >= r has a factorization of length (n - w)/a, the last pair with
        # r <= n gives the longest, and a pair with r > n would overstate it
        limit = 600
        above = 0
        for m in self.monoids():
            a = min(m.min_gens)
            best = dp_max_lengths(sorted(m.min_gens), limit)
            for n in range(limit + 1):
                assert m.member_num(n) == (best[n] is not None), (m, n)
                if best[n] is None:
                    continue
                assert m.length(Fraction(n, m.denom)) == best[n], (m, n)
                stair = m._stairs[n % a]
                reached = [w for r, w in stair if r <= n]
                assert a * best[n] == n - reached[-1], (m, n)
                for r, w in stair:
                    if r > n:
                        above += 1
                        assert a * best[n] < n - w, (m, n)
            for c, stair in enumerate(m._stairs):
                rs, ws = [r for r, _ in stair], [w for _, w in stair]
                assert rs == sorted(set(rs)) and ws == sorted(set(ws), reverse=True), (m, c)
                assert (rs[0] if rs else None) == m._apery[c], (m, c)
                assert all(r % a == c and (r - w) % a == 0 and 0 <= w <= r for r, w in stair)
        assert above > 0

    def test_table_is_built_at_the_first_length_call(self):
        m = sf.make_monoid([6, 9, 20])
        assert m._stairs is None
        m.member(7)
        m.factorizations(12)
        assert m._stairs is None
        assert m.length(20) == 1
        # classes mod 6: 0 empty, 9+20+20, 20, 9, 20+20, 9+20, one pair each
        assert m._stairs == [[(0, 0)], [(49, 31)], [(20, 14)], [(9, 3)], [(40, 28)], [(29, 17)]]
        m = sf.make_monoid([5, 6, 13])
        assert m.length(13) == 1 and m.length(18) == 3
        # class 3 mod 5: 13 in one part, then 6+6+6 in three
        assert m._stairs[3] == [(13, 8), (18, 3)]

    def test_large_first_atom_answers_at_once(self):
        m = sf.make_monoid([500, 501, 999])
        start = time.perf_counter()
        assert m.length(248998) == 496
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize(
        "gens, n, expected",
        [
            ([1], 5_000_000, 5_000_000),
            ([6, 9, 20], 5_000_000, 833_331),
            ([2, 3], 10**30, 5 * 10**29),
        ],
    )
    def test_large_members(self, gens, n, expected):
        assert sf.make_monoid(gens).length(n) == expected


class TestIntegerEntryPoints:
    """num_of, length, divides and elem on ExpElem inputs against a reference
    that scales by D with Fraction and decides membership by its own DP."""

    GENS = [[1], [Fraction(1, 2), Fraction(3, 4)], [6, 9, 20], [Fraction(2, 3), Fraction(5, 6)]]
    LIMIT = 40 * 6  # num < 40 and D <= 6 bound every scaled numerator

    def elems(self):
        for num in range(-3, 40):
            for den in range(1, 13):
                if gcd(num, den) == 1:
                    yield sf.ExpElem(num, den)

    @pytest.mark.parametrize("gens", GENS)
    def test_against_fraction_reference(self, gens):
        m = sf.make_monoid(gens)
        best = dp_max_lengths(sorted(m.min_gens), self.LIMIT)
        members = []
        for e in self.elems():
            q = Fraction(e.num, e.denom)
            scaled = q * m.denom
            n = scaled.numerator
            if scaled.denominator == 1 and 0 <= n <= self.LIMIT and best[n] is not None:
                assert m.num_of(e) == n
                assert m.elem(e) == e
                assert m.length(e) == best[n]
                members.append((e, n))
            else:
                msg = f"{q} is not a member of {m.literal()}"
                for call in (m.num_of, m.elem, m.length):
                    with pytest.raises(DomainError) as info:
                        call(e)
                    assert str(info.value) == msg
        assert len(members) > 10
        for a, na in members[:40]:
            for b, nb in members[:40]:
                assert m.divides(a, b) == (nb >= na and best[nb - na] is not None), (a, b)

    @pytest.mark.parametrize("gens", GENS)
    def test_fraction_not_in_lowest_terms(self, gens):
        m = sf.make_monoid(gens)
        members = [m.elem_of_num(n) for n in range(60) if m.member_num(n)]
        for e in members:
            for k in (2, 3, 7):
                wide = sf.ExpElem(e.num * k, e.denom * k)
                assert m.num_of(wide) == m.num_of(e)
                assert m.length(wide) == m.length(e)
                # elem hands back the canonical element
                assert m.elem(wide) == e
                assert m.divides(wide, e) and m.divides(e, wide)
        gaps = [Fraction(n, m.denom) for n in range(60) if not m.member_num(n)]
        for q in gaps + [Fraction(1, 5 * m.denom)]:
            wide = sf.ExpElem(q.numerator * 2, q.denominator * 2)
            for call in (m.num_of, m.elem, m.length):
                with pytest.raises(DomainError) as info:
                    call(wide)
                assert str(info.value) == f"{wide} is not a member of {m.literal()}"

    def test_matches_rational_inputs(self):
        m = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        for num in range(0, 30):
            q = Fraction(num, 4)
            if not m.member(q):
                continue
            e = m.elem(q)
            assert m.length(e) == m.length(q) == m.length(str(q))
            assert m.factorizations(e) == m.factorizations(q)
            assert m.mcd([e, m.elem(Fraction(3, 2))]) == m.mcd([q, Fraction(3, 2)])


class TestTableBudgets:
    def test_table_size_checked_before_allocation(self):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="Apery table needs 20000000 residue classes"):
            sf.make_monoid([20000000, 20000001])
        assert time.perf_counter() - start < 0.5

    def test_table_at_the_budget(self):
        m = sf.make_monoid([50, 51], node_budget=50)
        assert m.member(101) and not m.member(52)
        assert m.length(101) == 2
        with pytest.raises(BudgetError, match="Apery table needs 51 residue classes"):
            sf.make_monoid([51, 52], node_budget=50)

    @pytest.mark.parametrize(
        "build",
        [
            lambda budget: sf.make_monoid([51, 52], node_budget=budget),
            lambda budget: sf.monoid_from_literal("gens:51,52", node_budget=budget),
            lambda budget: monoid.ExpMonoid(1, {51, 52}, node_budget=budget),
        ],
        ids=["make_monoid", "monoid_from_literal", "ExpMonoid"],
    )
    def test_construction_takes_the_callers_budget(self, build):
        assert build(51).min_gens == frozenset({51, 52})
        with pytest.raises(BudgetError) as info:
            build(50)
        assert str(info.value) == "Apery table needs 51 residue classes, over the budget of 50"

    def test_small_generator_needs_no_large_table(self):
        # only the smallest generator sizes a table, whatever the others are
        m = sf.make_monoid([2, 20000001])
        assert m.min_gens == frozenset({2, 20000001})
        assert m.member(20000003) and not m.member(19999999)
        # a redundant generator between the others is still dropped
        assert sf.make_monoid([2, 4, 20000001]).min_gens == frozenset({2, 20000001})

    def test_length_budget_counts_pairs(self):
        # <5,6,13> has 7 staircase pairs: 0, 6, 12, 13 and 18, 19 and 24
        assert sf.make_monoid([5, 6, 13]).length(13, node_budget=7) == 1
        m = sf.make_monoid([5, 6, 13])
        with pytest.raises(BudgetError) as info:
            m.length(13, node_budget=6)
        assert str(info.value) == "length table exceeded the budget of 6 pairs"
        # a refused table is not kept, and the next call builds it whole
        assert m._stairs is None
        assert m.length(18, node_budget=7) == 3
        assert sum(map(len, m._stairs)) == 7
        # once built, a budget below its 5 classes or 7 pairs refuses as the
        # cold build does, and keeps the table
        with pytest.raises(BudgetError) as info:
            m.length(18, node_budget=1)
        assert str(info.value) == "length table needs 5 residue classes, over the budget of 1"
        with pytest.raises(BudgetError) as info:
            m.length(18, node_budget=6)
        assert str(info.value) == "length table exceeded the budget of 6 pairs"
        assert sum(map(len, m._stairs)) == 7
        assert m.length(18, node_budget=7) == 3

    def test_length_budget_counts_classes_before_allocation(self):
        m = sf.make_monoid([500, 501, 999])
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            m.length(248998, node_budget=499)
        assert str(info.value) == "length table needs 500 residue classes, over the budget of 499"
        assert time.perf_counter() - start < 0.1
        with pytest.raises(BudgetError, match="^length table exceeded the budget of 664 pairs$"):
            m.length(248998, node_budget=664)
        assert m.length(248998, node_budget=665) == 496

    def test_warm_table_refuses_as_a_cold_one(self):
        # a refusal depends only on the input and the caller's budget, not
        # on what earlier calls left in the monoid
        m = sf.make_monoid([500, 501, 999])
        assert m.length(248998) == 496
        with pytest.raises(BudgetError) as info:
            m.length(248998, node_budget=10)
        assert str(info.value) == "length table needs 500 residue classes, over the budget of 10"
        with pytest.raises(BudgetError) as info:
            m.length(248998, node_budget=664)
        assert str(info.value) == "length table exceeded the budget of 664 pairs"
        assert m.length(248998, node_budget=665) == 496


class TestAperyTable:
    def test_one_round_robin_step_per_atom(self, monkeypatch):
        # generators join in ascending order, and 23 = 11 + 12, already
        # reached by the smaller ones, is no atom and adds no step
        steps = []
        with_gen = monoid._with_gen

        def counting(least, g):
            steps.append(g)
            return with_gen(least, g)

        monkeypatch.setattr(monoid, "_with_gen", counting)
        m = sf.make_monoid([23, 12, 11])
        assert steps == [12]
        assert m.min_gens == frozenset({11, 12})
        assert m._apery == [0, 12, 24, 36, 48, 60, 72, 84, 96, 108, 120]

    @pytest.mark.parametrize("gens", [[11, 12, 23], [5, 7, 11], [6, 9, 20], [7, 8, 9, 10, 11, 12, 13]])
    def test_least_sums_match_a_dp(self, gens):
        a = min(gens)
        reach = dp_max_lengths(gens, 40 * a)
        want = [min(n for n in range(c, 40 * a + 1, a) if reach[n] is not None) for c in range(a)]
        assert sf.make_monoid(gens)._apery == want


class TestScalingInvariance:
    def test_quarter_scaling(self):
        m = sf.make_monoid([2, 3])
        m4 = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        assert len(m.atoms()) == len(m4.atoms())
        for n in range(0, 25):
            if not m.member_num(n):
                assert not m4.member(Fraction(n, 4))
                continue
            q = Fraction(n, 4)
            z1 = m.factorizations(n)
            z2 = m4.factorizations(q)
            assert len(z1) == len(z2)
            assert sorted(len(z) for z in z1) == sorted(len(z) for z in z2)
            assert m.length(n) == m4.length(q)
        assert {e.value * 4 for e in m4.mcd([Fraction(4, 4), Fraction(6, 4)])} == {
            e.value for e in m.mcd([4, 6])
        }
