import math
import random

import pytest

import semifactor as sf
from semifactor import coeff
from semifactor.coeff import prime_factors
from semifactor.errors import (
    BudgetError,
    DomainError,
    LengthFunctionUnavailableError,
    UsageError,
)

NAT = sf.Nat()
Q6 = sf.Quad(6)


def brute_quad_divisors(S, a):
    """Independent oracle: scan all candidate pairs and verify by multiplying."""
    total = a[0] + a[1]
    out = set()
    for b1 in range(total + 1):
        for c1 in range(total + 1 - b1):
            s = (b1, c1)
            if s == (0, 0):
                continue
            for b2 in range(total + 1):
                for c2 in range(total + 1 - b2):
                    if S.mul(s, (b2, c2)) == a:
                        out.add(s)
    return out


class TestSemiringOps:
    def test_nat_add_mul(self):
        assert NAT.add(2, 3) == 5
        assert NAT.mul(2, 3) == 6

    def test_quad_sqrt_squares(self):
        assert Q6.mul((0, 1), (0, 1)) == (6, 0)

    def test_quad_distributes(self):
        assert Q6.mul((1, 1), (2, 0)) == (2, 2)

    def test_mismatched_value_shape_rejected(self):
        with pytest.raises(UsageError):
            NAT.add((1, 0), 2)
        with pytest.raises(UsageError):
            Q6.mul(2, (1, 0))

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            NAT.validate(-1)
        with pytest.raises(UsageError):
            Q6.validate((1, -1))

    @pytest.mark.parametrize(
        "v", [True, (1, -1), (-1, 1), [1, 0], (1, 0, 0), (1,), (1.0, 0), (0, 1.0),
              (True, 0), (0, False), 7, None]
    )
    def test_quad_validate_rejects(self, v):
        with pytest.raises(UsageError, match="not a nonnegative"):
            Q6.validate(v)
        with pytest.raises(UsageError):
            Q6.add(v, (1, 0))
        with pytest.raises(UsageError):
            Q6.mul((1, 0), v)

    @pytest.mark.parametrize("v", [(0, 0), (1, 0), (0, 1), (3, 4), (10**30, 2)])
    def test_quad_validate_accepts(self, v):
        assert Q6.validate(v) is v

    def test_quad_requires_nonsquare(self):
        with pytest.raises(UsageError):
            sf.Quad(9)
        with pytest.raises(UsageError):
            sf.Quad(4)
        with pytest.raises(UsageError):
            sf.Quad(1)

    def test_associativity_commutativity_random(self):
        rng = random.Random(1)
        for _ in range(500):
            a = (rng.randint(0, 9), rng.randint(0, 9))
            b = (rng.randint(0, 9), rng.randint(0, 9))
            c = (rng.randint(0, 9), rng.randint(0, 9))
            assert Q6.mul(a, b) == Q6.mul(b, a)
            assert Q6.mul(Q6.mul(a, b), c) == Q6.mul(a, Q6.mul(b, c))
            assert Q6.mul(a, Q6.add(b, c)) == Q6.add(Q6.mul(a, b), Q6.mul(a, c))


class TestDivisors:
    def test_nat_12(self):
        assert NAT.divisors_of(12) == {1, 2, 3, 4, 6, 12}

    def test_nat_unit(self):
        assert NAT.divisors_of(1) == {1}

    def test_quad_six(self):
        got = Q6.divisors_of((6, 0))
        assert got == {(1, 0), (2, 0), (3, 0), (0, 1), (6, 0)}
        assert got == brute_quad_divisors(Q6, (6, 0))

    def test_quad_scan_budget(self, monkeypatch):
        # the scan over b' + c' <= t tries (t+1)(t+2)/2 - 1 pairs: 20 at t = 5
        monkeypatch.setattr(coeff, "DEFAULT_BUDGETS", sf.Budgets(oracle_candidates=20))
        assert Q6.divisors_of((5, 0)) == {(1, 0), (5, 0)}
        with pytest.raises(BudgetError, match="need 27 candidate pairs"):
            Q6.divisors_of((6, 0))

    def test_quad_scan_takes_the_callers_budget(self):
        assert Q6.divisors_of((6, 0), 27) == Q6.divisors_of((6, 0))
        with pytest.raises(BudgetError, match="over the budget of 26"):
            Q6.divisors_of((6, 0), 26)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            NAT.divisors_of(0)
        with pytest.raises(DomainError):
            Q6.divisors_of((0, 0))

    def test_contains_one_and_self_and_divides(self):
        rng = random.Random(2)
        for _ in range(40):
            a = (rng.randint(0, 5), rng.randint(0, 5))
            if a == (0, 0):
                continue
            divs = Q6.divisors_of(a)
            assert Q6.one in divs and a in divs
            for s in divs:
                assert Q6.exact_div(a, s) is not None

    def test_component_sum_bound_exhaustive(self):
        # every divisor (b', c') of (b, c) satisfies b' + c' <= b + c
        for total in range(1, 13):
            for b in range(total + 1):
                a = (b, total - b)
                for s in Q6.divisors_of(a):
                    assert s[0] + s[1] <= total

    def test_matches_brute_force_small(self):
        for total in range(1, 7):
            for b in range(total + 1):
                a = (b, total - b)
                assert Q6.divisors_of(a) == brute_quad_divisors(Q6, a)


class TestExactDiv:
    def test_nat(self):
        assert NAT.exact_div(6, 2) == 3
        assert NAT.exact_div(7, 2) is None

    def test_quad_six_by_root(self):
        assert Q6.exact_div((6, 0), (0, 1)) == (0, 1)

    def test_quad_non_integral(self):
        assert Q6.exact_div((2, 0), (1, 1)) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(DomainError):
            NAT.exact_div(3, 0)
        with pytest.raises(DomainError):
            Q6.exact_div((1, 1), (0, 0))

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(2000):
            a = (rng.randint(0, 8), rng.randint(0, 8))
            b = (rng.randint(0, 8), rng.randint(0, 8))
            if a == (0, 0) or b == (0, 0):
                continue
            assert Q6.exact_div(Q6.mul(a, b), b) == a


class TestAtomFactorizations:
    def test_nat_prime_factorization(self):
        assert NAT.atom_factorizations(12) == {(2, 2, 3)}

    def test_quad_six_two_ways(self):
        assert Q6.atom_factorizations((6, 0)) == {((2, 0), (3, 0)), ((0, 1), (0, 1))}

    def test_quad_root_is_atom(self):
        assert Q6.atom_factorizations((0, 1)) == {((0, 1),)}
        # in N0[sqrt(5)] both 2 and sqrt(5) are atoms as well
        Q5 = sf.Quad(5)
        for v in ((2, 0), (0, 1)):
            assert Q5.atom_factorizations(v) == {(v,)}

    def test_units_rejected(self):
        for bad in (0, 1):
            with pytest.raises(DomainError):
                NAT.atom_factorizations(bad)
        with pytest.raises(DomainError):
            Q6.atom_factorizations((1, 0))

    def test_products_and_atomicity(self):
        for total in range(1, 7):
            for b in range(total + 1):
                a = (b, total - b)
                if a == (1, 0):
                    continue
                zs = Q6.atom_factorizations(a)
                if total <= 2:
                    # no element with b + c <= 2 factors in two ways
                    assert len(zs) == 1
                for z in zs:
                    prod = (1, 0)
                    for v in z:
                        prod = Q6.mul(prod, v)
                        assert Q6.divisors_of(v) == {(1, 0), v}
                    assert prod == a


class TestMcd:
    def test_nat_gcd(self):
        assert NAT.mcd_set([4, 6]) == {2}
        assert NAT.mcd_set([2, 3]) == {1}

    def test_quad_six_and_root(self):
        assert Q6.mcd_set([(6, 0), (0, 1)]) == {(0, 1)}

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            NAT.mcd_set([])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            Q6.mcd_set([(1, 1), (0, 0)])

    def test_mcd_properties_random(self):
        rng = random.Random(4)
        for _ in range(30):
            vals = []
            while len(vals) < 2:
                v = (rng.randint(0, 4), rng.randint(0, 4))
                if v != (0, 0):
                    vals.append(v)
            for d in Q6.mcd_set(vals):
                quots = [Q6.exact_div(v, d) for v in vals]
                assert all(q is not None for q in quots)
                assert Q6.mcd_set(quots) == {(1, 0)}


class TestLength:
    def test_nat_values(self):
        assert NAT.length(12) == 3
        assert NAT.length(1) == 0

    def test_quad_root(self):
        assert Q6.length((0, 1)) == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            NAT.length(0)

    def test_small_radicands_unsupported(self):
        for d in (2, 3):
            with pytest.raises(LengthFunctionUnavailableError):
                sf.Quad(d).length((0, 1))

    def test_superadditive_and_unit_detection(self):
        rng = random.Random(5)
        for S in (NAT, Q6, sf.Quad(7), sf.Quad(11)):
            for _ in range(2500):
                if S is NAT:
                    a, b = rng.randint(1, 500), rng.randint(1, 500)
                    unit = 1
                else:
                    a = (rng.randint(0, 9), rng.randint(0, 9))
                    b = (rng.randint(0, 9), rng.randint(0, 9))
                    unit = (1, 0)
                    if a == (0, 0) or b == (0, 0):
                        continue
                assert S.length(S.mul(a, b)) >= S.length(a) + S.length(b)
                assert (S.length(a) == 0) == (a == unit)


class TestRender:
    @pytest.mark.parametrize(
        "value,text",
        [((3, 0), "3"), ((0, 1), "r"), ((2, 1), "2+r"), ((0, 0), "0"), ((1, 2), "1+2*r")],
    )
    def test_quad_text(self, value, text):
        assert Q6.render(value) == text

    def test_nat_text(self):
        assert NAT.render(17) == "17"

    @pytest.mark.parametrize("S,v", [(NAT, -5), (NAT, True), (NAT, (1, 0)), (Q6, (1, -1))])
    def test_render_validates(self, S, v):
        with pytest.raises(UsageError, match="not a nonnegative"):
            S.render(v)


@pytest.mark.parametrize("S", [NAT, Q6])
@pytest.mark.parametrize("n", [True, False, -1, 1.0, "3"])
def test_from_int_refuses_what_nat_refuses(S, n):
    with pytest.raises(UsageError) as err:
        S.from_int(n)
    assert str(err.value) == f"not a nonnegative integer: {n!r}"


def _contract_cases():
    """(semiring, operation, arguments, exception class, exact text, case)
    for each public operation on bad input, in the order of its checks."""
    bad = {
        NAT: {"shape": ((1, 0), "not a nonnegative integer: (1, 0)"),
              "negative": (-1, "not a nonnegative integer: -1"),
              "bool": (True, "not a nonnegative integer: True")},
        Q6: {"shape": (7, "not a nonnegative (b, c) pair: 7"),
             "negative": ((1, -1), "not a nonnegative (b, c) pair: (1, -1)"),
             "bool": ((True, 0), "not a nonnegative (b, c) pair: (True, 0)")},
    }
    for S in (NAT, Q6):
        one, zero, two = S.one, S.zero, S.from_int(2)
        for kind, (v, text) in bad[S].items():
            yield S, "divisors_of", (v,), UsageError, text, kind
            yield S, "exact_div", (one, v), UsageError, text, kind
            yield S, "atom_factorizations", (v,), UsageError, text, kind
            yield S, "mcd_set", ([v],), UsageError, text, kind
            yield S, "mcd_set", ([two, v, zero],), UsageError, text, kind + " before zero"
            yield S, "length", (v,), UsageError, text, kind
        yield S, "divisors_of", (zero,), DomainError, "0 has no divisor set", "zero"
        yield S, "exact_div", (one, zero), DomainError, "division by 0", "zero"
        yield S, "atom_factorizations", (zero,), DomainError, \
            "0 has no factorization into atoms", "zero"
        yield S, "atom_factorizations", (one,), DomainError, \
            "1 has no factorization into atoms", "unit"
        yield S, "mcd_set", ([two, zero, bad[S]["shape"][0]],), DomainError, \
            "mcd undefined when 0 is among the values", "zero"
        yield S, "mcd_set", ([],), UsageError, "mcd of an empty list", "empty"
        yield S, "mcd_set", (iter([]),), UsageError, "mcd of an empty list", "empty iterator"
        yield S, "length", (zero,), DomainError, "length undefined at 0", "zero"


@pytest.mark.parametrize(
    "S,op,args,exc,text",
    [pytest.param(*c[:5], id=f"{c[0].literal()}-{c[1]}-{c[5]}") for c in _contract_cases()],
)
def test_public_operation_contract(S, op, args, exc, text):
    """Every public semiring operation refuses bad input with the same
    exception class and text, whichever semiring runs it."""
    with pytest.raises(exc) as err:
        getattr(S, op)(*args)
    assert type(err.value) is exc
    assert str(err.value) == text


def test_divisors_and_factorizations_validate_only_public_input(monkeypatch):
    # canonical values are checked once, where they enter: the library's own
    # divisor scans, atom recursion and long divisions call the kernels
    S, M = Q6, sf.nat_monoid()
    f = sf.parse("(36,0)*x^4+(0,24)*x^3+(36,0)*x^2+(0,4)*x+(1,0)", S, M)
    sf.engine.clear_caches()
    calls = []
    validate = sf.Quad.validate

    def counted(self, v):
        calls.append(v)
        return validate(self, v)

    monkeypatch.setattr(sf.Quad, "validate", counted)
    assert len(sf.divisors(f).divisors) == 5
    assert len(sf.factorizations(f)) == 1
    assert len(calls) <= 4, len(calls)


def small_primes(bound):
    return [q for q in range(2, bound) if all(q % r for r in range(2, int(q**0.5) + 1))]


class TestPrimeFactors:
    BIG = [1000003, 2**31 - 1, 10**9 + 7, 2**61 - 1, 2**89 - 1]

    def test_products_of_known_primes(self):
        rng = random.Random(60)
        pool = small_primes(3000) + self.BIG
        for _ in range(300):
            picks = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            n = 1
            for q in picks:
                n *= q
            if n.bit_length() > 120 and sum(q > 10**7 for q in picks) > 1:
                continue  # two large factors: rho may need more than its budget
            assert prime_factors(n) == sorted(picks), picks

    def test_strong_pseudoprimes_are_split(self):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
        assert prime_factors(3215031751) == [151, 751, 28351]
        assert prime_factors(3825123056546413051) == [149491, 747451, 34233211]

    def test_baillie_psw_rejects_psi13(self):
        # psi_13 is a strong pseudoprime to every prime base up to 41, the
        # bases of Miller-Rabin here; the strong Lucas test rejects it
        psi13 = 3317044064679887385961981
        assert coeff._prime_or_divisor(psi13) in (1287836182261, 2575672364521)
        assert prime_factors(psi13) == [1287836182261, 2575672364521]

    def test_strong_lucas_test(self):
        # every odd prime passes; the strong Lucas pseudoprimes below 20000
        # (Baillie and Wagstaff; OEIS A217255) are its only other passes
        pseudoprimes = {5459, 5777, 10877, 16109, 18971}
        primes = set(small_primes(20000))
        passes = {n for n in range(3, 20000, 2) if coeff._strong_lucas(n)}
        assert passes == (primes - {2}) | pseudoprimes

    def test_baillie_psw_matches_trial_division(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randrange(10**6, 10**9) | 1
            assert (coeff._prime_or_divisor(n) == 0) == all(n % q for q in range(3, math.isqrt(n) + 1, 2)), n

    def test_rho_budget(self):
        # two primes near 2^61 and 2^89 are out of reach of 2 * 10^5 iterations
        with pytest.raises(BudgetError):
            prime_factors((2**61 - 1) * (2**89 - 1))

    def test_nat_divisors_match_brute_force(self):
        for n in list(range(1, 400)) + [720720, 2**20, 3**5 * 7**3]:
            assert NAT.divisors_of(n) == {d for d in range(1, n + 1) if n % d == 0}
        assert NAT.divisors_of(2**61 - 1) == {1, 2**61 - 1}
