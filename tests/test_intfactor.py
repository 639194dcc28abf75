import math
import random
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from semifactor import intfactor
from semifactor.errors import BudgetError, DomainError, InternalError, UsageError
from semifactor.intfactor import (
    _EDF_SEED,
    IntPoly,
    _choose_prime,
    _div_exact,
    _edf,
    _factor_mod_p,
    _gcd_cofactors,
    _hensel_lift,
    _lift,
    _lift_root,
    _mul,
    _p_divmod,
    _pow,
    _Ring,
    factor_int_poly,
    squarefree_decompose,
)


def ip(*coeffs_low_first):
    return IntPoly.of(list(coeffs_low_first))


X = ip(0, 1)
ONE = ip(1)


def poly_divides(g, f):
    """Trial division over the rationals, written independently."""
    rem = [Fraction(c) for c in f.coeffs]
    dg = g.degree
    while len(rem) - 1 >= dg:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        q = rem[-1] / g.coeffs[-1]
        pos = len(rem) - 1 - dg
        for j, c in enumerate(g.coeffs):
            rem[pos + j] -= q * c
    return not any(rem)


def signed_divisors(n):
    n = abs(n)
    out = set()
    for i in range(1, n + 1):
        if n % i == 0:
            out.update({i, -i})
    return out


def rational_linear_factors(f):
    """All monic-from-primitive linear factors via the rational root theorem."""
    out = []
    rest = f
    while rest.degree >= 1:
        tc = rest.coeffs[0]
        lc = rest.coeffs[-1]
        if tc == 0:
            out.append(X)
            rest = IntPoly.of(list(rest.coeffs)[1:])
            continue
        found = None
        for p in signed_divisors(tc):
            for q in signed_divisors(lc):
                if q < 0:
                    continue
                cand = IntPoly.of([-p, q])
                g = math_gcd_content(cand)
                if poly_divides(g, rest):
                    found = g
                    break
            if found:
                break
        if not found:
            break
        out.append(found)
        rest = divide_exact(rest, found)
    return out, rest


def math_gcd_content(f):
    import math

    g = 0
    for c in f.coeffs:
        g = math.gcd(g, c)
    sign = -1 if f.coeffs[-1] < 0 else 1
    return IntPoly.of([c // (g * sign) for c in f.coeffs])


def divide_exact(f, g):
    rem = [Fraction(c) for c in f.coeffs]
    quo = [Fraction(0)] * (f.degree - g.degree + 1)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < g.degree:
            break
        q = rem[-1] / g.coeffs[-1]
        quo[len(rem) - 1 - g.degree] = q
        for j, c in enumerate(g.coeffs):
            rem[len(rem) - 1 - g.degree + j] -= q * c
    assert not any(rem)
    return IntPoly.of([int(x) for x in quo])


def kronecker_factor_multiset(f):
    """Reference factorization for degree <= 6: strip rational roots, then
    search degree-2/3 factors by interpolation through divisor tuples."""
    assert f.degree <= 6
    linear, rest = rational_linear_factors(f)
    out = list(linear)
    out.extend(_kronecker_rec(rest))
    return sorted(tuple(g.coeffs) for g in out)


def _kronecker_rec(f):
    if f.degree <= 0:
        return []
    if f.degree == 1:
        return [math_gcd_content(f)]
    pts = [0, 1, -1, 2, -2, 3, -3]
    for t in range(2, f.degree // 2 + 1):
        sample = pts[: t + 1]
        vals = [f.eval(x) for x in sample]
        assert all(vals), "rational roots must be stripped first"
        choice_sets = [sorted(signed_divisors(v)) for v in vals]
        for choice in product(*choice_sets):
            cand = _interpolate(sample, choice)
            if cand is None or cand.degree != t or cand.coeffs[-1] < 0:
                continue
            if poly_divides(cand, f):
                return _kronecker_rec(cand) + _kronecker_rec(divide_exact(f, cand))
    return [math_gcd_content(f)]


def _interpolate(xs, ys):
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(ys[i])]
        den = Fraction(1)
        for j in range(n):
            if i == j:
                continue
            num = _mul_frac(num, [Fraction(-xs[j]), Fraction(1)])
            den *= xs[i] - xs[j]
        for k, c in enumerate(num):
            coeffs[k] += c / den
    if any(c.denominator != 1 for c in coeffs):
        return None
    return IntPoly.of([int(c) for c in coeffs])


def _mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_quotient(a, b):
    """a/b over the rationals, lowest degree first, or None on a remainder."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for pos in range(len(quo) - 1, -1, -1):
        q = quo[pos] = rem[pos + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[pos + j] -= q * c
    return None if any(rem) else quo


class TestIntPolyPower:
    def test_matches_repeated_products(self):
        rng = random.Random(57)
        for _ in range(50):
            f = random_int_poly(rng, rng.randint(0, 4))
            want = ONE
            for n in range(10):
                assert IntPoly.of(f) ** n == want, (f, n)
                want = want * IntPoly.of(f)

    def test_refuses_negative_and_non_int_exponents(self):
        # the same refusal as PolyExpr.__pow__
        for n in (-2, True, False, 2.0, None):
            with pytest.raises(UsageError, match="polynomial powers need a nonnegative integer"):
                ip(1, 1) ** n


class TestExactDivision:
    def test_matches_rational_division(self):
        rng = random.Random(37)
        hits = 0
        for i in range(600):
            b = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
            b.append(rng.choice([-3, -2, -1, 1, 2, 3]))
            a = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 6)]
            if i % 3 == 0:
                a = _mul(a, b)
            quo = rational_quotient(a, b)
            want = None
            if quo is not None and all(x.denominator == 1 for x in quo):
                want = [int(x) for x in quo]
                while want and want[-1] == 0:
                    want.pop()
            assert _div_exact(a, b) == want, (a, b)
            hits += want is not None
        assert 0 < hits < 600

    def test_non_integral_leading_quotient(self):
        # (3x+1)/(2x+1): floor division would leave a zero remainder
        assert _div_exact([1, 3], [1, 2]) is None
        assert _div_exact([2, 4], [1, 2]) == [2]


class TestSquarefree:
    def test_perfect_square(self):
        assert squarefree_decompose(ip(1, 2, 1)) == [(ip(1, 1), 2)]

    def test_already_squarefree(self):
        f = ip(1, 1, 1, 1, 1, 1)
        assert squarefree_decompose(f) == [(f, 1)]

    def test_mixed_multiplicities(self):
        assert squarefree_decompose(ip(0, 0, 1, 1)) == [(ip(1, 1), 1), (X, 2)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squarefree_decompose(ip())

    def test_constant_has_no_parts(self):
        assert squarefree_decompose(ip(6)) == []

    def test_random_reassembly(self):
        rng = random.Random(21)
        for _ in range(100):
            f = ip(rng.randint(1, 4), rng.randint(1, 3))
            g = ip(rng.randint(1, 4), rng.randint(0, 3), 1)
            h = f ** rng.randint(1, 3) * g
            prod = ONE
            for part, mult in squarefree_decompose(h):
                prod = prod * part**mult
            content = divide_exact(h, prod)
            assert content.degree == 0
            assert content * prod == h


def record_calls(monkeypatch, name, log, key):
    """Wrap intfactor.<name>, appending key(args, result) to log per call."""
    real = getattr(intfactor, name)

    def recording(*args):
        out = real(*args)
        log.append(key(args, out))
        return out

    monkeypatch.setattr(intfactor, name, recording)


def forbid_calls(monkeypatch, name):
    """Make a call of intfactor.<name> fail the test."""
    def forbidden(*args):
        raise AssertionError(f"intfactor.{name} called")

    monkeypatch.setattr(intfactor, name, forbidden)


def sympy_sqf(sympy, f):
    """sympy's squarefree parts of f, primitive with positive lc, as the set
    of (coefficient tuple, multiplicity) that squarefree_decompose gives."""
    y = sympy.Symbol("y")
    want = set()
    for poly, mult in sympy.Poly(list(reversed(f)), y).sqf_list()[1]:
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        want.add((math_gcd_content(IntPoly.of(coeffs)).coeffs, mult))
    return want


class TestSquarefreeByEvaluation:
    def test_high_power_stays_below_the_value_cap(self, monkeypatch):
        # the first gcd of (x+1)^1000 would evaluate to about 10^6 bits, so
        # the modular gcd answers it, with no evaluation at all
        evaluated, images = [], []
        record_calls(monkeypatch, "_eval", evaluated, lambda args, v: v.bit_length())
        record_calls(monkeypatch, "_p_gcd", images, lambda args, u: args[2])
        start = time.perf_counter()
        assert squarefree_decompose(ip(1, 1) ** 1000) == [(ip(1, 1), 1000)]
        assert time.perf_counter() - start < 0.5
        assert images
        assert max(evaluated, default=0) <= intfactor._HEU_BITS

    def test_squarefree_degree_27_without_remainder_sequence(self, monkeypatch):
        # one evaluation decides: no modular fallback
        forbid_calls(monkeypatch, "_p_gcd")
        rng = random.Random(58)
        f = IntPoly.of([rng.randint(-9, 9) for _ in range(27)] + [6])
        assert squarefree_decompose(f) == [(math_gcd_content(f), 1)]

    def test_squarefree_above_the_value_cap_by_a_modular_test(self, monkeypatch):
        # degree 60 with 1100-bit coefficients: the heuristic's values are
        # over the cap, and the images modulo a small prime are coprime
        forbid_calls(monkeypatch, "_eval")
        rng = random.Random(5)
        f = IntPoly.of(
            [rng.randint(-(1 << 1100), 1 << 1100) for _ in range(60)]
            + [rng.randint(1, 1 << 1100)]
        )
        start = time.perf_counter()
        assert squarefree_decompose(f) == [(math_gcd_content(f), 1)]
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n", range(1, 21))
    def test_witness_family_without_remainder_sequence(self, monkeypatch, n):
        # (x+n)^n (x^2-x+1), the paper's witness family: one evaluation
        # per gcd decides, with no modular fallback
        forbid_calls(monkeypatch, "_p_gcd")
        q = ip(1, -1, 1)
        want = [(q, 1), (ip(n, 1), n)] if n > 1 else [(ip(n, 1) * q, 1)]
        assert squarefree_decompose(ip(n, 1) ** n * q) == want

    def test_square_times_large_factor_above_the_cap(self, monkeypatch):
        # g h^2, g of degree 30-40 with 2000-3000-bit coefficients, h a small
        # quadratic: Yun's first two gcds are over the cap, and the primitive
        # PRS took 23-43 s on these four
        sympy = pytest.importorskip("sympy")
        rng = random.Random(77)
        for _ in range(4):
            bits = rng.randint(2000, 3000)
            g = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(30, 40))]
            g.append(rng.randint(1, 1 << bits))
            h = [rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)]
            f = _mul(g, _pow(h, 2))
            images = []
            with monkeypatch.context() as patch:
                record_calls(patch, "_p_gcd", images, lambda args, u: args[2])
                start = time.perf_counter()
                got = squarefree_decompose(IntPoly.of(f))
                assert time.perf_counter() - start < 0.5
            assert images
            assert {(p.coeffs, m) for p, m in got} == sympy_sqf(sympy, f)

    def test_repeated_large_factors_match_sympy(self, monkeypatch):
        # products of 3 or 4 powers (exponents 1-3) of factors of degree 1-5
        # with 900-bit coefficients; most are over the cap
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2024)
        modular = 0
        for _ in range(16):
            f = [1]
            for _ in range(rng.randint(3, 4)):
                g = [rng.randint(-(1 << 900), 1 << 900) for _ in range(rng.randint(1, 5))]
                f = _mul(f, _pow(g + [rng.randint(1, 1 << 900)], rng.randint(1, 3)))
            images = []
            with monkeypatch.context() as patch:
                record_calls(patch, "_p_gcd", images, lambda args, u: args[2])
                got = squarefree_decompose(IntPoly.of(f))
            modular += bool(images)
            assert {(p.coeffs, m) for p, m in got} == sympy_sqf(sympy, f), f
        assert modular >= 12

    def test_matches_sympy_sqf_list(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(59)
        repeated = 0
        for _ in range(60):
            f = [rng.choice([-1, 1]) * rng.randint(1, 10**6)]
            while True:
                deg = rng.randint(1, 4)
                mult = rng.randint(1, 4)
                if len(f) - 1 + deg * mult > 60:
                    break
                g = [rng.randint(-(10**6), 10**6) for _ in range(deg)] + [rng.randint(1, 10**6)]
                f = _mul(f, _pow(g, mult))
            got = {(p.coeffs, m) for p, m in squarefree_decompose(IntPoly.of(f))}
            assert got == sympy_sqf(sympy, f), f
            repeated += any(m > 1 for _, m in got)
        assert repeated > 30


class TestFactor:
    def test_failed_product_check_raises(self, monkeypatch):
        # (x+1)^2 (x^2-x+1): a wrong multiplicity, and factors off by 2^k in
        # one coefficient, must all fail the check by evaluation
        f = ip(1, 1) ** 2 * ip(1, -1, 1)
        true = ((tuple(ip(1, 1).coeffs), 2), (tuple(ip(1, -1, 1).coeffs), 1))
        wrong = [((true[0][0], 3), true[1]), ((true[0][0], 1), true[1])]
        for k in (1, 2, 8, 64, 200):
            for i in range(3):
                c = list(true[1][0])
                c[i] += 2**k
                wrong.append((true[0], (tuple(c), 1)))
        for pairs in wrong:
            monkeypatch.setattr(intfactor, "_factor_primitive", lambda prim, pairs=pairs: pairs)
            with pytest.raises(InternalError, match="re-multiplication"):
                factor_int_poly(f)
        monkeypatch.setattr(intfactor, "_factor_primitive", lambda prim: true)
        assert factor_int_poly(f).expand() == f

    def test_quartic_cyclotomic_product(self):
        fac = factor_int_poly(ip(1, 0, 1, 0, 1))
        assert fac.sign == 1 and fac.content == ()
        assert [(p.coeffs, m) for p, m in fac.factors] == [((1, -1, 1), 1), ((1, 1, 1), 1)]

    def test_sextic_witness(self):
        fac = factor_int_poly(ip(1, 1, 1, 1, 1, 1))
        assert [(p.coeffs, m) for p, m in fac.factors] == [
            ((1, 1), 1),
            ((1, -1, 1), 1),
            ((1, 1, 1), 1),
        ]

    def test_content(self):
        fac = factor_int_poly(ip(2, 2))
        assert fac.content == (2,)
        assert [(p.coeffs, m) for p, m in fac.factors] == [((1, 1), 1)]

    def test_sign(self):
        fac = factor_int_poly(ip(-2, -2))
        assert fac.sign == -1
        assert fac.expand() == ip(-2, -2)

    def test_degree_limit(self):
        with pytest.raises(BudgetError):
            factor_int_poly(ip(*([1] * 26)), degree_limit=24)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor_int_poly(ip())

    def test_remultiplication_random(self):
        rng = random.Random(22)
        for _ in range(250):
            deg = rng.randint(1, 10)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            f = IntPoly.of(coeffs)
            assert factor_int_poly(f).expand() == f

    def test_low_degree_factors_are_irreducible(self):
        rng = random.Random(23)
        for _ in range(120):
            deg = rng.randint(2, 8)
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
            fac = factor_int_poly(IntPoly.of(coeffs))
            for poly, _ in fac.factors:
                if poly.degree == 1:
                    continue
                if poly.degree <= 3:
                    # no rational root
                    for p in signed_divisors(poly.coeffs[0] or 1):
                        if poly.coeffs[0] == 0:
                            break
                        for q in signed_divisors(poly.coeffs[-1]):
                            assert poly.eval(Fraction(p, q)) != 0
                if poly.degree == 2:
                    a, b, c = poly.coeffs[2], poly.coeffs[1], poly.coeffs[0]
                    disc = b * b - 4 * a * c
                    import math

                    assert disc < 0 or math.isqrt(abs(disc)) ** 2 != disc

    def test_kronecker_cross_check(self):
        pool = [ip(1, 1), ip(2, 1), ip(1, 0, 1), ip(1, 1, 1), ip(1, -1, 1), ip(1, 2)]
        rng = random.Random(24)
        for _ in range(12):
            parts = rng.sample(pool, rng.randint(2, 3))
            f = ONE
            for p in parts:
                f = f * p
            if f.degree > 6:
                continue
            fac = factor_int_poly(f)
            got = sorted(
                tuple(p.coeffs) for p, m in fac.factors for _ in range(m)
            )
            assert got == kronecker_factor_multiset(f)

    def test_multiset_union_on_products(self):
        rng = random.Random(25)
        pool = [ip(1, 1), ip(3, 1), ip(1, 1, 1), ip(1, -1, 1), ip(2, 0, 1), ip(1, 0, 0, 1)]
        for _ in range(40):
            f = rng.choice(pool) * rng.choice(pool)
            g = rng.choice(pool) * rng.choice(pool)
            ff, fg, fp = factor_int_poly(f), factor_int_poly(g), factor_int_poly(f * g)

            def bag(fac):
                out = {}
                for p, m in fac.factors:
                    out[p.coeffs] = out.get(p.coeffs, 0) + m
                return out

            combined = bag(ff)
            for k, v in bag(fg).items():
                combined[k] = combined.get(k, 0) + v
            assert bag(fp) == combined

    def test_cache_thread_safety_smoke(self):
        from semifactor.intfactor import clear_cache

        clear_cache()
        f = ip(1, 1, 1, 1, 1, 1)
        results = []

        def work():
            results.append(factor_int_poly(f))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_cache_is_bounded_and_keeps_the_newest(self):
        memo = intfactor._memo
        intfactor.clear_cache()
        assert intfactor._MEMO_SIZE == 1024
        parts = [(n, 0, 1) for n in range(1, 1024 + 7)]  # x^2 + n, irreducible
        for p in parts:
            assert intfactor._irreducible_factors(p) == (p,)
        assert len(memo) == 1024
        assert list(memo)[-1] == parts[-1]
        assert parts[5] not in memo and list(memo)[0] == parts[6]
        # a hit makes the oldest entry the newest, so the next one is evicted
        assert intfactor._irreducible_factors(parts[6]) == (parts[6],)
        assert intfactor._irreducible_factors((2000, 0, 1)) == ((2000, 0, 1),)
        assert len(memo) == 1024
        assert parts[6] in memo and parts[7] not in memo
        assert list(memo)[-2:] == [parts[6], (2000, 0, 1)]
        intfactor.clear_cache()
        assert len(memo) == 0

    def test_cache_is_shared_by_squarefree_parts(self, monkeypatch):
        # (x^2+1)(x+2)^2 and 3(x^2+1)^3: the part x^2+1 is recombined once
        calls = []
        zassenhaus = intfactor._zassenhaus
        monkeypatch.setattr(intfactor, "_zassenhaus", lambda f: calls.append(f) or zassenhaus(f))
        intfactor.clear_cache()
        first = factor_int_poly(IntPoly.of(_mul([1, 0, 1], _mul([2, 1], [2, 1]))))
        second = factor_int_poly(IntPoly.of(_mul([3, 0, 3], _mul([1, 0, 1], [1, 0, 1]))))
        assert sorted(calls) == [[1, 0, 1], [2, 1]]
        assert [(p.coeffs, m) for p, m in first.factors] == [((2, 1), 2), ((1, 0, 1), 1)]
        assert second.content == (3,)
        assert [(p.coeffs, m) for p, m in second.factors] == [((1, 0, 1), 3)]
        intfactor.clear_cache()

    def test_x_power_times_unit_content(self):
        fac = factor_int_poly(ip(0, 0, 0, 5))
        assert fac.content == (5,)
        assert [(p.coeffs, m) for p, m in fac.factors] == [((0, 1), 3)]


def fill_memo():
    """A cold memo filled with the 1024 irreducibles x^2 + x + n, n = 2..1025
    (none of them in ``shared_products``), as a set of coefficient tuples."""
    intfactor.clear_cache()
    fillers = {(n, 1, 1) for n in range(2, 1026)}
    for g in sorted(fillers):
        intfactor._irreducible_factors(g)
    assert set(intfactor._memo) == fillers
    return fillers


def shared_products(rng, count):
    """Products of two to five irreducibles from a small pool, with
    multiplicities, signs and contents, so that consecutive ones share some
    factors but seldom all of them."""
    pool = [[1, 1], [1, -1, 1], [2, 1], [1, 0, 1], [1, 1, 1], [-3, 1], [3, 2],
            [1, 0, 0, 2], [-2, 0, 0, 1], [5, 1, 0, 1], [1, 1, 1, 1, 1]]
    out = []
    for _ in range(count):
        f = [rng.choice([-6, -1, 1, 2, 3])]
        for g in rng.sample(pool, rng.randint(2, 5)):
            f = _mul(f, _pow(g, rng.randint(1, 3)))
        out.append(f)
    return out


class TestIrreducibleMemo:
    def test_shared_factors_skip_recombination(self, monkeypatch):
        calls = []
        zassenhaus = intfactor._zassenhaus
        monkeypatch.setattr(intfactor, "_zassenhaus", lambda f: calls.append(list(f)) or zassenhaus(f))
        intfactor.clear_cache()
        factor_int_poly(IntPoly.of(_mul(_mul([1, 1], [1, 0, 1]), [1, 2])))
        calls.clear()
        fac = factor_int_poly(IntPoly.of(_mul(_mul(_pow([1, 1], 2), [1, 2]), [1, 1, 1])))
        assert calls == [[1, 1, 1]]
        assert [(p.coeffs, m) for p, m in fac.factors] == [
            ((1, 1), 2), ((1, 2), 1), ((1, 1, 1), 1)]
        intfactor.clear_cache()

    def test_clear_cache_empties_the_memo(self):
        intfactor.clear_cache()
        factor_int_poly(IntPoly.of(_mul([1, 1], [1, 0, 1])))
        assert set(intfactor._memo) == {(1, 1), (1, 0, 1)}
        intfactor.clear_cache()
        assert not intfactor._memo

    def test_warm_equals_cold_and_sympy(self):
        for seed in (81, 82, 83):
            fs = shared_products(random.Random(seed), 30)
            intfactor.clear_cache()
            warm = [factor_int_poly(IntPoly.of(f), degree_limit=60) for f in fs]
            cold = []
            for f in fs:
                intfactor.clear_cache()
                cold.append(factor_int_poly(IntPoly.of(f), degree_limit=60))
            assert warm == cold
        for f in shared_products(random.Random(84), 30):
            check_against_sympy(f, 60)
        intfactor.clear_cache()

    def test_full_memo_of_unrelated_irreducibles(self, monkeypatch):
        fs = shared_products(random.Random(85), 20)
        fs.append(_mul(_pow([3, 1], 3), _mul([1, -1, 1], _pow([1, 1], 2))))
        # a part vanishing at 0 and 1: every g(0) and g(1) divides 0, so x
        # and x - 1 are divided out before the scan
        fs.append(_mul(_mul([0, 1], [-1, 1]), _mul([3, 1], [1, 0, 1])))
        cold = []
        for f in fs:
            intfactor.clear_cache()
            cold.append(factor_int_poly(IntPoly.of(f), degree_limit=60))
        fillers = fill_memo()
        tried = []

        def counting_div(u, v):
            if tuple(v) in fillers:
                tried.append(tuple(v))
            return _div_exact(u, v)

        monkeypatch.setattr(intfactor, "_div_exact", counting_div)
        warm = [factor_int_poly(IntPoly.of(f), degree_limit=60) for f in fs]
        assert warm == cold
        # the integer tests reject every filler a scan reaches before any
        # division
        assert tried == []
        intfactor.clear_cache()

    def test_full_memo_guard_for_zeros_at_0_and_1(self, monkeypatch):
        # x^3 (x-1)^2 (x+2)(x^2+1): f(0) = f[1] = 0 and f(1) = f'(1) = 0, so
        # a scan before x and x - 1 are divided out would try every filler
        f = _mul(_mul(_pow([0, 1], 3), _pow([-1, 1], 2)), _mul([2, 1], [1, 0, 1]))
        intfactor.clear_cache()
        cold = factor_int_poly(IntPoly.of(f))
        fill_memo()
        calls = []
        monkeypatch.setattr(
            intfactor, "_div_exact", lambda u, v: calls.append(v) or _div_exact(u, v)
        )
        assert factor_int_poly(IntPoly.of(f)) == cold
        assert len(calls) <= 8, len(calls)
        intfactor.clear_cache()

    def test_threads_share_a_full_evicting_memo(self):
        rng = random.Random(86)
        # every product holds a new cubic x^3 + n, so factoring it evicts
        # fillers while other threads scan
        jobs = [[_mul(f, [k * 80 + i + 2, 0, 0, 1]) for i, f in enumerate(shared_products(rng, 60))]
                for k in range(8)]
        cold = []
        for fs in jobs:
            row = []
            for f in fs:
                intfactor.clear_cache()
                row.append(factor_int_poly(IntPoly.of(f), degree_limit=60))
            cold.append(row)
        fillers = fill_memo()
        results = [None] * 8
        barrier = threading.Barrier(8, timeout=30)

        def work(k):
            barrier.wait()
            results[k] = [factor_int_poly(IntPoly.of(f), degree_limit=60) for f in jobs[k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == cold
        # bounded, and holding only fillers and factors of the answers
        irreducibles = {p.coeffs for row in cold for fac in row for p, _ in fac.factors}
        assert len(intfactor._memo) == 1024
        assert set(intfactor._memo) <= fillers | irreducibles
        assert not fillers <= set(intfactor._memo)
        intfactor.clear_cache()


def rational_gcd(a, b):
    """Primitive gcd with positive leading coefficient by Euclid over Q."""

    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    def rem(u, v):
        u = list(u)
        while len(u) >= len(v):
            q = u[-1] / v[-1]
            for j, c in enumerate(v):
                u[len(u) - len(v) + j] -= q * c
            trim(u)
        return u

    u = trim([Fraction(x) for x in a])
    v = trim([Fraction(x) for x in b])
    while v:
        u, v = v, rem(u, v)
    if not u:
        return []
    from math import lcm

    scale = lcm(*(x.denominator for x in u))
    return list(math_gcd_content(IntPoly.of([int(x * scale) for x in u])).coeffs)


def random_int_poly(rng, deg, lo=-5, hi=5):
    return [rng.randint(lo, hi) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestGcdKernel:
    def test_matches_rational_euclid(self):
        rng = random.Random(51)
        nontrivial = 0
        for i in range(300):
            common = random_int_poly(rng, rng.randint(0, 4))
            a = _mul(common, random_int_poly(rng, rng.randint(0, 5)))
            b = _mul(common, random_int_poly(rng, rng.randint(0, 5)))
            ka, kb = rng.choice([1, 2, -3, 6]), rng.choice([1, -1, 4, 10])
            a, b = [x * ka for x in a], [x * kb for x in b]
            want = rational_gcd(a, b)
            assert _gcd_cofactors(a, b)[0] == want, (a, b)
            assert _gcd_cofactors(b, a)[0] == want, (a, b)
            nontrivial += len(want) > 1
        assert nontrivial > 150

    def test_constant_operand(self):
        assert _gcd_cofactors([6], [2, 4, 2])[0] == [1]
        assert _gcd_cofactors([1, 2, 1], [-5])[0] == [1]
        assert _gcd_cofactors([4], [6])[0] == [1]

    def test_second_evaluation(self, monkeypatch):
        # x^2 + 1 and x + 60657 are coprime, but both values at the one
        # point, 1024, are multiples of the prime 61681 = 60*1024 + 241,
        # which reads back as 60x + 241 and fails its check; the modular
        # gcd then finds a common root mod 2 (x + 1) and coprime images mod 3
        points, primes = [], []
        record_calls(monkeypatch, "_eval", points, lambda args, v: args[1])
        record_calls(monkeypatch, "_p_gcd", primes, lambda args, u: args[2])
        assert _gcd_cofactors([1, 0, 1], [60657, 1])[0] == [1]
        assert points == [1024, 1024]
        assert primes == [2, 3]

    def test_above_the_cap_matches_rational_euclid(self, monkeypatch):
        forbid_calls(monkeypatch, "_eval")
        # a common factor of degree 3-5 with 12000-14000-bit coefficients
        # times small cofactors: at least 6 * 12000 value bits, and a gcd
        # that takes about a thousand primes to lift
        rng = random.Random(52)
        for _ in range(6):
            big = 1 << rng.randint(12000, 14000)
            common = random_int_poly(rng, rng.randint(3, 5), -big, big)
            a = _mul(common, random_int_poly(rng, rng.randint(1, 3)))
            b = _mul(common, random_int_poly(rng, rng.randint(1, 3)))
            want = rational_gcd(a, b)
            assert len(want) > 3
            assert _gcd_cofactors(a, b)[0] == want, (a, b)
            assert _gcd_cofactors(b, a)[0] == want, (a, b)

    def test_above_the_cap_skips_and_restarts(self, monkeypatch):
        # a = g(x+1) and b = g(x+15), g of degree 4 with leading coefficient
        # 3 and 10000-bit coefficients below it: 3 divides gcd(lc a, lc b)
        # and is passed over, and x+1 and x+15 share a root mod 2 and mod 7
        # only, so the image mod 2 has degree 5, the one mod 5 degree 4 and
        # starts the accumulation again, and the one mod 7 is skipped
        forbid_calls(monkeypatch, "_eval")
        rng = random.Random(53)
        g = [rng.randint(-(1 << 10000), 1 << 10000) for _ in range(4)] + [3]
        a, b = _mul(g, [1, 1]), _mul(g, [15, 1])
        images = []
        record_calls(monkeypatch, "_p_gcd", images, lambda args, u: (args[2], len(u) - 1))
        assert _gcd_cofactors(a, b)[0] == g == rational_gcd(a, b)
        assert images[:4] == [(2, 5), (5, 4), (7, 5), (11, 4)]

    def test_above_the_cap_checks_a_repeated_lift(self, monkeypatch):
        # a = (x^2+1)(x+1) and b = (x^2+1)(x+1+k), k the product of the
        # primes below 10^4 (about 14 000 bits): every image mod those 1229
        # primes is (x^2+1)(x+1), whose lift repeats from the third prime on
        # and divides a but not b, so only the check keeps it out
        forbid_calls(monkeypatch, "_eval")
        k = math.prod(p for p in range(2, 10**4) if all(p % q for q in range(2, math.isqrt(p) + 1)))
        a, b = [1, 1, 1, 1], _mul([1, 0, 1], [1 + k, 1])
        images = []
        record_calls(monkeypatch, "_p_gcd", images, lambda args, u: len(u) - 1)
        assert _gcd_cofactors(a, b)[0] == [1, 0, 1] == rational_gcd(a, b)
        assert images.count(3) == 1229

    def test_negative_leading_coefficients_and_content(self):
        # -6(x+1)(x-2) and 4(x+1)(2x+3)
        a = [12, 6, -6]
        b = [12, 20, 8]
        assert _gcd_cofactors(a, b)[0] == [1, 1]
        assert _gcd_cofactors([-2, -2], [3, 3])[0] == [1, 1]
        assert _gcd_cofactors([4, 8], [6, 12])[0] == [1, 2]


class TestModularDivision:
    def test_ring_divmod(self):
        # division by a monic b mod m in the packed kernel, for a reduced
        # dividend of any length up to deg b + qdeg + 1
        rng = random.Random(52)
        for _ in range(300):
            m = rng.choice([2, 3, 5, 7]) ** rng.randint(1, 9)
            b = [rng.randint(-m, m) for _ in range(rng.randint(0, 5))] + [1]
            a = [rng.randint(-(m**2), m**2) for _ in range(rng.randint(0, 12))]
            ring = _Ring([x % m for x in b], m, max(len(a) - len(b), 0), m)
            q, r = ring.divmod(ring.pack([x % m for x in a]), len(a))
            assert len(r) == len(b) - 1 and len(q) == max(len(a) - len(b) + 1, 0)
            for c in q + r:
                assert 0 <= c < m
            diff = poly_sub(poly_sub(_mul(q, b), a), [-x for x in r])
            assert all(x % m == 0 for x in diff), (a, b, m)

    def test_p_divmod(self):
        rng = random.Random(53)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            b = [rng.randint(-20, 20) for _ in range(rng.randint(0, 5))]
            b.append(rng.choice([x for x in range(1, 40) if x % p]))
            a = [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
            q, r = _p_divmod(list(a), b, p)
            assert len(r) < len(b)
            for c in q + r:
                assert 0 <= c < p
            assert q[-1:] != [0] and r[-1:] != [0]
            diff = poly_sub(poly_sub(_mul(q, b), a), [-x for x in r])
            assert all(x % p == 0 for x in diff), (a, b, p)


def check_against_sympy(f, degree_limit):
    """factor_int_poly(f) has sympy's factors, multiplicities and unit."""
    sympy = pytest.importorskip("sympy")
    fac = factor_int_poly(IntPoly.of(f), degree_limit=degree_limit)
    unit = fac.sign
    for q in fac.content:
        unit *= q
    got = {p.coeffs: m for p, m in fac.factors}

    const, pairs = sympy.Poly(list(reversed(f)), sympy.Symbol("y")).factor_list()
    want = {}
    want_unit = int(const)
    for poly, mult in pairs:
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        # (sign, primitive coefficients with positive leading one)
        prim = math_gcd_content(IntPoly.of(coeffs))
        sign = 1 if prim.coeffs[-1] * coeffs[-1] > 0 else -1
        want_unit *= (sign * (coeffs[-1] // prim.coeffs[-1])) ** mult
        want[prim.coeffs] = want.get(prim.coeffs, 0) + mult
    assert got == want, f
    assert unit == want_unit, f


def random_cubic(rng):
    return [rng.randint(-4, 4) for _ in range(3)] + [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])]


class TestSympyCrossCheck:
    def test_products_of_cubics(self):
        rng = random.Random(54)
        for _ in range(40):
            pool = [random_cubic(rng) for _ in range(rng.randint(3, 6))]
            cubics = pool + [rng.choice(pool) for _ in range(rng.randint(5, 9) - len(pool))]
            f = [1]
            for c in cubics:
                f = _mul(f, c)
            check_against_sympy(f, 27)

    def test_product_of_thirty_cubics(self):
        # degree 90: long products and many modular factors to recombine
        rng = random.Random(56)
        f = [1]
        for _ in range(30):
            f = _mul(f, random_cubic(rng))
        check_against_sympy(f, 100)

    def test_half_degree_factor_with_large_coefficients(self):
        # the lifting precision only covers factors of degree <= n/2; here
        # the true factor of that degree has inner coefficients near 10^6,
        # and small end coefficients, so only the norm of f bounds them
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        rng = random.Random(55)
        for n in (4, 5, 6, 7, 9, 10, 12):
            inner = [rng.choice([-1, 1]) * rng.randint(10**6 - 1000, 10**6) for _ in range(n // 2 - 1)]
            g = [rng.choice([-3, -2, -1, 1, 2, 3])] + inner + [rng.choice([1, 2, 3])]
            h = random_int_poly(rng, n - n // 2, -2, 2)
            f = _mul(g, h)
            fac = factor_int_poly(IntPoly.of(f))
            assert fac.expand() == IntPoly.of(f)
            got = sorted((p.coeffs, m) for p, m in fac.factors)
            want = []
            for poly, mult in sympy.Poly(list(reversed(f)), y).factor_list()[1]:
                if poly.degree() > 0:
                    want.append((math_gcd_content(IntPoly.of(
                        [int(c) for c in reversed(poly.all_coeffs())])).coeffs, mult))
            assert got == sorted(want), f
            assert any(max(map(abs, c)) > 10**5 and len(c) - 1 == n // 2 for c, _ in got), f


# -- the modular stage, against arithmetic written out here -----------------

def gf_trim(u, p):
    u = [x % p for x in u]
    while u and u[-1] == 0:
        u.pop()
    return u


def gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return gf_trim(out, p)


def gf_rem(a, b, p):
    a = gf_trim(a, p)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        a = gf_trim([x - q * b[i - shift] if i >= shift else x for i, x in enumerate(a)], p)
    return a


def gf_gcd(a, b, p):
    a, b = gf_trim(a, p), gf_trim(b, p)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_trim([x * pow(a[-1], -1, p) for x in a], p)


def gf_irreducible(u, p):
    """Brute force up to degree 3 (no root), else gcd(u, x^(p^i) - x) = 1
    for every 0 < i < deg u."""
    n = len(u) - 1
    if n <= 3:
        return n == 1 or all(sum(c * pow(r, k, p) for k, c in enumerate(u)) % p for r in range(p))
    xq = [0, 1]
    for _ in range(1, n):
        power = [1]
        for _ in range(p):  # xq^p mod u
            power = gf_rem(gf_mul(power, xq, p), u, p)
        xq = power
        if len(gf_gcd(u, gf_trim([c - (k == 1) for k, c in enumerate(xq + [0, 0])], p), p)) > 1:
            return False
    return True


def random_monic_squarefree(rng, p, deg):
    while True:
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        df = gf_trim([k * c for k, c in enumerate(f)][1:], p)
        if df and len(gf_gcd(f, df, p)) == 1:
            return f


class TestModularFactorization:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
    def test_factors_are_monic_irreducible_and_multiply_back(self, p):
        rng = random.Random(70 + p)
        split = 0
        for _ in range(40):
            f = random_monic_squarefree(rng, p, rng.randint(1, 10))
            factors = _factor_mod_p(list(f), p)
            assert factors == _factor_mod_p(list(f), p)
            prod = [1]
            for u in factors:
                assert u[-1] == 1 and all(0 <= c < p for c in u), (f, u)
                assert gf_irreducible(u, p), (f, u)
                prod = gf_mul(prod, u, p)
            assert prod == f
            assert factors == sorted(factors, key=lambda u: (len(u), u))
            split += len(factors) > 1
        assert split > 20

    def test_global_random_state_untouched(self):
        state = random.getstate()
        _factor_mod_p([1, 0, 0, 0, 0, 0, 0, 0, 1], 17)  # x^8 + 1: eight linear factors
        assert random.getstate() == state

    def test_failed_draws_are_capped(self):
        # x^2 + 1 is irreducible over GF(3): it never splits as if of degree 1
        with pytest.raises(InternalError):
            _edf([1, 0, 1], 1, 3, random.Random(_EDF_SEED))
        with pytest.raises(InternalError):
            _edf([1, 1, 1], 1, 2, random.Random(_EDF_SEED))


class TestHenselLift:
    def test_lifted_factors_reduce_and_multiply_back(self):
        rng = random.Random(71)
        lifts = 0
        for _ in range(60):
            f = [1]
            for _ in range(rng.randint(2, 4)):
                f = _mul(f, random_int_poly(rng, rng.randint(1, 3)))
            if len(squarefree_decompose(IntPoly.of(f))) != 1 or len(f) < 3:
                continue
            f = list(IntPoly.of(f).coeffs)
            if f[-1] < 0:
                f = [-c for c in f]
            p = _choose_prime(f)
            lc_inv = pow(f[-1], -1, p)
            fs = _factor_mod_p(gf_trim([c * lc_inv for c in f], p), p)
            for l in (1, 2, 3, 5, 11):
                pl = p**l
                lifted = _hensel_lift(p, f, fs, l)
                assert [gf_trim(u, p) for u in lifted] == fs
                prod = [f[-1]]
                for u in lifted:
                    assert u[-1] == 1 and all(-pl < 2 * c <= pl for c in u)
                    prod = _mul(prod, u)
                assert all(c % pl == 0 for c in poly_sub(prod, f)), (f, p, l)
            lifts += len(fs) > 1
        assert lifts > 30

    def test_roots_lift_and_match_the_factor_tree(self):
        rng = random.Random(73)
        mixed = 0
        for _ in range(60):
            f = [1]
            for _ in range(rng.randint(2, 4)):
                f = _mul(f, random_int_poly(rng, rng.randint(1, 3)))
            if len(squarefree_decompose(IntPoly.of(f))) != 1 or len(f) < 3:
                continue
            f = list(IntPoly.of(f).coeffs)
            if f[-1] < 0:
                f = [-c for c in f]
            p = _choose_prime(f)
            lc_inv = pow(f[-1], -1, p)
            fs = _factor_mod_p(gf_trim([c * lc_inv for c in f], p), p)
            for l in (1, 2, 3, 5, 11):
                pl = p**l
                for u in fs:
                    if len(u) == 2:
                        a = _lift_root(p, f, -u[0] % p, l)
                        assert 0 <= a < pl and (a + u[0]) % p == 0
                        assert sum(c * a**k for k, c in enumerate(f)) % pl == 0, (f, p, l, a)
                assert _lift(p, f, fs, l) == _hensel_lift(p, f, fs, l), (f, p, l)
            degrees = {len(u) - 1 for u in fs}
            mixed += 1 in degrees and len(degrees) > 1
        assert mixed > 10


class TestRecombination:
    def test_trailing_coefficient_prunes_trial_divisions(self, monkeypatch):
        # Swinnerton-Dyer-style: both quartics split modulo every prime
        a, b = [1, 0, -10, 0, 1], [4, 0, -16, 0, 1]
        f = IntPoly.of(_mul(a, b))
        divisions, subsets = [0], [0]

        def counting_div(u, v):
            divisions[0] += 1
            return _div_exact(u, v)

        def counting_combinations(items, s):
            for c in combinations(items, s):
                subsets[0] += 1
                yield c

        monkeypatch.setattr(intfactor, "_div_exact", counting_div)
        monkeypatch.setattr(intfactor, "combinations", counting_combinations)
        intfactor.clear_cache()
        fac = factor_int_poly(f)
        assert [(p.coeffs, m) for p, m in fac.factors] == [(tuple(a), 1), (tuple(b), 1)]
        # without the test every subset would be trial-divided
        assert 0 < divisions[0] < subsets[0]

    def test_value_at_one_prunes_sparse_inputs(self, monkeypatch):
        # x^40 + 1 = Phi_16 * Phi_80: every subset of its ten quartic
        # factors mod 3 passes the trailing-coefficient test
        f = IntPoly.of([1] + [0] * 39 + [1])
        divisions, subsets, tests = [0], [0], [0]

        def counting_div(u, v):
            divisions[0] += 1
            return _div_exact(u, v)

        def counting_combinations(items, s):
            for c in combinations(items, s):
                subsets[0] += 1
                yield c

        may_divide = intfactor._may_divide

        def counting_may_divide(*args):
            tests[0] += 1
            return may_divide(*args)

        monkeypatch.setattr(intfactor, "_div_exact", counting_div)
        monkeypatch.setattr(intfactor, "combinations", counting_combinations)
        monkeypatch.setattr(intfactor, "_may_divide", counting_may_divide)
        intfactor.clear_cache()
        fac = factor_int_poly(f, degree_limit=40)
        assert sorted(p.degree for p, _ in fac.factors) == [8, 32]
        # every rest has nonzero values at 0 and 1: each subset meets the
        # trailing test once, and the test at 1 once when it passes
        trailing_passes = tests[0] - subsets[0]
        assert trailing_passes == subsets[0]
        assert 0 < divisions[0] < trailing_passes // 4

    def test_complement_candidate(self, monkeypatch):
        # Swinnerton-Dyer x^4 - 10x^2 + 1 times a cubic, modulo 7 factors of
        # degrees 1, 1, 1, 2, 2: the quartic's pair of quadratics is a subset
        # of size 2 and degree 4 > 7/2, found only through its complement
        a, b = [1, 0, -10, 0, 1], [-6, 2, 2, 1]
        f = _mul(a, b)
        p = _choose_prime(f)
        fs = _factor_mod_p(gf_trim([c * pow(f[-1], -1, p) for c in f], p), p)
        assert sorted(len(u) - 1 for u in fs) == [1, 1, 1, 2, 2]
        divisors = []

        def recording_div(u, v):
            q = _div_exact(u, v)
            if q is not None:
                divisors.append(v)
            return q

        monkeypatch.setattr(intfactor, "_div_exact", recording_div)
        intfactor.clear_cache()
        fac = factor_int_poly(IntPoly.of(f))
        assert [(p.coeffs, m) for p, m in fac.factors] == [(tuple(b), 1), (tuple(a), 1)]
        # the candidate was the cubic, the quartic its quotient
        assert divisors == [b]


class TestKroneckerProduct:
    def test_matches_schoolbook(self):
        rng = random.Random(72)
        for _ in range(400):
            bits = rng.choice([1, 4, 30, 64, 200])
            a = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 30))]
            b = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 30))]
            a[-1] = a[-1] or 1
            b[-1] = b[-1] or -1
            want = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    want[i + j] += x * y
            while want and want[-1] == 0:
                want.pop()
            assert _mul(a, b) == want, (a, b)
