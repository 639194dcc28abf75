import random
import threading
from fractions import Fraction
from itertools import combinations, product

import pytest

from semifactor import intfactor
from semifactor.errors import BudgetError, DomainError, InternalError
from semifactor.intfactor import (
    _EDF_SEED,
    IntPoly,
    _choose_prime,
    _div_exact,
    _edf,
    _factor_mod_p,
    _gcd_z,
    _hensel_lift,
    _lift,
    _lift_root,
    _mul,
    _p_divmod,
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


class TestFactor:
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
        info = intfactor._irreducible_factors.cache_info
        intfactor.clear_cache()
        parts = [(n, 0, 1) for n in range(1, info().maxsize + 7)]  # x^2 + n, squarefree
        outs = [intfactor._irreducible_factors(p) for p in parts]
        assert info().currsize == info().maxsize
        assert intfactor._irreducible_factors(parts[-1]) is outs[-1]
        assert intfactor._irreducible_factors(parts[0]) is not outs[0]
        assert info().currsize == info().maxsize
        intfactor.clear_cache()
        assert info().currsize == 0

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
            assert _gcd_z(a, b) == want, (a, b)
            assert _gcd_z(b, a) == want, (a, b)
            nontrivial += len(want) > 1
        assert nontrivial > 150

    def test_zero_operand(self):
        assert _gcd_z([], []) == []
        assert _gcd_z([], [-4, 0, -6]) == [2, 0, 3]
        assert _gcd_z([3, -6], []) == [-1, 2]

    def test_constant_operand(self):
        assert _gcd_z([6], [2, 4, 2]) == [1]
        assert _gcd_z([1, 2, 1], [-5]) == [1]
        assert _gcd_z([4], [6]) == [1]

    def test_negative_leading_coefficients_and_content(self):
        # -6(x+1)(x-2) and 4(x+1)(2x+3)
        a = [12, 6, -6]
        b = [12, 20, 8]
        assert _gcd_z(a, b) == [1, 1]
        assert _gcd_z([-2, -2], [3, 3]) == [1, 1]
        assert _gcd_z([4, 8], [6, 12]) == [1, 2]


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


class TestSympyCrossCheck:
    def test_products_of_cubics(self):
        sympy = pytest.importorskip("sympy")
        y = sympy.Symbol("y")
        rng = random.Random(54)

        def normal(coeffs):
            """(sign, primitive coefficients with positive leading one)."""
            poly = math_gcd_content(IntPoly.of(coeffs))
            sign = 1 if poly.coeffs[-1] * coeffs[-1] > 0 else -1
            return sign * (coeffs[-1] // poly.coeffs[-1]), poly.coeffs

        for _ in range(40):
            pool = [
                [rng.randint(-4, 4) for _ in range(3)] + [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])]
                for _ in range(rng.randint(3, 6))
            ]
            cubics = pool + [rng.choice(pool) for _ in range(rng.randint(5, 9) - len(pool))]
            f = [1]
            for c in cubics:
                f = _mul(f, c)
            fac = factor_int_poly(IntPoly.of(f), degree_limit=27)
            unit = fac.sign
            for q in fac.content:
                unit *= q
            got = {p.coeffs: m for p, m in fac.factors}

            const, pairs = sympy.Poly(list(reversed(f)), y).factor_list()
            want = {}
            want_unit = int(const)
            for poly, mult in pairs:
                scale, coeffs = normal([int(c) for c in reversed(poly.all_coeffs())])
                want_unit *= scale**mult
                want[coeffs] = want.get(coeffs, 0) + mult
            assert got == want, f
            assert unit == want_unit, f

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
