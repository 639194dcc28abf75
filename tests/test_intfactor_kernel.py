"""Property tests of the packed modular kernel of ``intfactor``: products,
remainders and powers against schoolbook arithmetic written out here, with
every slot kept below 2m; the GF(p) Euclidean step, gcd and Bezout pair
against sympy's ``gf_div``, ``gf_gcd`` and ``gf_gcdex``; the modular
factorization against sympy's ``gf_factor_sqf``, the lifted factors
against a reference quadratic Hensel lift, and the Bezout cofactors of the
factor tree, the Hensel prime against a search over the odd primes below
it, and factor_int_poly against sympy on inputs where the old prime rule
began at 2 and with the first stage of the lift forced down to p and p^2.
sympy and hypothesis are test-only dependencies."""
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_div, gf_factor_sqf, gf_gcd, gf_gcdex, gf_sqf_p  # noqa: E402

from semifactor import intfactor  # noqa: E402
from semifactor.intfactor import (  # noqa: E402
    IntPoly,
    _bezout_pair,
    _choose_prime,
    _factor_mod_p,
    _lift,
    _mignotte_bound,
    _p_gcd,
    _p_step,
    _Ring,
    factor_int_poly,
    squarefree_decompose,
)

# primes and prime powers as moduli; products modulo the last ones need
# slots wider than a machine word
MODULI = [2, 3, 5, 47, 65537, 3**20, 2**61 - 1, 2**64 + 13, 7**40]


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def school_mul(a, b, m=None):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out if m is None else [x % m for x in out]


def school_divmod(a, f, m):
    """Quotient and remainder of a by a monic f, coefficients mod m."""
    rem = [x % m for x in a]
    n = len(f) - 1
    quo = [0] * max(len(rem) - n, 0)
    for pos in range(len(rem) - 1 - n, -1, -1):
        q = rem[pos + n]
        quo[pos] = q
        for j in range(n + 1):
            rem[pos + j] = (rem[pos + j] - q * f[j]) % m
    return trim(quo), trim(rem[:n])


@st.composite
def ring_inputs(draw, moduli=MODULI, max_degree=30):
    m = draw(st.sampled_from(moduli))
    n = draw(st.integers(1, max_degree))
    coeff = st.integers(0, m - 1)
    f = draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    a = draw(st.lists(coeff, min_size=n, max_size=n))
    b = draw(st.lists(coeff, min_size=n, max_size=n))
    return m, f, a, b


def assert_lazy(ring, X, count):
    """X holds ``count`` slots, each below 2m."""
    assert X >> count * ring.bits == 0
    assert all(x < 2 * ring.m for x in ring.unpack(X, count))


def school_pow(a, e, f, m):
    out = [1]
    for _ in range(e):
        out = school_divmod(school_mul(out, a, m), f, m)[1]
    return out


class TestPackedKernel:
    @settings(max_examples=150, deadline=None)
    @given(ring_inputs())
    def test_product_matches_schoolbook(self, args):
        m, f, a, b = args
        ring = _Ring(f, m)
        P = ring.mul(ring.pack(a), ring.pack(b))
        assert_lazy(ring, P, len(f) - 1)
        assert trim(ring.reduce(P)) == school_divmod(school_mul(a, b, m), f, m)[1]

    @settings(max_examples=100, deadline=None)
    @given(ring_inputs(max_degree=12), st.integers(1, 40))
    def test_lazy_operands_and_powers(self, args, e):
        # operands with slots anywhere in [0, 2m), as products hand them on
        m, f, a, b = args
        ring = _Ring(f, m)
        A = ring.pack([x + m * (i % 2) for i, x in enumerate(a)])
        B = ring.pack([x + m * (i % 3 == 0) for i, x in enumerate(b)])
        P = ring.mul(A, B)
        assert_lazy(ring, P, len(f) - 1)
        assert trim(ring.reduce(P)) == school_divmod(school_mul(a, b, m), f, m)[1]
        R = ring.pow(A, e)
        assert_lazy(ring, R, len(f) - 1)
        assert trim(ring.reduce(R)) == school_pow(a, e, f, m)

    @pytest.mark.parametrize("m", MODULI)
    @pytest.mark.parametrize("n", [1, 2])
    def test_degrees_one_and_two(self, m, n):
        # the shortest moduli: a product has 2n - 1 slots and a quotient of
        # at most one
        rng = random.Random(m * 10 + n)
        for _ in range(30):
            f = [rng.randrange(m) for _ in range(n)] + [1]
            a = [rng.randrange(m) for _ in range(n)]
            b = [rng.randrange(m) for _ in range(n)]
            ring = _Ring(f, m)
            A, B = ring.pack(a), ring.pack(b)
            P = ring.mul(A, B)
            assert_lazy(ring, P, n)
            assert trim(ring.reduce(P)) == school_divmod(school_mul(a, b, m), f, m)[1]
            e = rng.randint(1, 12)
            R = ring.pow(A, e)
            assert_lazy(ring, R, n)
            assert trim(ring.reduce(R)) == school_pow(a, e, f, m)
            c = school_mul(a, b)
            Q, Rem = ring.divmod(ring.pack(c), 2 * n - 1)
            assert_lazy(ring, Q, n - 1)
            assert_lazy(ring, Rem, n)
            want = school_divmod(c, f, m)
            assert (trim(ring.reduce(Q, n - 1)), trim(ring.reduce(Rem))) == want

    @settings(max_examples=150, deadline=None)
    @given(ring_inputs(), st.data())
    def test_divmod_matches_schoolbook(self, args, data):
        m, f, _, _ = args
        n = len(f) - 1
        qdeg = data.draw(st.integers(0, 30))
        c = data.draw(st.lists(st.integers(0, m - 1), min_size=0, max_size=n + qdeg + 1))
        ring = _Ring(f, m, qdeg)
        Q, R = ring.divmod(ring.pack(c), len(c))
        k = max(len(c) - n, 0)
        assert_lazy(ring, Q, k)
        assert_lazy(ring, R, n)
        assert (trim(ring.reduce(Q, k)), trim(ring.reduce(R))) == school_divmod(c, f, m)

    @pytest.mark.parametrize("m", MODULI)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_widest_dividend_and_quotient(self, m, n):
        # f's coefficients at m - 1, and qdeg + 1 = n, the most quotient
        # slots that meet one remainder slot
        f = [m - 1] * n + [1]
        ring = _Ring(f, m, n - 1)
        # every dividend slot at 2^b - 1
        c = [(1 << ring.b) - 1] * (2 * n)
        Q, R = ring.divmod(ring.pack(c), 2 * n)
        assert_lazy(ring, Q, n)
        assert_lazy(ring, R, n)
        assert (trim(ring.reduce(Q, n)), trim(ring.reduce(R))) == school_divmod(c, f, m)
        # the offset against the largest product a quotient may subtract, all
        # its slots at 2m - 1, with the dividend's low slots at 2m - 1: no
        # slot of C + off - Q*f borrows from the next
        Q = ring.pack([2 * m - 1] * n)
        C = ring.pack([2 * m - 1] * n)
        off = list(ring.unpack(ring.off, n))
        want = [2 * m - 1 + off[j] - (j + 1) * (2 * m - 1) * (m - 1) for j in range(n)]
        assert 0 <= min(want) and max(want) < 1 << ring.b
        assert list(ring.unpack((C + ring.off - Q * ring.f) & ring.low, n)) == want

    @settings(max_examples=60, deadline=None)
    @given(ring_inputs(moduli=[2, 3, 5, 17, 47], max_degree=20))
    def test_pth_power_matches_schoolbook(self, args):
        p, f, a, _ = args
        ring = _Ring(f, p)
        assert trim(ring.reduce(ring.pow(ring.pack(a), p))) == school_pow(a, p, f, p)


def high_first(c):
    return [ZZ(x) for x in reversed(c)]


def low_first(c):
    return [int(x) for x in reversed(c)]


@st.composite
def euclid_inputs(draw):
    """A prime, a reduced a and a reduced nonzero b, any leading units and
    any degree gap, deg a = deg b + 1 most often."""
    p = draw(st.sampled_from([2, 3, 5, 7, 47, 65537, 2**61 - 1]))
    coeff = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    nb = draw(st.integers(0, 12))
    na = draw(st.one_of(st.just(nb + 1), st.integers(0, 16)))
    b = draw(st.lists(coeff, min_size=nb, max_size=nb)) + [draw(unit)]
    a = draw(st.lists(coeff, min_size=na, max_size=na)) + [draw(unit)]
    return p, a, b


class TestEuclidStep:
    @settings(max_examples=300, deadline=None)
    @given(euclid_inputs())
    def test_step_matches_gf_div(self, args):
        p, a, b = args
        q, r = _p_step(list(a), b, p)
        want_q, want_r = gf_div(high_first(a), high_first(b), p, ZZ)
        assert (q, r) == (low_first(want_q), low_first(want_r))

    @settings(max_examples=200, deadline=None)
    @given(euclid_inputs())
    def test_gcd_matches_gf_gcd(self, args):
        p, a, b = args
        assert _p_gcd(a, b, p) == low_first(gf_gcd(high_first(a), high_first(b), p, ZZ))
        assert _p_gcd(a, [], p) == low_first(gf_gcd(high_first(a), [], p, ZZ))

    @settings(max_examples=200, deadline=None)
    @given(euclid_inputs())
    def test_bezout_pair_matches_gf_gcdex(self, args):
        # the pair with deg s < deg h and deg t < deg g is unique
        p, g, h = args
        assume(len(g) > 1 and len(h) > 1)
        s, t, one = gf_gcdex(high_first(g), high_first(h), p, ZZ)
        assume(one == [ZZ(1)])
        assert _bezout_pair(g, h, p) == (low_first(s), low_first(t))


class TestModularFactorizationCrossCheck:
    # the Hensel prime is odd, and so is every p here
    @pytest.mark.parametrize("p", [3, 5, 17, 47, 65537])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_gf_factor_sqf(self, p, data):
        n = data.draw(st.integers(1, 30))
        f = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
        high_first = [ZZ(c) for c in reversed(f)]
        assume(gf_sqf_p(high_first, p, ZZ))
        _, want = gf_factor_sqf(high_first, p, ZZ)
        want = sorted(([int(c) for c in reversed(u)] for u in want), key=lambda u: (len(u), u))
        assert _factor_mod_p(list(f), p) == want


# -- a reference lift: one factor against its cofactor, MCA 15.10 on lists ----

def sym(c, m):
    """Coefficients in the symmetric range (-m/2, m/2]."""
    return trim([m // 2 - (m // 2 - x) % m for x in c])


def school_add(a, b, m, sign=1):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [(x + sign * y) % m for x, y in zip(a, b)]


def school_sub(a, b, m):
    return school_add(a, b, m, -1)


def reference_lift(f, h, p, l):
    """The monic lift mod p^l of a monic factor h of f mod p."""
    pl = p**l
    lc = f[-1]
    g = school_divmod(f, h, p)[0]  # f/h has leading coefficient lc
    s, t, one = gf_gcdex([ZZ(c) for c in reversed(g)], [ZZ(c) for c in reversed(h)], p, ZZ)
    assert [int(c) for c in one] == [1]
    s, t = [int(c) for c in reversed(s)], [int(c) for c in reversed(t)]
    m = p
    while m < pl:
        M = min(m * m, pl)
        e = school_sub([x % M for x in f], school_mul(g, h, M), M)
        q, r = school_divmod(school_mul(s, e, M), h, M)
        g = school_add(g, school_add(school_mul(t, e, M), school_mul(q, g, M), M), M)
        h = trim(school_add(h, r, M))
        b = school_sub(school_add(school_mul(s, g, M), school_mul(t, h, M), M), [1], M)
        c, d = school_divmod(school_mul(s, b, M), h, M)
        s = school_sub(s, d, M)
        t = school_sub(t, school_add(school_mul(t, b, M), school_mul(c, g, M), M), M)
        m = M
    assert h[-1] == 1 and lc % p
    return sym(h, pl)


small_polys = st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(lambda c: c[-1] != 0)


class TestLift:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_polys, min_size=2, max_size=4), st.integers(1, 12))
    def test_lifts_multiply_back_and_match_the_reference(self, parts, l):
        f = [1]
        for u in parts:
            f = school_mul(f, u)
        F = IntPoly.of(f)
        assume(F.degree >= 2)
        assume(len(squarefree_decompose(F)) == 1 and squarefree_decompose(F)[0][1] == 1)
        f = list(squarefree_decompose(F)[0][0].coeffs)  # primitive, positive lc
        p = _choose_prime(f, _mignotte_bound(f))
        pl = p**l
        fs = _factor_mod_p([c * pow(f[-1], -1, p) % p for c in f], p)
        lifted = _lift(p, f, fs, l)
        prod = [f[-1]]
        for u, w in zip(lifted, fs):
            assert [c % p for c in u] == w and all(-pl < 2 * c <= pl for c in u)
            prod = school_mul(prod, u, pl)
        assert prod == [c % pl for c in f]
        if len(fs) > 1:
            assert lifted == [reference_lift(f, u, p, l) for u in fs]


def root8(n):
    """floor(n^(1/8)) by bisection."""
    lo, hi = 0, 1
    while hi**8 <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**8 <= n else (lo, mid)
    return lo


def sympy_factors(f):
    """(unit, sorted (coefficients, multiplicity) pairs) from sympy."""
    const, pairs = sympy.Poly(list(reversed(f)), sympy.Symbol("y")).factor_list()
    return int(const), sorted((tuple(int(c) for c in reversed(u.all_coeffs())), m) for u, m in pairs)


class TestChoosePrime:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(small_polys, min_size=1, max_size=4), st.integers(1, 2**90))
    def test_least_good_prime_from_the_start(self, parts, bound):
        f = [1]
        for u in parts:
            f = school_mul(f, u)
        F = IntPoly.of(f)
        assume(F.degree >= 1)
        assume(len(squarefree_decompose(F)) == 1 and squarefree_decompose(F)[0][1] == 1)
        f = list(squarefree_decompose(F)[0][0].coeffs)
        start = max(3, min(256, root8(2 * bound) + 1))

        def good(q):
            high = [ZZ(c % q) for c in reversed(f)]
            return f[-1] % q != 0 and gf_sqf_p(high, q, ZZ)

        p = _choose_prime(f, bound)
        assert sympy.isprime(p) and p % 2 and p >= start and good(p)
        # p**8 > 2*bound unless the cap set the start
        assert start == 256 or p**8 > 2 * bound
        # the start is at least 3, so these are the odd primes below p
        assert not any(good(q) for q in sympy.primerange(start, p))

    def test_factors_match_sympy_where_the_old_start_was_2(self, monkeypatch):
        # products of 2-4 polynomials of degree <= 3 with coefficients in
        # [-3, 3]: small Mignotte bounds, where the start before odd primes,
        # min(256, floor((2B)^(1/8)) + 1), was 2
        starts = []
        choose = intfactor._choose_prime

        def recording(f, bound):
            starts.append(min(256, root8(2 * bound) + 1))
            return choose(f, bound)

        monkeypatch.setattr(intfactor, "_choose_prime", recording)
        poly = st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(st.lists(poly, min_size=2, max_size=4))
        def check(parts):
            f = [1]
            for u in parts:
                f = school_mul(f, u)
            intfactor.clear_cache()
            fac = factor_int_poly(IntPoly.of(f))
            got = sorted((u.coeffs, m) for u, m in fac.factors)
            unit = fac.sign
            for q in fac.content:
                unit *= q
            assert (unit, got) == sympy_factors(f)

        check()
        intfactor.clear_cache()
        assert starts and 4 * starts.count(2) >= len(starts), (starts.count(2), len(starts))


def record_stages(monkeypatch):
    """Per ``_zassenhaus`` call, the moduli of its ``_search`` calls and the
    exponents of its ``_lift`` calls, in order."""
    log = []
    zassenhaus, search, lift = intfactor._zassenhaus, intfactor._search, intfactor._lift

    def recording_zassenhaus(f):
        log.append({"searches": [], "lifts": []})
        return zassenhaus(f)

    def recording_search(f, lifted, pl, smax):
        log[-1]["searches"].append(pl)
        return search(f, lifted, pl, smax)

    def recording_lift(p, f, fs, l):
        log[-1]["lifts"].append(l)
        return lift(p, f, fs, l)

    monkeypatch.setattr(intfactor, "_zassenhaus", recording_zassenhaus)
    monkeypatch.setattr(intfactor, "_search", recording_search)
    monkeypatch.setattr(intfactor, "_lift", recording_lift)
    return log


class TestStagedRecombination:
    def test_factors_match_sympy_with_stage_one_at_p_and_p2(self, monkeypatch):
        # products of 3-6 monic polynomials of degree 1-3: with stage one
        # at p or p^2, far below their lift exponents, the pieces it finds
        # are proved by a full search at the stage modulus or lifted again
        log = record_stages(monkeypatch)
        monic = st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(lambda c: c + [1])
        for exp in (1, 2):
            monkeypatch.setattr(intfactor, "_STAGE_EXP", exp)
            own, again = [0], [0]

            @settings(max_examples=100, deadline=None, derandomize=True, database=None)
            @given(st.lists(monic, min_size=3, max_size=6))
            def check(parts):
                f = [1]
                for u in parts:
                    f = school_mul(f, u)
                intfactor.clear_cache()
                log.clear()
                fac = factor_int_poly(IntPoly.of(f))
                got = sorted((u.coeffs, m) for u, m in fac.factors)
                assert (fac.sign, got) == sympy_factors(f)
                # a search after the first at the same modulus proves a piece
                # by its own bound; a second lift lifts one further
                own[0] += any(pl == z["searches"][0] for z in log for pl in z["searches"][1:])
                again[0] += any(len(z["lifts"]) > 1 for z in log)

            check()
            assert again[0] >= 10 and (exp == 1 or own[0] >= 10), (exp, own, again)
        intfactor.clear_cache()


class TestBezoutPair:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cofactors_are_reduced_and_sum_to_one(self, p, data):
        # g with any leading unit, h monic, as the factor tree builds them
        coeff = st.integers(0, p - 1)
        m = data.draw(st.integers(1, 12))
        g = data.draw(st.lists(coeff, min_size=m, max_size=m)) + [data.draw(st.integers(1, p - 1))]
        n = data.draw(st.integers(1, 12))
        h = data.draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
        high_first = [[ZZ(x) for x in reversed(c)] for c in (g, h)]
        assume(gf_gcd(*high_first, p, ZZ) == [ZZ(1)])
        s, t = _bezout_pair(g, h, p)
        assert len(s) - 1 < len(h) - 1 and len(t) - 1 < len(g) - 1
        assert trim(school_add(school_mul(s, g, p), school_mul(t, h, p), p)) == [1]
