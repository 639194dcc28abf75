"""Property tests of the packed modular kernel of ``intfactor``: products,
remainders and p-th powers against schoolbook arithmetic written out here,
the modular factorization against sympy's ``gf_factor_sqf``, the lifted
factors against a reference quadratic Hensel lift, and the Bezout
cofactors of the factor tree.  sympy and hypothesis are test-only
dependencies."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor_sqf, gf_gcd, gf_gcdex, gf_sqf_p  # noqa: E402

from semifactor.intfactor import (  # noqa: E402
    IntPoly,
    _bezout_pair,
    _choose_prime,
    _factor_mod_p,
    _lift,
    _Ring,
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


class TestPackedKernel:
    @settings(max_examples=150, deadline=None)
    @given(ring_inputs())
    def test_product_matches_schoolbook(self, args):
        m, f, a, b = args
        ring = _Ring(f, m)
        got = trim(ring.reduce(ring.mul(ring.pack(a), ring.pack(b))))
        assert got == school_divmod(school_mul(a, b, m), f, m)[1]

    @settings(max_examples=150, deadline=None)
    @given(ring_inputs(), st.data())
    def test_divmod_matches_schoolbook(self, args, data):
        m, f, _, _ = args
        n = len(f) - 1
        qdeg = data.draw(st.integers(0, 30))
        c = data.draw(st.lists(st.integers(0, m - 1), min_size=0, max_size=n + qdeg + 1))
        ring = _Ring(f, m, qdeg, m)
        q, r = ring.divmod(ring.pack(c), len(c))
        assert len(r) == n
        assert (trim(q), trim(r)) == school_divmod(c, f, m)

    @settings(max_examples=60, deadline=None)
    @given(ring_inputs(moduli=[2, 3, 5, 17, 47], max_degree=20))
    def test_frobenius_is_the_pth_power(self, args):
        p, f, a, _ = args
        ring = _Ring(f, p)
        A = ring.pack(a)
        want = [1]
        for _ in range(p):
            want = school_divmod(school_mul(want, a, p), f, p)[1]
        assert trim(ring.reduce(ring.pow(A, p))) == want

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 47]), st.integers(1, 4), st.data())
    def test_lifted_inverse_equals_a_fresh_one(self, p, k, data):
        # the inverse of rev(f) mod p^k lifts to mod p^(2k) in one Newton
        # step, for any f congruent mod p^k
        n = data.draw(st.integers(1, 15))
        f = data.draw(st.lists(st.integers(0, p ** (2 * k) - 1), min_size=n, max_size=n)) + [1]
        qdeg = data.draw(st.integers(0, 20))
        low = _Ring([x % p**k for x in f], p**k, qdeg)
        assert _Ring(f, p ** (2 * k), qdeg, w=low.inv).inv == _Ring(f, p ** (2 * k), qdeg).inv


class TestModularFactorizationCrossCheck:
    @pytest.mark.parametrize("p", [2, 3, 5, 17, 47, 65537])
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
        p = _choose_prime(f)
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
