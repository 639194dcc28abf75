import random
from fractions import Fraction

import pytest

import semifactor as sf
from semifactor.errors import (
    DomainError,
    ExponentNotInMonoidError,
    ParseError,
    UsageError,
)
from semifactor.polyexpr import ambient_exact_div, format_poly, inspect, parse

from conftest import random_poly

NAT = sf.Nat()
Q6 = sf.Quad(6)


def P(text, S=NAT, M=None):
    return parse(text, S, M or sf.nat_monoid())


def fraction_reference_div(f, g):
    """f/g by long division in the fraction field, kept only when the
    remainder vanishes and every quotient term lies in the semiring and the
    monoid.  Values are pairs (a, b) for a + b*sqrt(d); Nat uses d = 0."""
    S, M = f.semiring, f.monoid
    quad = isinstance(S, sf.Quad)
    d = S.d if quad else 0

    def field(c):
        return (Fraction(c[0]), Fraction(c[1])) if quad else (Fraction(c), Fraction(0))

    def mul(a, b):
        return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        n = b[0] * b[0] - d * b[1] * b[1]
        return ((a[0] * b[0] - d * a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)

    rem = {n: field(c) for n, c in zip(f.nums, f.coeffs)}
    gterms = [(n, field(c)) for n, c in zip(g.nums, g.coeffs)]
    gdeg, glc = gterms[0]
    quo = {}
    while rem:
        top = max(rem)
        if top < gdeg:
            return None
        qe, qc = top - gdeg, div(rem[top], glc)
        quo[qe] = qc
        for e, c in gterms:
            p = mul(qc, c)
            v = rem.get(qe + e, (0, 0))
            v = (v[0] - p[0], v[1] - p[1])
            if v == (0, 0):
                rem.pop(qe + e, None)
            else:
                rem[qe + e] = v
    terms = []
    for e, (a, b) in quo.items():
        if min(a, b) < 0 or a.denominator != 1 or b.denominator != 1:
            return None
        if not M.member_num(e):
            return None
        terms.append((Fraction(e, M.denom), (int(a), int(b)) if quad else int(a)))
    return sf.PolyExpr.from_terms(S, M, terms)


class TestParse:
    def test_sorts_terms(self):
        f = P("x^2+x^3")
        assert [e.value for e, _ in f.terms] == [3, 2]
        assert [c for _, c in f.terms] == [1, 1]

    def test_fractional_exponent_accepted(self):
        M = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        f = parse("x^{3/2}+1", NAT, M)
        assert [e.value for e, _ in f.terms] == [Fraction(3, 2), 0]

    def test_exponent_outside_monoid(self):
        M = sf.make_monoid([Fraction(1, 2)])
        with pytest.raises(ExponentNotInMonoidError) as err:
            parse("x^{1/3}", NAT, M)
        assert "1/3" in str(err.value)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            P("x^2+*3")
        assert err.value.position == 4

    def test_no_subtraction(self):
        with pytest.raises(ParseError):
            P("x^2-1")

    def test_quad_pairs(self):
        f = parse("(1,1)*x^2+(0,1)", Q6, sf.nat_monoid())
        assert [c for _, c in f.terms] == [(1, 1), (0, 1)]

    def test_pair_coefficient_needs_quad(self):
        with pytest.raises(ParseError):
            P("(1,1)*x")

    def test_integer_coefficient_over_quad(self):
        f = parse("3x+2", Q6, sf.nat_monoid())
        assert [c for _, c in f.terms] == [(3, 0), (2, 0)]

    def test_collects_like_terms(self):
        assert P("x+x+1") == P("2x+1")

    def test_zero_literal(self):
        assert P("0").is_zero

    def test_star_requires_x(self):
        with pytest.raises(ParseError):
            P("2*")

    def test_whitespace_insignificant(self):
        assert P(" x ^ 2 + 3 x + 1 ") == P("x^2+3x+1")

    def test_fractional_without_braces(self):
        M = sf.make_monoid([Fraction(1, 2)])
        assert parse("x^3/2", NAT, M) == parse("x^{3/2}", NAT, M)


class TestFormat:
    def test_round_trip_corpus(self):
        rng = random.Random(11)
        contexts = [
            (NAT, sf.nat_monoid()),
            (NAT, sf.make_monoid([2, 3])),
            (NAT, sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])),
            (Q6, sf.nat_monoid()),
            (Q6, sf.make_monoid([2, 3])),
        ]
        for i in range(500):
            S, M = contexts[i % len(contexts)]
            f = random_poly(rng, S, M, max_num=8, max_terms=5)
            assert parse(format_poly(f), S, M) == f

    def test_zero(self):
        z = sf.PolyExpr.zero(NAT, sf.nat_monoid())
        assert format_poly(z) == "0"
        assert parse("0", NAT, sf.nat_monoid()) == z

    def test_canonical_idempotence(self):
        f = P("x^2+x^3+2x^2")
        again = sf.PolyExpr.from_terms(NAT, f.monoid, [(e.value, c) for e, c in f.terms])
        assert again == f


class TestOps:
    def test_product_identity_sextic(self):
        # (x+1)(x^4+x^2+1) and (x^3+1)(x^2+x+1) expand to the same sextic
        lhs = P("x+1") * P("x^4+x^2+1")
        rhs = P("x^3+1") * P("x^2+x+1")
        assert lhs == rhs == P("x^5+x^4+x^3+x^2+x+1")

    def test_product_identity_degree_ten(self):
        lhs = P("x^4+x^2+x+1") * P("x^6+x^5+x^3+1")
        assert lhs == P("x^10+x^9+x^8+3x^7+2x^6+2x^5+2x^4+x^3+x^2+x+1")

    def test_additive_identity(self):
        f = P("2x^3+2")
        assert f + sf.PolyExpr.zero(NAT, f.monoid) == f

    def test_context_mismatch(self):
        with pytest.raises(UsageError):
            P("x") + parse("x", NAT, sf.make_monoid([2, 3]))
        with pytest.raises(UsageError):
            P("x") * parse("x", Q6, sf.nat_monoid())

    def test_power_needs_a_nonnegative_int(self):
        f = P("x+1")
        assert f**0 == P("1") and f**3 == f * f * f
        for n in (-2, True, 2.0):
            with pytest.raises(UsageError, match="nonnegative integer"):
                f**n

    def test_ring_laws_random(self):
        rng = random.Random(12)
        M = sf.nat_monoid()
        for _ in range(1100):
            f = random_poly(rng, NAT, M, max_num=4, max_terms=3)
            g = random_poly(rng, NAT, M, max_num=4, max_terms=3)
            h = random_poly(rng, NAT, M, max_num=4, max_terms=3)
            assert f * g == g * f
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_leading_trailing_multiplicative(self):
        rng = random.Random(13)
        M = sf.make_monoid([2, 3])
        for _ in range(300):
            f = random_poly(rng, NAT, M, max_num=8)
            g = random_poly(rng, NAT, M, max_num=8)
            fg = f * g
            assert fg.degree.value == f.degree.value + g.degree.value
            assert fg.leading_coeff == f.leading_coeff * g.leading_coeff
            assert fg.trailing_degree.value == f.trailing_degree.value + g.trailing_degree.value
            assert fg.trailing_coeff == f.trailing_coeff * g.trailing_coeff

    def test_support_is_sumset(self):
        rng = random.Random(14)
        for S, M in [(NAT, sf.nat_monoid()), (Q6, sf.make_monoid([2, 3]))]:
            for _ in range(300):
                f = random_poly(rng, S, M, max_num=7)
                g = random_poly(rng, S, M, max_num=7)
                sumset = {a.value + b.value for a in f.support for b in g.support}
                got = {e.value for e in (f * g).support}
                assert got == sumset
                assert len(got) >= len(f.support) + len(g.support) - 1


class TestInspect:
    def test_sextic(self):
        facts = inspect(P("x^5+x^4+x^3+x^2+x+1"))
        assert facts.degree.value == 5
        assert facts.leading_coeff == 1
        assert {e.value for e in facts.support} == {0, 1, 2, 3, 4, 5}
        assert not facts.is_monomial

    def test_binomial(self):
        facts = inspect(P("2x^3+2"))
        assert facts.degree.value == 3
        assert facts.leading_coeff == 2
        assert facts.trailing_degree.value == 0
        assert facts.trailing_coeff == 2
        assert not facts.is_monomial

    def test_fractional_monomial(self):
        M = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        facts = inspect(parse("3x^{3/2}", NAT, M))
        assert facts.is_monomial

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            inspect(sf.PolyExpr.zero(NAT, sf.nat_monoid()))


class TestAmbientDivision:
    def test_exact(self):
        q = ambient_exact_div(P("x^5+x^4+x^3+x^2+x+1"), P("x^2+x+1"))
        assert q == P("x^3+1")

    def test_negative_field_quotient_rejected(self):
        q = ambient_exact_div(P("x^5+x^4+x^3+x^2+x+1"), P("x^3+2x^2+2x+1"))
        assert q is None

    def test_unit_divisor(self):
        f = P("x^5+x^4+x^3+x^2+x+1")
        assert ambient_exact_div(f, P("1")) == f

    def test_zero_rejected(self):
        z = sf.PolyExpr.zero(NAT, sf.nat_monoid())
        with pytest.raises(DomainError):
            ambient_exact_div(P("x"), z)
        with pytest.raises(DomainError):
            ambient_exact_div(z, P("x"))

    def test_round_trip_random(self):
        rng = random.Random(15)
        contexts = [
            (NAT, sf.nat_monoid()),
            (NAT, sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])),
            (Q6, sf.nat_monoid()),
        ]
        for i in range(400):
            S, M = contexts[i % len(contexts)]
            f = random_poly(rng, S, M, max_num=6, max_terms=4)
            g = random_poly(rng, S, M, max_num=6, max_terms=4)
            assert ambient_exact_div(f * g, g) == f

    def test_quotient_exponent_must_lie_in_monoid(self):
        M = sf.make_monoid([2, 3])
        f = parse("x^4", NAT, M)
        g = parse("x^2", NAT, M)
        assert ambient_exact_div(f, g) == parse("x^2", NAT, M)
        h = parse("x^3", NAT, M)
        # field quotient x exists but 1 is not a member of <2,3>
        assert ambient_exact_div(parse("x^4", NAT, M), h) is None


class TestDivisionKernelAgainstFractions:
    def test_random_pairs(self):
        rng = random.Random(29)
        contexts = [
            (NAT, sf.nat_monoid()),
            (NAT, sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])),
            (Q6, sf.nat_monoid()),
        ]
        hits = [0, 0, 0]
        for i in range(900):
            k = i % len(contexts)
            S, M = contexts[k]
            g = random_poly(rng, S, M, max_num=5, max_terms=3, max_coeff=3)
            f = random_poly(rng, S, M, max_num=10, max_terms=5, max_coeff=6)
            if i % 10 < 2:
                f = f * g
            want = fraction_reference_div(f, g)
            assert ambient_exact_div(f, g) == want, (str(f), str(g))
            hits[k] += want is not None
        # mostly non-dividing pairs, with some quotients in every context
        assert all(0 < h < 150 for h in hits), hits

    def test_quad_divisor_with_negative_norm(self):
        # N(1 + r) = 1 - 6 = -5 over quad:6
        M = sf.nat_monoid()
        g = sf.PolyExpr.from_terms(Q6, M, [(0, (1, 1))])
        for a in [(0, 1), (2, 3), (5, 0), (7, 7)]:
            assert Q6.exact_div(Q6.mul(a, (1, 1)), (1, 1)) == a
        # 5/(1+r) = -1+r lies in the ring but not the semiring; 1/(1+r) is not integral
        assert Q6.exact_div((5, 0), (1, 1)) is None
        assert Q6.exact_div((1, 0), (1, 1)) is None
        for text in ["(5,0)x+(7,1)", "(6,1)x^2+(5,0)", "(7,1)x+(1,0)"]:
            f = P(text, Q6)
            assert ambient_exact_div(f, g) == fraction_reference_div(f, g)
        assert ambient_exact_div(P("(7,1)x+(1,0)", Q6), g) is None
        assert ambient_exact_div(P("(1,1)x+(7,7)", Q6), g) == P("x+(7,0)", Q6)

    def test_quad_remainder_turns_negative(self):
        # x^2+x divided by x+r: the first step leaves (1-r)x, outside the semiring
        f, g = P("x^2+x", Q6), P("x+(0,1)", Q6)
        assert fraction_reference_div(f, g) is None
        assert ambient_exact_div(f, g) is None
        # the first quotient term x lies in the semiring, but the remainder
        # it leaves, (2-r)x^2+6x+(6,1), leads with a negative component
        f = P("x^3+(2,0)x^2+(6,0)x+(6,1)", Q6)
        assert fraction_reference_div(f, g) is None
        assert ambient_exact_div(f, g) is None
        h = P("x^2+x+1", Q6)
        assert ambient_exact_div(h * g, g) == h


class TestFromTermsExponentKinds:
    """ExpElem exponents are scaled without Fraction in from_terms; int,
    Fraction and str exponents become a Fraction first.  All must agree."""

    MONOIDS = ["nat", "gens:1/2,3/4", "gens:6,9,20"]

    @staticmethod
    def kinds(q):
        q = Fraction(q)
        out = [sf.ExpElem(q.numerator, q.denominator), q, str(q)]
        if q.denominator == 1:
            out.append(q.numerator)
        return out

    @pytest.mark.parametrize("literal", MONOIDS)
    def test_every_kind_builds_the_same_polynomial(self, literal):
        M = sf.monoid_from_literal(literal)
        rng = random.Random(literal)
        members = [Fraction(n, M.denom) for n in range(60) if M.member_num(n)]
        for _ in range(40):
            exps = [rng.choice(members) for _ in range(rng.randint(1, 5))]
            coeffs = [rng.randint(1, 9) for _ in exps]
            built = []
            for pick in range(4):
                terms = []
                for q, c in zip(exps, coeffs):
                    ks = self.kinds(q)
                    terms.append((ks[pick % len(ks)], c))
                built.append(sf.PolyExpr.from_terms(NAT, M, terms))
            assert all(f == built[0] and f.terms == built[0].terms for f in built)
            f = built[0]
            assert f.nums == tuple(int(e.value * M.denom) for e, _ in f.terms)
            assert f.coeffs == tuple(c for _, c in f.terms)
            rebuilt = (
                sf.PolyExpr.from_terms(NAT, M, f.terms),
                sf.PolyExpr(NAT, M, f.nums, f.coeffs),
            )
            assert all(g == f and hash(g) == hash(f) for g in rebuilt)
            # like terms merged, exponents descending
            want = {}
            for q, c in zip(exps, coeffs):
                want[q] = want.get(q, 0) + c
            assert [(e.value, c) for e, c in f.terms] == sorted(want.items(), reverse=True)

    @pytest.mark.parametrize(
        "literal, bad",
        [
            ("nat", Fraction(-1)),  # negative
            ("nat", Fraction(1, 2)),  # denominator does not divide D
            ("gens:1/2,3/4", Fraction(-1, 2)),
            ("gens:1/2,3/4", Fraction(1, 3)),
            ("gens:1/2,3/4", Fraction(1, 8)),
            ("gens:1/2,3/4", Fraction(1, 4)),  # gap
            ("gens:6,9,20", Fraction(7)),  # gap
            ("gens:6,9,20", Fraction(43)),  # the Frobenius number
            ("gens:6,9,20", Fraction(-6)),
        ],
    )
    def test_same_error_for_every_kind(self, literal, bad):
        M = sf.monoid_from_literal(literal)
        msg = f"exponent {bad} is not a member of {M.literal()}"
        for exp in self.kinds(bad):
            with pytest.raises(DomainError) as info:
                sf.PolyExpr.from_terms(NAT, M, [(0, 1), (exp, 2)])
            assert str(info.value) == msg, exp

    @pytest.mark.parametrize("literal", MONOIDS)
    def test_exp_elem_not_in_lowest_terms(self, literal):
        M = sf.monoid_from_literal(literal)
        members = [Fraction(n, M.denom) for n in range(40) if M.member_num(n)]
        for q in members:
            for k in (2, 3):
                wide = sf.ExpElem(q.numerator * k, q.denominator * k)
                f = sf.PolyExpr.from_terms(NAT, M, [(wide, 2), (0, 1)])
                assert f == sf.PolyExpr.from_terms(NAT, M, [(q, 2), (0, 1)])
                assert f.terms[0][0] == M.elem(q)
        wide = sf.ExpElem(2, 2 * M.denom + 2)
        with pytest.raises(DomainError) as info:
            sf.PolyExpr.from_terms(NAT, M, [(wide, 1)])
        assert str(info.value) == f"exponent {wide} is not a member of {M.literal()}"

    def test_constructor_round_trips_nums_and_coeffs(self):
        M = sf.monoid_from_literal("gens:1/2,3/4")
        f = sf.PolyExpr.from_terms(NAT, M, [(Fraction(3, 2), 1), (0, 2)])
        assert (f.nums, f.coeffs) == ((6, 0), (1, 2))
        g = sf.PolyExpr(NAT, M, f.nums, f.coeffs)
        assert g.terms == f.terms == ((M.elem(Fraction(3, 2)), 1), (M.elem(0), 2))
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f) == "PolyExpr('x^{3/2}+2')"
        assert sf.PolyExpr.from_terms(NAT, M, g.terms) == f
        assert sf.PolyExpr(NAT, M, (6,), (1,)) != f
