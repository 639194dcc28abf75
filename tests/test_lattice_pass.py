"""The divisor lattice: the packed zx box against a brute-force box over
sympy's factorization, its packed order against ``sort_key``, the one
divisor-first pass (atoms, L(f), elasticity, monolithic splits) against
the pairwise definitions and the materialised Z(f), and the work the
queries other than ``divisors`` skip.  hypothesis and sympy are test-only
dependencies."""
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product
from math import isqrt, prod

import pytest

import semifactor as sf
from semifactor import engine, intfactor

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

NAT = sf.Nat()
Y = sympy.Symbol("y")


def P(text, M=None):
    return sf.parse(text, NAT, M or sf.nat_monoid())


def in_semidomain(poly, M):
    return all(c >= 0 and M.member_num(k) for (k,), c in poly.terms())


def reference_divisors(f):
    """D(f) over Nat: every sub-multiset of sympy's prime content and
    irreducible factors of f(y) in Z[y], multiplied out by sympy, kept when
    it and its cofactor have nonnegative coefficients on monoid members."""
    M = f.monoid
    F = sympy.Poly(dict(((n,), c) for n, c in zip(f.nums, f.coeffs)), Y)
    content, pairs = F.factor_list()
    factors = [(sympy.Poly(p, Y), m) for p, m in sympy.factorint(int(content)).items()]
    factors += pairs
    out = set()
    for e in product(*(range(m + 1) for _, m in factors)):
        g = prod((p**k for (p, _), k in zip(factors, e)), start=sympy.Poly(1, Y))
        if in_semidomain(g, M) and in_semidomain(F.exquo(g), M):
            pairs = [(k, int(c)) for (k,), c in g.terms()]
            out.add(sf.PolyExpr._merge_nums(NAT, M, pairs))
    return out


HALVES = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])


class TestPackedWalk:
    @pytest.mark.parametrize(
        "factors, M",
        [
            # (x+1)^8 (x^2-x+1)^8: box points with large negative coefficients
            ([("x^3+1", 8)], None),
            ([("x^3+1", 3), ("x+2", 1)], None),
            ([("x^6+1", 2)], None),
            # content primes
            ([("12x+12", 1)], None),
            ([("2", 10)], None),
            ([("2", 6), ("3", 3), ("x+1", 1)], None),
            ([("12", 1), ("x^2+x+1", 1), ("x^4+x^2+1", 1)], None),
            # <1/2, 3/4> (D = 4): y+1, (y+1)^2 and (y+1)(y^2+1) are
            # nonnegative box points with y^1 outside the monoid; in
            # y^2(y+1) = x^{3/4}+x^{1/2} the cofactor y^2 of y+1 is inside
            ([("x^{3/4}+x^{1/2}", 1)], HALVES),
            ([("x^{3/4}+x^{1/2}", 2)], HALVES),
            ([("x^{1/2}+1", 1), ("x^{3/4}+1", 1)], HALVES),
            ([("x^{3/4}+1", 2), ("x^{1/2}+2", 1)], HALVES),
            ([("x^{3/4}+1", 3)], HALVES),
        ],
    )
    def test_matches_brute_force_box(self, factors, M):
        M = M or sf.nat_monoid()
        f = prod((P(text, M) ** k for text, k in factors), start=P("1", M))
        assert sf.divisors(f, "zx_fastpath").divisors == reference_divisors(f)

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 71, 72, 80])
    @pytest.mark.parametrize("delta", [-2, -1, 0, 1])
    def test_coefficients_near_the_slot_width(self, bits, delta):
        # x + a has the bound a + 1: at a = 2^bits - 2 the largest slot is
        # one below its width; 9- and 10-byte slots are read by slices
        a = 2**bits + delta
        for f in (P(f"x+{a}"), P(f"x+{a}") ** 2, P(f"x+{a}") * P("x^2+x+1")):
            assert sf.divisors(f, "zx_fastpath").divisors == reference_divisors(f)


CONTEXTS = [
    ("nat", "nat", "auto"),
    ("nat", "nat", "oracle"),
    ("nat", "gens:2,3", "auto"),
    ("nat", "gens:1/2,3/4", "auto"),
    ("quad:2", "nat", "oracle"),
    ("quad:3", "nat", "oracle"),
    ("quad:6", "nat", "oracle"),
]
QUAD_COEFFS = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (3, 1)]
BUDGETS = sf.Budgets(oracle_candidates=20000)


@st.composite
def elements(draw):
    """(strategy, f): f a product of two or three small factors."""
    coeffs, monoid, strategy = draw(st.sampled_from(CONTEXTS))
    S, M = sf.semiring_from_literal(coeffs), sf.monoid_from_literal(monoid)
    members = [n for n in range(3 * M.denom // 2 + 2) if M.member_num(n)]
    coeff = st.integers(1, 3) if isinstance(S, sf.Nat) else st.sampled_from(QUAD_COEFFS)
    f = sf.PolyExpr.one(S, M)
    for _ in range(draw(st.integers(2, 3))):
        nums = draw(st.lists(st.sampled_from(members), min_size=1, max_size=2, unique=True))
        f = f * sf.PolyExpr._merge_nums(S, M, [(n, draw(coeff)) for n in nums])
    hypothesis.assume(not f.is_one)
    return strategy, f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(elements())
def test_pass_matches_pairwise_atoms_and_materialised_z(case):
    strategy, f = case
    try:
        lat = sf.divisors(f, strategy, BUDGETS)._lattice
    except sf.BudgetError:
        hypothesis.assume(False)
    ordered = lat.ordered
    divides = {
        (i, j): sf.ambient_exact_div(g, h) is not None
        for i, g in enumerate(ordered)
        for j, h in enumerate(ordered)
    }
    # every proper divisor is visited before its multiples
    rank = {t: r for r, t in enumerate(engine._visit_order(lat))}
    assert all(rank[j] < rank[i] for (i, j), d in divides.items() if d and i != j)
    # atoms: nonunits with no divisor other than 1 and themselves
    proper = {(i, j) for (i, j), d in divides.items() if d and j not in (i, lat.unit)}
    want = [i for i in range(len(ordered)) if i != lat.unit and not any(p[0] == i for p in proper)]
    assert engine._atoms_within(lat) == tuple(want)
    zs = sf.factorizations(f, strategy, BUDGETS)
    lengths = frozenset(z.length for z in zs)
    rho = Fraction(max(lengths), min(lengths))
    assert sf.length_profile(f, strategy, BUDGETS) == (lengths, rho)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(elements())
def test_splits_match_pairwise_splits(case):
    strategy, f = case
    try:
        ds = sf.divisors(f, strategy, BUDGETS)
    except sf.BudgetError:
        hypothesis.assume(False)

    def wide(g):
        return len(g.nums) >= 2

    # monolithic: no non-monomial g in D(f) with a non-monomial f/g
    split = any(wide(g) and wide(sf.ambient_exact_div(f, g)) for g in ds.divisors)
    assert sf.is_monolithic(f, strategy, BUDGETS) is not split
    parts = sf.monolithic_decompose(f, strategy, BUDGETS)
    assert prod(parts, start=sf.PolyExpr.one(f.semiring, f.monoid)) == f
    assert all(sf.is_monolithic(p, strategy, BUDGETS) for p in parts)
    assert all(wide(p) and sf.is_atom(p, strategy, BUDGETS) for p in parts[:-1])
    assert len(parts) == 1 or split


def test_quad_visit_order_is_by_real_value():
    # over quad:2, (0,1)*(5,1) = (2,5): sort_key puts (2,5) before its
    # divisor (5,1), while 5 + sqrt(2) < 2 + 5*sqrt(2)
    S = sf.Quad(2)
    f = sf.parse("(2,5)", S, sf.nat_monoid())
    lat = sf.divisors(f)._lattice
    assert [str(g) for g in lat.ordered] == ["(0,1)", "(1,0)", "(2,5)", "(5,1)"]
    assert [str(lat.ordered[t]) for t in engine._visit_order(lat)] == [
        "(1,0)", "(0,1)", "(5,1)", "(2,5)",
    ]
    assert [str(lat.ordered[i]) for i in engine._atoms_within(lat)] == ["(0,1)", "(5,1)"]
    assert sf.length_profile(f) == (frozenset({2}), Fraction(1))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_quad_value_key_grows_under_every_nonunit_constant(d):
    # every nonzero h and every constant q other than 0 and 1, components <= 12
    S = sf.Quad(d)
    values = [v for v in product(range(13), repeat=2) if v != (0, 0)]
    nonunits = [q for q in values if q != (1, 0)]

    def grows(key):
        return all(key(h) < key(S._mul(h, q)) for h in values for q in nonunits)

    assert grows(lambda v: engine._value_key(S, v))
    # floor(v) would not do: over quad:2, 2 and 2*sqrt(2) both floor to 2
    if d == 2:
        assert not grows(lambda v: v[0] + isqrt(d * v[1] * v[1]))


def test_lengths_spend_no_z_budget():
    # L(f) comes from the pass, which is bounded by |D| * #atoms quotient
    # tests; only factorizations builds Z(f) and spends --z-budget
    f = P("x+1") ** 6 * P("x^2+x+1") ** 2
    budgets = sf.Budgets(z_nodes=1)
    with pytest.raises(sf.BudgetError):
        sf.factorizations(f, budgets=budgets)
    assert sf.length_profile(f, budgets=budgets) == sf.length_profile(f)


# prime powers above 2^63: the zx slots are wider than 8 bytes, while the
# oracle tries only the 65, 42 or 29 constants dividing lc and tc
WIDE = [2**64, 3**41, 5**28]


@st.composite
def packed_cases(draw):
    """A nonnegative f over nat or <1/2, 3/4>: a product of one or two
    small factors, or a binomial or monomial with a coefficient in WIDE."""
    M = sf.monoid_from_literal(draw(st.sampled_from(["nat", "gens:1/2,3/4"])))
    members = [n for n in range(7) if M.member_num(n)]
    if draw(st.booleans()):
        nums = draw(st.lists(st.sampled_from(members), min_size=1, max_size=2, unique=True))
        return sf.PolyExpr._merge_nums(NAT, M, [(n, draw(st.sampled_from(WIDE))) for n in nums])
    f = sf.PolyExpr.one(NAT, M)
    for _ in range(draw(st.integers(1, 2))):
        nums = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True))
        f = f * sf.PolyExpr._merge_nums(NAT, M, [(n, draw(st.integers(1, 3))) for n in nums])
    return f


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(packed_cases())
@example(P(f"{2**64}x^2+{2**64}"))
@example(P(f"{5**28}x^{{3/4}}+{5**28}x^{{1/2}}", HALVES))
def test_packed_order_is_sort_key_order(f):
    # G = g(2^w) compares the top slot first, and 0 below any coefficient
    ordered = sf.divisors(f, "zx_fastpath")._lattice.ordered
    assert list(ordered) == sorted(ordered, key=engine.sort_key)
    assert set(ordered) == sf.divisors(f, "oracle").divisors


def test_wide_cases_take_the_byte_slices(monkeypatch):
    sizes = []

    def recording(bound):
        slots = intfactor._Slots(bound)
        sizes.append(slots.size)
        return slots

    monkeypatch.setattr(engine, "_Slots", recording)
    engine.clear_caches()
    for c in WIDE:
        sf.divisors(P(f"{c}x+{c}"), "zx_fastpath")
    assert min(sizes) > 8
    engine.clear_caches()


class TestWorkCounters:
    QUERIES = ("is_atom", "factorizations", "length_profile", "is_monolithic",
               "monolithic_decompose", "atomic_certificate")

    def test_queries_read_the_lattice(self, monkeypatch):
        f = P("x^7+3x^6+4x^5+3x^4+x^3")
        engine.clear_caches()
        keys, sets = [], []
        sort_key, divisor_set = engine.sort_key, engine.DivisorSet
        monkeypatch.setattr(engine, "sort_key", lambda g: keys.append(g) or sort_key(g))
        monkeypatch.setattr(engine, "DivisorSet", lambda *a: sets.append(a) or divisor_set(*a))
        for name in self.QUERIES:
            getattr(sf, name)(f)
        assert keys == [] and sets == []
        ds = sf.divisors(f)
        assert type(ds) is divisor_set and type(ds.divisors) is frozenset
        assert len(ds.divisors) == 24 and ds.strategy_used == "zx_fastpath"
        with pytest.raises(FrozenInstanceError):
            ds.divisors = frozenset()
        assert sf.divisors(f) is ds
        assert keys == [] and len(sets) == 1

    def test_memo_factors_before_yun(self, monkeypatch):
        engine.clear_caches()
        intfactor.clear_cache()
        sf.divisors(P("x^3+2x^2+2x+1"))  # (x+1)(x^2+x+1) joins the memo
        calls = []
        squarefree = intfactor.squarefree_decompose
        monkeypatch.setattr(intfactor, "squarefree_decompose",
                            lambda F: calls.append(F) or squarefree(F))
        # x^3 (x+1)^2 (x^2+x+1): x is divided out, the rest found in the memo
        assert sf.length_profile(P("x^7+3x^6+4x^5+3x^4+x^3")) == (frozenset({6}), Fraction(1))
        # (x-1)^2 (x+1)^3 (x^2+x+1) over Z: x - 1 is divided out too
        F = intfactor._mul(intfactor._pow([-1, 1], 2), intfactor._pow([1, 1], 3))
        fac = intfactor.factor_int_poly(sf.IntPoly.of(intfactor._mul(F, [1, 1, 1])))
        assert [(p.coeffs, m) for p, m in fac.factors] == [
            ((-1, 1), 2), ((1, 1), 3), ((1, 1, 1), 1)]
        assert calls == []
        intfactor.clear_cache()
