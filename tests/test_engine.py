import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semifactor as sf
from semifactor import engine
from semifactor.errors import BudgetError, DomainError, UsageError
from semifactor.paperlab import expand_family
from semifactor.polyexpr import parse

from conftest import oracle_candidates, random_poly

NAT = sf.Nat()
Q6 = sf.Quad(6)
SRC = str(Path(sf.__file__).resolve().parent.parent)
# The child sets its address-space limit before it imports the library.
Z_REFUSAL = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import semifactor as sf
f = sf.parse("x^360", sf.Nat(), sf.monoid_from_literal("gens:7,8,9,10,11,12,13"))
try:
    sf.factorizations(f, budgets=sf.Budgets(degree_limit=100000, z_nodes=2054))
except sf.BudgetError as err:
    print(err)
"""


def P(text, S=NAT, M=None):
    return parse(text, S, M or sf.nat_monoid())


def strs(polys):
    return sorted(str(g) for g in polys)


def z_strs(zs):
    return sorted(sorted(str(p) for p in z.parts) for z in zs)


class TestDivisors:
    def test_cubic(self):
        ds = sf.divisors(P("x^3+x^2"))
        assert strs(ds.divisors) == ["1", "x", "x+1", "x^2", "x^2+x", "x^3+x^2"]
        assert ds.strategy_used == "zx_fastpath"

    def test_sextic_excludes_mixed_product(self):
        ds = sf.divisors(P("x^5+x^4+x^3+x^2+x+1"))
        assert strs(ds.divisors) == [
            "1",
            "x+1",
            "x^2+x+1",
            "x^3+1",
            "x^4+x^2+1",
            "x^5+x^4+x^3+x^2+x+1",
        ]
        # (x+1)(x^2+x+1) = x^3+2x^2+2x+1 is missing: its cofactor x^2-x+1
        # has a negative coefficient
        assert "x^3+2x^2+2x+1" not in strs(ds.divisors)

    def test_unit(self):
        assert strs(sf.divisors(P("1")).divisors) == ["1"]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            sf.divisors(sf.PolyExpr.zero(NAT, sf.nat_monoid()))

    def test_strategies_agree_on_spec_cases(self):
        for text in ("x^3+x^2", "x^5+x^4+x^3+x^2+x+1", "2x+2", "x^4+3x^3+x^2+4"):
            f = P(text)
            assert sf.divisors(f, "oracle").divisors == sf.divisors(f, "auto").divisors

    def test_zx_requires_nat(self):
        # auto takes the zx fast path on nat alone; its name is no input
        f = parse("(1,1)*x+(1,0)", Q6, sf.nat_monoid())
        assert sf.divisors(f, "auto").strategy_used == "oracle"
        for g in (f, P("x+1")):
            with pytest.raises(UsageError, match="unknown divisor strategy 'zx_fastpath'"):
                sf.divisors(g, "zx_fastpath")

    def test_unknown_strategy(self):
        with pytest.raises(UsageError):
            sf.divisors(P("x"), "newton")

    def test_cofactor_closure_and_support_rule(self):
        rng = random.Random(31)
        M = sf.make_monoid([2, 3])
        for _ in range(25):
            f = random_poly(rng, NAT, M, max_num=8, max_terms=3)
            ds = sf.divisors(f)
            for g in ds.divisors:
                q = sf.ambient_exact_div(f, g)
                assert q is not None and q in ds.divisors
                # every divisor support element additively divides some
                # support element of f, and supports never grow
                for e in g.support:
                    assert any(
                        s.value >= e.value and M.member(s.value - e.value) for s in f.support
                    )
                assert len(g.support) <= len(f.support)

    def test_oracle_budget_failure_is_loud(self):
        engine.clear_caches()
        f = P("x^5+x^4+x^3+x^2+x+1")
        with pytest.raises(BudgetError) as err:
            sf.divisors(f, "oracle", sf.Budgets(oracle_candidates=3))
        assert "3" in str(err.value)

    @pytest.mark.parametrize(
        "text, S", [(f"x^4+{2**31 - 1}x^2+1", NAT), ("(1,0)x^4+(100000,0)x^2+(1,0)", Q6)]
    )
    def test_oracle_counts_middle_values_before_listing_them(self, text, S):
        # 2^31 - 1 (nat) or 10^10 (quad:6) middle values per support of
        # size 3: refused by the count alone, without a list of them
        engine.clear_caches()
        with pytest.raises(BudgetError, match="oracle divisor enumeration exceeded"):
            sf.divisors(P(text, S), "oracle")

    def test_monomial_over_gapped_monoid(self):
        M = sf.make_monoid([2, 3])
        f = parse("x^7", NAT, M)
        got = strs(sf.divisors(f).divisors)
        assert got == strs(
            parse(t, NAT, M) for t in ("1", "x^2", "x^3", "x^4", "x^5", "x^7")
        )


class TestSDivides:
    def test_examples(self):
        assert sf.s_divides(P("x+1"), P("x^5+x^4+x^3+x^2+x+1"))
        assert not sf.s_divides(P("x^3+2x^2+2x+1"), P("x^5+x^4+x^3+x^2+x+1"))
        f = P("2x^3+2")
        assert sf.s_divides(f, f)


class TestIsAtom:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^2+x+1", True),
            ("x^4+x^2+1", True),
            ("x^4+3x^3+x^2+4", True),
            ("x^2+2x+1", False),
            ("2x+2", False),
            ("x", True),
            ("2x", False),
            ("2", True),
            ("1", False),
        ],
    )
    def test_cases(self, text, expected):
        assert sf.is_atom(P(text)) is expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            sf.is_atom(sf.PolyExpr.zero(NAT, sf.nat_monoid()))


class TestMonolithic:
    def test_shifted_binomial(self):
        assert sf.is_monolithic(P("x^2+x^3"))

    def test_square_is_not(self):
        assert not sf.is_monolithic(P("x^2+2x+1"))

    def test_monomials_are(self):
        assert sf.is_monolithic(P("4x^2"))

    def test_decompose_square(self):
        parts = sf.monolithic_decompose(P("x^2+2x+1"))
        assert strs(parts) == ["x+1", "x+1"]

    def test_decompose_fixed_point(self):
        assert sf.monolithic_decompose(P("x^2+x^3")) == [P("x^2+x^3")]

    def test_decompose_multiplies_back(self):
        rng = random.Random(32)
        for _ in range(30):
            f = random_poly(rng, NAT, sf.nat_monoid(), max_num=5, max_terms=3)
            if f.is_one:
                continue
            parts = sf.monolithic_decompose(f)
            prod = sf.PolyExpr.one(NAT, f.monoid)
            for p in parts:
                assert sf.is_monolithic(p)
                prod = prod * p
            assert prod == f

    def test_decompose_rejects_units(self):
        with pytest.raises(DomainError):
            sf.monolithic_decompose(P("1"))


class TestFactorizations:
    def test_sextic(self):
        zs = sf.factorizations(P("x^5+x^4+x^3+x^2+x+1"))
        assert z_strs(zs) == [["x+1", "x^4+x^2+1"], ["x^2+x+1", "x^3+1"]]

    def test_cubic(self):
        zs = sf.factorizations(P("x^3+x^2"))
        assert z_strs(zs) == [["x", "x", "x+1"]]

    def test_quad_constant(self):
        f = sf.PolyExpr.from_terms(Q6, sf.nat_monoid(), [(0, (6, 0))])
        zs = sf.factorizations(f)
        assert z_strs(zs) == [["(0,1)", "(0,1)"], ["(2,0)", "(3,0)"]]

    def test_parts_are_atoms_and_multiply_back(self):
        rng = random.Random(33)
        for _ in range(25):
            f = random_poly(rng, NAT, sf.nat_monoid(), max_num=5, max_terms=3)
            if f.is_one:
                continue
            zs = sf.factorizations(f)
            assert zs
            for z in zs:
                prod = sf.PolyExpr.one(NAT, f.monoid)
                for p in z.parts:
                    assert sf.is_atom(p)
                    prod = prod * p
                assert prod == f

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            sf.factorizations(P("1"))

    def test_budget(self):
        with pytest.raises(BudgetError):
            sf.factorizations(P("x^5+x^4+x^3+x^2+x+1"), budgets=sf.Budgets(z_nodes=1))

    def test_length_bounds_under_products(self):
        rng = random.Random(34)
        for _ in range(20):
            f = random_poly(rng, NAT, sf.nat_monoid(), max_num=3, max_terms=2)
            g = random_poly(rng, NAT, sf.nat_monoid(), max_num=3, max_terms=2)
            if f.is_one or g.is_one:
                continue
            Lf, _ = sf.length_profile(f)
            Lg, _ = sf.length_profile(g)
            Lfg, _ = sf.length_profile(f * g)
            assert max(Lfg) >= max(Lf) + max(Lg)
            assert min(Lfg) <= min(Lf) + min(Lg)


class TestLengthProfile:
    def test_elasticity_family_member(self):
        f = expand_family(2, 2, 1)
        lengths, rho = sf.length_profile(f)
        assert sorted(lengths) == [2, 3]
        assert rho == Fraction(3, 2)

    def test_half_factorial_case(self):
        lengths, rho = sf.length_profile(P("x^5+x^4+x^3+x^2+x+1"))
        assert sorted(lengths) == [2]
        assert rho == 1

    def test_unit_convention(self):
        lengths, rho = sf.length_profile(P("1"))
        assert lengths == frozenset()
        assert rho == 1


class TestCertificates:
    def test_binomial_with_content(self):
        rep = sf.atomic_certificate(P("2x+2"))
        assert rep.passes
        assert [str(p) for p in rep.monolithic_parts] == ["2x+2"]
        part = rep.per_part[0]
        assert part.coeff_mcd == frozenset({2})
        assert {e.value for e in part.exp_mcd} == {0}

    def test_shifted_binomial(self):
        rep = sf.atomic_certificate(P("x^2+x^3"))
        assert rep.passes
        part = rep.per_part[0]
        assert part.coeff_mcd == frozenset({1})
        assert {e.value for e in part.exp_mcd} == {2}

    def test_atoms_pass(self):
        rep = sf.atomic_certificate(P("x^2+x+1"))
        assert rep.passes and len(rep.monolithic_parts) == 1

    def test_random_corpus_passes(self):
        rng = random.Random(35)
        contexts = [
            (NAT, sf.nat_monoid()),
            (NAT, sf.make_monoid([2, 3])),
            (Q6, sf.nat_monoid()),
        ]
        for S, M in contexts:
            for _ in range(12):
                f = random_poly(rng, S, M, max_num=4, max_terms=3, max_coeff=3)
                if f.is_one:
                    continue
                assert sf.atomic_certificate(f).passes


class TestLengthFn:
    def test_examples(self):
        assert sf.length_fn(P("2x^3+2")) == 5
        assert sf.length_fn(P("1")) == 0
        assert sf.length_fn(P("x^5+x^4+x^3+x^2+x+1")) == 10

    def test_superadditive_random(self):
        rng = random.Random(36)
        M = sf.make_monoid([2, 3])
        for _ in range(1000):
            f = random_poly(rng, NAT, M, max_num=9)
            g = random_poly(rng, NAT, M, max_num=9)
            assert sf.length_fn(f * g) >= sf.length_fn(f) + sf.length_fn(g)
            assert (sf.length_fn(f) == 0) == f.is_one

    def test_bounds_factorization_lengths(self):
        rng = random.Random(37)
        for _ in range(15):
            f = random_poly(rng, NAT, sf.nat_monoid(), max_num=4, max_terms=3)
            if f.is_one:
                continue
            lengths, _ = sf.length_profile(f)
            assert max(lengths) <= sf.length_fn(f)


class TestConcurrency:
    def test_parallel_divisor_queries_agree(self):
        import threading

        engine.clear_caches()
        f = P("x^5+x^4+x^3+x^2+x+1")
        results = []

        def work():
            results.append(sf.divisors(f).divisors)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestCaches:
    def test_divisor_cache_is_bounded_and_keeps_the_newest(self):
        engine.clear_caches()
        maxsize = engine._divisor_set.cache_info().maxsize
        polys = [P(f"x+{n}") for n in range(1, maxsize + 7)]
        sets = [sf.divisors(f) for f in polys]
        assert engine._divisor_set.cache_info().currsize == maxsize
        assert sf.divisors(polys[-1]) is sets[-1]
        assert sf.divisors(polys[0]) is not sets[0]
        assert engine._divisor_set.cache_info().currsize == maxsize
        engine.clear_caches()
        assert engine._divisor_set.cache_info().currsize == 0

    def test_a_hit_refreshes_an_entry(self):
        engine.clear_caches()
        maxsize = engine._divisor_set.cache_info().maxsize
        polys = [P(f"x+{n}") for n in range(1, maxsize + 2)]
        sets = [sf.divisors(f) for f in polys[:maxsize]]
        assert sf.divisors(polys[0]) is sets[0]
        sf.divisors(polys[maxsize])
        # the touched oldest entry survives; the next oldest was evicted
        assert sf.divisors(polys[0]) is sets[0]
        assert sf.divisors(polys[1]) is not sets[1]
        engine.clear_caches()

    def test_bound_holds_under_threads(self):
        import threading

        engine.clear_caches()
        info = engine._divisor_set.cache_info
        polys = [P(f"x+{n}") for n in range(1, info().maxsize + 200)]
        sizes = []

        def work(k):
            for f in polys[k::3] + polys[k::3][::-1]:
                sf.divisors(f)
                sizes.append(info().currsize)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k % 3,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(sizes) == sum(2 * len(polys[k % 3::3]) for k in range(8))
        assert max(sizes) == info().maxsize
        engine.clear_caches()

    def test_no_traced_function_carries_wrapped(self):
        # the benchmark's tracer refuses a target that already has
        # __wrapped__, so a functools decorator on one breaks traced runs;
        # the tracer's source is read, not imported, so nothing is written
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        scope = {"__name__": "tracer"}
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), scope)
        for name, places, _ in scope["_targets"]():
            for owner, attr in places:
                assert getattr(getattr(owner, attr), "__wrapped__", None) is None, (name, attr)


class TestExponentsStayNumerators:
    """The engine works on scaled numerators: no ExpElem is built."""

    @pytest.mark.parametrize(
        "coeffs, monoid, factors, strategy",
        [
            ("nat", "nat", ["x+1", "x+1", "x^2+x+1", "2x+2"], "zx_fastpath"),
            ("nat", "gens:1/2,3/4", ["x^{1/2}+1", "x^{3/4}+2", "x+x^{1/2}+1"], "zx_fastpath"),
            ("quad:6", "nat", ["(1,1)*x+(1,0)", "x+(2,0)"], "oracle"),
        ],
    )
    def test_no_elem_of_num_calls(self, monkeypatch, coeffs, monoid, factors, strategy):
        from semifactor.intfactor import clear_cache

        S, M = sf.semiring_from_literal(coeffs), sf.monoid_from_literal(monoid)
        f = P("1", S, M)
        for text in factors:
            f = f * P(text, S, M)
        calls = []
        orig = sf.ExpMonoid.elem_of_num

        def counting(monoid, n):
            calls.append(n)
            return orig(monoid, n)

        monkeypatch.setattr(sf.ExpMonoid, "elem_of_num", counting)
        engine.clear_caches()
        clear_cache()
        assert sf.divisors(f).strategy_used == strategy
        assert sf.factorizations(f)
        assert sf.length_profile(f)[0]
        sf.is_monolithic(f)
        assert sf.monolithic_decompose(f)
        assert sf.length_fn(f) > 0
        assert calls == []
        # a certificate builds an ExpElem for each maximal common divisor of
        # each distinct part only: a repeated part is certified once
        rep = sf.atomic_certificate(f)
        assert len(calls) == sum(len(p.exp_mcd) for p in set(rep.per_part))


class TestOraclePruning:
    @pytest.mark.parametrize(
        "coeffs, monoid, factors",
        [
            ("quad:6", "nat", ["(0,1)*x+(1,0)"] * 3),
            ("quad:6", "nat", ["(1,1)*x+(1,0)", "x+(2,0)", "x^2+(0,1)"]),
            ("quad:2", "gens:2,3", ["x^2+(1,1)", "x^3+(0,1)"]),
            ("nat", "nat", ["x+1", "x+1", "x^2+x+1"]),
        ],
    )
    def test_quot_agrees_with_exact_division(self, coeffs, monoid, factors):
        S, M = sf.semiring_from_literal(coeffs), sf.monoid_from_literal(monoid)
        f = P("1", S, M)
        for text in factors:
            f = f * P(text, S, M)
        lat = sf.divisors(f, "oracle")._lattice
        assert lat.vecs is None and len(lat.ordered) > 3
        for i, g in enumerate(lat.ordered):
            for j, h in enumerate(lat.ordered):
                q = sf.ambient_exact_div(g, h)
                assert engine._quot(lat, i, j) == (None if q is None else lat.pos[q])

    def test_value_test_skips_most_divisions(self, monkeypatch):
        f = P("(0,1)*x+(1,0)", Q6) ** 4
        candidates = sum(1 for _ in oracle_candidates(f))
        calls = []
        divide = engine.ambient_exact_div
        monkeypatch.setattr(engine, "ambient_exact_div", lambda *a: calls.append(a) or divide(*a))
        engine.clear_caches()
        assert len(sf.divisors(f, "oracle").divisors) == 5
        assert 0 < len(calls) <= candidates // 10


class TestStrategyEquivalence:
    def test_random_nat_corpus(self):
        rng = random.Random(38)
        for _ in range(50):
            f = random_poly(rng, NAT, sf.nat_monoid(), max_num=6, max_terms=7)
            assert sf.divisors(f, "oracle").divisors == sf.divisors(f, "auto").divisors

    def test_random_puiseux_corpus(self):
        rng = random.Random(39)
        M = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
        for _ in range(10):
            f = random_poly(rng, NAT, M, max_num=12, max_terms=4, max_coeff=3)
            assert sf.divisors(f, "oracle").divisors == sf.divisors(f, "auto").divisors


# The computations below are the divisor-lattice operations written with
# ambient_exact_div on polynomial expressions; the engine must agree.


def ref_atoms(dset):
    one = next(g for g in dset if g.is_one)
    ordered = sorted(dset, key=engine.sort_key)
    return [
        g
        for g in ordered
        if g != one
        and not any(
            h != one and h != g and sf.ambient_exact_div(g, h) is not None for h in ordered
        )
    ]


def ref_factorizations(f, dset):
    """(Z(f), number of recursion nodes)."""
    atoms = ref_atoms(dset)
    memo = {}

    def rec(target, start):
        key = (target, start)
        if key not in memo:
            if target.is_one:
                memo[key] = frozenset({()})
            else:
                acc = set()
                for j in range(start, len(atoms)):
                    q = sf.ambient_exact_div(target, atoms[j])
                    if q is not None:
                        acc.update((j,) + rest for rest in rec(q, j))
                memo[key] = frozenset(acc)
        return memo[key]

    zs = frozenset(
        sf.Factorization(tuple(atoms[j] for j in tup)) for tup in rec(f, 0)
    )
    return zs, len(memo)


def ref_is_monolithic(f, dset):
    return len(f.terms) == 1 or not any(
        len(g.terms) >= 2 and len(sf.ambient_exact_div(f, g).terms) >= 2 for g in dset
    )


def ref_decompose(f, strategy):
    if len(f.terms) == 1:
        return [f]
    for g in sorted(sf.divisors(f, strategy).divisors, key=engine.sort_key):
        h = sf.ambient_exact_div(f, g)
        if len(g.terms) >= 2 and len(h.terms) >= 2:
            return ref_decompose(g, strategy) + ref_decompose(h, strategy)
    return [f]


def ref_peel(f, dset):
    """The decomposition rule from the atoms of D(f): peel the sort-least
    non-monomial atom whose cofactor is not a monomial while there is one."""
    atoms = [a for a in ref_atoms(dset) if len(a.terms) >= 2]
    parts = []
    while True:
        for a in atoms:
            q = sf.ambient_exact_div(f, a)
            if q is not None and len(q.terms) >= 2:
                parts.append(a)
                f = q
                break
        else:
            return parts + [f]


def ref_certificate(f, strategy):
    parts = ref_decompose(f, strategy)
    per = []
    for p in parts:
        cm = frozenset(p.semiring.mcd_set([c for _, c in p.terms]))
        em = p.monoid.mcd([e for e, _ in p.terms])
        per.append(engine.PartCertificate(p, cm, em, bool(cm) and bool(em)))
    return engine.CertificateReport(
        f, tuple(parts), tuple(per), all(p.passes for p in per)
    )


NAT_ATOMS = (
    "x", "2", "3", "x+1", "x+2", "2x+1", "x^2+1", "x^2+x+1", "x^2+3x+1",
    "x^3+1", "x^3+x+1", "x^4+x^2+1", "x^4+x+1",
)


def lattice_corpus():
    rng = random.Random(40)
    atoms = [P(t) for t in NAT_ATOMS]
    for _ in range(30):
        f = P("1")
        for a in rng.choices(atoms, k=rng.randint(2, 5)):
            f = f * a
        yield f, f.nums[0] <= 8
    M = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
    for _ in range(15):
        f = P("1", M=M)
        for _ in range(rng.randint(2, 3)):
            f = f * random_poly(rng, NAT, M, max_num=6, max_terms=3, max_coeff=2)
        if not f.is_one:
            yield f, f.nums[0] <= 12


class TestDivisorLattice:
    def test_matches_exact_division(self):
        assert all(sf.is_atom(P(t)) for t in NAT_ATOMS)
        for f, small in lattice_corpus():
            ds = sf.divisors(f)
            assert ds.strategy_used == "zx_fastpath"
            zs, _ = ref_factorizations(f, ds.divisors)
            lat = ds._lattice
            assert [lat.ordered[i] for i in engine._atoms_within(lat)] == ref_atoms(ds.divisors)
            assert sf.factorizations(f) == zs
            assert sf.is_monolithic(f) == ref_is_monolithic(f, ds.divisors)
            assert sf.monolithic_decompose(f) == ref_decompose(f, "auto")
            assert sf.atomic_certificate(f) == ref_certificate(f, "auto")
            if small:
                assert sf.factorizations(f, "oracle") == zs
                assert sf.is_monolithic(f, "oracle") == sf.is_monolithic(f)
                assert sf.monolithic_decompose(f, "oracle") == sf.monolithic_decompose(f)
                assert sf.atomic_certificate(f, "oracle") == sf.atomic_certificate(f)

    def test_quad_oracle_matches_exact_division(self):
        rng = random.Random(41)
        for _ in range(12):
            f = random_poly(rng, Q6, sf.nat_monoid(), max_num=3, max_terms=3, max_coeff=2)
            if f.is_one:
                continue
            ds = sf.divisors(f)
            zs, _ = ref_factorizations(f, ds.divisors)
            assert sf.factorizations(f) == zs
            assert sf.is_monolithic(f) == ref_is_monolithic(f, ds.divisors)
            assert sf.monolithic_decompose(f) == ref_peel(f, ds.divisors)

    @pytest.mark.parametrize(
        "text, monoid, parts",
        [
            # sqrt(6) sorts before the atom x+1 but is not an atom: (0,1)^2 = 6
            ("(0,1)*x^2+(0,3)*x+(0,2)", "nat", ["x+(1,0)", "(0,1)*x+(0,2)"]),
            (
                "(0,4)*x^8+(0,4)*x^7+(0,2)*x^5+(0,2)*x^4",
                "gens:2,3",
                ["x^3+x^2", "(0,4)*x^5+(0,2)*x^2"],
            ),
        ],
    )
    def test_quad_decomposition_peels_atoms(self, text, monoid, parts):
        f = P(text, Q6, sf.monoid_from_literal(monoid))
        got = sf.monolithic_decompose(f)
        assert [str(p) for p in got] == parts
        assert got == ref_peel(f, sf.divisors(f).divisors)

    def test_negative_parent_nonnegative_child(self):
        # over Z, x^3+1 = (x+1)(x^2-x+1): the box point of x^2-x+1 lies
        # outside N0[x], its child x^3+1 inside
        f = P("x^3+1") * P("x+2")
        ds = sf.divisors(f)
        assert strs(ds.divisors) == strs(P(t) for t in ("1", "x+2", "x^3+1", str(f)))
        assert z_strs(sf.factorizations(f)) == [["x+2", "x^3+1"]]
        assert sf.monolithic_decompose(f) == [P("x+2"), P("x^3+1")]
        assert sf.divisors(f, "oracle").divisors == ds.divisors

    @pytest.mark.parametrize(
        "text, S, monoid",
        [
            # (x^5+x^4+x^3+x^2+x+1)(x^2+x+1)(x+1)
            ("x^8+3x^7+5x^6+6x^5+6x^4+6x^3+5x^2+3x+1", NAT, "nat"),
            ("x^24", NAT, "gens:3,5,7"),
            # oracle: 6(x+1)^2 = 2*3*(x+1)^2 = sqrt(6)^2*(x+1)^2
            ("(6,0)*x^2+(12,0)*x+(6,0)", Q6, "nat"),
        ],
        ids=["nat", "gens", "quad-oracle"],
    )
    def test_z_budget_counts_the_same_nodes(self, text, S, monoid):
        f = P(text, S, sf.monoid_from_literal(monoid))
        zs, nodes = ref_factorizations(f, sf.divisors(f).divisors)
        assert sf.factorizations(f, budgets=sf.Budgets(z_nodes=nodes)) == zs
        with pytest.raises(BudgetError) as err:
            sf.factorizations(f, budgets=sf.Budgets(z_nodes=nodes - 1))
        assert str(err.value) == f"factorization recursion exceeded {nodes - 1} nodes"

    def test_z_budget_refuses_before_any_set_is_built(self):
        # x^360 over <7, ..., 13> has 2055 keys (t, s); one below that the
        # refusal must come from the count alone, since the sets of its keys
        # do not fit in the child's 1 GiB of address space
        proc = subprocess.run(
            [sys.executable, "-S", "-c", Z_REFUSAL],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=10,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-400:])
        assert proc.stdout == "factorization recursion exceeded 2054 nodes\n"

    @pytest.mark.parametrize("strategy", ["auto", "oracle"])
    def test_z_is_kept_on_the_lattice(self, monkeypatch, strategy):
        f = expand_family(2, 2, 1)
        engine.clear_caches()
        zs = sf.factorizations(f, strategy)
        calls = []
        quot = engine._quot
        monkeypatch.setattr(engine, "_quot", lambda *a: calls.append(a) or quot(*a))
        assert sf.factorizations(f, strategy) == zs
        assert sf.length_profile(f, strategy) == (frozenset({2, 3}), Fraction(3, 2))
        assert calls == []
        # splits come from the same pass: no quotient to test monolithic, one
        # per peeled atom to decompose
        assert not sf.is_monolithic(f, strategy)
        assert calls == []
        assert strs(sf.monolithic_decompose(f, strategy)) == ["x+1", "x^4+3x^3+x^2+4"]
        assert len(calls) == 1
        calls.clear()
        # other budgets index another lattice and recompute
        assert sf.factorizations(f, strategy, sf.Budgets(z_nodes=999)) == zs
        assert calls

    def test_deep_decomposition_needs_no_recursion(self):
        # the parts are peeled in a loop: with the lattice cached, 120 parts
        # need only a few frames above the caller's
        f = P("x+1") ** 120
        budgets = sf.Budgets(degree_limit=120)
        sf.divisors(f, budgets=budgets)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            parts = sf.monolithic_decompose(f, budgets=budgets)
        finally:
            sys.setrecursionlimit(limit)
        assert parts == [P("x+1")] * 120

    def test_zx_box_budget(self):
        # 36 = 2^2 * 3^2 and (x+1)^2: a box of 3 * 3 * 3 = 27 points
        f = P("36") * P("x+1") ** 2
        assert len(sf.divisors(f, budgets=sf.Budgets(oracle_candidates=27)).divisors) == 27
        with pytest.raises(BudgetError) as err:
            sf.divisors(f, budgets=sf.Budgets(oracle_candidates=26))
        assert "26" in str(err.value)

    def test_degree_limit_before_allocation(self):
        import tracemalloc

        f = P("x^20000000+1")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as err:
                sf.divisors(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "degree 20000000" in str(err.value)
        assert peak < 4 * 2**20
