"""The session cache of decoded zx divisors, ``engine._decoded``: lattices
that share a divisor share one ``PolyExpr``, the monoid is part of the key,
the cache is bounded and emptied by ``clear_caches``, and a warm session
gives the same divisor sets as a cold decode and as the oracle.
hypothesis is a test-only dependency."""
import functools
import sys
import threading
from unittest import mock

import pytest

import semifactor as sf
from semifactor import engine
from semifactor.errors import DEFAULT_BUDGETS
from semifactor.polyexpr import parse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NAT = sf.Nat()


def P(text, M=None):
    return parse(text, NAT, M or sf.nat_monoid())


def stored(f, g):
    """The object that the divisor set of f holds for its divisor g."""
    return {d: d for d in sf.divisors(f).divisors}[g]


def test_lattices_that_share_a_divisor_share_its_object():
    engine.clear_caches()
    # (x+1)(x^2+x+1) and (x+1)(x+2): both lattices pack into 8-bit slots
    x1 = stored(P("x^3+2x^2+2x+1"), P("x+1"))
    assert x1 is stored(P("x^2+3x+2"), P("x+1"))
    assert x1 == P("x+1") and str(x1) == "x+1"
    engine.clear_caches()


def test_the_monoid_is_part_of_the_key():
    engine.clear_caches()
    # x^2+1 over nat and x^{1/2}+1 over <1/2, 3/4> (scaled numerators 2 and
    # 0) are both 2^16 + 1 in 8-bit slots
    halves = sf.monoid_from_literal("gens:1/2,3/4")
    a = stored(P("x^2+1"), P("x^2+1"))
    b = stored(P("x^{1/2}+1", halves), P("x^{1/2}+1", halves))
    assert engine._decoded(NAT, sf.nat_monoid(), 8, (1 << 16) + 1) is a
    assert engine._decoded(NAT, halves, 8, (1 << 16) + 1) is b
    assert a is not b and a != b
    assert (str(a), str(b)) == ("x^2+1", "x^{1/2}+1")
    engine.clear_caches()


def test_bound_and_clear():
    engine.clear_caches()
    info = engine._decoded.cache_info
    assert info().maxsize == engine._divisor_set.cache_info().maxsize == 1024
    sf.divisors(P("x^2+3x+2"))
    assert info().currsize == 4
    engine.clear_caches()
    assert info().currsize == 0


def test_slots_wider_than_a_machine_word():
    engine.clear_caches()
    big = 2**70
    f = P(f"x^2+{big + 3}x+{3 * big}")  # (x + 2^70)(x + 3)
    g = P(f"x^2+{big + 5}x+{5 * big}")  # (x + 2^70)(x + 5)
    want = {P("1"), P("x+3"), P(f"x+{big}"), f}
    assert sf.divisors(f).divisors == want
    shared = stored(f, P(f"x+{big}"))
    assert shared is stored(g, P(f"x+{big}"))
    # both lattices use 80-bit (10-byte) slots
    assert engine._decoded(NAT, sf.nat_monoid(), 80, (1 << 80) + big) is shared
    engine.clear_caches()


def test_bound_holds_under_threads():
    engine.clear_caches()
    info = engine._decoded.cache_info
    polys = [P(f"x+{n}") for n in range(1, info().maxsize + 200)]
    sizes, wrong = [], []

    def work(k):
        for f in polys[k::3] + polys[k::3][::-1]:
            if sf.divisors(f).divisors != {P("1"), f}:
                wrong.append(f)
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
    assert not wrong
    assert len(sizes) == sum(2 * len(polys[k % 3::3]) for k in range(8))
    assert max(sizes) == info().maxsize
    engine.clear_caches()


MONOIDS = ["nat", "gens:1/2,3/4", "gens:2,3"]
ORACLE_BUDGETS = sf.Budgets(oracle_candidates=20000)


@st.composite
def products(draw):
    """A product of two or three small factors over a nat-coefficient
    context, so the zx lattices of one run share many divisors."""
    M = sf.monoid_from_literal(draw(st.sampled_from(MONOIDS)))
    members = [n for n in range(5) if M.member_num(n)]
    f = sf.PolyExpr.one(NAT, M)
    for _ in range(draw(st.integers(2, 3))):
        nums = draw(st.lists(st.sampled_from(members), min_size=1, max_size=2, unique=True))
        f = f * sf.PolyExpr._merge_nums(NAT, M, [(n, draw(st.integers(1, 3))) for n in nums])
    return f


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(products())
def test_a_warm_session_matches_a_cold_decode_and_the_oracle(f):
    # the cache is not cleared between examples, so later ones decode
    # through entries that earlier ones left
    warm = engine._lattice_of(f, engine.STRATEGY_AUTO, None).ordered
    cold_cache = functools.lru_cache(maxsize=engine._CACHE_SIZE)(engine._decoded.__wrapped__)
    with mock.patch.object(engine, "_decoded", cold_cache):
        cold = engine._zx_divisors(f, DEFAULT_BUDGETS).ordered
    assert warm == cold
    assert all(a is not b for a, b in zip(warm, cold))
    try:  # the oracle refuses a large candidate count before it walks any
        oracle = sf.divisors(f, strategy="oracle", budgets=ORACLE_BUDGETS).divisors
    except sf.BudgetError:
        return
    assert frozenset(warm) == oracle
