"""The numerator and semiring kernels against their boundary wrappers:
``ExpMonoid.mcd`` and ``gcd`` (through ``_mcd_nums``) against the definition
of a maximal common divisor, ``_mcd_nums`` on members near 10^6 against a
scan of every candidate, and ``atomic_certificate``, which calls
``_mcd_nums`` and ``_mcd_set`` on canonical data, against the certificate
built through ``mcd`` and ``mcd_set``.  hypothesis is a test-only
dependency."""
import time
from fractions import Fraction
from math import gcd

import pytest

import semifactor as sf
from semifactor import engine

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

rational_gens = st.one_of(
    st.just([Fraction(1, 2), Fraction(3, 4)]),
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 4)).map(lambda t: Fraction(*t)),
        min_size=1,
        max_size=3,
    ),
)


def reachable(scaled_gens, limit):
    """Membership of 0..limit in the monoid the scaled generators span, by
    the coin-change recursion: n is a member when some n - g is."""
    reach = [True] + [False] * limit
    for n in range(1, limit + 1):
        reach[n] = any(g <= n and reach[n - g] for g in scaled_gens)
    return reach


@SETTINGS
@given(rational_gens, st.data())
def test_mcd_and_gcd_match_the_definition(gens, data):
    M = sf.make_monoid(gens)
    D = M.denom
    assert all((g * D).denominator == 1 for g in gens)
    scaled = [int(g * D) for g in gens]
    limit = 3 * max(scaled)
    reach = reachable(scaled, limit)
    members = [n for n in range(limit + 1) if reach[n]]
    assert members == [n for n in range(limit + 1) if M.member_num(n)]
    nums = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4))
    # common divisors d <= min with d and every x - d members, kept when no
    # other common divisor d2 has d2 - d a member; the gcd is the common
    # divisor d with d - d2 a member for every common divisor d2
    commons = [d for d in range(min(nums) + 1) if reach[d] and all(reach[x - d] for x in nums)]
    maximal = {d for d in commons if not any(d2 > d and reach[d2 - d] for d2 in commons)}
    greatest = [d for d in commons if all(d2 <= d and reach[d - d2] for d2 in commons)]
    assert sorted(M._mcd_nums(nums, 10**6)) == sorted(maximal)
    elems = [Fraction(n, D) for n in nums]
    assert {e.value for e in M.mcd(elems)} == {Fraction(d, D) for d in maximal}
    g = M.gcd(elems)
    assert (None if g is None else g.value) == (Fraction(greatest[0], D) if greatest else None)


def reachable_bits(scaled_gens, limit):
    """Membership of 0..limit as the bits of one int: the closure of {0}
    under adding each generator, any number of times, by doubling shifts."""
    mask = (1 << limit + 1) - 1
    reach = 1
    for g in scaled_gens:
        step = g
        while step <= limit:
            reach |= (reach << step) & mask
            step *= 2
    return reach


def reversed_bits(bits, x):
    """The int whose bit d is bit x - d of ``bits``, for 0 <= d <= x."""
    return int(format(bits & ((1 << x + 1) - 1), f"0{x + 1}b")[::-1], 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rational_gens, st.data())
def test_mcd_of_large_members_matches_the_full_scan(gens, data):
    # members near 10^5 to 10^6: every candidate 0..min(nums) is tested on
    # bit sets, and a common divisor d is kept when no d + g, g a
    # generator, is one (the rule the test above pins to the definition);
    # the kernel scans only its window, well within the wall-clock bound
    M = sf.make_monoid(gens)
    scaled = [int(g * M.denom) for g in gens]
    step = gcd(*scaled)
    draws = data.draw(st.lists(st.integers(10**5, 10**6), min_size=1, max_size=4))
    nums = [n - n % step for n in draws]
    low = min(nums)
    reach = reachable_bits(scaled, max(nums))
    assert all(reach >> n & 1 for n in nums)
    commons = reach & ((1 << low + 1) - 1)
    for x in nums:
        commons &= reversed_bits(reach, x)
    below = 0
    for g in scaled:
        below |= commons >> g
    keep = commons & ~below
    want = [d for d, bit in enumerate(reversed(format(keep, "b"))) if bit == "1"]
    start = time.perf_counter()
    got = M._mcd_nums(nums, low + 1)
    assert time.perf_counter() - start < 0.25
    assert sorted(got) == want
    with pytest.raises(sf.BudgetError):
        M._mcd_nums(nums, low)


# (coefficients, monoid, members below, most factors)
CERT_CONTEXTS = [
    ("nat", "nat", 3, 3),
    ("nat", "gens:5,7", 15, 2),
    ("nat", "gens:1/2,3/4", 8, 3),
    ("quad:6", "nat", 3, 2),
]
QUAD_COEFFS = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (3, 1)]
BUDGETS = sf.Budgets(oracle_candidates=20000, degree_limit=32)


@st.composite
def cert_elements(draw):
    """f, a product of two or three small factors, and not 1."""
    coeffs, monoid, below, most = draw(st.sampled_from(CERT_CONTEXTS))
    S, M = sf.semiring_from_literal(coeffs), sf.monoid_from_literal(monoid)
    members = [n for n in range(below) if M.member_num(n)]
    coeff = st.integers(1, 3) if isinstance(S, sf.Nat) else st.sampled_from(QUAD_COEFFS)
    f = sf.PolyExpr.one(S, M)
    for _ in range(draw(st.integers(2, most))):
        nums = draw(st.lists(st.sampled_from(members), min_size=1, max_size=2, unique=True))
        f = f * sf.PolyExpr._merge_nums(S, M, [(n, draw(coeff)) for n in nums])
    hypothesis.assume(not f.is_one)
    return f


@SETTINGS
@given(cert_elements())
def test_certificate_matches_the_boundary_path(f):
    S, M = f.semiring, f.monoid
    try:
        parts = sf.monolithic_decompose(f, budgets=BUDGETS)
    except sf.BudgetError as exc:
        # the certificate spends the same budget on the same decomposition
        with pytest.raises(sf.BudgetError) as refused:
            sf.atomic_certificate(f, budgets=BUDGETS)
        assert str(refused.value) == str(exc)
        return
    per = []
    for part in parts:
        cm = frozenset(S.mcd_set(part.coeffs))
        em = M.mcd((e for e, _ in part.terms), BUDGETS.knapsack_nodes)
        per.append(engine.PartCertificate(part, cm, em, bool(cm) and bool(em)))
    want = engine.CertificateReport(f, tuple(parts), tuple(per), all(p.passes for p in per))
    got = sf.atomic_certificate(f, budgets=BUDGETS)
    assert got == want
    assert all(type(e) is sf.ExpElem for p in got.per_part for e in p.exp_mcd)
