from fractions import Fraction
from itertools import combinations, product

import pytest

import semifactor as sf


@pytest.fixture
def nat_ctx():
    return sf.Nat(), sf.nat_monoid()


@pytest.fixture
def quad6_ctx():
    return sf.Quad(6), sf.nat_monoid()


@pytest.fixture
def halves_ctx():
    return sf.Nat(), sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])


def random_poly(rng, S, M, max_num=6, max_terms=4, max_coeff=5):
    """A random nonzero polynomial expression in the given context."""
    members = [n for n in range(max_num + 1) if M.member_num(n)]
    exps = rng.sample(members, rng.randint(1, min(max_terms, len(members))))
    terms = []
    for n in exps:
        if isinstance(S, sf.Nat):
            c = rng.randint(1, max_coeff)
        else:
            c = (rng.randint(0, max_coeff), rng.randint(0, max_coeff))
            if c == (0, 0):
                c = (1, 0)
        terms.append((Fraction(n, M.denom), c))
    return sf.PolyExpr.from_terms(S, M, terms)


def oracle_candidates(f):
    """Every candidate divisor the oracle enumerates for f, in its order:
    supports of admissible scaled exponents up to half the degree, with
    leading and trailing coefficients dividing those of f and middle ones
    bounded by f's largest component.  No value test is applied."""
    S, M = f.semiring, f.monoid
    nums = f.nums
    deg, trail = nums[0], nums[-1]
    admissible = [
        m
        for m in range(deg // 2 + 1)
        if M.member_num(m) and any(s >= m and M.member_num(s - m) for s in nums)
    ]
    lc_divs = sorted(S.divisors_of(f.coeffs[0]))
    tc_divs = sorted(S.divisors_of(f.coeffs[-1]))
    both = [v for v in lc_divs if v in tc_divs]
    mids = S.values_with_components_at_most(max(map(S.max_component, f.coeffs)))
    for size in range(1, min(len(nums), len(admissible)) + 1):
        for support in combinations(admissible, size):
            if not (M.member_num(deg - support[-1]) and M.member_num(trail - support[0])):
                continue
            choices = [both] if size == 1 else [tc_divs] + [mids] * (size - 2) + [lc_divs]
            for combo in product(*choices):
                yield sf.PolyExpr(S, M, support[::-1], combo[::-1])
