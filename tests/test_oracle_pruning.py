"""The oracle's value test at x = 1 drops only candidates that cannot
divide: its divisor sets and its budget errors equal those of enumerating
the same candidates and long-dividing every one.  hypothesis is a
test-only dependency."""
from itertools import islice

import pytest

import semifactor as sf
from semifactor import engine
from semifactor.errors import BudgetError

from conftest import oracle_candidates

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BUDGET = 3000
SEMIRINGS = ["quad:6", "quad:2", "nat"]
MONOIDS = ["nat", "gens:2,3"]


@st.composite
def polys(draw, S, M):
    members = [n for n in range(7) if M.member_num(n)]
    nums = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True))
    if isinstance(S, sf.Nat):
        coeff = st.integers(1, 3)
    else:
        coeff = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)])
    pairs = [(n, draw(coeff)) for n in nums]
    return sf.PolyExpr._merge_nums(S, M, pairs)


@st.composite
def products(draw):
    S = sf.semiring_from_literal(draw(st.sampled_from(SEMIRINGS)))
    M = sf.monoid_from_literal(draw(st.sampled_from(MONOIDS)))
    return draw(polys(S, M)) * draw(polys(S, M))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(products())
def test_pruned_oracle_equals_dividing_every_candidate(f):
    budgets = sf.Budgets(oracle_candidates=BUDGET)
    candidates = list(islice(oracle_candidates(f), BUDGET + 1))
    if len(candidates) > BUDGET:
        with pytest.raises(BudgetError) as err:
            engine._oracle_divisors(f, budgets)
        assert str(err.value) == f"oracle divisor enumeration exceeded {BUDGET} candidates"
        return
    want = {sf.PolyExpr.one(f.semiring, f.monoid), f}
    for g in candidates:
        q = sf.ambient_exact_div(f, g)
        if q is not None:
            want |= {g, q}
    assert engine._oracle_divisors(f, budgets) == want
