"""The session memo of part certificates, ``engine._part_certificate``: a
warm session gives the certificates of a cold one, each distinct part is
checked once per knapsack budget, a refusal is never remembered, and the
memo is bounded and emptied by ``clear_caches``."""
import pytest

import semifactor as sf
from semifactor import engine
from semifactor.errors import BudgetError
from semifactor.polyexpr import parse

# elements whose monolithic decompositions repeat a part
REPEATED = [
    ("nat", "nat", ["x^2+x+1", "x^2+x+1"]),
    ("nat", "nat", ["x+1", "x+1", "x+1", "x^2+1"]),
    ("nat", "nat", ["x^2+x+1", "x^2+x+1", "x+2", "2x+1"]),
    ("nat", "gens:2,3", ["x^2+1", "x^2+1"]),
    ("nat", "gens:2,3", ["x^3+x^2+1", "x^3+x^2+1", "x^2+2"]),
    ("quad:6", "nat", ["x+(2,0)", "x+(2,0)"]),
    ("quad:6", "nat", ["(1,1)*x+(1,0)", "(1,1)*x+(1,0)", "x+(1,0)"]),
]


def element(coeffs, monoid, factors):
    S, M = sf.semiring_from_literal(coeffs), sf.monoid_from_literal(monoid)
    f = parse("1", S, M)
    for text in factors:
        f = f * parse(text, S, M)
    return f


def box():
    """Products (x+1)^i (x^2+x+1)^j (x+2)^k, 1 <= i + j + k: a box of
    elements built from three atoms, as a session meets them."""
    atoms = [element("nat", "nat", [t]) for t in ("x+1", "x^2+x+1", "x+2")]
    out = []
    for i in range(3):
        for j in range(3):
            for k in range(2):
                if i + j + k:
                    out.append(atoms[0] ** i * atoms[1] ** j * atoms[2] ** k)
    return out


def test_parts_repeat():
    for case in REPEATED:
        parts = sf.monolithic_decompose(element(*case))
        assert len(set(parts)) < len(parts), case


def test_a_warm_session_matches_cold_certificates():
    engine.clear_caches()
    elements = [element(*case) for case in REPEATED] + box()
    warm = [sf.atomic_certificate(f) for f in elements]
    assert engine._part_certificate.cache_info().hits > 0
    for f, rep in zip(elements, warm):
        engine.clear_caches()
        assert sf.atomic_certificate(f) == rep
        assert [p.part for p in rep.per_part] == list(rep.monolithic_parts)
    engine.clear_caches()


def test_each_distinct_part_is_checked_once_per_budget(monkeypatch):
    calls = []
    orig = sf.ExpMonoid._mcd_nums

    def counting(monoid, nums, node_budget):
        calls.append((monoid, tuple(nums), node_budget))
        return orig(monoid, nums, node_budget)

    monkeypatch.setattr(sf.ExpMonoid, "_mcd_nums", counting)
    engine.clear_caches()
    budgets = [sf.Budgets(), sf.Budgets(knapsack_nodes=100)]
    seen, total = set(), 0
    for b in budgets:
        for f in box():
            rep = sf.atomic_certificate(f, budgets=b)
            seen.update((p, b.knapsack_nodes) for p in rep.monolithic_parts)
            total += len(rep.monolithic_parts)
    assert len(calls) == len(seen) < total
    # an equal budget object built apart hits the same entries
    for f in box():
        sf.atomic_certificate(f, budgets=sf.Budgets(knapsack_nodes=100))
    assert len(calls) == len(seen)
    engine.clear_caches()


def test_a_refusal_is_not_remembered():
    engine.clear_caches()
    f = element("nat", "gens:5,7", ["x^12+x^10"])
    small = sf.Budgets(knapsack_nodes=5)
    messages = []
    for _ in range(2):
        with pytest.raises(BudgetError) as err:
            sf.atomic_certificate(f, budgets=small)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == (
        "common-divisor search needs 11 candidates, over the budget of 5"
    )
    assert engine._part_certificate.cache_info().currsize == 0
    rep = sf.atomic_certificate(f, budgets=sf.Budgets(knapsack_nodes=11))
    assert rep.passes and [str(e) for e in rep.per_part[0].exp_mcd] == ["5"]
    engine.clear_caches()


def test_bound_and_clear():
    engine.clear_caches()
    info = engine._part_certificate.cache_info
    assert info().maxsize == 1024 and info().currsize == 0
    sf.atomic_certificate(element(*REPEATED[0]))
    assert info().currsize == 1 and info().hits == 1
    engine.clear_caches()
    assert info().currsize == 0
