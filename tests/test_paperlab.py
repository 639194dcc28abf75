import hashlib
import json
import random
from fractions import Fraction

import pytest

from semifactor import Nat, PolyExpr, paperlab
from semifactor.errors import Budgets, DomainError, UsageError
from semifactor.paperlab import (
    ANCHORS,
    elasticity_sweep,
    expand_family,
    family_int,
    report_json,
    run_paper_suite,
    sweep_csv,
)


class TestSuite:
    def test_default_all_pass_no_skips(self):
        results = run_paper_suite()
        assert len(results) == 9
        assert all(r.status == "pass" for r in results)

    def test_byte_deterministic(self):
        budgets = Budgets()
        a = report_json(run_paper_suite(budgets), budgets)
        b = report_json(run_paper_suite(budgets), budgets)
        assert a == b
        assert a.encode() == b.encode()

    def test_golden_report(self):
        # sha256 of the default report as first recorded for SUITE_VERSION
        # 1.0; any change to a check's output must bump the version
        text = report_json(run_paper_suite())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a6b6a5d0fa48ef24c31e910bf645a9bd629f0c55a7a1de88b4ae7e3b2d0fad1e"
        )

    def test_default_config_report(self):
        assert json.loads(report_json([]))["config"] == {
            "degree_limit": 24,
            "knapsack_nodes": 10**6,
            "only": None,
            "oracle_candidates": 10**6,
            "z_nodes": 10**5,
        }

    def test_only_filter(self):
        results = run_paper_suite(only=("lfs-witness",))
        assert len(results) == 1
        assert results[0].check_id == "lfs-witness"
        assert results[0].status == "pass"

    def test_unknown_check_id(self):
        with pytest.raises(UsageError):
            run_paper_suite(only=("no-such-check",))

    def test_degree_budget_skips_heavy_checks(self):
        results = {r.check_id: r for r in run_paper_suite(Budgets(degree_limit=2))}
        assert results["hfs-witness"].status == "skipped"
        assert results["irreducible-family"].status == "skipped"
        assert results["hfs-witness"].details["reason"]
        # checks that never factor keep running
        assert results["membership-family"].status == "pass"
        assert results["quad-sqrt6-suite"].status == "pass"
        assert results["puiseux-demo"].status == "pass"

    def test_quad_scan_spends_the_oracle_budget(self):
        # the scans up to b+c = 10 try up to 65 candidate pairs; 6*r needs 27
        (result,) = run_paper_suite(Budgets(oracle_candidates=26), ("quad-sqrt6-suite",))
        assert result.status == "skipped"
        assert result.details == {
            "reason": "divisors of 6*r need 27 candidate pairs, over the budget of 26"
        }

    def test_random_polys_are_the_merged_draws(self, monkeypatch):
        # each draw of the length-function suite, replayed from the same
        # generator state, merged like terms into the same canonical poly
        seen = []
        draw = paperlab._random_poly

        def recorded(rng, S, M, members):
            before = rng.getstate()
            f = draw(rng, S, M, members)
            seen.append((before, rng.getstate(), S, M, members, f))
            return f

        monkeypatch.setattr(paperlab, "_random_poly", recorded)
        (result,) = run_paper_suite(only=("length-function-suite",))
        assert result.status == "pass" and len(seen) == 720
        rng = random.Random()
        for before, after, S, M, members, f in seen:
            rng.setstate(before)
            pairs = []
            for n in rng.sample(members, rng.randint(1, min(4, len(members)))):
                if isinstance(S, Nat):
                    c = rng.randint(1, 5)
                else:
                    c = (rng.randint(0, 3), rng.randint(0, 3))
                    if c == (0, 0):
                        c = (1, 0)
                pairs.append((n, c))
            assert rng.getstate() == after
            assert f == PolyExpr._merge_nums(S, M, pairs)

    def test_anchors_registered_and_nonempty(self):
        for r in run_paper_suite():
            assert r.paper_anchor
            assert r.paper_anchor == ANCHORS[r.check_id]

    def test_results_sorted_by_check_id(self):
        ids = [r.check_id for r in run_paper_suite()]
        assert ids == sorted(ids)

    def test_anchors_name_exactly_the_checks(self):
        assert sorted(ANCHORS) == [r.check_id for r in run_paper_suite()]


class TestFamily:
    def test_membership_boundary(self):
        assert family_int(3, 3).is_nonnegative
        assert not family_int(3, 2).is_nonnegative

    def test_expand_family_known_value(self):
        assert str(expand_family(2, 2)) == "x^4+3x^3+x^2+4"

    def test_expand_family_rejects_negative_cases(self):
        with pytest.raises(DomainError):
            expand_family(2, 1)

    def test_bad_parameters(self):
        with pytest.raises(UsageError):
            family_int(0, 1)


class TestSweep:
    def test_rows(self):
        rows = elasticity_sweep([2, 3], [1, 2, 3])
        assert len(rows) == 6
        by_nk = {(r["n"], r["k"]): r for r in rows}
        assert by_nk[(2, 1)]["elasticity"] == "3/2"
        assert by_nk[(2, 2)]["elasticity"] == "4/3"
        assert by_nk[(3, 1)]["elasticity"] == "2/1"
        for (n, k), r in by_nk.items():
            assert Fraction(r["elasticity"]) == Fraction(n + k, k + 1)
            assert (r["min_len"], r["max_len"]) == (k + 1, k + n)

    def test_elasticity_climbs_toward_two_on_diagonal(self):
        values = [
            Fraction(elasticity_sweep([n], [n])[0]["elasticity"]) for n in (2, 3, 4)
        ]
        assert values == [Fraction(2 * n, n + 1) for n in (2, 3, 4)]
        assert values == sorted(values) and all(v < 2 for v in values)

    def test_csv_shape(self):
        text = sweep_csv(elasticity_sweep([2], [1, 2]))
        lines = text.strip().splitlines()
        assert lines[0] == "n,k,min_len,max_len,elasticity_num,elasticity_den"
        assert lines[1] == "2,1,2,3,3,2"
        assert lines[2] == "2,2,3,4,4,3"

    def test_jsonable(self):
        rows = elasticity_sweep([2], [1])
        assert rows == [
            {
                "n": 2,
                "k": 1,
                "min_len": 2,
                "max_len": 3,
                "elasticity": "3/2",
                "status": "ok",
            }
        ]

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            elasticity_sweep([1], [1])
        with pytest.raises(UsageError):
            elasticity_sweep([2], [0])

    def test_budget_marks_rows_skipped(self):
        rows = elasticity_sweep([2], [1], Budgets(degree_limit=2))
        assert rows[0]["status"] == "skipped"
        assert "reason" in rows[0]

