import json
import time

import pytest

import semifactor as sf
from semifactor import cli
from semifactor.cli import _budgets, build_parser, main
from semifactor.errors import InternalError
from semifactor.polyexpr import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[usage]: "), err
    return err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPolyCommands:
    def test_lengths(self, capsys):
        payload = run_json(capsys, "poly", "lengths", "x^5+x^4+x^3+x^2+x+1")
        assert payload["L"] == [2]
        assert payload["elasticity"] == "1/1"

    def test_elasticity_of_family_atom(self, capsys):
        payload = run_json(capsys, "poly", "elasticity", "x^4+3x^3+x^2+4")
        assert payload["L"] == [1]
        assert payload["elasticity"] == "1/1"

    def test_divisors(self, capsys):
        payload = run_json(capsys, "poly", "divisors", "x^3+x^2")
        assert payload["count"] == 6
        assert payload["strategy_used"] == "zx_fastpath"

    def test_divisors_of_a_strong_pseudoprime_content(self, capsys):
        # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to every
        # prime base up to 41: its divisors times those of x + 1
        psi13 = 3317044064679887385961981
        payload = run_json(capsys, "poly", "divisors", f"{psi13}x+{psi13}")
        assert payload["count"] == 8
        assert "1287836182261x+1287836182261" in payload["divisors"]

    def test_factorizations(self, capsys):
        payload = run_json(capsys, "poly", "factorizations", "x^5+x^4+x^3+x^2+x+1")
        assert payload["Z"] == [["x+1", "x^4+x^2+1"], ["x^2+x+1", "x^3+1"]]

    def test_is_atom(self, capsys):
        payload = run_json(capsys, "poly", "is-atom", "x^2+x+1")
        assert payload["is_atom"] is True

    def test_is_monolithic(self, capsys):
        payload = run_json(capsys, "poly", "is-monolithic", "x^2+x^3")
        assert payload["is_monolithic"] is True

    def test_decompose(self, capsys):
        payload = run_json(capsys, "poly", "decompose", "x^2+2x+1")
        assert payload["parts"] == ["x+1", "x+1"]

    def test_certify(self, capsys):
        payload = run_json(capsys, "poly", "certify", "2x+2")
        assert payload["passes"] is True
        assert payload["parts"][0]["coeff_mcd"] == ["2"]

    def test_lenfn(self, capsys):
        payload = run_json(capsys, "poly", "lenfn", "2x^3+2")
        assert payload["length"] == 5

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["x^5000000"], 5_000_000),
            (["--monoid", "gens:6,9,20", "x^5000000"], 833_331),
        ],
    )
    def test_lenfn_large_exponent(self, capsys, argv, expected):
        start = time.perf_counter()
        payload = run_json(capsys, "poly", "lenfn", *argv)
        assert time.perf_counter() - start < 1.0
        assert payload["length"] == expected

    def test_lenfn_budget(self, capsys):
        # the length table's 500 classes are counted before it is allocated
        argv = ["poly", "lenfn", "--monoid", "gens:500,501,999", "--knapsack-budget"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "10", "x^248998")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err == "error[budget]: length table needs 500 residue classes, over the budget of 10\n"
        # then its 665 staircase pairs
        code, out, err = run(capsys, *argv, "664", "x^248998")
        assert (code, out) == (2, "")
        assert err == "error[budget]: length table exceeded the budget of 664 pairs\n"
        code, out, err = run(capsys, *argv, "665", "x^248998")
        assert code == 0, err
        assert json.loads(out)["length"] == 496
        # <5,6,13> has 7 pairs, two of them in the class of 13
        argv = ["poly", "lenfn", "--monoid", "gens:5,6,13", "--knapsack-budget"]
        assert run(capsys, *argv, "7", "x^13")[0] == 0
        assert run(capsys, *argv, "6", "x^13")[0] == 2

    def test_expand_family(self, capsys):
        payload = run_json(capsys, "poly", "expand-family", "--n", "2", "--k", "1")
        assert payload["expr"] == "x^5+4x^4+4x^3+x^2+4x+4"
        assert payload["m"] == 2

    def test_quad_context(self, capsys):
        payload = run_json(
            capsys, "poly", "divisors", "--coeffs", "quad:6", "--strategy", "oracle", "6"
        )
        assert payload["count"] == 5

    def test_pretty_round_trips(self, capsys):
        code, out, err = run(capsys, "poly", "divisors", "--output", "pretty", "x^3+x^2")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("expr:"))
        expr = line.split("expr:", 1)[1].strip()
        assert parse(expr, sf.Nat(), sf.nat_monoid()) == parse(
            "x^3+x^2", sf.Nat(), sf.nat_monoid()
        )


class TestMonoidCommands:
    def test_factorize(self, capsys):
        payload = run_json(capsys, "monoid", "factorize", "--monoid", "gens:2,3", "6")
        assert payload["Z"] == [[2, 2, 2], [3, 3]]
        assert payload["L"] == [2, 3]

    def test_factorize_fractional(self, capsys):
        payload = run_json(
            capsys, "monoid", "factorize", "--monoid", "gens:1/2,3/4", "3/2"
        )
        assert payload["Z"] == [["1/2", "1/2", "1/2"], ["3/4", "3/4"]]

    def test_atoms(self, capsys):
        payload = run_json(capsys, "monoid", "atoms", "--monoid", "gens:2,3,7")
        assert payload["atoms"] == [2, 3]

    def test_member(self, capsys):
        payload = run_json(capsys, "monoid", "member", "--monoid", "gens:2,3", "1")
        assert payload["member"] is False

    def test_mcd_gcd(self, capsys):
        payload = run_json(capsys, "monoid", "mcd", "--monoid", "gens:2,3", "2", "3")
        assert payload["mcd"] == [0]
        payload = run_json(capsys, "monoid", "gcd", "--monoid", "gens:2,3", "4", "6")
        assert payload["gcd"] == 4

    def test_factorize_deep(self, capsys):
        payload = run_json(capsys, "monoid", "factorize", "5000")
        assert payload["L"] == [5000]
        assert payload["Z"] == [[1] * 5000]

    def test_factorize_budget(self, capsys):
        code, out, err = run(capsys, "monoid", "factorize", "--knapsack-budget", "100", "5000")
        assert code == 2
        assert out == ""
        assert err == "error[budget]: factorization search exceeded 100 nodes\n"

    def test_factorize_many_counts(self, capsys):
        payload = run_json(capsys, "monoid", "factorize", "--monoid", "gens:2,3", "3500")
        assert len(payload["Z"]) == 584
        assert payload["L"] == list(range(1167, 1751))

    @pytest.mark.parametrize("op", ["mcd", "gcd"])
    def test_common_divisor_budget(self, capsys, op):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "monoid", op, "--monoid", "gens:2,3", "100000000", "100000001"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error[budget]: "), err
        # min(4, 6) + 1 = 5 candidates: a budget of 5 answers, 4 does not
        argv = ["monoid", op, "--monoid", "gens:2,3", "--knapsack-budget"]
        assert run(capsys, *argv, "5", "4", "6")[0] == 0
        assert run(capsys, *argv, "4", "4", "6")[0] == 2

    def test_large_smallest_generator_budget(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "monoid", "member", "--monoid", "gens:20000000,20000001", "7"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err == (
            "error[budget]: Apery table needs 20000000 residue classes, "
            "over the budget of 1000000\n"
        )


class TestVerifyAndSweep:
    def test_verify_single_check(self, capsys):
        code, out, err = run(capsys, "verify", "paper", "--only", "lfs-witness")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 1
        assert doc["results"][0]["status"] == "pass"
        assert doc["suite_version"]

    def test_verify_report_schema(self, capsys):
        code, out, err = run(capsys, "verify", "paper", "--only", "monolithic-example")
        doc = json.loads(out)
        assert set(doc) == {"suite_version", "config", "results"}
        for r in doc["results"]:
            assert set(r) == {"check_id", "paper_anchor", "status", "details"}

    def test_verify_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(
            capsys, "verify", "paper", "--only", "quad-sqrt6-suite", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["results"][0]["status"] == "pass"

    @pytest.mark.parametrize("target, is_dir", [("missing/report.json", False), ("report", True)])
    def test_unwritable_out_is_one_usage_error(self, capsys, tmp_path, target, is_dir):
        # a missing directory, and an existing directory in place of a file
        path = tmp_path / target
        if is_dir:
            path.mkdir()
        err = run_usage_error(capsys, "poly", "divisors", "x+1", "--out", str(path))
        assert err.startswith(f"error[usage]: cannot write {path}: ")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_sweep_csv(self, capsys):
        code, out, err = run(
            capsys, "sweep", "elasticity", "--n", "2", "--k", "1,2", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,min_len,max_len,elasticity_num,elasticity_den"
        assert lines[1:] == ["2,1,2,3,3,2", "2,2,3,4,4,3"]

    def test_sweep_json(self, capsys):
        payload = run_json(capsys, "sweep", "elasticity", "--n", "2", "--k", "1")
        assert payload["rows"][0]["elasticity"] == "3/2"

    def test_sweep_skipped_row(self, capsys):
        # (x+30)^30 (x^2-x+1) (x+1) has degree 33, over the default limit 24
        argv = ["sweep", "elasticity", "--n", "2,30", "--k", "1"]
        code, out, err = run(capsys, *argv, "--output", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["2,1,2,3,3,2", "30,1,,,,"]
        rows = run_json(capsys, *argv)["rows"]
        assert rows[0] == {
            "n": 2, "k": 1, "min_len": 2, "max_len": 3, "elasticity": "3/2", "status": "ok"
        }
        assert rows[1] == {
            "n": 30,
            "k": 1,
            "status": "skipped",
            "reason": "degree 33 exceeds the factorization limit 24",
        }
        err = run_usage_error(capsys, *argv, "--output", "pretty")
        assert "invalid choice: 'pretty'" in err

    def test_failed_check_exits_1_with_its_report(self, capsys, monkeypatch):
        broken = (sf.paperlab.ANCHORS["lfs-witness"], lambda b: (["broken on purpose"], {"x": 1}))
        monkeypatch.setitem(sf.paperlab._CHECKS, "lfs-witness", broken)
        code, out, err = run(capsys, "verify", "paper", "--only", "lfs-witness")
        assert (code, err) == (1, "")
        (result,) = json.loads(out)["results"]
        assert result["status"] == "fail"
        assert result["details"] == {"x": 1, "counterexamples": ["broken on purpose"]}


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_only_does_not_stick(self, capsys):
        code, out, err = run(capsys, "verify", "paper", "--only", "membership-family")
        assert code == 0
        assert [r["check_id"] for r in json.loads(out)["results"]] == ["membership-family"]
        code, out, err = run(capsys, "verify", "paper")
        assert code == 0
        assert len(json.loads(out)["results"]) == 9

    def test_usage_error_then_valid_command(self, capsys):
        run_usage_error(capsys, "poly", "lengths", "--frobnicate", "x")
        run_usage_error(capsys, "monoid", "member")
        payload = run_json(capsys, "monoid", "member", "--monoid", "gens:2,3", "7")
        assert payload["member"] is True


class TestExitCodes:
    def test_grammar_has_no_products(self, capsys):
        code, out, err = run(capsys, "poly", "lengths", "(x+2)*(x+2)")
        assert code == 1
        assert err.startswith("error[usage]")

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("x^²", "expected a decimal integer (at position 2)"),
            ("²x+1", "expected a term, found '²' (at position 0)"),
            ("x^٣", "expected a decimal integer (at position 2)"),
            ("1" + "0" * 5000, "integer literal of 5001 digits is too long (at position 0)"),
            ("x^1" + "0" * 5000, "integer literal of 5001 digits is too long (at position 2)"),
        ],
        ids=["superscript-exp", "superscript-coeff", "arabic-indic-exp", "long-coeff", "long-exp"],
    )
    def test_malformed_literal(self, capsys, expr, message):
        err = run_usage_error(capsys, "poly", "divisors", expr)
        assert err == f"error[usage]: {message}\n"

    def test_bad_radicand(self, capsys):
        code, out, err = run(capsys, "poly", "lengths", "--coeffs", "quad:4", "x")
        assert code == 1
        assert "error[usage]" in err

    @pytest.mark.parametrize(
        "argv", [["poly", "divisors", ""], ["poly", "divisors", "--coeffs", "bogus", "x"]]
    )
    def test_unreadable_input_is_one_usage_error(self, capsys, argv):
        run_usage_error(capsys, *argv)

    def test_lenfn_needs_a_radicand_of_5(self, capsys):
        # floor(sqrt(d)) >= 2 needs d >= 4, and quad:4 is refused as a square
        code, out, err = run(capsys, "poly", "lenfn", "--coeffs", "quad:3", "x+1")
        assert (code, out) == (1, "")
        assert err == "error[domain]: no supported length function for quad:3 (need d >= 5)\n"
        assert run_json(capsys, "poly", "lenfn", "--coeffs", "quad:5", "x+1")["length"] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lenfn", "0"], "the zero polynomial has no length"),
            (["lenfn", "--coeffs", "quad:2", "x+1"],
             "no supported length function for quad:2 (need d >= 5)"),
            (["certify", "0"], "atomicity certificates are defined for nonzero nonunits"),
            (["certify", "1"], "atomicity certificates are defined for nonzero nonunits"),
            (["certify", "--coeffs", "quad:6", "(1,0)"],
             "atomicity certificates are defined for nonzero nonunits"),
        ],
    )
    def test_lenfn_and_certify_name_their_domain(self, capsys, argv, message):
        code, out, err = run(capsys, "poly", *argv)
        assert (code, out, err) == (1, "", f"error[domain]: {message}\n")

    def test_domain_error(self, capsys):
        code, out, err = run(capsys, "poly", "lengths", "0")
        assert code == 1
        assert err.startswith("error[domain]")

    def test_budget_exit(self, capsys):
        sf.engine.clear_caches()
        code, out, err = run(
            capsys,
            "poly",
            "divisors",
            "--strategy",
            "oracle",
            "--oracle-budget",
            "2",
            "x^5+x^4+x^3+x^2+x+1",
        )
        assert code == 2
        assert err.startswith("error[budget]")

    def test_internal_error_exit(self, capsys, monkeypatch):
        def broken(f, args, b):
            raise InternalError("invariant broken on purpose")

        monkeypatch.setitem(cli._POLY_OPS, "divisors", broken)
        code, out, err = run(capsys, "poly", "divisors", "x+1")
        assert (code, out) == (3, "")
        assert err == "error[internal]: invariant broken on purpose\n"

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "poly", "lengths", "--frobnicate", "x")
        assert code == 1

    def test_csv_only_for_sweeps(self, capsys):
        code, out, err = run(capsys, "poly", "lengths", "--output", "csv", "x")
        assert code == 1
        assert "csv" in err

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    @pytest.mark.parametrize(
        "flag", ["--oracle-budget", "--z-budget", "--knapsack-budget", "--degree-limit"]
    )
    def test_non_positive_budget_flag(self, capsys, flag, value):
        err = run_usage_error(capsys, "poly", "divisors", flag, value, "x+1")
        assert flag in err

    def test_budget_defaults_and_precedence(self):
        parser = build_parser()
        assert _budgets(parser.parse_args(["poly", "lenfn", "x"])) == sf.Budgets()
        args = parser.parse_args(["poly", "lenfn", "--z-budget", "9", "x"])
        assert _budgets(args) == sf.Budgets(z_nodes=9)

    @pytest.mark.parametrize(
        "argv", [["poly", "divisors", "x"], ["monoid", "atoms"], ["verify", "paper"]]
    )
    def test_one_flag_per_budget_field(self, argv):
        # the flags are read off the Budgets fields: exactly these four, each
        # setting its own field
        flags = {
            "--oracle-budget": "oracle_candidates",
            "--z-budget": "z_nodes",
            "--knapsack-budget": "knapsack_nodes",
            "--degree-limit": "degree_limit",
        }
        sub = build_parser()
        for word in argv[:2]:
            sub = sub._subparsers._group_actions[0].choices[word]
        options = {o: a.dest for a in sub._actions for o in a.option_strings}
        assert {o: d for o, d in options.items() if d in flags.values()} == flags
        assert {o for o in options if o.endswith(("-budget", "-limit"))} == set(flags)
        for flag, name in flags.items():
            args = build_parser().parse_args([*argv[:2], flag, "7", *argv[2:]])
            assert _budgets(args) == sf.Budgets(**{name: 7})

    @pytest.mark.parametrize(
        "argv",
        [
            ["member", "abc"],
            ["member", "1/0"],
            ["factorize", "--monoid", "gens:2,3", "x"],
            ["mcd", "2", "1/0"],
            ["gcd", "abc", "2"],
        ],
    )
    def test_bad_rational(self, capsys, argv):
        err = run_usage_error(capsys, "monoid", *argv)
        assert "not a rational number" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["monoid", "member", "٣"],
            ["monoid", "member", "1.5"],
            ["monoid", "atoms", "--monoid", "gens:٣,5"],
            ["monoid", "atoms", "--monoid", "gens:0.5,0.75"],
            ["monoid", "atoms", "--monoid", "gens:2,,3"],
            ["poly", "divisors", "--coeffs", "quad:٦", "x+1"],
            ["poly", "divisors", "--z-budget", "٥", "x+1"],
            ["poly", "divisors", "--oracle-budget", "1_000", "x+1"],
            ["poly", "divisors", "--degree-limit", "+5", "x+1"],
            ["poly", "expand-family", "--n", "٢"],
            ["sweep", "elasticity", "--n", "٢", "--k", "1"],
            ["monoid", "mcd", "--monoid", "gens:2,3", "4", "1_0"],
        ],
    )
    def test_numbers_follow_the_expression_grammar(self, capsys, argv):
        # int() and Fraction() once took these: other Unicode digits,
        # decimals, underscores, a sign, an empty generator
        run_usage_error(capsys, *argv)

    def test_certify_spends_the_knapsack_budget(self, capsys):
        # the exponent mcd of x^12+x^10 over <5,7> tries 11 candidates
        argv = ["poly", "certify", "--monoid", "gens:5,7", "x^12+x^10"]
        code, out, err = run(capsys, *argv, "--knapsack-budget", "1")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error[budget]: "), err
        assert run_json(capsys, *argv)["passes"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "paper", "--coeffs", "quad:6"],
            ["verify", "paper", "--strategy", "oracle"],
            ["sweep", "elasticity", "--n", "2", "--k", "1", "--monoid", "gens:2,3"],
        ],
    )
    def test_suite_commands_take_no_context_flags(self, capsys, argv):
        err = run_usage_error(capsys, *argv)
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "paper", "--output", "csv"],
            ["verify", "paper", "--output", "pretty"],
            ["monoid", "atoms", "--coeffs", "quad:6"],
            ["monoid", "member", "--coeffs", "nat", "2"],
            ["monoid", "factorize", "--strategy", "oracle", "6"],
            ["monoid", "mcd", "--strategy", "auto", "2", "3"],
            ["monoid", "gcd", "--coeffs", "quad:6", "--monoid", "gens:2,3", "4", "6"],
            ["sweep", "elasticity", "--n", "2", "--k", "1", "--output", "pretty"],
            ["poly", "divisors", "--output", "csv", "x+1"],
            ["monoid", "atoms", "--output", "csv"],
            ["poly", "expand-family", "--n", "2", "--coeffs", "quad:6"],
            ["poly", "expand-family", "--n", "2", "--monoid", "gens:2,3"],
            ["poly", "expand-family", "--n", "2", "--strategy", "oracle"],
            ["poly", "lenfn", "--strategy", "oracle", "x+1"],
        ],
    )
    def test_ignored_options_are_rejected(self, capsys, argv):
        run_usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--strategy", "oracle", "--oracle-budget", "1000", "x^2000000+1"],
            ["--coeffs", "quad:6", "x^2000000+(1,1)"],
        ],
    )
    def test_oracle_degree_limit_before_enumeration(self, capsys, argv):
        import time

        start = time.perf_counter()
        code, out, err = run(capsys, "poly", "divisors", *argv)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        assert err == "error[budget]: degree 2000000 exceeds the factorization limit 24\n"
        assert elapsed < 0.5
