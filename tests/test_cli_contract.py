"""Property test of the CLI contract: every command line either answers or
prints exactly one ``error[<kind>]`` line, with exit code 0-3 and no
traceback.  Inputs stay small enough (generators <= 1000, polynomial
exponents <= 12 at the default --degree-limit, small budgets) that no known
unbudgeted path is reached; coefficients, family and sweep parameters may
be large.  Inputs that once hung run in a child process with CPU-time and
address-space limits."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semifactor

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semifactor import paperlab  # noqa: E402
from semifactor.cli import main  # noqa: E402

# number forms that int() or Fraction() take but the expression grammar does not
NON_GRAMMAR = ["٣", "1.5", "1_0", "+5"]
rationals = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["-3", "1/0", "abc", "", *NON_GRAMMAR]),
)
generators = st.one_of(
    st.integers(1, 1000).map(str),
    st.tuples(st.integers(1, 1000), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", *NON_GRAMMAR]),
)
monoid_literals = st.one_of(
    st.just("nat"),
    st.lists(generators, min_size=1, max_size=4).map(lambda gs: "gens:" + ",".join(gs)),
    st.sampled_from(["gens:", "gens:0", "gens:2,x", "frob"]),
)
budget_flags = st.lists(
    st.tuples(
        st.sampled_from(["--knapsack-budget", "--z-budget", "--oracle-budget", "--degree-limit"]),
        st.one_of(st.integers(1, 2000).map(str), st.sampled_from(NON_GRAMMAR)),
    ),
    max_size=2,
).map(lambda pairs: [x for pair in pairs for x in pair])
exponents = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.integers(1, 12)).map(lambda t: f"{{{t[0]}/{t[1]}}}"),
)
LONG = "1" + "0" * 5000  # above Python's default 4300-digit int-string limit
terms = st.tuples(st.integers(0, 10**6), exponents).map(lambda t: f"{t[0]}x^{t[1]}")
expressions = st.one_of(
    st.lists(terms, min_size=1, max_size=3).map("+".join),
    st.sampled_from(["0", "x^", "x+", "(1,2)x", "2*x", "x^²", "²x+1", "x^٣", LONG, f"x^{LONG}"]),
)


@st.composite
def argvs(draw):
    op = draw(st.sampled_from(["member", "factorize", "mcd", "gcd", "lenfn"]))
    flags = ["--monoid", draw(monoid_literals)] + draw(budget_flags)
    if op == "lenfn":
        return ["poly", "lenfn", *flags, draw(expressions)]
    count = 1 if op in ("member", "factorize") else draw(st.integers(1, 3))
    values = draw(st.lists(rationals, min_size=count, max_size=count))
    return ["monoid", op, *flags, *values]


# quad:6 input for the divisor commands under the oracle: exponents stay
# <= 12 and --degree-limit at its default, since integer recombination is
# not budgeted yet
quad_coeffs = st.one_of(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).map(lambda t: f"({t[0]},{t[1]})"),
    st.integers(0, 40).map(str),
)
quad_terms = st.tuples(quad_coeffs, st.integers(0, 12)).map(lambda t: f"{t[0]}*x^{t[1]}")


@st.composite
def oracle_argvs(draw):
    op = draw(st.sampled_from(["divisors", "factorizations", "lengths", "is-atom"]))
    return [
        "poly", op, "--coeffs", "quad:6", "--strategy", "oracle",
        "--monoid", draw(st.sampled_from(["nat", "gens:2,3"])),
        "--oracle-budget", str(draw(st.integers(1, 2000))),
        draw(st.lists(quad_terms, min_size=1, max_size=3).map("+".join)),
    ]


# every poly command over nat coefficients; exponents stay <= 12 at the
# default --degree-limit, since integer recombination is not budgeted yet
POLY_OPS = [
    "divisors", "factorizations", "lengths", "elasticity", "is-atom",
    "is-monolithic", "decompose", "certify", "lenfn",
]
poly_exponents = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 24), st.integers(1, 4)).map(lambda t: f"{{{t[0]}/{t[1]}}}"),
)
poly_terms = st.tuples(
    st.one_of(st.integers(0, 30), st.sampled_from([10**6, 2**31 - 1])), poly_exponents
).map(lambda t: f"{t[0]}x^{t[1]}")
poly_monoids = st.one_of(
    st.sampled_from(["nat", "gens:2,3", "gens:1/2,3/4", "gens:3,5,7", "gens:1/3,1/2"]),
    st.lists(st.integers(1, 12).map(str), min_size=1, max_size=3).map(
        lambda gs: "gens:" + ",".join(gs)
    ),
)
node_budget_flags = st.lists(
    st.tuples(
        st.sampled_from(["--knapsack-budget", "--z-budget", "--oracle-budget"]),
        st.one_of(st.integers(1, 20000).map(str), st.sampled_from(NON_GRAMMAR)),
    ),
    max_size=2,
).map(lambda pairs: [x for pair in pairs for x in pair])


@st.composite
def poly_argvs(draw):
    op = draw(st.sampled_from(POLY_OPS))
    # lenfn takes no --strategy
    strategy = []
    if op != "lenfn":
        strategy = ["--strategy", draw(st.sampled_from(["auto", "oracle"]))]
    return [
        "poly", op,
        "--monoid", draw(poly_monoids),
        *strategy,
        *draw(node_budget_flags),
        draw(st.one_of(st.lists(poly_terms, min_size=1, max_size=3).map("+".join), expressions)),
    ]


family_values = st.one_of(
    st.one_of(st.integers(-3, 30), st.integers(-(10**6), 10**6)).map(str),
    st.sampled_from(NON_GRAMMAR),
)


@st.composite
def family_argvs(draw):
    argv = ["poly", "expand-family", "--n", draw(family_values)]
    for flag in ("--m", "--k"):
        if draw(st.booleans()):
            argv += [flag, draw(family_values)]
    return argv


CHECK_IDS = sorted(paperlab.ANCHORS)


@st.composite
def verify_argvs(draw):
    ids = draw(st.lists(st.sampled_from(CHECK_IDS + ["no-such-check"]), min_size=1, max_size=2))
    return ["verify", "paper", *[x for cid in ids for x in ("--only", cid)], *draw(budget_flags)]


sweep_values = st.one_of(
    st.lists(st.one_of(st.integers(-2, 12), st.integers(13, 10**6)), min_size=1, max_size=3).map(
        lambda vs: ",".join(map(str, vs))
    ),
    st.sampled_from(["", "a", "2,,3", "2;3", " 2", *NON_GRAMMAR]),
)


@st.composite
def sweep_argvs(draw):
    return [
        "sweep", "elasticity",
        "--n", draw(sweep_values),
        "--k", draw(sweep_values),
        "--output", draw(st.sampled_from(["json", "csv", "pretty", "xml"])),
        *draw(node_budget_flags),
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_answer_or_one_error_line(argv):
    check_contract(argv)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(oracle_argvs())
def test_quad_oracle_answers_or_one_error_line(argv):
    check_contract(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(poly_argvs())
def test_poly_answers_or_one_error_line(argv):
    check_contract(argv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(family_argvs(), verify_argvs(), sweep_argvs()))
def test_family_verify_and_sweep_answer_or_one_error_line(argv):
    check_contract(argv)


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, (argv, lines)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == [] and out.getvalue()
    else:
        assert lines and lines[0].startswith("error["), (argv, lines)


SRC = str(Path(semifactor.__file__).resolve().parent.parent)
# The limits apply to the child alone, set by the child before it imports
# the library: a hang dies of SIGXCPU, unbounded memory of MemoryError.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (20, 20))
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from semifactor.cli import entrypoint
entrypoint()
"""


def run_child(args, code=LIMITED_CLI):
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )


@pytest.mark.parametrize("command", ["divisors", "factorizations"])
def test_large_prime_content_answers_or_one_error_line(command):
    n = 2**61 - 1  # prime: trial division to its square root never ends
    proc = run_child(["poly", command, f"{n}x+{n}"])
    lines = proc.stderr.splitlines()
    assert proc.returncode in (0, 1, 2, 3), (proc.returncode, proc.stderr[-400:])
    if proc.returncode == 0:
        assert lines == [] and proc.stdout
    else:
        assert len(lines) == 1 and lines[0].startswith("error["), lines


def test_quad_divisor_scan_is_budgeted():
    # (3000, 0) has 4 504 500 candidate divisor pairs: refused before the scan
    start = time.perf_counter()
    proc = run_child(["poly", "divisors", "--coeffs", "quad:6", "(3000,0)"])
    elapsed = time.perf_counter() - start
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, (proc.returncode, proc.stderr[-400:])
    assert len(lines) == 1 and lines[0].startswith("error[budget]: "), lines
    assert proc.stdout == ""
    assert elapsed < 1.0


def test_oracle_lc_tc_intersection_is_linear():
    # 16383940372800 has 20160 divisors, all common to the leading and
    # trailing coefficient: a set rebuilt per divisor of lc ran out of CPU
    code = LIMITED_CLI.replace("RLIMIT_CPU, (20, 20)", "RLIMIT_CPU, (3, 3)")
    n = 16383940372800
    proc = run_child(["poly", "divisors", "--strategy", "oracle", f"{n}x+{n}"], code)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-400:])
    assert json.loads(proc.stdout)["count"] == 20160


@pytest.mark.parametrize(
    "argv, code",
    [
        # (x+1)^2000 (x^2-x+1): refused before expansion
        (["poly", "expand-family", "--n", "1", "--m", "2000"], 2),
        # a skipped row, not an expansion of (x+3000)^3000
        (["sweep", "elasticity", "--n", "3000", "--k", "1"], 0),
    ],
)
def test_family_degree_is_refused_before_expansion(argv, code):
    start = time.perf_counter()
    proc = run_child(argv)
    elapsed = time.perf_counter() - start
    lines = proc.stderr.splitlines()
    assert proc.returncode == code, (proc.returncode, proc.stderr[-400:])
    if code:
        assert lines == ["error[budget]: degree 2002 exceeds the factorization limit 24"]
        assert proc.stdout == ""
    else:
        assert lines == []
        assert json.loads(proc.stdout)["rows"] == [
            {"k": 1, "n": 3000, "reason": "degree 3003 exceeds the factorization limit 24",
             "status": "skipped"}
        ]
    assert elapsed < 1.0


@pytest.mark.parametrize("budget, code", [(["--oracle-budget", "100"], 2), ([], 0)])
def test_quad_divisor_scan_honours_the_oracle_budget(budget, code):
    # (20, 0) has 230 candidate divisor pairs
    proc = run_child(["poly", "divisors", "--coeffs", "quad:6", *budget, "(20,0)"])
    lines = proc.stderr.splitlines()
    assert proc.returncode == code, (proc.returncode, proc.stderr[-400:])
    if code:
        assert len(lines) == 1 and lines[0].startswith("error[budget]: "), lines
        assert proc.stdout == ""
    else:
        assert lines == []
        assert json.loads(proc.stdout)["count"] == 6


@pytest.mark.parametrize("strategy", ["auto", "oracle"])
@pytest.mark.parametrize("op", ["divisors", "is-atom", "lengths", "factorizations"])
def test_degree_is_refused_before_any_dense_list(op, strategy):
    # a dense list of 10^20 coefficients cannot exist in 512 MB: the degree
    # is checked before the zx and oracle paths allocate one
    code = LIMITED_CLI.replace("2 << 30, 2 << 30", "512 << 20, 512 << 20")
    start = time.perf_counter()
    proc = run_child(["poly", op, "--strategy", strategy, "x^100000000000000000000+1"], code)
    elapsed = time.perf_counter() - start
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, (proc.returncode, proc.stderr[-400:])
    assert len(lines) == 1 and lines[0].startswith("error[budget]: "), lines
    assert proc.stdout == ""
    assert elapsed < 2.0


def test_factorization_longer_than_the_recursion_limit():
    # 2^1200: one factorization of length 1200
    proc = run_child(["poly", "factorizations", str(2**1200)])
    assert proc.returncode == 0, proc.stderr[-400:]
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["count"] == 1 and out["Z"] == [["2"] * 1200]


def test_import_loads_only_the_standard_library():
    code = "import sys, semifactor; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    proc = run_child([], code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "semifactor" in loaded
    assert loaded - {"semifactor", "__main__"} <= set(sys.stdlib_module_names)
