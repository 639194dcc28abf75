"""Property test of the CLI contract: every command line either answers or
prints exactly one ``error[<kind>]`` line, with exit code 0-3 and no
traceback.  Inputs stay small enough (generators <= 1000, numbers <= 10**6,
small budgets) that no known unbudgeted path is reached."""
import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semifactor.cli import main  # noqa: E402

rationals = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["-3", "1/0", "abc", ""]),
)
generators = st.one_of(
    st.integers(1, 1000).map(str),
    st.tuples(st.integers(1, 1000), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
)
monoid_literals = st.one_of(
    st.just("nat"),
    st.lists(generators, min_size=1, max_size=4).map(lambda gs: "gens:" + ",".join(gs)),
    st.sampled_from(["gens:", "gens:0", "gens:2,x", "frob"]),
)
budget_flags = st.lists(
    st.tuples(
        st.sampled_from(["--knapsack-budget", "--z-budget", "--oracle-budget", "--degree-limit"]),
        st.integers(1, 2000).map(str),
    ),
    max_size=2,
).map(lambda pairs: [x for pair in pairs for x in pair])
exponents = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.integers(1, 12)).map(lambda t: f"{{{t[0]}/{t[1]}}}"),
)
terms = st.tuples(st.integers(0, 10**6), exponents).map(lambda t: f"{t[0]}x^{t[1]}")
expressions = st.one_of(
    st.lists(terms, min_size=1, max_size=3).map("+".join),
    st.sampled_from(["0", "x^", "x+", "(1,2)x", "2*x"]),
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_answer_or_one_error_line(argv):
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
