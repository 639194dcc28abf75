"""Acceptance criteria, one test per criterion.

Every check is exact (integer/rational arithmetic, set equality); the time
limits are generous ceilings.  Each test prints a single pass/fail line:
run with ``pytest -s tests/test_acceptance.py -v`` to see them all.
"""
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import semifactor as sf
from semifactor.paperlab import expand_family, family_int, report_json, run_paper_suite
from semifactor.polyexpr import parse

from conftest import random_poly

NAT = sf.Nat()
Q6 = sf.Quad(6)


def P(text, S=NAT, M=None):
    return parse(text, S, M or sf.nat_monoid())


def z_values(zs):
    return sorted(sorted(str(p) for p in z.parts) for z in zs)


def report(cid, ok, t0, limit):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance] {cid}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, cid
    assert elapsed < limit, f"{cid} exceeded {limit}s ({elapsed:.2f}s)"


def test_c01_equal_length_factorization_witness():
    t0 = time.monotonic()
    f = P("x^5+x^4+x^3+x^2+x+1")
    zs = sf.factorizations(f)
    got = z_values(zs)
    ok = got == [["x+1", "x^4+x^2+1"], ["x^2+x+1", "x^3+1"]]
    ok = ok and all(z.length == 2 for z in zs) and len(zs) == 2
    report("C1 equal-length witness", ok, t0, 1.0)


def test_c02_half_factoriality_failure_witness():
    t0 = time.monotonic()
    f1, f2 = P("x^4+x^2+x+1"), P("x^6+x^5+x^3+1")
    f3, f4, f5 = P("x+1"), P("x^2+1"), P("x^7+2x^4+1")
    prod = f1 * f2
    ok = prod == f3 * f4 * f5
    ok = ok and sf.is_atom(f1) and sf.is_atom(f2)
    lengths, rho = sf.length_profile(prod)
    ok = ok and min(lengths) == 2 and max(lengths) >= 3 and rho >= Fraction(3, 2)
    report("C2 length-2 vs length-3 witness", ok, t0, 10.0)


def test_c03_membership_criterion():
    t0 = time.monotonic()
    ok = True
    cases = 0
    for n in range(1, 7):
        for m in range(1, 7):
            cases += 1
            ok = ok and (family_int(n, m).is_nonnegative == (m >= n))
    report("C3 membership criterion 36/36", ok and cases == 36, t0, 1.0)


def test_c04_irreducible_family():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 5):
        f = expand_family(n, n)
        ok = ok and sf.is_atom(f, "zx_fastpath")
    for n in (1, 2):
        f = expand_family(n, n)
        ok = ok and sf.divisors(f, "oracle").divisors == sf.divisors(f, "zx_fastpath").divisors
        ok = ok and sf.is_atom(f, "oracle")
    report("C4 irreducible family n=1..4", ok, t0, 30.0)


def test_c05_elasticity_family():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        for k in (1, 2, 3):
            f = expand_family(n, n, k)
            zs = sf.factorizations(f)
            lengths, rho = sf.length_profile(f)
            ok = ok and len(zs) == 2
            ok = ok and sorted(lengths) == sorted({k + 1, k + n})
            ok = ok and rho == Fraction(k + n, k + 1)
    report("C5 elasticity family", ok, t0, 120.0)


def test_c06_quadratic_semiring_suite():
    t0 = time.monotonic()
    ok = True
    for total in range(1, 11):
        for b in range(total + 1):
            a = (b, total - b)
            for s in Q6.divisors_of(a):
                ok = ok and s[0] + s[1] <= total
    ok = ok and Q6.atom_factorizations((6, 0)) == {((2, 0), (3, 0)), ((0, 1), (0, 1))}
    report("C6 quadratic divisor bound and Z(6)", ok, t0, 30.0)


def test_c07_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(99)
    ok = True
    M = sf.nat_monoid()
    for _ in range(200):
        f = random_poly(rng, NAT, M, max_num=6, max_terms=7, max_coeff=5)
        ok = ok and (
            sf.divisors(f, "oracle").divisors == sf.divisors(f, "zx_fastpath").divisors
        )
    M2 = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])
    for _ in range(20):
        f = random_poly(rng, NAT, M2, max_num=12, max_terms=4, max_coeff=5)
        ok = ok and (
            sf.divisors(f, "oracle").divisors == sf.divisors(f, "zx_fastpath").divisors
        )
    report("C7 oracle/fast-path equivalence 220 cases", ok, t0, 300.0)


def test_c08_length_function_properties():
    t0 = time.monotonic()
    rng = random.Random(98)
    ok = True
    contexts = [
        (NAT, sf.nat_monoid()),
        (NAT, sf.make_monoid([2, 3])),
        (Q6, sf.nat_monoid()),
    ]
    pairs = 0
    for S, M in contexts:
        for _ in range(340):
            f = random_poly(rng, S, M, max_num=8, max_coeff=4)
            g = random_poly(rng, S, M, max_num=8, max_coeff=4)
            pairs += 1
            fg = f * g
            ok = ok and sf.length_fn(fg) >= sf.length_fn(f) + sf.length_fn(g)
            ok = ok and ((sf.length_fn(f) == 0) == f.is_one)
            sumset = {a.value + b.value for a in f.support for b in g.support}
            ok = ok and sumset == {e.value for e in fg.support}
            ok = ok and len(sumset) >= len(f.support) + len(g.support) - 1
    report(f"C8 length-function properties on {pairs} pairs", ok and pairs >= 1000, t0, 60.0)


def test_c09_monoid_engine():
    t0 = time.monotonic()
    m = sf.make_monoid([2, 3])
    zs = m.factorizations(6)
    ok = {tuple(e.value for e in z) for z in zs} == {(2, 2, 2), (3, 3)}
    lengths = {len(z) for z in zs}
    ok = ok and lengths == {2, 3} and Fraction(max(lengths), min(lengths)) == Fraction(3, 2)
    ok = ok and {e.value for e in m.mcd([2, 3])} == {0}
    m4 = sf.make_monoid([Fraction(1, 2), Fraction(3, 4)])

    def brute(gens, target):
        gens = sorted(gens)
        out = set()

        def rec(rest, lo, acc):
            if rest == 0:
                out.add(tuple(acc))
                return
            for g in gens:
                if g < lo or g > rest:
                    continue
                rec(rest - g, g, acc + [g])

        rec(target, 0, [])
        return out

    for mm in (m, m4):
        atom_nums = sorted(mm.min_gens)
        for num in range(0, 61):
            if not mm.member_num(num):
                continue
            got = {
                tuple(int(e.value * mm.denom) for e in z)
                for z in mm.factorizations(Fraction(num, mm.denom))
            }
            ok = ok and got == brute(atom_nums, num)
    for num in range(0, 25):
        if m.member_num(num):
            ok = ok and m.length(num) == m4.length(Fraction(num, 4))
            ok = ok and len(m.factorizations(num)) == len(m4.factorizations(Fraction(num, 4)))
    report("C9 monoid engine with exhaustive cross-check", ok, t0, 10.0)


def test_c10_atomicity_certificates():
    t0 = time.monotonic()
    rng = random.Random(97)
    ok = True
    contexts = [
        (NAT, sf.nat_monoid()),
        (NAT, sf.make_monoid([2, 3])),
        (Q6, sf.nat_monoid()),
    ]
    for S, M in contexts:
        for _ in range(15):
            f = random_poly(rng, S, M, max_num=4, max_terms=3, max_coeff=3)
            if f.is_one:
                continue
            rep = sf.atomic_certificate(f)
            ok = ok and rep.passes
            prod = sf.PolyExpr.one(S, M)
            for part in rep.monolithic_parts:
                prod = prod * part
            ok = ok and prod == f
    report("C10 atomicity certificates", ok, t0, 60.0)


def test_c11_verify_paper_end_to_end():
    t0 = time.monotonic()
    budgets = sf.Budgets()
    results = run_paper_suite(budgets)
    ok = all(r.status == "pass" for r in results)
    ok = ok and not any(r.status == "skipped" for r in results)
    first = report_json(results, budgets)
    second = report_json(run_paper_suite(budgets), budgets)
    ok = ok and first.encode() == second.encode()
    report("C11 verify-paper end to end", ok, t0, 300.0)


# The address-space limit is set by the child before it imports the library,
# so a length set read off a materialised Z(f) dies of MemoryError.
LIMITED_3GB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from semifactor.cli import entrypoint
entrypoint()
"""


def test_c12_lengths_from_one_pass():
    # x^480 over <7, ..., 13> has 469 divisors, 7 atoms and 2 985 885
    # factorizations; L(f) and the elasticity come from one pass over D(f)
    src = str(Path(sf.__file__).resolve().parent.parent)
    for expr, lo, hi in (("x^360", 28, 51), ("x^480", 37, 68)):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LIMITED_3GB, "poly", "lengths",
             "--monoid", "gens:7,8,9,10,11,12,13", "--degree-limit", "100000", expr],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        ok = proc.returncode == 0 and json.loads(proc.stdout) == {
            "L": list(range(lo, hi + 1)), "elasticity": f"{hi}/{lo}", "expr": expr,
        }
        report(f"C12 poly lengths {expr} (exit {proc.returncode})", ok, t0, 1.0)
