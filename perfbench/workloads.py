"""The three seeded workloads: inputs, queries and answer checks.

A workload is a list of queries built from the seed during set-up.  Each
query calls the library once (``call``) and hands the answer to ``check``,
which raises ``Mismatch`` or returns a canonical, hashable form of the
answer for the output digest.  Checks use ``polycheck`` and never call
semifactor, so they cannot warm its caches.  The size ranges below are the
ones recorded in perfbench/README.md; changing them changes the benchmark.
"""
from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable

import polycheck as pc
from semifactor import Budgets, Nat, PolyExpr, cli, engine, intfactor, nat_monoid
from semifactor.intfactor import IntPoly


class Mismatch(Exception):
    """An answer failed its correctness check."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


@dataclass
class Query:
    kind: str
    call: Callable
    check: Callable


@dataclass
class Workload:
    queries: list
    clear_each: bool  # clear the library caches before every query
    budgets: dict  # recorded with the result
    # Time spent drawing the inputs with the benchmark's own code (random
    # draws, rejection sampling, the |D(f)| and oracle-candidate counts).
    # No change to the library moves it, so set-up time leaves it out.
    draw_ns: int


def clear_caches():
    engine.clear_caches()
    intfactor.clear_cache()


def as_dict(f: PolyExpr) -> dict:
    """Terms of a nat-monoid polynomial expression as {exponent: coeff}."""
    return {e.num: c for e, c in f.terms}


def check_divisor_set(f: dict, found, generated, d=None):
    """D(f) contains 1, f and the generated factors, every member divides f
    with a nonnegative cofactor, and the set is closed under cofactors."""
    one = {0: 1 if d is None else (1, 0)}
    keys = {pc.key(g) for g in found}
    expect(len(keys) == len(found), "duplicate divisors")
    for g in [one, f, *generated]:
        expect(pc.key(g) in keys, f"missing divisor {pc.key(g)}")
    for g in found:
        expect(pc.nonneg(g), f"divisor with a negative coefficient {pc.key(g)}")
        if d is None:
            q = pc.int_div(f, g)
            expect(q is not None and pc.nonneg(q), f"{pc.key(g)} does not divide f")
            expect(pc.key(q) in keys, f"cofactor of {pc.key(g)} missing")
        else:
            expect(
                any(pc.mul(g, h, d) == f for h in found),
                f"no cofactor of {pc.key(g)} in the set",
            )
    return tuple(sorted(keys))


def check_z(f: dict, zs, generated=None, dset=None, d=None):
    """Every factorization multiplies back to f with nonunit nonnegative
    parts (so each part lies in D(f)); the generated one is among them."""
    one = pc.key({0: 1 if d is None else (1, 0)})
    out = set()
    for parts in zs:
        keys = tuple(sorted(pc.key(p) for p in parts))
        expect(keys not in out, "duplicate factorization")
        out.add(keys)
        expect(parts, "empty factorization")
        for p in parts:
            expect(pc.nonneg(p) and pc.key(p) != one, f"part {pc.key(p)} is a unit or negative")
            if dset is not None:
                expect(pc.key(p) in dset, f"part {pc.key(p)} not in D(f)")
        expect(pc.prod(parts, d) == f, "factorization does not multiply back")
    if generated is not None:
        want = tuple(sorted(pc.key(p) for p in generated))
        expect(want in out, "the generated factorization is missing")
    return tuple(sorted(out))


# -- nat-lattice ------------------------------------------------------------

def _lin(n):
    return (n, 1)


# Z[x]-irreducible factors, lowest degree first.
ZX = {
    "x": (0, 1),
    "x+1": _lin(1),
    "x+2": _lin(2),
    "x+3": _lin(3),
    "x+4": _lin(4),
    "x+5": _lin(5),
    "2x+1": (1, 2),
    "x^2+1": (1, 0, 1),
    "x^2+2": (2, 0, 1),
    "x^2+x+1": (1, 1, 1),
    "x^2-x+1": (1, -1, 1),
    "x^3+x+1": (1, 1, 0, 1),
    "x^3-x+1": (1, -1, 0, 1),
    "x^4+x^2+x+1": (1, 1, 1, 0, 1),
}

# Atoms of N0[x] and their factorizations over Z[x].
ATOMS = {
    "x": ["x"],
    "x+1": ["x+1"],
    "x+2": ["x+2"],
    "2x+1": ["2x+1"],
    "x^2+1": ["x^2+1"],
    "x^2+2": ["x^2+2"],
    "x^2+x+1": ["x^2+x+1"],
    "x^3+x+1": ["x^3+x+1"],
    "x^4+x^2+x+1": ["x^4+x^2+x+1"],
    "x^3+1": ["x+1", "x^2-x+1"],
    "x^4+x^2+1": ["x^2-x+1", "x^2+x+1"],
    "x^6+x^5+x^3+1": ["x+1", "x^2+1", "x^3-x+1"],
    "x^7+2x^4+1": ["x^4+x^2+x+1", "x^3-x+1"],
    "(x+2)^2(x^2-x+1)": ["x+2", "x+2", "x^2-x+1"],
}
for n in range(3, 6):
    ATOMS[f"(x+{n})^{n}(x^2-x+1)"] = [f"x+{n}"] * n + ["x^2-x+1"]


def _atom_poly(name):
    return pc.prod(pc.from_dense(ZX[z]) for z in ATOMS[name])


ATOM_POLY = {name: _atom_poly(name) for name in ATOMS}
for _name, _p in ATOM_POLY.items():
    if not pc.nonneg(_p):
        raise AssertionError(f"atom table entry {_name} has a negative coefficient")
RANDOM_ATOMS = sorted(n for n in ATOMS if not n.startswith("("))

NAT_OPS = (
    "divisors",
    "factorizations",
    "length_profile",
    "is_monolithic",
    "monolithic_decompose",
    "atomic_certificate",
)
# Per block of 12 elements: (count, |D(f)| range) for random products of
# 3-7 atoms, plus 2 paper witnesses; each entry is a group asked every
# question once.  |D(f)| sets the cost of the lattice queries; the box
# prod(e_i + 1) over the Z[x]-factor multiplicities, which bounds the
# divisor enumeration, stays at most NAT_BOX_MAX.  The two groups of the top
# band give 4 of a block's 30 queries to `factorizations` and
# `length_profile` on |D(f)| in 40-56, the costliest kind, so p90 falls
# inside that kind rather than on the edge between two kinds.
NAT_STRATA = ((3, 4, 12), (3, 16, 32), (2, 40, 56), (2, 40, 56))
NAT_BOX_MAX = 128
NAT_WITNESSES_PER_BLOCK = 2  # the three kinds take turns
NAT_BLOCK_ELEMENTS = NAT_WITNESSES_PER_BLOCK + sum(count for count, _, _ in NAT_STRATA)
NAT_DEGREE = (6, 24)
NAT_ELEMENTS = 16 * NAT_BLOCK_ELEMENTS  # 480 queries


def _multiplicities(atoms):
    mult = {}
    for a in atoms:
        for z in ATOMS[a]:
            mult[z] = mult.get(z, 0) + 1
    return mult


def _box(atoms):
    size = 1
    for e in _multiplicities(atoms).values():
        size *= e + 1
    return size


_ZX_PRODUCTS = {(): {0: 1}}
_ZX_SIGNED = {name for name, coeffs in ZX.items() if min(coeffs) < 0}
_ZX_NONNEG = {}


def _zx_nonneg(factors):
    """Whether a product of ZX factors, a sorted tuple of (name, exponent),
    has nonnegative coefficients; products are built one factor at a time
    and kept."""
    if not any(name in _ZX_SIGNED for name, _ in factors):
        return True
    ok = _ZX_NONNEG.get(factors)
    if ok is None:
        ok = _ZX_NONNEG[factors] = pc.nonneg(_zx_product(factors))
    return ok


def _zx_product(factors):
    p = _ZX_PRODUCTS.get(factors)
    if p is None:
        name, e = factors[-1]
        rest = factors[:-1] + (((name, e - 1),) if e > 1 else ())
        p = _ZX_PRODUCTS[factors] = pc.mul(_zx_product(rest), pc.from_dense(ZX[name]))
    return p


def _divisor_count(atoms):
    """|D(f)| for f the product of the atoms: the products g of Z[x] factors
    of f with g and f / g both nonnegative."""
    mult = _multiplicities(atoms)
    names = sorted(mult)
    count = 0
    for exps in itertools.product(*(range(mult[z] + 1) for z in names)):
        g = tuple((z, e) for z, e in zip(names, exps) if e)
        h = tuple((z, mult[z] - e) for z, e in zip(names, exps) if mult[z] - e)
        count += _zx_nonneg(g) and _zx_nonneg(h)
    return count


def _degree(atoms):
    return sum(max(ATOM_POLY[a]) for a in atoms)


def _random_product(rng, lo, hi):
    while True:
        atoms = [rng.choice(RANDOM_ATOMS) for _ in range(rng.randint(3, 7))]
        if (NAT_DEGREE[0] <= _degree(atoms) <= NAT_DEGREE[1]
                and lo <= _box(atoms) <= NAT_BOX_MAX
                and lo <= _divisor_count(atoms) <= hi):
            return atoms, None


# Parameters of the witnesses, taken in this order by each kind in turn.
WITNESS_K = (1, 2, 3, 4)  # (x^5+x^4+x^3+x^2+x+1)^k
HFS_K = (1, 2)  # hfs^k
FAMILY_NK = tuple((n, k) for k in range(1, 5) for n in range(2, 6))  # (x+n)^n(x^2-x+1)(x+1)^k


def _witness(number):
    """(atoms, exact length set or None) of the paper witness with this
    number: the kinds take turns and each runs through its parameters, so
    every seed has the same witnesses, in the same blocks."""
    kind, j = number % 3, number // 3
    if kind == 0:
        k = WITNESS_K[j % len(WITNESS_K)]
        return ["x+1", "x^4+x^2+1"] * k, None
    if kind == 1:
        k = HFS_K[j % len(HFS_K)]
        return ["x^4+x^2+x+1", "x^6+x^5+x^3+1"] * k, None
    n, k = FAMILY_NK[j % len(FAMILY_NK)]
    fam = "(x+2)^2(x^2-x+1)" if n == 2 else f"(x+{n})^{n}(x^2-x+1)"
    return [fam] + ["x+1"] * k, {k + 1, k + n}


def _deal_ops(turn, n):
    """Every question once over a group of n elements, split as evenly as
    the group allows; an element's questions are distinct.  The order turns
    with `turn`, so over a run each question comes first on an element
    equally often, whatever the seed."""
    r = turn % len(NAT_OPS)
    ops = NAT_OPS[r:] + NAT_OPS[:r]
    return [ops[i::n] for i in range(n)]


def _nat_block(rng, index):
    """(atoms, exact length set or None, questions) of one block: each group
    (the witnesses, then each stratum) is asked every question once, so the
    cost of a block hardly depends on the seed."""
    first = NAT_WITNESSES_PER_BLOCK * index
    groups = [[_witness(first + i) for i in range(NAT_WITNESSES_PER_BLOCK)]]
    groups += [[_random_product(rng, lo, hi) for _ in range(count)] for count, lo, hi in NAT_STRATA]
    block = []
    for g, group in enumerate(groups):
        block += [(atoms, lengths, ops)
                  for (atoms, lengths), ops in zip(group, _deal_ops(index + g, len(group)))]
    rng.shuffle(block)
    return block


def nat_lattice(seed: int) -> Workload:
    rng = random.Random(seed)
    S, M = Nat(), nat_monoid()
    queries = []
    elements = draw = 0
    while elements < NAT_ELEMENTS:
        t = time.perf_counter_ns()
        block = _nat_block(rng, elements // NAT_BLOCK_ELEMENTS)
        draw += time.perf_counter_ns() - t
        for atoms, lengths, ops in block:
            queries += _nat_queries(S, M, atoms, lengths, ops)
        elements += len(block)
    return Workload(queries, clear_each=False,
                    budgets={"budgets": "default"}, draw_ns=draw)


def _nat_queries(S, M, atoms, lengths, ops):
    parts = [ATOM_POLY[a] for a in atoms]
    fd = pc.prod(parts)
    f = PolyExpr.from_terms(S, M, list(fd.items()))
    nonmonomial = sum(len(p) > 1 for p in parts)
    seen = {}  # answers already checked for this element

    def q_divisors(ds):
        found = [as_dict(g) for g in ds.divisors]
        out = check_divisor_set(fd, found, [parts[0], pc.prod(parts[1:])])
        seen["D"] = set(out)
        return out

    def q_z(zs):
        return check_z(fd, [[as_dict(p) for p in z.parts] for z in zs], parts, seen.get("D"))

    def q_lengths(res):
        ls, rho = res
        expect(len(parts) in ls, f"length {len(parts)} missing from {sorted(ls)}")
        expect(lengths is None or set(ls) == lengths, f"L = {sorted(ls)}, want {lengths}")
        expect(rho == Fraction(max(ls), min(ls)), "elasticity is not max/min")
        return tuple(sorted(ls)), str(rho)

    def q_mono(res):
        expect(res == (nonmonomial <= 1), f"is_monolithic = {res}")
        return res

    def check_parts(ps):
        expect(pc.prod(ps) == fd, "monolithic parts do not multiply back")
        for p in ps:
            expect(pc.nonneg(p) and p != {0: 1}, "unit or negative monolithic part")
        expect(nonmonomial > 1 or len(ps) == 1, "a monolithic element was split")

    def q_decompose(res):
        ps = [as_dict(p) for p in res]
        check_parts(ps)
        return tuple(pc.key(p) for p in ps)

    def q_cert(rep):
        ps = [as_dict(p) for p in rep.monolithic_parts]
        check_parts(ps)
        out = []
        for part in rep.per_part:
            pd = as_dict(part.part)
            expect(set(part.coeff_mcd) == {gcd(*pd.values())}, "coefficient mcd is not the gcd")
            expect({e.num for e in part.exp_mcd} == {min(pd)}, "exponent mcd is not the minimum")
            expect(part.passes, "a part fails its certificate")
            out.append((pc.key(pd), tuple(sorted(part.coeff_mcd))))
        expect(rep.passes, "certificate fails")
        return tuple(out)

    checks = {
        "divisors": q_divisors,
        "factorizations": q_z,
        "length_profile": q_lengths,
        "is_monolithic": q_mono,
        "monolithic_decompose": q_decompose,
        "atomic_certificate": q_cert,
    }
    return [Query(op, lambda op=op: getattr(engine, op)(f), checks[op]) for op in ops]


# -- intfactor-corpus ---------------------------------------------------------

INT_DEGREE_LIMIT = 27
# Per block of 10 queries: the number of cubics of each factor_int_poly
# input, of nonnegative factors of each divisors input, and two is_atom.
INT_BLOCK = (("factor", (5, 6, 7, 8, 9)), ("divisors", (2, 2, 3)), ("is_atom", (None, None)))
INT_QUERIES = 240


def _cubic(rng):
    while True:
        c = [rng.randint(-4, 4) for _ in range(4)]
        if c[0] and c[3]:
            return c


def _nonneg_poly(rng):
    d = rng.randint(5, 9)
    c = [rng.randint(0, 3) for _ in range(d + 1)]
    c[0], c[d] = rng.randint(1, 3), rng.randint(1, 3)
    return c


def intfactor_corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    S, M = Nat(), nat_monoid()
    budgets = Budgets(degree_limit=INT_DEGREE_LIMIT)
    queries = []
    draw = 0
    while len(queries) < INT_QUERIES:
        t = time.perf_counter_ns()
        block = [(kind, size) for kind, sizes in INT_BLOCK for size in sizes]
        rng.shuffle(block)
        drawn = []
        for kind, size in block:
            if kind == "factor":
                drawn.append((kind, [_cubic(rng) for _ in range(size)]))
            elif kind == "divisors":
                drawn.append((kind, [pc.from_dense(_nonneg_poly(rng)) for _ in range(size)]))
            else:
                drawn.append((kind, rng.randint(6, 20)))
        draw += time.perf_counter_ns() - t
        for kind, x in drawn:
            if kind == "factor":
                queries.append(_factor_query(x))
            elif kind == "divisors":
                queries.append(_divisors_query(S, M, x, budgets))
            else:
                queries.append(_atom_query(S, M, x, budgets))
    return Workload(queries, clear_each=True, budgets={"degree_limit": INT_DEGREE_LIMIT},
                    draw_ns=draw)


def _factor_query(cubics):
    fd = pc.prod(pc.from_dense(c) for c in cubics)
    F = IntPoly.of([fd.get(i, 0) for i in range(max(fd) + 1)])
    cubic_polys = [pc.from_dense(c) for c in cubics]

    def check(res):
        parts = [{0: res.sign}] + [{0: p} for p in res.content]
        out = []
        for poly, mult in res.factors:
            c = list(poly.coeffs)
            p = pc.from_dense(c)
            expect(1 <= len(c) - 1 <= 3 and c[-1] > 0 and gcd(*c) == 1, f"bad factor {c}")
            expect(len(c) == 2 or not pc.has_rational_root(c), f"reducible factor {c}")
            expect(
                any(pc.int_div(g, p) is not None for g in cubic_polys),
                f"factor {c} divides no generated cubic",
            )
            parts += [p] * mult
            out.append((tuple(c), mult))
        expect(pc.prod(parts) == fd, "factorization does not multiply back")
        expect(len(out) == len(set(out)), "repeated factor")
        return res.sign, tuple(res.content), tuple(sorted(out))

    return Query("factor", lambda: intfactor.factor_int_poly(F, degree_limit=INT_DEGREE_LIMIT),
                 check)


def _divisors_query(S, M, gens, budgets):
    fd = pc.prod(gens)
    f = PolyExpr.from_terms(S, M, list(fd.items()))

    def check(ds):
        return check_divisor_set(fd, [as_dict(g) for g in ds.divisors], gens)

    return Query("divisors", lambda: engine.divisors(f, budgets=budgets), check)


def _atom_query(S, M, n, budgets):
    fd = pc.prod([pc.from_dense(_lin(n))] * n + [pc.from_dense(ZX["x^2-x+1"])])
    f = PolyExpr.from_terms(S, M, list(fd.items()))

    def check(res):
        expect(res is True, f"(x+{n})^{n}(x^2-x+1) not reported as an atom")
        return n, res

    return Query("is_atom", lambda: engine.is_atom(f, budgets=budgets), check)


# -- cli-mixed ----------------------------------------------------------------

QUAD_D = 6
PUISEUX = "gens:1/2,3/4"
PUISEUX_DENOM = 4
PUISEUX_MAX_SCALED_DEGREE = 16  # degree 4 in x; y = x^(1/4) keeps it under 24
NUMERICAL = ((5, 7, 11), (6, 9, 20), (4, 7, 10), (7, 8, 13))
# Per block of 40 queries: 16 quad inputs by band of estimated oracle
# candidates (lo, hi, count), 12 Puiseux inputs, and the rest.  The poly
# kinds are dealt the questions of POLY_OPS in turn.  A quad query's time
# follows its candidate count closely (correlation 0.96), so the bands are
# narrow; the top band has 4 per block, so that with the one `verify paper`
# p90 falls inside it rather than on the edge between two bands.
QUAD_BANDS = ((1, 50, 8), (100, 170, 4), (200, 320, 4))
PUISEUX_PER_BLOCK = 12
CLI_BLOCK = (("factorize", 4), ("mcd", 2), ("lenfn", 3), ("sweep", 2), ("verify", 1))
CLI_QUERIES = 200
POLY_OPS = ("factorizations", "divisors", "lengths")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_query(kind, argv, check):
    def checked(res):
        code, out, err = res
        expect(code == 0 and err == "", f"exit {code}: {err.strip()}")
        return check(json.loads(out))

    return Query(kind, lambda: run_cli(argv), checked)


def _text(f: dict, denom: int = 1, quad: bool = False) -> str:
    terms = []
    for e, c in sorted(f.items(), reverse=True):
        q = Fraction(e, denom)
        x = "" if q == 0 else f"x^{{{q}}}" if q.denominator > 1 else f"x^{q}"
        cp = f"({c[0]},{c[1]})" if quad else str(c)
        terms.append(f"{cp}*{x}" if x else cp)
    return "+".join(terms)


@functools.lru_cache(maxsize=None)
def _quad_divisors_count(a):
    """Nonzero nonnegative pairs s with a/s a nonnegative pair, in Z[sqrt(d)]."""
    count = 0
    total = a[0] + a[1]
    for b in range(total + 1):
        for c in range(total + 1 - b):
            n = b * b - QUAD_D * c * c
            if (b, c) == (0, 0):
                continue
            p = Fraction(a[0] * b - QUAD_D * a[1] * c, n)
            q = Fraction(a[1] * b - a[0] * c, n)
            if p.denominator == 1 and q.denominator == 1 and p >= 0 and q >= 0:
                count += 1
    return count


def oracle_candidates(f: dict) -> int:
    """Candidates the oracle enumerates for f with trailing exponent 0: one
    per support {0, ...} up to half the degree times its coefficient choices."""
    half = max(f) // 2
    lc, tc = f[max(f)], f[0]
    maxcomp = max(max(c) for c in f.values())
    mids = (maxcomp + 1) ** 2 - 1
    nl, nt = _quad_divisors_count(lc), _quad_divisors_count(tc)
    total = min(nl, nt)
    for size in range(2, min(len(f), half + 1) + 1):
        total += comb(half, size - 1) * nt * nl * mids ** (size - 2)
    return total


def _quad_factor(rng):
    d = rng.randint(1, 3)
    exps = {0, d} | ({rng.randint(1, d - 1)} if d > 1 and rng.random() < 0.5 else set())
    out = {}
    for e in exps:
        c = (0, 0)
        while c == (0, 0):
            c = (rng.randint(0, 2), rng.randint(0, 1))
        out[e] = c
    return out


def _quad_inputs(rng):
    """One block's quad products (factors, f), filling QUAD_BANDS in order."""
    need = [count for _, _, count in QUAD_BANDS]
    found = [[] for _ in QUAD_BANDS]
    while any(need):
        gens = [_quad_factor(rng), _quad_factor(rng)]
        f = pc.mul(gens[0], gens[1], QUAD_D)
        if not (3 <= max(f) <= 6 and max(max(c) for c in f.values()) <= 4):
            continue
        k = oracle_candidates(f)
        for i, (lo, hi, _) in enumerate(QUAD_BANDS):
            if lo <= k <= hi and need[i]:
                need[i] -= 1
                found[i].append((gens, f))
    return [item for band in found for item in band]


def _quad_query(gens, f, op):
    return _poly_query("quad", op, f, gens, ["--coeffs", f"quad:{QUAD_D}"], 1, QUAD_D)


def _puiseux_factor(rng):
    # scaled exponents of <1/2, 3/4>: 0 and every integer >= 2
    exps = {0} | set(rng.sample(range(2, 9), rng.randint(1, 2)))
    return {e: rng.randint(1, 3) for e in exps}


def _puiseux_query(rng, op):
    while True:
        gens = [_puiseux_factor(rng), _puiseux_factor(rng)]
        f = pc.mul(gens[0], gens[1])
        if max(f) <= PUISEUX_MAX_SCALED_DEGREE:
            break
    return _poly_query("puiseux", op, f, gens, ["--monoid", PUISEUX], PUISEUX_DENOM, None)


def _poly_query(kind, op, f, gens, flags, denom, d):
    text = _text(f, denom, quad=d is not None)

    def read(t):
        g = pc.parse_text(t, denom, quad=d is not None)
        if d is None:  # scaled exponents must lie in <2, 3>
            expect(all(e == 0 or e >= 2 for e in g), f"exponent outside the monoid in {t}")
        return g

    def check(doc):
        expect(read(doc["expr"]) == f, "echoed expression differs")
        if op == "divisors":
            return check_divisor_set(f, [read(t) for t in doc["divisors"]], gens, d)
        if op == "factorizations":
            expect(doc["count"] == len(doc["Z"]) >= 1, "count disagrees with Z")
            return check_z(f, [[read(t) for t in z] for z in doc["Z"]], d=d)
        ls = doc["L"]
        expect(ls and min(ls) >= 1 and max(ls) >= 2, f"L = {ls}")
        expect(Fraction(doc["elasticity"]) == Fraction(max(ls), min(ls)), "elasticity")
        return tuple(ls)

    return _cli_query(kind, ["poly", op, *flags, text], check)


def _factorize_query(rng):
    gens = rng.choice(NUMERICAL)
    m = rng.randint(120, 220)  # above every Frobenius number in NUMERICAL
    lit = "gens:" + ",".join(map(str, gens))

    def check(doc):
        zs = doc["Z"]
        expect(len(zs) == pc.count_factorizations(gens, m), "wrong number of factorizations")
        for z in zs:
            expect(sum(z) == m and all(a in gens for a in z), f"bad factorization {z}")
        expect(doc["L"] == sorted({len(z) for z in zs}), "L disagrees with Z")
        return m, len(zs), tuple(doc["L"])

    return _cli_query("factorize", ["monoid", "factorize", "--monoid", lit, str(m)], check)


def _mcd_query(rng):
    gens = rng.choice(NUMERICAL)
    values = [rng.randint(150, 600) for _ in range(3)]
    lit = "gens:" + ",".join(map(str, gens))
    member = pc.numerical_members(gens, max(values))

    def common(dv):
        return member[dv] and all(v >= dv and member[v - dv] for v in values)

    def check(doc):
        commons = [dv for dv in range(min(values) + 1) if common(dv)]
        maximal = [dv for dv in commons if not any(d2 > dv and member[d2 - dv] for d2 in commons)]
        expect(sorted(doc["mcd"]) == maximal, f"mcd {doc['mcd']}, want {maximal}")
        return tuple(maximal)

    return _cli_query("mcd", ["monoid", "mcd", "--monoid", lit, *map(str, values)], check)


def _lenfn_query(rng):
    gens = rng.choice(NUMERICAL)
    lit = "gens:" + ",".join(map(str, gens))
    n = rng.randint(20000, 60000)
    a = rng.choice(gens)
    lc, mid, const = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
    f = {n: lc, a: mid, 0: const}

    def check(doc):
        want = pc.prime_count(lc) + pc.max_length(gens, n) + len(f) - 1
        expect(doc["length"] == want, f"length {doc['length']}, want {want}")
        return doc["length"]

    return _cli_query("lenfn", ["poly", "lenfn", "--monoid", lit, _text(f)], check)


def _sweep_query(rng):
    ns = sorted(rng.sample((2, 3, 4), 2))
    ks = sorted(rng.sample((1, 2, 3), 2))

    def check(doc):
        rows = doc["rows"]
        expect(len(rows) == 4, "wrong number of rows")
        for r in rows:
            n, k = r["n"], r["k"]
            expect(r["status"] == "ok", f"row n={n}, k={k} skipped")
            expect((r["min_len"], r["max_len"]) == (k + 1, k + n), f"L for n={n}, k={k}")
            expect(Fraction(r["elasticity"]) == Fraction(k + n, k + 1), "elasticity")
        return tuple(ns), tuple(ks)

    argv = ["sweep", "elasticity", "--n", ",".join(map(str, ns)), "--k", ",".join(map(str, ks))]
    return _cli_query("sweep", argv, check)


def _verify_query(rng):
    def check(doc):
        statuses = {r["check_id"]: r["status"] for r in doc["results"]}
        expect(len(statuses) == 9, f"{len(statuses)} checks reported")
        expect(set(statuses.values()) == {"pass"}, f"statuses {statuses}")
        return json.dumps(doc, sort_keys=True)

    return _cli_query("verify", ["verify", "paper"], check)


CLI_MAKERS = {
    "factorize": _factorize_query,
    "mcd": _mcd_query,
    "lenfn": _lenfn_query,
    "sweep": _sweep_query,
    "verify": _verify_query,
}


def cli_mixed(seed: int) -> Workload:
    t = time.perf_counter_ns()  # every input here is drawn by the benchmark alone
    rng = random.Random(seed)
    queries = []
    while len(queries) < CLI_QUERIES:
        block = [_quad_query(gens, f, POLY_OPS[j % len(POLY_OPS)])
                 for j, (gens, f) in enumerate(_quad_inputs(rng))]
        block += [_puiseux_query(rng, POLY_OPS[j % len(POLY_OPS)])
                  for j in range(PUISEUX_PER_BLOCK)]
        block += [CLI_MAKERS[kind](rng) for kind, count in CLI_BLOCK for _ in range(count)]
        rng.shuffle(block)
        queries += block
    return Workload(queries, clear_each=True,
                    budgets={"budgets": "default"}, draw_ns=time.perf_counter_ns() - t)


WORKLOADS = {
    "nat-lattice": nat_lattice,
    "intfactor-corpus": intfactor_corpus,
    "cli-mixed": cli_mixed,
}
