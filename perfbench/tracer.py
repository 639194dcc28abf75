"""Spans around the calls into each semifactor layer, recorded from outside.

``install`` replaces each traced function under every name its callers
look it up by (a module global, a package attribute or a class attribute),
so calls from inside the library are seen too.  Spans are kept in memory
as tuples (name, start_ns, end_ns, parent_index, query_id, info) and
written out when the run ends.  Hot leaves (``ExpMonoid.member_num``,
``PolyExpr.__mul__``) stay unwrapped.
"""
from __future__ import annotations

import json
from time import perf_counter_ns

LAYERS = ("cli", "paperlab", "engine", "polyexpr", "intfactor", "monoid", "coeff")

ENGINE_FUNCS = (
    "divisors",
    "factorizations",
    "length_profile",
    "is_atom",
    "is_monolithic",
    "monolithic_decompose",
    "atomic_certificate",
    "length_fn",
)

# parent span (nearest engine caller) -> bucket for exact-division counts
EXACT_DIV_PARENTS = {
    "engine.divisors": "in_divisors",
    "engine.oracle": "in_divisors",
    "engine.factorizations": "in_factorizations",
    "engine.is_monolithic": "in_monolithic",
    "engine.monolithic_decompose": "in_monolithic",
}


def _targets():
    """(span name, [(owner, attribute), ...], info function or None)."""
    import semifactor
    from semifactor import cli, coeff, engine, intfactor, monoid, paperlab, polyexpr

    out = [
        ("cli.main", [(cli, "main")], None),
        ("cli.build_parser", [(cli, "build_parser")], None),
        ("paperlab.run_paper_suite", [(paperlab, "run_paper_suite")], None),
        ("paperlab.elasticity_sweep", [(paperlab, "elasticity_sweep")], None),
        ("engine.oracle", [(engine, "_oracle_divisors")], None),
        ("engine.zx", [(engine, "_zx_divisors")], None),
        (
            "polyexpr.ambient_exact_div",
            [(engine, "ambient_exact_div"), (polyexpr, "ambient_exact_div"),
             (semifactor, "ambient_exact_div")],
            lambda out: int(out is not None),
        ),
        (
            "polyexpr.parse",
            [(polyexpr, "parse"), (cli, "parse_poly"), (paperlab, "parse"), (semifactor, "parse")],
            None,
        ),
        (
            "intfactor.factor_int_poly",
            [(engine, "factor_int_poly"), (intfactor, "factor_int_poly"),
             (semifactor, "factor_int_poly")],
            None,
        ),
        (
            "intfactor.squarefree_decompose",
            [(intfactor, "squarefree_decompose"), (semifactor, "squarefree_decompose")],
            None,
        ),
        ("monoid.construct", [(monoid.ExpMonoid, "__init__")], None),
        ("monoid.factorizations", [(monoid.ExpMonoid, "factorizations")], None),
        ("monoid.length", [(monoid.ExpMonoid, "length")], None),
        ("monoid.mcd", [(monoid.ExpMonoid, "mcd")], None),
    ]
    for meth in ("divisors_of", "atom_factorizations", "mcd_set"):
        out.append((f"coeff.{meth}", [(coeff.Nat, meth), (coeff.Quad, meth)], None))
    info = {
        "divisors": lambda out: len(out.divisors),
        "factorizations": len,
    }
    for fn in ENGINE_FUNCS:
        out.append((f"engine.{fn}", [(engine, fn), (semifactor, fn)], info.get(fn)))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.query = -1
        self.replaced = []  # (owner, attribute, original)

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            out = done = None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extra = info(out) if info is not None and done else None
                spans[idx] = (name, t0, t1, stack[-1], self.query, extra)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, places, info in _targets():
            wrappers = {}
            for owner, attr in places:
                fn = getattr(owner, attr)
                if getattr(fn, "__wrapped__", None) is not None:
                    raise RuntimeError(f"{owner}.{attr} is already wrapped")
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn, info)
                self.replaced.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self.replaced):
            setattr(owner, attr, fn)
        self.replaced.clear()

    def call(self, qid, fn, *args):
        """Run one query under a root span named "query"."""
        self.query = qid
        return self.wrap("query", fn, None)(*args)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": names, "spans": [[index[s[0]], *s[1:]] for s in self.spans]},
                fh,
                separators=(",", ":"),
            )


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans):
    """Per-layer metrics from a finished span list (see perfbench/README.md)."""
    n = len(spans)
    child = [0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_ns = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def inclusive_s(*names):
        total = 0
        for i, s in enumerate(spans):
            if s[0] in names and not any(spans[a][0] in names for a in ancestors(i)):
                total += s[2] - s[1]
        return total / 1e9

    def self_s(pred):
        return sum(self_ns[i] for i, s in enumerate(spans) if pred(s[0])) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    total_s = sum(s[2] - s[1] for s in spans if s[0] == "query") / 1e9
    m = {}
    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(self_s(lambda nm, layer=layer: layer_of(nm) == layer), total_s)
    under_oracle = set(named("engine.oracle"))
    for i in range(n):
        if any(a in under_oracle for a in ancestors(i)):
            under_oracle.add(i)
    mixed = sum(
        self_ns[i]
        for i, s in enumerate(spans)
        if i in under_oracle or layer_of(s[0]) in ("cli", "coeff", "monoid")
    )
    m["share.cli_coeff_monoid_oracle"] = ratio(mixed / 1e9, total_s)

    m["cli.main_self_s"] = self_s(lambda nm: nm == "cli.main")
    m["cli.build_parser_s"] = inclusive_s("cli.build_parser")
    m["paperlab.suite_self_s"] = self_s(
        lambda nm: nm in ("paperlab.run_paper_suite", "paperlab.elasticity_sweep")
    )

    m["engine.self_s"] = self_s(lambda nm: layer_of(nm) == "engine")
    m["engine.oracle_s"] = inclusive_s("engine.oracle")
    div = named("engine.divisors")
    misses = [
        i for i in div if any(spans[c][0] in ("engine.zx", "engine.oracle") for c in children[i])
    ]
    m["engine.divisors_calls"] = len(div)
    m["engine.divisors_miss_ratio"] = ratio(len(misses), len(div))
    m["engine.divisor_set_size"] = sum(spans[i][5] or 0 for i in misses)
    m["engine.z_out"] = sum(spans[i][5] or 0 for i in named("engine.factorizations"))

    xdiv = named("polyexpr.ambient_exact_div")
    buckets = dict.fromkeys(sorted(set(EXACT_DIV_PARENTS.values())), 0)
    for i in xdiv:
        for a in ancestors(i):
            bucket = EXACT_DIV_PARENTS.get(spans[a][0])
            if bucket:
                buckets[bucket] += 1
                break
    m["polyexpr.exact_div_calls"] = len(xdiv)
    for bucket, count in buckets.items():
        m[f"polyexpr.exact_div_calls.{bucket}"] = count
    m["polyexpr.exact_div_s"] = inclusive_s("polyexpr.ambient_exact_div")
    m["polyexpr.exact_div_hit_ratio"] = ratio(sum(spans[i][5] or 0 for i in xdiv), len(xdiv))
    m["polyexpr.parse_s"] = inclusive_s("polyexpr.parse")

    fac = named("intfactor.factor_int_poly")
    fac_miss = [
        i for i in fac
        if any(spans[c][0] == "intfactor.squarefree_decompose" for c in children[i])
    ]
    m["intfactor.factor_calls"] = len(fac)
    m["intfactor.factor_s"] = inclusive_s("intfactor.factor_int_poly")
    m["intfactor.squarefree_calls"] = len(named("intfactor.squarefree_decompose"))
    m["intfactor.squarefree_s"] = inclusive_s("intfactor.squarefree_decompose")
    m["intfactor.cache_miss_ratio"] = ratio(len(fac_miss), len(fac))

    m["coeff.divisors_of_calls"] = len(named("coeff.divisors_of"))
    m["coeff.divisors_of_s"] = inclusive_s("coeff.divisors_of")
    m["coeff.atom_factorizations_s"] = inclusive_s("coeff.atom_factorizations")
    m["coeff.mcd_set_s"] = inclusive_s("coeff.mcd_set")

    m["monoid.factorizations_s"] = inclusive_s("monoid.factorizations")
    m["monoid.length_s"] = inclusive_s("monoid.length")
    m["monoid.mcd_s"] = inclusive_s("monoid.mcd")
    m["monoid.construct_s"] = inclusive_s("monoid.construct")
    return m
