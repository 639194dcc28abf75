"""One workload in one fresh interpreter; started by run.py, never by hand.

Modes:
  setup   build the workload and report the set-up time only;
  pass    one timed pass over the first --queries queries, one at a time,
          with the reference task of refspeed.py measured before the first
          query and after every PROBE_EVERY_NS of query time;
  traced  run the first --count queries in alternating untraced passes and
          passes with spans around every layer; report per-layer figures
          and write the spans.

Prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time

import workloads  # imports semifactor: part of set-up
import refspeed

# Query time between two measurements of the reference task.
PROBE_EVERY_NS = 200_000_000
SETUP_PROBES = 3


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Runner:
    """One pass over the query list: latencies, failures, output digest."""

    def __init__(self, wl, count_for_digest):
        self.wl = wl
        self.n_digest = count_for_digest
        self.hasher = hashlib.sha256()
        self.lat_ns = []
        self.failed = 0
        self.errors = []
        self.rss_mb = None  # peak RSS once the digest queries are done

    def run(self, i, tracer=None):
        """Run query i; return its duration in ns."""
        q = self.wl.queries[i]
        if self.wl.clear_each:
            workloads.clear_caches()
        err = None
        t = time.perf_counter_ns()
        try:
            out = tracer.call(i, q.call) if tracer else q.call()
        except Exception as exc:  # library errors, BudgetError: a failed query
            err = exc
        dt = time.perf_counter_ns() - t
        canon = None
        if err is None:
            try:
                canon = q.check(out)
            except Exception as exc:  # Mismatch, or an answer that cannot be read
                err = exc
        if err is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"query {i} ({q.kind}): {type(err).__name__}: {err}")
        if len(self.lat_ns) < self.n_digest:
            self.hasher.update(repr((q.kind, canon)).encode())
            self.hasher.update(b"\n")
        self.lat_ns.append(dt)
        if len(self.lat_ns) == self.n_digest:
            self.rss_mb = peak_rss_mb()
        return dt

    def digest(self):
        return self.hasher.hexdigest() if len(self.lat_ns) >= self.n_digest else None

    def absorb(self, other):
        """Count another pass's failures; its answers must match this pass."""
        if other.digest() != self.digest():
            other.failed += 1
            other.errors.append("answers differ between passes")
        self.failed += other.failed
        self.errors += other.errors[: max(0, 5 - len(self.errors))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "pass", "traced"])
    ap.add_argument("--t0", type=int, required=True, help="monotonic ns before the spawn")
    ap.add_argument("--count", type=int, required=True, help="queries in the output digest")
    ap.add_argument("--queries", type=int, default=None, help="pass: queries to run")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    if "SEMIFACTOR_BUDGET" in os.environ:
        raise SystemExit("SEMIFACTOR_BUDGET must not reach the library")

    wl = workloads.WORKLOADS[args.workload](args.seed)
    result = {"budgets": wl.budgets, "pool": len(wl.queries)}
    runner = Runner(wl, args.count)

    # From the spawn to the first query, less the benchmark's own drawing.
    result.update(setup_s=(time.monotonic_ns() - args.t0 - wl.draw_ns) / 1e9,
                  draw_s=wl.draw_ns / 1e9)
    if args.mode in ("setup", "pass"):
        # The host's speed right after set-up, to scale the set-up time.
        probes = sorted(refspeed.task_ns() for _ in range(SETUP_PROBES))
        result["ref_ns"] = probes[SETUP_PROBES // 2]
    if args.mode == "pass":
        if not args.count <= args.queries <= len(wl.queries):
            raise SystemExit(f"--queries must lie in {args.count}..{len(wl.queries)}")
        # Each query is scaled by the mean of the reference times measured
        # just before and just after the stretch of queries it belongs to.
        scaled, stretch, busy = [], [], 0
        before = refspeed.task_ns()
        for i in range(args.queries):
            dt = runner.run(i)
            stretch.append(dt)
            busy += dt
            if busy >= PROBE_EVERY_NS or i == args.queries - 1:
                after = refspeed.task_ns()
                scale = refspeed.NOMINAL_NS / ((before + after) / 2)
                scaled += [round(d * scale) for d in stretch]
                stretch, busy, before = [], 0, after
        result.update(
            queries=len(runner.lat_ns),
            lat_ns=runner.lat_ns,
            scaled_ns=scaled,
            # after the digest's queries, a fixed amount of work
            peak_rss_mb=runner.rss_mb,
        )
    elif args.mode == "traced":
        from tracer import Tracer, layer_metrics

        # Untraced and traced passes alternate; each query's time is its
        # least time over the passes of a kind.  The spans are those of the
        # last traced pass.
        tracer = Tracer()
        kinds = ("untraced", "traced", "untraced", "traced")
        passes = []
        for kind in kinds:
            workloads.clear_caches()
            r = runner if not passes else Runner(wl, args.count)
            if kind == "traced":
                tracer.spans.clear()
                tracer.install()
            for i in range(args.count):
                r.run(i, tracer if kind == "traced" else None)
            tracer.uninstall()
            if passes:
                runner.absorb(r)
            passes.append(r)

        def least(kind):
            ps = [r for r, k in zip(passes, kinds) if k == kind]
            return sum(min(r.lat_ns[i] for r in ps) for i in range(args.count))

        untraced, traced = least("untraced"), least("traced")
        result.update(
            queries=len(kinds) * args.count,
            untraced_s=untraced / 1e9,
            traced_s=traced / 1e9,
            spans=len(tracer.spans),
            layers=layer_metrics(tracer.spans),
        )
        result["layers"]["trace_overhead_frac"] = traced / untraced - 1
        if args.trace_out:
            tracer.dump(args.trace_out)

    result.update(failed=runner.failed, errors=runner.errors, digest=runner.digest())
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
