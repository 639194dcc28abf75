"""semifactor benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload nat-lattice --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each run starts fresh interpreters (one
client, one thread each) with the library from ./src, SEMIFACTOR_BUDGET
removed and PYTHONHASHSEED fixed.  With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of a traced
run (spans go to .perfbench-out/).  --seconds defaults to run_seconds of
BENCHMARK.json.  The line before the result records the seed, Python
version, nproc, commit and source hash.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("nat-lattice", "intfactor-corpus", "cli-mixed")
# Queries in the output digest and in the traced run, per workload.
DIGEST_COUNT = {"nat-lattice": 240, "intfactor-corpus": 120, "cli-mixed": 120}
# Distinct queries of a timed run: the first ones of the seeded list, the
# same whatever the host's or the library's speed.
RUN_QUERIES = {"nat-lattice": 480, "intfactor-corpus": 240, "cli-mixed": 200}
DEFAULT_SEED = 1
# A timed run makes passes over its queries, each in a fresh interpreter,
# until --seconds have gone and at least MIN_PASSES are done.  Before each
# pass SETUPS_PER_PASS more interpreters only set up, so the set-up samples
# are spread over the whole run like the query times.
MIN_PASSES = 3
SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 120


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "SEMIFACTOR_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, mode, queries=None, trace_out=None):
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--count", str(DIGEST_COUNT[workload]),
    ]
    if queries is not None:
        argv += ["--queries", str(queries)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        argv + ["--t0", str(t0)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} child for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_setup_s(r):
    return r["setup_s"] * refspeed.NOMINAL_NS / r["ref_ns"]


def timed_run(workload, seed, seconds):
    """Passes over the same queries, each in a fresh interpreter, until
    `seconds` have gone.  Every time is scaled to the reference host speed
    (refspeed.py); a query's latency is its median scaled time over the
    passes."""
    n = RUN_QUERIES[workload]
    setups, passes = [], []
    end = time.monotonic() + seconds
    while len(passes) < MIN_PASSES or time.monotonic() < end:
        setups += [spawn(workload, seed, "setup") for _ in range(SETUPS_PER_PASS)]
        r = spawn(workload, seed, "pass", queries=n)
        setups.append(r)
        passes.append(r)
    first = passes[0]
    failed, errors = 0, []
    for r in passes:
        if r["digest"] != first["digest"]:
            r["failed"] += 1
            r["errors"].append("answers differ between passes")
        failed += r["failed"]
        errors += r["errors"]
    lat = sorted(statistics.median(r["scaled_ns"][i] for r in passes) for i in range(n))
    return {
        "budgets": first["budgets"], "pool": first["pool"], "digest": first["digest"],
        "peak_rss_mb": first["peak_rss_mb"], "distinct": n, "passes": len(passes),
        "queries": n * len(passes), "failed": failed, "errors": errors[:5],
        "setups": [scaled_setup_s(r) for r in setups],
        "draw_s": statistics.median(r["draw_s"] for r in setups),
        "busy_s": sum(sum(r["scaled_ns"]) for r in passes) / 1e9,
        "raw_busy_s": sum(sum(r["lat_ns"]) for r in passes) / 1e9,
        "ref_ms": [r["ref_ns"] / 1e6 for r in setups],
        "p50_ms": statistics.median(lat) / 1e6,
        "p90_ms": statistics.quantiles(lat, n=10)[8] / 1e6,
    }


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "semifactor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "digests.json").read_text()).get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "semifactor" / "__init__.py").is_file():
        raise SystemExit(f"no library source under {SRC}")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "src_sha256": source_hash(),
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        res = spawn(args.workload, args.seed, "traced", trace_out=trace_out)
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(res["layers"].items())
        }
        info.update(trace_file=str(trace_out.relative_to(ROOT)), spans=res["spans"],
                    untraced_s=res["untraced_s"], traced_s=res["traced_s"])
    else:
        res = timed_run(args.workload, args.seed, args.seconds)
        answered = 1 - res["failed"] / res["queries"]
        metrics = {
            "queries_per_s": {"value": res["queries"] * answered / res["busy_s"], "unit": "1/s"},
            "query_p50_ms": {"value": res["p50_ms"], "unit": "ms"},
            "query_p90_ms": {"value": res["p90_ms"], "unit": "ms"},
            "answered_frac": {"value": answered, "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
        }
        info.update(query_samples=res["distinct"], passes=res["passes"], pool=res["pool"],
                    setup_samples=res["setups"], draw_s=res["draw_s"],
                    ref_ms=res["ref_ms"], raw_busy_s=res["raw_busy_s"])

    want = expected_digest(args.workload, args.seed)
    digest_ok = want is None or res["digest"] == want
    info.update(budgets=res["budgets"], digest=res["digest"], digest_expected=want,
                errors=res["errors"])
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0 and digest_ok,
        "attempted": res["queries"],
        "failed": res["failed"],
        "metrics": metrics,
    }, sort_keys=True))


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_calls", "_size", "_out")) or ".exact_div_calls." in name:
        return "count"
    return "ratio"


if __name__ == "__main__":
    main()
