"""Run-to-run stability of the benchmark, and the output digests.

    python3 perfbench/stability.py runs --runs 10 --seed-base 100 --out A.json
    python3 perfbench/stability.py compare A.json B.json
    python3 perfbench/stability.py trace-repeat
    python3 perfbench/stability.py record-digests

``runs`` makes N untraced runs per workload, one seed each, and prints the
median, quartiles and spread ((q3 - q1) / median) of every end-to-end
metric against its bound in BENCHMARK.json.  ``compare`` checks that the
medians of two sets of runs of the same code differ by no more than the
bound, in either direction.
``trace-repeat`` makes two traced runs per workload with one seed and
checks that every per-layer count repeats exactly.  ``record-digests``
stores the output digests of the default seed in perfbench/digests.json.
Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench_run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_runs(args):
    doc = {}
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            info, res = bench_run(w, args.seed_base + i, 0)
            if not res["correct"]:
                print(f"{w} seed {args.seed_base + i}: incorrect {info['errors']}", file=sys.stderr)
            runs.append({"info": info, "result": res})
            print(f"{w} seed {args.seed_base + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        doc[w] = runs
    ok = report(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return ok


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def report(doc):
    ok = True
    print(f"\n{'workload':18s} {'metric':15s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w, runs in doc.items():
        for m in BENCH["end_to_end"]:
            q1, med, q3 = quartiles(values(runs, m["name"]))
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag, ok = "OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "above bound/3"
            print(f"{w:18s} {m['name']:15s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {m['bound']:6.2f} {flag}")
        n = [r["info"]["passes"] for r in runs]
        bad = sum(not r["result"]["correct"] for r in runs)
        print(f"{w:18s} {runs[0]['info']['query_samples']} queries, {min(n)}..{max(n)} passes "
              f"per run; incorrect runs: {bad}")
        ok = ok and bad == 0
    return ok


def cmd_compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    ok = True
    for w in a:
        for m in BENCH["end_to_end"]:
            ma = statistics.median(values(a[w], m["name"]))
            mb = statistics.median(values(b[w], m["name"]))
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "SHIFT OVER BOUND" if abs(worse) > m["bound"] else ""
            ok = ok and not flag
            print(f"{w:18s} {m['name']:15s} {ma:10.4g} -> {mb:10.4g}  worse by {worse:+.3f} "
                  f"(bound {m['bound']}) {flag}")
    return ok


def cmd_trace_repeat(args):
    ok = True
    for w in args.workloads:
        first, second = (bench_run(w, args.seed, 1)[1] for _ in range(2))
        differ = [
            f"{name}: {m['value']} then {second['metrics'][name]['value']}"
            for name, m in first["metrics"].items()
            if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]
        ]
        ok = ok and not differ and first["correct"] and second["correct"]
        shares = {k[6:]: round(v["value"], 3) for k, v in first["metrics"].items()
                  if k.startswith("share.")}
        print(f"{w}: counts {'DIFFER ' + '; '.join(differ) if differ else 'repeat'}; "
              f"correct {first['correct']}, {second['correct']}; shares {shares}")
    return ok


def cmd_record_digests(args):
    digests = {}
    for w in WORKLOADS:
        info, res = bench_run(w, DEFAULT_SEED, 1)
        if res["failed"]:
            raise SystemExit(f"{w}: {res['failed']} failed queries; not recording")
        digests[w] = info["digest"]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(digests)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=100)
    r.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    r.add_argument("--out", default=None)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    t = sub.add_parser("trace-repeat")
    t.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    sub.add_parser("record-digests")
    args = ap.parse_args()
    cmds = {"runs": cmd_runs, "compare": cmd_compare, "trace-repeat": cmd_trace_repeat,
            "record-digests": cmd_record_digests}
    sys.exit(0 if cmds[args.cmd](args) else 1)


if __name__ == "__main__":
    main()
