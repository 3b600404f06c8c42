#!/usr/bin/env python3
"""Steadiness self-check of the benchmark, from the root of a checkout.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workload NAME ...]
                                [--exact] [--out FILE]

Runs the command of BENCHMARK.json --runs times per workload, each with
another seed, for run_seconds each, and reports for every end-to-end
metric its median and the spread between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, against
the metric's bound.  With --exact it also runs each workload's traced
run twice on one seed and checks that the exact counts repeat exactly.
Exits 1 if a run failed or was incorrect, a spread (setup_s aside)
exceeds its bound, or an exact count differs.
"""

import argparse
import functools
import json
import statistics
import subprocess
import sys

print = functools.partial(print, flush=True)

EXACT = [
    "ddg.tasks",
    "engine.tests_run",
    "engine.env_misses",
    "engine.summary_builds",
    "runtime.stmts_executed",
    "sim.stmts_executed",
    "codegen.source_bytes",
    "codegen.ir_stmts",
]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--exact", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    report = {}
    for w in names:
        results = [run_once(bench, w, args.seed0 + i, 0) for i in range(args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print("%s: %d run(s) incorrect or with failed ops" % (w, len(bad)))
        report[w] = {}
        for m in bench["end_to_end"] if results else []:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(vals) if len(vals) >= 2 else 0.0
            verdict = "ok" if s <= m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO WIDE")
            if s > m["bound"] and m["name"] != "setup_s":
                ok = False
            report[w][m["name"]] = {"values": vals, "median": statistics.median(vals),
                                    "spread": s, "bound": m["bound"]}
            print("%-14s %-22s median %12.5g %-5s spread %.4f (bound %.2f) %s" % (
                w, m["name"], statistics.median(vals), m["unit"], s, m["bound"], verdict))
        if args.exact:
            a = run_once(bench, w, args.seed0, 1)["metrics"]
            b = run_once(bench, w, args.seed0, 1)["metrics"]
            for name in EXACT:
                same = a[name]["value"] == b[name]["value"]
                ok = ok and same
                print("%-14s exact %-24s %s %s" % (
                    w, name, a[name]["value"], "repeats" if same else
                    "DIFFERS (%s)" % b[name]["value"]))
            report[w]["exact"] = {n: [a[n]["value"], b[n]["value"]] for n in EXACT}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
