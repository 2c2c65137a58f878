#!/usr/bin/env python3
"""A/B compare mode: run two checkouts as alternating pairs and judge.

    python3 perfbench/ab.py --a PARENT_CHECKOUT --b CHILD_CHECKOUT \
        [--workloads ring64_seq,paper_sweep] [--seed-base 1000] \
        [--save results.json]
    python3 perfbench/ab.py --load results.json

Each workload gets 10 pairs. A pair runs `python3 perfbench/run.py
--trace 0` once in each checkout with the same seed, for
BENCHMARK.json's run_seconds, alternating which side goes first. For
every (end-to-end metric, workload) it prints each side's median and
quartiles, how many pairs the child won, and a verdict by the
choosing-metrics rule (perfbench/stats.py: gain, same, regression, or
unresolved where the parent's own spread exceeds the metric's bound in
BENCHMARK.json; a workload left with fewer than 10 good pairs is
unresolved throughout). With the same checkout on both sides it is the
steadiness check: every verdict should read "same" and every spread
should stay under its bound. Exit code 1 if any pair is a regression
or any run failed a check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def run_one(checkout, workload, seed, seconds):
    """One run's result line, with its host fingerprint attached."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(r.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("fingerprint: "):
            result["fingerprint"] = json.loads(line[len("fingerprint: "):])
    return result


def collect(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    runs = {"a": args.a, "b": args.b, "pairs": []}
    for w in workloads:
        for i in range(stats.PAIRS):
            seed = args.seed_base + i
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            pair = {"workload": w, "seed": seed}
            for side in order:
                pair[side] = run_one(getattr(args, side), w, seed,
                                     spec["run_seconds"])
            print(f"{w} pair {i + 1}/{stats.PAIRS} (seed {seed}, "
                  f"{order[0]} first) done", file=sys.stderr, flush=True)
            runs["pairs"].append(pair)
    return runs


def report(runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failed_runs = 0
    regressions = 0
    by_workload = {}
    for pair in runs["pairs"]:
        if not (pair["a"] and pair["b"]
                and pair["a"]["correct"] and pair["b"]["correct"]):
            failed_runs += 1
            continue
        by_workload.setdefault(pair["workload"], []).append(pair)
    print(f"A = {runs['a']}\nB = {runs['b']}")
    print(f"{'workload':<16} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B wins':>7} {'B worse':>8} {'A spr':>6} "
          f"{'bound':>5}  verdict")
    for w, pairs in by_workload.items():
        for name, m in bounds.items():
            a = [p["a"]["metrics"][name]["value"] for p in pairs]
            b = [p["b"]["metrics"][name]["value"] for p in pairs]
            c = stats.compare(a, b, m["better"], m["bound"])
            regressions += c["verdict"] == "regression"
            fa = "{:.5g} [{:.5g}, {:.5g}]".format(c["parent"][1], c["parent"][0], c["parent"][2])
            fb = "{:.5g} [{:.5g}, {:.5g}]".format(c["child"][1], c["child"][0], c["child"][2])
            print(f"{w:<16} {name:<20} {fa:>34} {fb:>34} "
                  f"{c['wins']:>3}/{c['pairs']:<3} {c['worse_by']:>+8.3f} "
                  f"{c['parent_spread']:>6.3f} "
                  f"{m['bound']:>5}  {c['verdict']}")
    if failed_runs:
        print(f"{failed_runs} pair(s) had a run that failed its checks")
    return 1 if regressions or failed_runs else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", help="parent checkout (root directory)")
    ap.add_argument("--b", help="child checkout (root directory)")
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--save", help="write the raw result set here")
    ap.add_argument("--load", help="judge a saved result set instead of running")
    args = ap.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if args.load:
        runs = json.loads(Path(args.load).read_text())
    else:
        if not (args.a and args.b):
            ap.error("--a and --b (or --load) are required")
        runs = collect(args, spec)
        if args.save:
            Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    return report(runs, spec)


if __name__ == "__main__":
    sys.exit(main())
