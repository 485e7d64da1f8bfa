#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees on the repo benchmark.

    python3 avbench/ab.py --a PARENT_TREE --b CHANGED_TREE \\
        [--workloads lake-build,rule-train] [--pairs 10] [--seconds S] \\
        [--seed 1 | --held-out]

Each tree is a checkout holding avbench/ (each builds into its own
.bench_build/). Pair i runs both trees on seed + i, alternating which side
goes first. For every workload and end-to-end metric of A's BENCHMARK.json
it reports each side's median and quartiles, the share of pairs B won (ties
count for neither side) and a verdict:

  gain         at least 10 pairs, B wins at least 9/10 of them and the
               medians differ by more than A's own spread (its
               interquartile distance);
  regression   B's median is worse than A's by more than the metric's bound;
  unresolved   A's spread is wider than the bound and neither of the above;
  no change    otherwise.

Outputs are compared too. Both sides print the hash of what they saved
(index, rule sets) on `hash` lines, and precision and recall are computed on
the same seed's query columns, so on a pair they must agree unless B changed
the program's output. Precision and recall get the verdict `quality drop`
when B is lower on any pair, `quality gain` when B is higher on some pair and
lower on none, `same` otherwise. When any hash differs or quality dropped, a
timing `gain` is reported as `output changed` or `quality drop` instead: a
faster run that computes something else is not a gain.

--held-out runs every pair on the held-out seed recorded in BENCHMARK.json,
the seed reserved for checking a claim after the change was written.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

QUALITY = ("precision", "recall")


def run(tree, workload, seed, seconds, held_out):
    cmd = ["python3", "avbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if held_out is not None:
        cmd += ["--held-out-seed", str(held_out)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"ab: {tree}: {workload} seed {seed} printed no result "
                 f"(exit {p.returncode})\n{p.stderr[-2000:]}")
    if p.returncode != 0 or not result["correct"]:
        sys.exit(f"ab: {tree}: {workload} seed {seed} failed its output checks")
    hashes = dict(line.split()[1:3] for line in lines
                  if line.startswith("hash ") and len(line.split()) == 3)
    return {k: v["value"] for k, v in result["metrics"].items()}, hashes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def quality_verdict(a, b):
    if any(y < x for x, y in zip(a, b)):
        return "quality drop"
    if any(y > x for x, y in zip(a, b)):
        return "quality gain"
    return "same"


def verdict(metric, a, b):
    lower = metric["better"] == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    share = wins / len(a)
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    worse = (med_b - med_a) if lower else (med_a - med_b)
    if share >= 0.9 and abs(med_b - med_a) > spread and len(a) >= 10:
        return share, "gain"
    if med_a and worse / abs(med_a) > metric["bound"]:
        return share, "regression"
    if med_a and spread / abs(med_a) > metric["bound"]:
        return share, "unresolved"
    return share, "no change"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", required=True, help="parent tree")
    ap.add_argument("--b", required=True, help="changed tree")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()

    spec = json.loads((Path(args.a) / "BENCHMARK.json").read_text())
    held_out = None
    for i, arg in enumerate(spec["command"]):
        if arg == "--held-out-seed":
            held_out = int(spec["command"][i + 1])
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    report = {}
    for workload in workloads:
        sides = {"a": [], "b": []}
        changed = []
        for i in range(args.pairs):
            seed = held_out if args.held_out else args.seed + i
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            hashes = {}
            for side in order:
                tree = args.a if side == "a" else args.b
                metrics, hashes[side] = run(tree, workload, seed, seconds, held_out)
                sides[side].append(metrics)
            for key in sorted(hashes["a"].keys() | hashes["b"].keys()):
                ha, hb = hashes["a"].get(key), hashes["b"].get(key)
                if ha != hb:
                    changed.append(f"{key}: A {ha}, B {hb}")
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} "
                  f"({order[0]} first)", file=sys.stderr, flush=True)
        print(f"\n{workload} ({args.pairs} pairs, {seconds} s runs)")
        for line in changed:
            print(f"  OUTPUT DIFFERS {line}")
        print(f"  {'metric':<14} {'A median':>12} {'A q1..q3':>23} {'B median':>12} "
              f"{'B q1..q3':>23} {'B won':>6}  verdict")
        dropped = any(
            quality_verdict([r[q] for r in sides["a"]], [r[q] for r in sides["b"]])
            == "quality drop" for q in QUALITY if q in sides["a"][0])
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in sides["a"]]
            b = [r[name] for r in sides["b"]]
            share, v = verdict(metric, a, b)
            if name in QUALITY:
                v = quality_verdict(a, b)
            elif v == "gain" and dropped:
                v = "quality drop"
            elif v == "gain" and changed:
                v = "output changed"
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            print(f"  {name:<14} {statistics.median(a):>12.5g} {a1:>11.5g}..{a3:<11.5g} "
                  f"{statistics.median(b):>12.5g} {b1:>11.5g}..{b3:<11.5g} "
                  f"{share:>6.0%}  {v}")
            rows[name] = {"a": a, "b": b, "b_won_share": share, "verdict": v}
        report[workload] = {"metrics": rows, "output_differs": changed}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
