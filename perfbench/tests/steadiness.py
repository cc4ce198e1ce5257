#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs each workload several times with different seeds, then prints, for every
end-to-end metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median) against the metric's bound in
BENCHMARK.json. With --sets 2 it repeats the whole series with fresh seeds and
also compares each set's median with the first set's, so "two sets of runs
agree" is one command:

    python3 perfbench/tests/steadiness.py --runs 10 --sets 2

Run from the root of a checkout. Exits non-zero when a run fails or reports
correct=false, when a metric spreads wider than its bound, or when a later
set's median differs from the first set's, in either direction, by more than
the bound. Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(spec, workload, seed, seconds):
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} seed {seed}: unexpected result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit(f"{workload} seed {seed}: metrics {got} differ from {expected}")
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    seed = args.first_seed
    for workload in args.workload or workloads:
        medians = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                result = run_once(spec, workload, seed, args.seconds)
                print(f"  {workload} seed {seed}: " + " ".join(
                    f"{name}={m['value']:.6g}"
                    for name, m in result["metrics"].items()), flush=True)
                seed += 1
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed - 1}: correct=false, "
                          f"{result['failed']} of {result['attempted']} failed")
                    ok = False
                runs.append(result)
            print(f"\n{workload} set {s + 1}: {args.runs} runs, "
                  f"attempted {sum(r['attempted'] for r in runs)}, "
                  f"failed {sum(r['failed'] for r in runs)}")
            print(f"{'metric':16} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>7}  verdict")
            set_medians = {}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                set_medians[m["name"]] = median
                if share > m["bound"]:
                    verdict, ok = "TOO NOISY", False
                elif share > m["bound"] / 3:
                    verdict = "within bound"
                else:
                    verdict = "steady (< bound/3)"
                print(f"{m['name']:16} {m['unit']:6} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {share:8.2%} {m['bound']:7.0%}  {verdict}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print(f"{workload} set {s + 1} vs set 1 (median change, worse is +):")
            for m in metrics:
                first, later = medians[0][m["name"]], medians[s][m["name"]]
                worse = (later - first) / first if first else 0.0
                if m["better"] == "higher":
                    worse = -worse
                verdict = "agree" if abs(worse) <= m["bound"] else "DISAGREE"
                if verdict != "agree":
                    ok = False
                print(f"  {m['name']:16} {first:12.6g} -> {later:12.6g} "
                      f"{worse:+8.2%} (bound {m['bound']:.0%}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
