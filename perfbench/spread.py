#!/usr/bin/env python3
"""Run each workload repeatedly and print each end-to-end metric's
run-to-run spread beside its bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads table2,pool,churn] [--traced]

Every run uses the command, run length and bounds of BENCHMARK.json, with
seeds first-seed, first-seed+1, ... The spread of a metric is the distance
between the first and third quartile of its values (Python's
statistics.quantiles, n=4) as a share of their median. A metric is steady
when its spread is under a third of its bound; the command exits 1 if any
spread, setup_s's included, is over its bound. With --traced, a traced run
follows each untraced run on the same seed, and the tracing overhead on
req_per_s is printed (median over seeds of 1 - traced/untraced) with the
lowest measured coverage and the highest residual share of the traced time.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"spread: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        sys.exit(f"spread: {workload} seed {seed} reported wrong output")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    all_ok = True
    for workload in workloads:
        results, traced = [], []
        for s in seeds:
            results.append(run_once(spec, workload, s, seconds, 0))
            # Traced right after untraced on the same seed, so both meet the
            # host in the same state.
            if args.traced:
                traced.append(run_once(spec, workload, s, seconds, 1))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{seconds:g} s each; failed share {shares}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, s = spread(values)
            verdict = "steady" if s < m["bound"] / 3 else ("within" if s <= m["bound"] else "OVER")
            if verdict == "OVER":
                all_ok = False
            print(f"  {m['name']:<22} {med:12.4g} {q1:12.4g} {q3:12.4g} "
                  f"{100 * s:7.2f}% {100 * m['bound']:5.0f}%  {verdict}")
        if args.traced:
            ratios = [t["metrics"]["trace.req_per_s"]["value"] / r["metrics"]["req_per_s"]["value"]
                      for r, t in zip(results, traced)]
            cover = min(t["metrics"]["trace.coverage"]["value"] for t in traced)
            residual = max(t["metrics"]["trace.residual_share"]["value"] for t in traced)
            print(f"  tracing overhead on req_per_s: {100 * (1 - statistics.median(ratios)):+.2f}% "
                  f"(median over seeds of 1 - traced/untraced); lowest measured coverage "
                  f"{100 * cover:.2f}%, highest residual share {100 * residual:.2f}%")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
