#!/usr/bin/env python3
"""Check that the untraced benchmark is steady from run to run.

Run from the repository root:

    python3 qbench/steady.py --runs 10 --sets 2

Each set runs qbench/run.py --runs times per workload, with a fresh seed
each time and the workloads alternating (bus_hot, tcp_hot, bus_durable,
bus_hot, ...), so slow drifts in host load hit every workload alike. Per
set and workload it prints, for each end-to-end metric, the median, the
quartiles (statistics.quantiles(n=4)), the quartile spread as a share of
the median, and the largest deviation of one run from the median, plus
the mean host steal share of the set's runs. With --sets 2 it then
compares the two sets' medians. Both checks use the bounds in
BENCHMARK.json: each spread (setup_s excepted) must stay within its
metric's bound, and the second median may not be worse than the first by
more than the bound. The exit code is 1 when a check fails, or when any
run fails or reports "correct": false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    env = {}
    for line in lines:
        if line.startswith('{"env"'):
            env = json.loads(line)["env"]
    ok = proc.returncode == 0 and result.get("correct") is True
    return ok, result, env


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    dev = max(abs(v - med) for v in values) / med if med else float("inf")
    return med, q1, q3, spread, dev


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", nargs="*",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1000,
                    help="first seed; each run takes the next one")
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.runs < 2:
        ap.error("--runs must be at least 2 to compute quartiles")

    ok = True
    seed = args.seed
    medians = []  # per set: {workload: {metric: median}}
    for set_no in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        steal = {w: [] for w in workloads}
        for _ in range(args.runs):
            for w in workloads:
                good, result, env = run(w, seed, spec["run_seconds"])
                print(f"set {set_no + 1} {w} seed {seed}: "
                      f"{'ok' if good else 'FAILED'} "
                      f"steal {env.get('host_steal_frac', float('nan')):.3f}",
                      flush=True)
                seed += 1
                if not good or result.get("failed", 1) != 0:
                    ok = False
                    continue
                steal[w].append(env.get("host_steal_frac", 0.0))
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
        set_medians = {}
        for w in workloads:
            mean_steal = statistics.mean(steal[w]) if steal[w] else 0.0
            print(f"\nset {set_no + 1} {w}: {len(steal[w])} runs, "
                  f"mean host.steal_frac {mean_steal:.3f}")
            print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
                  f" {'spread':>7s} {'maxdev':>7s} {'bound':>6s}")
            set_medians[w] = {}
            for m, spec_m in metrics.items():
                if len(values[w][m]) < 2:
                    ok = False
                    continue
                med, q1, q3, spread, dev = summarize(values[w][m])
                set_medians[w][m] = med
                bound = spec_m["bound"]
                flag = ""
                if m != "setup_s" and spread > bound:
                    flag = "  SPREAD > BOUND"
                    ok = False
                elif m != "setup_s" and spread > bound / 3:
                    flag = "  spread > bound/3"
                print(f"  {m:20s} {med:12.4f} {q1:12.4f} {q3:12.4f}"
                      f" {spread:7.3f} {dev:7.3f} {bound:6.2f}{flag}")
        medians.append(set_medians)

    if args.sets == 2:
        print("\nsecond set against first (share worse; bound)")
        for w in workloads:
            for m, spec_m in metrics.items():
                if m not in medians[0].get(w, {}) or \
                        m not in medians[1].get(w, {}):
                    continue
                d = worse_by(medians[0][w][m], medians[1][w][m],
                             spec_m["better"])
                bad = d > spec_m["bound"]
                ok = ok and not bad
                print(f"  {w:12s} {m:20s} {d:+7.3f} {spec_m['bound']:5.2f}"
                      f"{'  WORSE THAN BOUND' if bad else ''}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
