#!/usr/bin/env python3
"""Sanity-gate BENCH_strategies.json (experiment E21).

Checks:

1. Both sections must be present: `read_heavy` (per-strategy rows for the
   95%-read workload) and `switch_under_traffic` (live majority <-> ROWA
   flips under load).  A bench that silently skipped a section must not
   pass.
2. Read-heavy sub-requests: with minimal-quorum targeting, a
   majority-of-5 read asks 3 replicas while a ROWA read asks 1, so ROWA
   and the read-dominant weighted system must need strictly fewer
   replica sub-requests per op (entries the replicas served, over ops)
   than the majority row, and every row must stay within
   REQS_SLACK_PER_OP of its strategy's analytic minimum
   (`min_reqs_per_op`: a read quorum per read, a read quorum plus a
   write quorum per write). This is the regression gate for minimal-
   quorum targeting — a client that quietly falls back to broadcasting
   asks all 5 replicas for every phase, whatever the strategy. Wire
   messages per op are not gated: batching packs many sub-requests into
   one message, so that figure tracks batch size more than quorum size.
   Throughput gets a *floor*, not a strict ordering: the read-optimized
   rows must hold >= MIN_THROUGHPUT_RATIO of the majority baseline.
   Throughput ordering between back-to-back runs flips under scheduler
   contention on small CI hosts even when the sub-request win is intact,
   so the count carries the strictness.
3. Switch-under-traffic floor: the median throughput of the switching
   phase must hold at least half the steady-state median
   (ratio >= 0.5), and at least one switch must actually have been
   installed — a live strategy switch is a blip, not an outage.

Exit status: 0 = pass, 1 = hard failure, 2 = malformed/missing input.
"""

import json
import sys

MIN_SWITCH_RATIO = 0.5
MIN_THROUGHPUT_RATIO = 0.85
# Sub-requests per op above the analytic minimum that a row may show:
# escalations (a straggling replica makes the client fan out after
# `escalate_after`) and retries ask extra replicas. The largest overshoot
# measured on a 4-core host was 0.011 (EXPERIMENTS.md E21); a client that
# broadcasts overshoots by 2 or more.
REQS_SLACK_PER_OP = 0.25


def fail(msg):
    print(f"check_bench_strategies: FAIL: {msg}", file=sys.stderr)
    return 1


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_strategies.json"
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"check_bench_strategies: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2

    status = 0

    # 1. Both sections present and well-formed.
    rows = data.get("read_heavy")
    if not isinstance(rows, list) or not rows:
        print(f"check_bench_strategies: {path} lacks section 'read_heavy'",
              file=sys.stderr)
        return 2
    switch = data.get("switch_under_traffic")
    if not isinstance(switch, dict):
        print(f"check_bench_strategies: {path} lacks section "
              "'switch_under_traffic'", file=sys.stderr)
        return 2

    by_strategy = {}
    for row in rows:
        name = row.get("strategy")
        if (not isinstance(name, str)
                or not all(isinstance(row.get(k), (int, float)) for k in (
                    "ops_per_sec", "replica_reqs_per_op",
                    "min_reqs_per_op"))):
            print(f"check_bench_strategies: malformed read_heavy row {row!r}",
                  file=sys.stderr)
            return 2
        by_strategy[name] = row

    majority = by_strategy.get("majority")
    if majority is None:
        print("check_bench_strategies: read_heavy has no 'majority' "
              "baseline row", file=sys.stderr)
        return 2
    read_optimized = [n for n in by_strategy if n != "majority"]
    if not read_optimized:
        print("check_bench_strategies: read_heavy has no read-optimized "
              "strategies to compare against majority", file=sys.stderr)
        return 2

    # 2. Every strategy stays near its analytic minimum; ROWA /
    #    read-dominant must need fewer sub-requests than majority, and
    #    must not regress throughput below the contention-tolerant floor.
    for name, row in by_strategy.items():
        ceiling = row["min_reqs_per_op"] + REQS_SLACK_PER_OP
        if row["replica_reqs_per_op"] > ceiling:
            status |= fail(
                f"sub-requests/op: {name} "
                f"({row['replica_reqs_per_op']:.3f}) exceeds its analytic "
                f"minimum {row['min_reqs_per_op']:.3f} by more than "
                f"{REQS_SLACK_PER_OP}; the client is asking more replicas "
                "than a quorum")
    for name in read_optimized:
        row = by_strategy[name]
        floor = MIN_THROUGHPUT_RATIO * majority["ops_per_sec"]
        if row["ops_per_sec"] < floor:
            status |= fail(
                f"read-heavy throughput: {name} "
                f"({row['ops_per_sec']:.0f} ops/s) fell below "
                f"{MIN_THROUGHPUT_RATIO}x of majority "
                f"({majority['ops_per_sec']:.0f} ops/s)")
        if row["replica_reqs_per_op"] >= majority["replica_reqs_per_op"]:
            status |= fail(
                f"sub-requests/op: {name} "
                f"({row['replica_reqs_per_op']:.3f}) is not below majority "
                f"({majority['replica_reqs_per_op']:.3f}); minimal-quorum "
                "targeting is not engaging")
        if row.get("failures", 0):
            status |= fail(
                f"read-heavy {name} reported {row['failures']} failed ops "
                "on a healthy store")

    # 3. Live switches must not crater throughput.
    ratio = switch.get("ratio")
    switches = switch.get("switches")
    if not isinstance(ratio, (int, float)) or not isinstance(switches, int):
        print("check_bench_strategies: switch_under_traffic lacks "
              "ratio/switches", file=sys.stderr)
        return 2
    if switches < 1:
        status |= fail("switch_under_traffic installed zero switches; the "
                       "section measured nothing")
    if ratio < MIN_SWITCH_RATIO:
        status |= fail(
            f"during-switch median held only {ratio:.2f}x of steady state "
            f"(floor {MIN_SWITCH_RATIO})")

    if status == 0:
        print(f"check_bench_strategies: OK ({path}, "
              f"{len(rows)} strategies, sub-requests/op " +
              ", ".join(f"{n} {r['replica_reqs_per_op']:.3f} (min "
                        f"{r['min_reqs_per_op']:.3f})"
                        for n, r in by_strategy.items()) +
              f", {switches} live switches, switch ratio {ratio:.2f})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
