#!/usr/bin/env python3
"""Sanity-gate BENCH_sharding.json (experiment E16/E16b).

Checks, in order of how badly they have bitten us before:

1. No two sweep sections may share an identical per-shard ops array.
   bench_sharding once seeded every section's workload RNG identically,
   so the memory and durable sweeps produced byte-for-byte equal
   `shard_ops` arrays and the tables looked plausible while measuring
   the same traffic three times.  Distinct arrays prove each section
   ran its own workload.
2. `hardware_concurrency` must be recorded and positive — the speedup
   columns are meaningless without knowing the core budget.

There is no speedup floor: each replica runs one loop thread whatever its
shard count, so E16 makes no multi-core scaling claim to gate.

Exit status: 0 = pass, 1 = hard failure, 2 = malformed/missing input.
"""

import json
import sys

SECTIONS = (
    "memory_backend",
    "durable_group_commit",
)


def fail(msg):
    print(f"check_bench_sharding: FAIL: {msg}", file=sys.stderr)
    return 1


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_sharding.json"
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"check_bench_sharding: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2

    status = 0

    sections = {}
    for name in SECTIONS:
        rows = data.get(name)
        if not isinstance(rows, list) or not rows:
            print(f"check_bench_sharding: {path} lacks section {name!r}",
                  file=sys.stderr)
            return 2
        sections[name] = rows

    # 1. Identical per-shard arrays across sections ⇒ the sweeps shared a
    #    workload RNG and at least one table is a duplicate measurement.
    seen = {}
    for name, rows in sections.items():
        for row in rows:
            ops = row.get("shard_ops")
            if not isinstance(ops, list):
                print(
                    f"check_bench_sharding: {name} shards="
                    f"{row.get('shards')} has no shard_ops array",
                    file=sys.stderr)
                return 2
            key = (row.get("shards"), tuple(ops))
            if key in seen and seen[key] != name:
                status |= fail(
                    f"sections {seen[key]!r} and {name!r} report an "
                    f"identical per-shard ops array at shards={key[0]} "
                    f"({list(key[1])}); the sweeps did not run "
                    "independent workloads")
            seen.setdefault(key, name)

    # 2. Core count must be recorded.
    cores = data.get("hardware_concurrency")
    if not isinstance(cores, int) or cores < 1:
        status |= fail(
            "hardware_concurrency missing or non-positive; speedup "
            "columns cannot be interpreted")
        cores = 0

    if status == 0:
        print(f"check_bench_sharding: OK ({path}, {cores} cores, "
              f"{sum(len(r) for r in sections.values())} sweep rows)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
