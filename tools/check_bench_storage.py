#!/usr/bin/env python3
"""Sanity-gate BENCH_storage.json (experiment E20).

The experiment exists to prove two claims about the v2 storage engine;
the gates below fail CI when the data stops proving them:

1. Bounded recovery.  In the recovery-vs-state sweep the WAL tail is
   held constant while total state quadruples, so the replayed-record
   count must equal the configured tail in every row (a drift means the
   checkpoint chain is being replayed — the v1 failure mode this PR
   removed).  In spill mode the RAM image after recovery must also hold
   only the tail's distinct keys, never total state.  Wall-clock time is
   advisory only (warn past a 4x spread): chain length and page-cache
   state move millisecond timings by several x on healthy runs, so the
   deterministic record counts are the fence, not the clock.
2. The inverse control: in the recovery-vs-tail sweep, replayed records
   must strictly increase with the tail.
3. Cold-read layer health: every present-key probe must have found its
   key (the bench exits nonzero itself otherwise), absent-key probes
   must be mostly bloom misses (>= 80% — i.e. no block I/O), and the
   bloom false-positive rate must stay under 5% (designed ~1% at
   10 bits/key; 5x slack covers small-filter quantization).
4. Group-commit sanity is advisory: the adaptive window should land
   within broad noise bands of the fixed-window baseline — warn, don't
   fail, because shared CI runners make sub-millisecond fsync timing
   untrustworthy.
5. Bounded merges.  The merge_pacing section must be present, at least
   one checkpoint-chain merge must have run, and no MaybeCompact call may
   have written more merged entries than its budget (the newest
   checkpoint's entry count when the call began).  These are counts, not
   wall time, so they hold on any CI host; the per-batch stall and the
   Recover() time are reported, never gated.

Exit status: 0 = pass (possibly with warnings), 1 = hard failure,
2 = malformed/missing input.
"""

import json
import sys

STATE_TIME_RATIO_WARN = 4.0
BLOOM_MISS_FLOOR = 0.80
FALSE_POSITIVE_CEIL = 0.05
GC_NOISE_LO = 0.25
GC_NOISE_HI = 4.0


def fail(msg):
    print(f"check_bench_storage: FAIL: {msg}", file=sys.stderr)
    return 1


def warn(msg):
    print(f"check_bench_storage: warning: {msg}", file=sys.stderr)


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_storage.json"
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"check_bench_storage: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2

    status = 0

    for section in ("recovery_vs_state", "recovery_vs_tail"):
        rows = data.get(section)
        if not isinstance(rows, list) or len(rows) < 2:
            print(f"check_bench_storage: {path} lacks section {section!r}",
                  file=sys.stderr)
            return 2
    cold = data.get("cold_reads")
    gc = data.get("group_commit")
    pacing = data.get("merge_pacing")
    if not isinstance(cold, dict) or not isinstance(gc, dict) or \
            not isinstance(pacing, dict):
        print(f"check_bench_storage: {path} lacks cold_reads/group_commit/"
              "merge_pacing", file=sys.stderr)
        return 2

    # 1. Bounded recovery: replay == tail at every state size.
    tail = data.get("tail_records")
    vs_state = data["recovery_vs_state"]
    for row in vs_state:
        if row.get("replayed") != row.get("tail_records"):
            status |= fail(
                f"recovery at total_keys={row.get('total_keys')} replayed "
                f"{row.get('replayed')} records for a "
                f"{row.get('tail_records')}-record tail — recovery cost is "
                "no longer bounded by the tail")
        if row.get("tail_records") != tail:
            status |= fail(
                f"recovery_vs_state row holds tail="
                f"{row.get('tail_records')}, sweep promised {tail}")
        entries = row.get("image_entries", 0)
        if entries > row.get("tail_records", 0):
            status |= fail(
                f"spill recovery at total_keys={row.get('total_keys')} "
                f"materialized {entries} RAM entries (> tail) — total "
                "state is being paged back at restart")
    times = [row.get("recover_ms", 0.0) for row in vs_state]
    if min(times) > 0:
        ratio = max(times) / min(times)
        if ratio >= STATE_TIME_RATIO_WARN:
            warn(f"recovery wall-clock spread {ratio:.2f}x across a 4x "
                 f"state spread — advisory (chain length and page cache "
                 "move ms timings), the record-count gates are the fence")

    # 2. Inverse control: more tail, more replay.
    vs_tail = data["recovery_vs_tail"]
    replayed = [row.get("replayed", 0) for row in vs_tail]
    if replayed != sorted(replayed) or len(set(replayed)) != len(replayed):
        status |= fail(
            f"recovery_vs_tail replay counts {replayed} do not strictly "
            "increase with the tail — the sweep is not measuring replay")

    # 3. Cold-read layer.
    absent = cold.get("absent_probes", 0)
    if absent <= 0:
        status |= fail("cold_reads ran no absent-key probes")
    else:
        misses = cold.get("bloom_misses", 0)
        if misses < BLOOM_MISS_FLOOR * absent:
            status |= fail(
                f"only {misses}/{absent} absent probes were bloom misses "
                f"(floor {BLOOM_MISS_FLOOR:.0%}) — the filter is not "
                "shielding block I/O")
        fp_rate = cold.get("false_positive_rate", 1.0)
        if fp_rate > FALSE_POSITIVE_CEIL:
            status |= fail(
                f"bloom false-positive rate {fp_rate:.2%} exceeds "
                f"{FALSE_POSITIVE_CEIL:.0%} (designed ~1% at 10 bits/key)")
    if cold.get("bloom_hits", 0) < cold.get("present_probes", 1):
        status |= fail(
            f"present probes {cold.get('present_probes')} but only "
            f"{cold.get('bloom_hits')} bloom hits — present keys are "
            "missing from the cold layer")

    # 4. Group-commit sanity (advisory).
    fixed = gc.get("fixed_writes_per_sec", 0)
    adaptive = gc.get("adaptive_writes_per_sec", 0)
    if fixed <= 0 or adaptive <= 0:
        status |= fail("a group-commit section produced no writes")
    else:
        rel = adaptive / fixed
        if not GC_NOISE_LO <= rel <= GC_NOISE_HI:
            warn(f"adaptive window at {rel:.2f}x of the fixed baseline "
                 f"(bands [{GC_NOISE_LO}, {GC_NOISE_HI}]) — advisory on "
                 "shared runners")

    # 5. Bounded merges: every call within its budget.
    merges = pacing.get("merges", 0)
    per_call = pacing.get("max_merge_entries_per_call", 0)
    budget = pacing.get("merge_budget_entries", 0)
    if merges <= 0:
        status |= fail("merge_pacing ran no checkpoint-chain merge — the "
                       "load is too small to exercise the bounded merge")
    elif per_call > budget:
        status |= fail(
            f"a MaybeCompact call wrote {per_call} merged entries against a "
            f"budget of {budget} (the newest checkpoint's entry count) — "
            "the chain merge is no longer paced in O(tail) slices")

    if status == 0:
        print(f"check_bench_storage: OK ({path}, {data.get('keys')} keys, "
              f"tail {tail} records, bloom fp "
              f"{cold.get('false_positive_rate', 0):.2%}, "
              f"{merges} merges, <= {per_call}/{budget} entries per call, "
              f"worst stall {pacing.get('worst_stall_ms', 0):.1f} ms)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
