#!/usr/bin/env python3
"""Gate BENCH_transport.json (experiment E18) on the TCP receive path and
on Bus mailbox wakeups.

Each hosted node receives on the thread that consumes its mailbox: a
warm link's frames reach the consumer without passing through the
transport's event loop, which only accepts, vets each new connection's
first frame, connects, backs off and flushes the EPOLLOUT backlog. So in
both TCP phases of E18.3 (sync round trips and the pipelined cell) the
event loop may turn only for connection setup: at most
LOOP_TURNS_PER_FRAME_CEIL turns per wire frame. A receive path that
routes frames through the loop again turns it about once per receive
burst (0.5-0.7 per frame). The gate is a count, not a time, so it holds
on any host.

A Bus consumer that finds its mailbox empty spins briefly before it
parks, so in E18.4's sync phase (one blocking client, one round trip at
a time) a reply lands while its consumer still spins and needs no futex
wake: at most WAKEUPS_PER_HANDOFF_CEIL wakeups per mailbox handoff. A
consumer that parks at once is woken for nearly every handoff (~1.0).
Spinning needs a spare core per spinning consumer, so this gate applies
only on hosts with at least WAKEUP_GATE_MIN_CORES cores; it is a count
too.

Exit status: 0 = pass, 1 = gate failed, 2 = malformed/missing input.
"""

import json
import sys

LOOP_TURNS_PER_FRAME_CEIL = 0.05
PHASES = ("sync", "pipelined")
WAKEUPS_PER_HANDOFF_CEIL = 0.5
WAKEUP_GATE_MIN_CORES = 4


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_transport.json"
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"check_bench_transport: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2

    rows = {row.get("phase"): row
            for row in data.get("tcp_syscalls_per_frame", [])
            if isinstance(row, dict)}
    missing = [p for p in PHASES if p not in rows]
    if missing:
        print(f"check_bench_transport: {path} lacks tcp_syscalls_per_frame "
              f"rows for {missing}", file=sys.stderr)
        return 2

    wakeups = {row.get("phase"): row
               for row in data.get("bus_mailbox_wakeups", [])
               if isinstance(row, dict)}
    if "sync" not in wakeups:
        print(f"check_bench_transport: {path} lacks a bus_mailbox_wakeups "
              "row for the sync phase", file=sys.stderr)
        return 2

    status = 0
    sync_wakeups = wakeups["sync"].get("wakeups_per_handoff")
    cores = data.get("host_cores", 0)
    if sync_wakeups is None or wakeups["sync"].get("handoffs", 0) <= 0:
        print("check_bench_transport: FAIL: the sync phase made no Bus "
              "mailbox handoffs or reports no wakeups_per_handoff",
              file=sys.stderr)
        status = 1
    elif cores >= WAKEUP_GATE_MIN_CORES and \
            sync_wakeups > WAKEUPS_PER_HANDOFF_CEIL:
        print(f"check_bench_transport: FAIL: the sync phase woke a parked "
              f"Bus consumer {sync_wakeups:.3f} times per mailbox handoff "
              f"(ceiling {WAKEUPS_PER_HANDOFF_CEIL} on {cores} cores) — "
              "consumers park before a round trip's reply arrives",
              file=sys.stderr)
        status = 1
    elif cores < WAKEUP_GATE_MIN_CORES:
        print(f"check_bench_transport: note: {cores} cores, below "
              f"{WAKEUP_GATE_MIN_CORES}; sync wakeups per handoff "
              f"{sync_wakeups:.3f} not gated")

    for phase in PHASES:
        row = rows[phase]
        frames = row.get("wire_frames", 0)
        turns = row.get("loop_turns")
        if frames <= 0 or turns is None:
            print(f"check_bench_transport: FAIL: the {phase} phase sent no "
                  "wire frames or reports no loop_turns", file=sys.stderr)
            status = 1
        elif turns > LOOP_TURNS_PER_FRAME_CEIL:
            print(f"check_bench_transport: FAIL: {phase} phase turned the "
                  f"event loop {turns:.3f} times per wire frame (ceiling "
                  f"{LOOP_TURNS_PER_FRAME_CEIL}) — warm links' frames are "
                  "passing through the loop", file=sys.stderr)
            status = 1

    if status == 0:
        print(f"check_bench_transport: OK ({path}: loop turns per frame " +
              ", ".join(f"{p} {rows[p]['loop_turns']:.3f}" for p in PHASES) +
              f", ceiling {LOOP_TURNS_PER_FRAME_CEIL}; sync Bus wakeups per "
              f"handoff {sync_wakeups:.3f}, ceiling "
              f"{WAKEUPS_PER_HANDOFF_CEIL})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
