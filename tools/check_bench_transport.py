#!/usr/bin/env python3
"""Gate BENCH_transport.json (experiment E18) on the TCP receive path, on
the connections per node pair and on how often mailbox consumers park.

Each hosted node receives on the thread that consumes its mailbox: a
warm link's frames reach the consumer without passing through the
transport's event loop, which only accepts, vets each new connection's
first frame, connects, backs off and flushes the EPOLLOUT backlog. So in
both TCP phases of E18.3 (sync round trips and the pipelined cell) the
event loop may turn only for connection setup: at most
LOOP_TURNS_PER_FRAME_CEIL turns per wire frame. A receive path that
routes frames through the loop again turns it about once per receive
burst (0.5-0.7 per frame).

A consumer's pull asks its node's receive set which connections are
readable and recv(2)s only those, so in E18.3's sync phase a frame costs
about one recv: at most RECV_CALLS_PER_FRAME_CEIL. A pull that reads
every inbound connection makes ~1.9 recv calls per frame there (a client
has one connection per replica, and most hold nothing).

Each node pair that exchanges frames shares one duplex connection: the
node that sends first dials, and the acceptor sends its replies back on
the socket it accepted. So in both TCP phases of E18.3 the connections
dialed number at most CONNECTS_PER_PAIR_CEIL per node pair that exchanged
frames. One-way connections (a reply travels on a connection its sender
dialed) open up to 2 per node pair: 20 for 15 pairs in E18's
single-process store, where the replicas share one connection back to
the client.

A consumer that finds its mailbox empty spins briefly before it parks,
so in E18.4's sync phase (one blocking client, one round trip at a time)
a reply lands while its consumer still spins. On the Bus that means no
futex wake: at most WAKEUPS_PER_HANDOFF_CEIL wakeups per mailbox handoff.
On TCP a reply arrives as socket bytes, not as a notify, so the count is
of waits that ended parked in epoll_wait: at most PARKS_PER_HANDOFF_CEIL
per handoff. A consumer that parks at once does so for nearly every
handoff (~0.9-1.0). Spinning needs a spare core per spinning consumer, so
these two gates apply only on hosts with at least SPIN_GATE_MIN_CORES
cores.

Every gate is a count, not a time.

Exit status: 0 = pass, 1 = gate failed, 2 = malformed/missing input.
"""

import json
import sys

LOOP_TURNS_PER_FRAME_CEIL = 0.05
RECV_CALLS_PER_FRAME_CEIL = 1.2
CONNECTS_PER_PAIR_CEIL = 1.0
PHASES = ("sync", "pipelined")
WAKEUPS_PER_HANDOFF_CEIL = 0.5
PARKS_PER_HANDOFF_CEIL = 0.5
SPIN_GATE_MIN_CORES = 4

# (transport, counter, ceiling, what a failure means) for the sync phase
# of E18.4.
SPIN_GATES = (
    ("bus", "wakeups", WAKEUPS_PER_HANDOFF_CEIL,
     "woke a parked Bus consumer"),
    ("tcp", "parks", PARKS_PER_HANDOFF_CEIL,
     "parked a TCP consumer in epoll_wait"),
)


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

    boxes = {(row.get("transport"), row.get("phase")): row
             for row in data.get("mailbox_handoffs", [])
             if isinstance(row, dict)}
    for transport, _, _, _ in SPIN_GATES:
        if (transport, "sync") not in boxes:
            print(f"check_bench_transport: {path} lacks a mailbox_handoffs "
                  f"row for {transport} in the sync phase", file=sys.stderr)
            return 2

    status = 0
    cores = data.get("host_cores", 0)
    notes = []
    for transport, counter, ceil, meaning in SPIN_GATES:
        row = boxes[(transport, "sync")]
        per_handoff = row.get(f"{counter}_per_handoff")
        if per_handoff is None or row.get("handoffs", 0) <= 0:
            print(f"check_bench_transport: FAIL: the sync phase made no "
                  f"{transport} mailbox handoffs or reports no "
                  f"{counter}_per_handoff", file=sys.stderr)
            status = 1
        elif cores < SPIN_GATE_MIN_CORES:
            print(f"check_bench_transport: note: {cores} cores, below "
                  f"{SPIN_GATE_MIN_CORES}; sync {transport} {counter} per "
                  f"handoff {per_handoff:.3f} not gated")
        elif per_handoff > ceil:
            print(f"check_bench_transport: FAIL: the sync phase {meaning} "
                  f"{per_handoff:.3f} times per mailbox handoff (ceiling "
                  f"{ceil} on {cores} cores) — consumers park before a "
                  "round trip's reply arrives", file=sys.stderr)
            status = 1
        else:
            notes.append(f"sync {transport} {counter} per handoff "
                         f"{per_handoff:.3f}, ceiling {ceil}")

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

    for phase in PHASES:
        row = rows[phase]
        connects = row.get("connects")
        pairs = row.get("talking_pairs")
        if connects is None or pairs is None:
            print(f"check_bench_transport: {path} reports no connects or "
                  f"talking_pairs for the {phase} phase", file=sys.stderr)
            return 2
        if pairs <= 0:
            print(f"check_bench_transport: FAIL: the {phase} phase reports "
                  "no node pair that exchanged frames", file=sys.stderr)
            status = 1
        elif connects / pairs > CONNECTS_PER_PAIR_CEIL:
            print(f"check_bench_transport: FAIL: the {phase} phase dialed "
                  f"{connects} connections for {pairs} talking node pairs "
                  f"({connects / pairs:.3f} per pair, ceiling "
                  f"{CONNECTS_PER_PAIR_CEIL}) — replies do not ride their "
                  "requests' sockets", file=sys.stderr)
            status = 1

    recv = rows["sync"].get("recv_calls")
    if recv is None:
        print("check_bench_transport: FAIL: the sync phase reports no "
              "recv_calls", file=sys.stderr)
        status = 1
    elif recv > RECV_CALLS_PER_FRAME_CEIL:
        print(f"check_bench_transport: FAIL: the sync phase made {recv:.3f} "
              f"recv calls per wire frame (ceiling "
              f"{RECV_CALLS_PER_FRAME_CEIL}) — pulls read connections that "
              "epoll did not report ready", file=sys.stderr)
        status = 1

    if status == 0:
        print(f"check_bench_transport: OK ({path}: loop turns per frame " +
              ", ".join(f"{p} {rows[p]['loop_turns']:.3f}" for p in PHASES) +
              f", ceiling {LOOP_TURNS_PER_FRAME_CEIL}; sync recv calls per "
              f"frame {recv:.3f}, ceiling {RECV_CALLS_PER_FRAME_CEIL}; "
              "connections per talking pair " +
              ", ".join(f"{p} {rows[p]['connects'] / rows[p]['talking_pairs']:.3f}"
                        for p in PHASES) +
              f", ceiling {CONNECTS_PER_PAIR_CEIL}" +
              "".join(f"; {n}" for n in notes) + ")")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
