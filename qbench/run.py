#!/usr/bin/env python3
"""Build and run the quorum-store benchmark (qbench).

Run from the repository root:

    python3 qbench/run.py --workload bus_hot --seed 1 --seconds 10 --trace 0

The first run configures and builds qbench (the store's library modules
plus the benchmark program, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build. The
program's last stdout line is the result object. `--workload all` runs every workload
once and prints a table of the end-to-end metrics; it exits non-zero if
any run fails a correctness check.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
WORKLOADS = ["bus_hot", "tcp_hot", "bus_durable"]
# The store reads these at construction; the benchmark measures defaults.
OVERRIDES = ["QCNT_SHARDS", "QCNT_WORKERS", "QCNT_STRATEGY",
             "QCNT_FAULT_SEED", "QCNT_TCP_PORT_BASE"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """The git sha when the tree is a git checkout, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=REPO, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        # Only this tree's own repository, not one that happens to hold it.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(REPO):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure (once) and build qbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(REPO, "src", "runtime", "store.hpp")):
        log("qbench: the store's sources (src/) are missing next to qbench/")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "qbench")


def run_one(binary, out_dir, workload, seed, seconds, trace, src_id):
    env = {k: v for k, v in os.environ.items() if k not in OVERRIDES}
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out-dir", out_dir, "--source-id", src_id],
        cwd=REPO, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(REPO, target, "qbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"qbench: build failed: {e}")
        return 2
    out_dir = os.path.join(build_dir, "out")
    src_id = source_id()

    if args.workload != "all":
        code, out = run_one(binary, out_dir, args.workload, args.seed,
                            args.seconds, args.trace, src_id)
        sys.stdout.write(out)
        sys.stdout.flush()
        return code

    worst = 0
    rows = []
    for w in WORKLOADS:
        code, out = run_one(binary, out_dir, w, args.seed, args.seconds,
                            args.trace, src_id)
        worst = worst or code
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        rows.append((w, result))
        for line in lines:
            print(f"{w}: {line}")
    print()
    for w, r in rows:
        print(f"{w}: correct={r.get('correct')} attempted={r.get('attempted')}"
              f" failed={r.get('failed')}")
        for name, m in sorted(r.get("metrics", {}).items()):
            print(f"  {name:34s} {m['value']:>16.4f} {m['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
