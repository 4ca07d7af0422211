#!/usr/bin/env python3
"""Build and run the dcape benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds N --trace 0|1

Run from the root of a checkout. Builds the benchmark package
(perfbench/Cargo.toml) and the repository's `dcape-node` worker binary
into $CARGO_TARGET_DIR (default: .bench_build), then runs the benchmark.
Build output goes to stderr; the benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Must stay under the benchmark's 180 s limit per run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"build failed: {' '.join(cmd)} exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="stream seed (default: each workload's own)")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build(os.path.join(ROOT, "perfbench", "Cargo.toml"))
    cargo_build(os.path.join(ROOT, "Cargo.toml"), "-p", "dcape-repro", "--bin", "dcape-node")

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "dcape-perfbench"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-bin", os.path.join(release, "dcape-node"),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    # Own process group, so a timeout or a failed run also stops the
    # socket runtime's worker processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(proc)
    if code is None:
        sys.exit(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


def stop_group(proc):
    """Kill whatever is left in the benchmark's process group and wait
    until the group is empty."""
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        if time.monotonic() > deadline:
            sys.exit("benchmark processes did not exit")
        time.sleep(0.01)
    proc.wait()


if __name__ == "__main__":
    main()
