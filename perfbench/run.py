#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (into .bench_build, or
$CARGO_TARGET_DIR when set), runs it, and re-prints its output. The
last line of standard output is the result JSON; the exit code is 0
only when the build and the run succeeded and the result is well formed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("maglev-iso-64b", "megaflow-zipf", "ifc-reverify", "ckpt-cycle")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout or on our own termination, kill
    it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    code, _ = run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", build_dir, "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    code, out = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: benchmark exited with {code}")

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
