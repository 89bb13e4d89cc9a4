#!/usr/bin/env python3
"""Build `rrs` and the perfbench driver from source, then run one workload.

Run from the root of an rrs checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

The driver (perfbench/bench.ml) prints progress on stderr and, as the last
line of stdout, one JSON object with the keys correct, attempted, failed and
metrics.  This wrapper builds with dune, runs the driver in its own process
group with a time limit, stops anything left in that group, and exits nonzero
without a result line when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORK = os.path.join("perfbench", "_run")
RRS = os.path.join("_build", "default", "bin", "rrs.exe")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def stop_group(pgid):
    """SIGKILL what is left of the driver's process group; wait until empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for source in ("dune-project", os.path.join("bin", "rrs.ml"),
                   os.path.join("lib", "service", "server.ml")):
        if not os.path.isfile(source):
            print(f"perfbench: {source} not found; run from the root of an "
                  "rrs checkout", file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", RRS, BENCH],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rrs", RRS, "--work", WORK]
    # With two CPUs or more, the client keeps one and every server process
    # another, so that neither lands on the other's CPU from run to run.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        cmd = ["taskset", "-c", str(cpus[0])] + cmd + ["--server-cpu", str(cpus[1])]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        stop_group(proc.pid)
        proc.wait()
        return 1
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: the driver printed no result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
