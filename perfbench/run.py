#!/usr/bin/env python3
"""Build the benchmark driver and fsrd, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is batch_eval, serve_cold or serve_hot (see perfbench/README.md).
The build goes to .bench_build/ at the repository root (configured on
first use, incremental afterwards); its output goes to stderr, so the
last line of stdout is the driver's JSON result. Exits non-zero without
a result when the repository sources are missing, the build fails, or
the run breaks a check.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
WORKLOADS = ("batch_eval", "serve_cold", "serve_hot")
# A run spends --seconds measuring, then about as long again on
# set-ups, the traced replay's extra work and the trace export.
RUN_TIMEOUT_FIXED_S = 60
RUN_TIMEOUT_PER_S = 3


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    for needed in ("src/CMakeLists.txt", "tools/fsrd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"{needed} is missing: run from a full checkout of the repository")
            sys.exit(2)
    build = os.path.join(ROOT, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "fsrd",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def stop_group(pgid):
    """SIGKILL whatever is left of the driver's process group (a daemon
    orphaned by a killed driver) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    build()
    # The daemon and the libraries read REPRO_* knobs (threads, cache
    # budget, deadlines); the workloads fix their own settings instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--fsrd", os.path.join(BUILD_DIR, "tools", "fsrd"),
           "--out-dir", BUILD_DIR]
    timeout_s = RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_S * args.seconds
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {timeout_s:g}s")
        rc = 1
    except KeyboardInterrupt:
        rc = 130
    finally:
        stop_group(proc.pid)
        proc.wait()
    sys.exit(rc)


if __name__ == "__main__":
    main()
