#!/usr/bin/env python3
"""Run one workload of the PSA-flow benchmark and print its result.

    python3 perfbench/run.py --workload flow_cold|flow_warm|serve_mixed \
        --seed N --seconds S --trace 0|1 [--refs DIR]

Run from the repository root.  The script builds perfbench/pb.exe and
bin/psaflowd.exe from source into .bench_build/, runs the workload in a
fresh directory under .bench_tmp/ (removed afterwards), and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("flow_cold", "flow_warm", "serve_mixed")
BUILD_DIR = ".bench_build"
TMP_DIR = ".bench_tmp"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
SETUPS = 3  # set-ups per run; setup_s is their median

PB = os.path.join(BUILD_DIR, "default", "perfbench", "pb.exe")
DAEMON = os.path.join(BUILD_DIR, "default", "bin", "psaflowd.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def check_layout():
    needed = ["dune-project", "lib", "bin/psaflowd.ml", "BENCHMARK.json", "perfbench/dune",
              "perfbench/refs"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("not a repository checkout (missing %s); run from its root" % ", ".join(missing))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/pb.exe", "./bin/psaflowd.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def stop_group(proc):
    """Stop pb.exe and everything it started (its process group, which
    holds any daemon it forked), and wait until all of them have exited."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if proc.poll() is not None and not group_alive(proc.pid):
            return
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        end = time.monotonic() + 10
        while time.monotonic() < end:
            if proc.poll() is not None and not group_alive(proc.pid):
                return
            time.sleep(0.05)
    proc.wait()


def run_pb(args, deadline):
    """Run pb.exe in its own process group; return its last stdout line."""
    proc = subprocess.Popen([PB] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: pb.exe %s" % " ".join(args))
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        fail("pb.exe exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("pb.exe printed no result")
    return lines[-1]


def on_signal(signum, _frame):
    # unwind through the finally blocks that stop processes and remove
    # the run's directories
    sys.exit(128 + signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--refs", default="perfbench/refs",
                    help="directory of reference reports (default perfbench/refs)")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    check_layout()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(TMP_DIR, "%s-%d" % (a.workload, os.getpid()))
    common = ["--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace,
              "--catalogue", "BENCHMARK.json", "--refs", a.refs]
    setups = 1 if a.trace == "1" else SETUPS
    try:
        if a.workload == "serve_mixed":
            line = run_pb(["serve"] + common + ["--work", work, "--daemon", DAEMON,
                                                "--setups", str(setups)], deadline)
        else:
            flow = ["flow", "--workload", a.workload] + common
            earlier = []
            for k in range(setups - 1):
                ts = repr(time.time())
                res = run_pb(flow + ["--work", "%s-s%d" % (work, k), "--spawn-ts", ts,
                                     "--setup-only"], deadline)
                earlier.append(json.loads(res)["setup_s"])
            ts = repr(time.time())
            line = run_pb(flow + ["--work", work, "--spawn-ts", ts,
                                  "--earlier", ",".join(repr(x) for x in earlier)], deadline)
        result = json.loads(line)
    finally:
        for d in [work] + ["%s-s%d" % (work, k) for k in range(SETUPS)]:
            shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
