#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload briefly through perfbench/run.py, untraced and
traced, and checks that:
- every metric BENCHMARK.json names is present, finite, and carries the
  unit BENCHMARK.json gives it, and no other metric is reported;
- the seed code produces correct results with no failed operation;
- flow_warm never interprets or misses the cache (interp.runs and
  cache.misses are 0);
- flow_cold's VM coverage is delta-correct: its traced run makes two
  passes, whose planned and total statement counts must be equal (the
  benchmark marks the run incorrect otherwise);
- a deliberately altered reference report makes failed_frac positive
  and the run incorrect, on a flow workload and on the served one;
- every metric and workload perfbench/predictions.json names is one
  BENCHMARK.json declares.
Exit status 0 when every check passes.
"""

import fnmatch
import json
import math
import os
import re
import shutil
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
ALTERED = os.path.join(".bench_tmp", "selftest-refs")

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, refs=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    if refs:
        cmd += ["--refs", refs]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        check(False, "%s --trace %d exits 0 with a result" % (workload, trace))
        return None, done.stderr
    return json.loads(lines[-1]), done.stderr


def metrics_ok(workload, trace, res):
    units = UNITS[trace]
    got = res["metrics"]
    check(set(got) == set(units), "%s --trace %d reports exactly the named metrics" % (workload, trace))
    bad = [k for k, v in got.items()
           if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"])
           or v.get("unit") != units.get(k)]
    check(not bad, "%s --trace %d values finite with units %s" % (workload, trace, bad or ""))
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          "%s --trace %d correct, %d attempted, %d failed"
          % (workload, trace, res["attempted"], res["failed"]))


def predictions_ok():
    preds = json.load(open("perfbench/predictions.json"))["predictions"]
    per_layer = [p for pred in preds for p in pred["metrics"]]
    moved = [mv["metric"] for pred in preds for mv in pred["moves"]]
    workloads = {w for pred in preds for mv in pred["moves"] for w in mv["workloads"]}
    check(set(per_layer) <= set(UNITS[1]), "predictions name only declared per-layer metrics")
    check(all(fnmatch.filter(UNITS[0], m) for m in moved),
          "predictions name only declared end-to-end metrics")
    check(workloads <= set(WORKLOADS), "predictions name only declared workloads")


def main():
    predictions_ok()
    for workload in WORKLOADS:
        for trace in (0, 1):
            res, err = run(workload, trace)
            if res is None:
                continue
            metrics_ok(workload, trace, res)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if workload == "flow_warm" and trace == 1:
                check(m["interp.runs"] == 0 and m["cache.misses"] == 0,
                      "flow_warm bypasses the interpreter and never misses")
            if workload == "flow_cold" and trace == 1:
                passes = re.search(r"vm coverage of (\d+) passes", err)
                check(passes is not None and int(passes.group(1)) >= 2,
                      "flow_cold traced run compares VM coverage across two passes")
                check(m["interp.vm_coverage"] > 0, "flow_cold VM coverage is positive")

    # an altered reference must be caught
    shutil.rmtree(ALTERED, ignore_errors=True)
    shutil.copytree("perfbench/refs", ALTERED)
    for name in ("kmeans.uninformed.eval.txt", "kmeans.informed.quick.txt"):
        with open(os.path.join(ALTERED, name), "a") as f:
            f.write("altered\n")
    try:
        for workload in ("flow_warm", "serve_mixed"):
            res, _ = run(workload, 1, refs=ALTERED)
            if res is not None:
                check(res["metrics"]["failed_frac"]["value"] > 0 and not res["correct"],
                      "%s with an altered reference: failed_frac %.3f, correct %s"
                      % (workload, res["metrics"]["failed_frac"]["value"], res["correct"]))
    finally:
        shutil.rmtree(ALTERED, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass

    print("selftest: %s" % ("all checks passed" if not failures else "%d failed" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
