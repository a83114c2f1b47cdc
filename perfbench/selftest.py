#!/usr/bin/env python3
"""Smoke-size self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root (it builds through run.py like a timed run).
Checks, on tiny inputs, for every workload BENCHMARK.json names plus
scale_boot (run by hand, see README.md):
  * every metric BENCHMARK.json names prints with its unit, untraced
    (end_to_end) and traced (per_layer), and fail_share is 0;
  * the outcome digest is identical at 1 worker and at nproc workers;
  * the traced counts repeat exactly across two traced runs;
  * worker counts above nproc are refused.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
EXACT_UNITS = {"count", "bytes"}
TIMING_DEPENDENT = {"harness.pool_steals"}


def run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, lines, result


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def digest(lines):
    return next(l.split()[-1] for l in lines if l.startswith("perfbench digest"))


def main():
    nproc = len(os.sched_getaffinity(0))  # the CPUs the driver may use
    for w in [x["name"] for x in SPEC["workloads"]] + ["scale_boot"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, _, r = run(w, trace)
            check(code == 0 and r is not None and r["correct"] and r["failed"] == 0,
                  "%s trace=%d runs clean" % (w, trace))
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, "%s trace=%d prints every %s metric with its unit"
                  % (w, trace, key))
            if trace:
                check(r["metrics"]["fail_share"]["value"] == 0,
                      "%s fail_share is 0" % w)
        _, one, _ = run(w, 0, "--workers", "1")
        _, all_, _ = run(w, 0, "--workers", str(nproc))
        check(digest(one) == digest(all_),
              "%s digest identical at 1 and %d workers" % (w, nproc))
        a = run(w, 1)[2]["metrics"]
        b = run(w, 1)[2]["metrics"]
        exact = [k for k, v in a.items()
                 if v["unit"] in EXACT_UNITS and k not in TIMING_DEPENDENT]
        check(all(a[k]["value"] == b[k]["value"] for k in exact),
              "%s traced counts repeat exactly (%d metrics)" % (w, len(exact)))
    code, _, r = run("tune_sweep", 0, "--workers", str(nproc + 1))
    check(code != 0 and r is None, "workers above nproc are refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
