#!/usr/bin/env python3
"""Build and run the nbctune host-time benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
`perfbench` driver (and the library it links) in Release mode under
$CARGO_TARGET_DIR, default `.bench_build`; later calls reuse the build.

--trace 0 runs passes of the workload for S seconds and prints the
end-to-end metrics.  --trace 1 makes the same untraced run, then one traced
pass at the same seed, checks that both produced the same outcome digest,
and prints the per-layer metrics plus bench.trace_overhead_share.  The last
stdout line is always one JSON object {correct, attempted, failed,
metrics}.  The exit status is nonzero when any output check failed or the
build could not be made.

Extra options for the self-tests (README.md): --workers K, --smoke.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "release")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "--target", "perfbench",
             "-j", str(len(os.sched_getaffinity(0)))],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench")


def run_driver(binary, args):
    """Run the driver; returns (exit code, stdout lines, final JSON)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench: driver exited %d without a result" % p.returncode)
    return p.returncode, lines[:-1], json.loads(lines[-1])


def tagged(lines, tag):
    """Value after `perfbench <tag> ` in the driver's stdout, or None."""
    prefix = "perfbench %s " % tag
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    binary = build()
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--workers", str(a.workers)
              ] + (["--smoke"] if a.smoke else [])

    code, lines, result = run_driver(binary, common + ["--trace", "0"])
    if not a.trace:
        print("\n".join(lines))
        print(json.dumps(result))
        return 0 if code == 0 and result["correct"] else 1

    # Traced run: one pass with the trace session and the benchmark's spans
    # on, compared with the untraced run at the same seed.
    spans = os.path.join(build_dir(), "spans-%s-%d.jsonl" % (a.workload, a.seed))
    tcode, tlines, traced = run_driver(
        binary, common + ["--trace", "1", "--spans-out", spans])
    print("\n".join(lines + tlines))
    failed = result["failed"] + traced["failed"]
    untraced_digest = (tagged(lines, "digest") or "").split()[-1:]
    traced_digest = (tagged(tlines, "digest") or "").split()[-1:]
    if not untraced_digest or untraced_digest != traced_digest:
        sys.stderr.write("perfbench: FAIL traced digest %s != untraced %s\n"
                         % (traced_digest, untraced_digest))
        failed += 1
    wall = result["metrics"]["wall_s"]["value"]
    traced_wall = float(tagged(tlines, "traced_wall_s") or "nan")
    metrics = dict(traced["metrics"])
    metrics["bench.trace_overhead_share"] = {
        "value": traced_wall / wall - 1.0 if wall > 0 else 0.0,
        "unit": "fraction"}
    print(json.dumps({"correct": failed == 0 and code == 0 and tcode == 0,
                      "attempted": result["attempted"] + traced["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and code == 0 and tcode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
