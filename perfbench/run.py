#!/usr/bin/env python3
"""Build and run the sysrle benchmark.

    python3 perfbench/run.py --workload serve_scan --seed 1 --seconds 20 --trace 0

Run from the root of a sysrle source tree.  The first run configures and
builds the library and the benchmark program (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later runs only rebuild what changed.  Build output
goes to standard error.  The program's output is checked against the metric
lists in BENCHMARK.json and then printed unchanged: its last line is the
result object.

Exit codes: the program's own (0 = result printed), 2 when the source tree,
the build or the result is unusable, 3 when the program overran its time.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
PROGRAM = os.path.join(BUILD, "sysrle_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "CMakeLists.txt")
    ):
        fail("no sysrle source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD] + generator
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("configure failed")
        jobs = str(max(1, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "sysrle_perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed")


def check_result(line, trace):
    """The result names exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != listed:
        missing = sorted(set(listed) - set(got))
        extra = sorted(set(got) - set(listed))
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s, or units differ"
             % (missing, extra))


def main():
    ap = argparse.ArgumentParser(description="sysrle benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["serve_scan", "serve_store", "batch_diff"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out-dir", OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark program overran %d s" % RUN_TIMEOUT_S, 3)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark program exited with code %d" % proc.returncode, proc.returncode or 2)
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
