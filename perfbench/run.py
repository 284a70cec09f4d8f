#!/usr/bin/env python3
"""Aegis benchmark: build the program from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline|fleet-steady|fleet-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # the benchmark's own tests

The first call configures and builds perfbench/ (which builds the library
from ../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to stderr.

The run's human-readable report (host fingerprint, every metric with its
unit and sample count, output checks) goes to stdout; the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics,
holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The exit code is non-zero when the build
fails, an output check fails or a metric is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_DIR = os.path.normpath(os.path.join(HERE, "..", "src"))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(target):
    if not os.path.isfile(os.path.join(SOURCE_DIR, "CMakeLists.txt")):
        fail("library sources not found at " + SOURCE_DIR)
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def load_spec():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([binary]).returncode)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (args.workload, names))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build("aegis_perfbench")
    span_dir = os.path.join(build_dir(), "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail("the benchmark printed no result (exit code %d)" % proc.returncode)

    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        value = None if got is None else got["value"]
        if value is None or not math.isfinite(value) or got["unit"] != m["unit"]:
            print("MISSING METRIC: %s" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
