#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library (../src) and the benchmark
binary with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; later calls reuse the build. Build output goes to stderr. The
benchmark's standard output is passed through; its last line is one JSON
object with "correct", "attempted", "failed" and "metrics". BENCHMARK.json is
the one list of metrics: a traced run's result line gets every per-layer
metric declared there, and one the workload does not exercise reads 0. The
exit code is the benchmark's: 0 when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog_zipf", "admission_deep", "live_sessions",
             "diurnal_adaptive")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found beside "
                 "perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode, in
    its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def complete_result_line(line, declared, fill):
    """Returns (result line, None) with the declared metrics in declared
    order, or (None, error) when the line is malformed or carries a metric
    BENCHMARK.json does not declare. With `fill`, a declared metric the line
    lacks is added as 0; otherwise it is an error."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, "result keys are " + ", ".join(sorted(result))
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if sorted(metric) != ["unit", "value"]:
            return None, "metric %s has keys %s" % (name, sorted(metric))
        if declared.get(name) != metric["unit"]:
            return None, "metric %s (%s) is not declared" % (name,
                                                             metric["unit"])
    missing = [name for name in declared if name not in metrics]
    if missing and not fill:
        return None, "missing metrics " + ", ".join(missing)
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit})
        for name, unit in declared.items()}
    return json.dumps(result), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the measurement helpers' tests")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([build("perfbench_test")]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    declared = declared_metrics(args.trace)
    binary = build("perfbench")
    span_dir = os.path.join(build_dir(), "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--span-dir", span_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result, error = (complete_result_line(lines[-1], declared,
                                          fill=args.trace == "1")
                     if lines else (None, "no output"))
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if error is not None:
        sys.exit("perfbench: malformed result: " + error)
    sys.stdout.write(result + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
