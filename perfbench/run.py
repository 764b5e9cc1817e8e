#!/usr/bin/env python3
"""Builds the engine from source and runs one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <views_large|tail_adaptive|live_ingest>
                             --seed <n> --seconds <s> --trace <0|1>

perfbench/ is a CMake project of its own that compiles the engine libraries
from src/ and the harness (perfbench/harness/). This script configures and
builds it into .bench_build/perfbench (the first run builds, later runs only
check that the build is current), runs the harness and relays its report.
The last line of standard output is the harness's JSON result. When
BENCHMARK.json is present, the script checks that the result carries exactly
the metrics it names for the trace mode and withholds the result otherwise.

Exit codes: the harness's (0 ok, 1 output-check or durability failure, 2
refused build or set-up error), 3 for a failed build, missing sources or a
result that does not match BENCHMARK.json, 4 for a harness timeout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, "engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(3, "build timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["views_large", "tail_adaptive", "live_ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir,
                                            args.workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"harness exceeded {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    report, result_line = lines[:-1], lines[-1]
    sys.stdout.write("".join(line + "\n" for line in report))
    if proc.returncode not in (0, 1):
        sys.stdout.flush()
        fail(proc.returncode, f"harness exited with {proc.returncode}")
    try:
        result = json.loads(result_line)
    except ValueError:
        fail(3, "harness printed no JSON result")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        fail(3, f"result metrics differ from BENCHMARK.json: missing "
                f"{missing}, unexpected {extra}")
    print(result_line, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
