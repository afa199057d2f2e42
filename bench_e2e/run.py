#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

  python3 bench_e2e/run.py --workload paper --seed 1 --seconds 20 --trace 0
  python3 bench_e2e/run.py --self-test

The first call configures and builds bench_e2e/ (Release, compiling src/)
into .bench_build/bench_e2e/; later calls rebuild only what changed. Build
output goes to stderr. The benchmark's report goes to stdout, and its last line
is the JSON result. See bench_e2e/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
WORKLOADS = ("paper", "wide", "wide-full")
# One run must finish inside the benchmark's 180-second limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(1)


def build_step(cmd):
    sys.stdout.flush()
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def build():
    """Configures once, rebuilds as needed, returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found beside bench_e2e/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        build_step(["cmake", "-S", HERE, "-B", BUILD_DIR])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_step(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                "-j", jobs])
    return os.path.join(BUILD_DIR, "bench_e2e")


def run_bench(binary, args, env=None):
    """Runs bench_e2e to completion; returns (exit code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def spans_path(workload, tag=""):
    return os.path.join(ROOT, ".bench_build",
                        "spans-%s%s.jsonl" % (tag, workload))


def parse_result(out):
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test(binary):
    """Reduced-size checks that the benchmark measures and judges."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    # Printed in the report but not in the JSON result (see README.md).
    nine = e2e | {"initial_ms_p50", "initial_ms_p99", "feedback_ms_p99",
                  "failed_frac"}
    problems = []

    def small(workload, *extra, env=None):
        args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--small"] + list(extra)
        code, out = run_bench(binary, args, env)
        return code, out, parse_result(out)

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    recalls = []
    for workload in WORKLOADS:
        code, out, result = small(workload, "--trace", "0")
        expect(code == 0 and result is not None
               and result["correct"] and result["failed"] == 0,
               "%s timed: exit 0, correct, failed = 0" % workload)
        printed = {line.split()[1] for line in out.splitlines()
                   if line.startswith("e2e ")}
        expect(result is not None and set(result["metrics"]) == e2e
               and nine <= printed,
               "%s timed: all nine end-to-end metrics printed" % workload)
        if workload == "paper" and result is not None:
            recalls.append(result["metrics"]["recall_final"]["value"])

        path = spans_path(workload, "selftest-")
        code, out, result = small(workload, "--trace", "1", "--spans", path)
        expect(code == 0 and result is not None and result["correct"]
               and set(result["metrics"]) == layers,
               "%s traced: exit 0, correct, every per-layer metric"
               % workload)
        spans = []
        if os.path.isfile(path):
            with open(path) as f:
                spans = [json.loads(line) for line in f]
        expect(any(s["name"] == "engine.feedback" for s in spans),
               "%s traced: span file parses and holds feedback spans"
               % workload)

    code, out, result = small("paper", "--trace", "0")
    expect(result is not None and recalls
           and result["metrics"]["recall_final"]["value"] == recalls[0],
           "paper: recall_final identical across two runs at one seed")

    code, out, result = small("paper", "--trace", "0", "--fault")
    expect(code == 0 and result is not None and result["failed"] > 0
           and not result["correct"],
           "paper seeded fault: failed > 0 and correct = false")

    env = dict(os.environ, QCLUSTER_METRICS="stderr")
    code, out, result = small("paper", "--trace", "0", env=env)
    expect(code != 0 and result is None,
           "QCLUSTER_METRICS exported: bench_e2e refuses to time")

    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the end-to-end benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the reduced-size self-test and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if args.self_test:
        return self_test(binary)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace",
                  str(args.trace)]
    if args.trace:
        bench_args += ["--spans", spans_path(args.workload)]
    code, out = run_bench(binary, bench_args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
