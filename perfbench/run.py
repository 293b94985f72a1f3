#!/usr/bin/env python3
"""Builds and runs the end-to-end mining benchmark (see README.md).

    python3 perfbench/run.py --workload dseq-hier --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout. The first call configures and builds
perfbench/ (the dseq library plus the benchmark binary, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr. The binary's report
goes to stdout; its last line is the result object, whose metric names are
checked against BENCHMARK.json. Exits non-zero, without a result, when the
build fails; with the binary's result and exit code when a job failed or
produced wrong patterns.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    # Own process group, so a timeout also stops proc-backend workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if not lines:
        sys.exit(f"perfbench: no output (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit(f"perfbench: no result (exit code {proc.returncode})")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if result["correct"] and missing:
        sys.exit("perfbench: metric names differ from BENCHMARK.json: "
                 + ", ".join(sorted(missing)))
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
