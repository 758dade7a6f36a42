#!/usr/bin/env python3
"""Builds the verdict benchmark from this checkout and runs one workload.

    python3 verdictbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Workloads: cold-change, warm-change, fault-sweep (see README.md). The build
goes to .bench_build/verdictbench at the checkout root; its output goes to
stderr. The benchmark's stdout is passed through unchanged, so its last line
is the JSON result. With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<n>.json.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "verdictbench"
WORKLOADS = ("cold-change", "warm-change", "fault-sweep")
TARGETS = ("verdictbench", "verdictbench_selftest")


def non_negative_int(text):
    if not (text.isascii() and text.isdigit()) or len(text) > 20 or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"'{text}' is not a non-negative integer")
    return int(text)


def run_seconds(text):
    if not (text.isascii() and text.isdigit()) or not 1 <= int(text) <= 120:
        raise argparse.ArgumentTypeError(f"'{text}' is not an integer in 1..120")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Hoyan time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=run_seconds)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def build():
    """Configures (once) and builds the benchmark; exits nonzero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"verdictbench: no Hoyan sources at {ROOT / 'src'}; "
                 "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("verdictbench: build failed: " + " ".join(step))


def main(argv):
    args = parse_args(argv)
    build()
    command = [str(BUILD / "verdictbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
