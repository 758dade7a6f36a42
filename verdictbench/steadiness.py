#!/usr/bin/env python3
"""Runs each workload N times and reports the spread of every end-to-end metric.

    python3 verdictbench/steadiness.py --runs 10 [--workload NAME ...]

Every run measures BENCHMARK.json's run_seconds, and run i of a set (from 1)
uses seed i. For every (workload, metric) it prints the median, the first and
third quartiles (statistics.quantiles with n=4), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. A spread
under a third of the bound reads "steady", under the bound "within", else
"WIDE".

Exits nonzero on bad arguments, a failed run, a run that reported
correct=false, or a WIDE spread.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def positive_int(minimum):
    def parse(text):
        if not (text.isascii() and text.isdigit()) or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"'{text}' is not an integer >= {minimum}")
        return int(text)
    return parse


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steadiness: {workload} seed {seed} reported correct=false "
                 f"({result['failed']} of {result['attempted']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", required=True, type=positive_int(4))
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)
    seconds = config["run_seconds"]

    wide = False
    for workload in args.workload or workloads:
        runs = [run_once(workload, seed, seconds) for seed in range(1, args.runs + 1)]
        print(f"\n{workload}: {args.runs} runs, {seconds} s each")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, q1, q3, share = spread([run[name] for run in runs])
            verdict = ("steady" if share < bound / 3 else
                       "within" if share <= bound else "WIDE")
            wide = wide or verdict == "WIDE"
            print(f"  {name:<16} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{share:>7.3f} {bound:>6}  {verdict}")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
