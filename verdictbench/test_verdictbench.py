#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 verdictbench/test_verdictbench.py

Builds the benchmark (as run.py does), runs its C++ self-test (verdict labels
on a small seed, the tail percentile rule, the base of every ratio), parses
the JSON escaper's output with Python's json module, checks that bad input
fails fast, and runs short untraced and traced runs whose result lines must
carry exactly the metrics BENCHMARK.json names.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_selftest(self):
        done = subprocess.run([str(run.BUILD / "verdictbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_escaped_names_round_trip(self):
        done = subprocess.run([str(run.BUILD / "verdictbench_selftest"), "--escapes"],
                              capture_output=True, text=True, check=True)
        names = json.loads(done.stdout)["names"]
        expected = ["plain", "line\nbreak", "tab\there", 'quote"and\\slash', "café",
                    "".join(chr(c) for c in range(0x20)), "nul\0inside"]
        self.assertEqual(names, expected)

    def test_bad_input_fails_fast(self):
        good = {"--workload": "cold-change", "--seed": "1", "--seconds": "1",
                "--trace": "0"}
        bad = [("--workload", "hot-change"), ("--seed", "12x"), ("--seed", "-1"),
               ("--seconds", "0"), ("--seconds", "ten"), ("--trace", "2")]
        for flag, value in bad:
            args = dict(good, **{flag: value})
            argv = [item for pair in args.items() for item in pair]
            for command in ([sys.executable, str(HERE / "run.py")],
                            [str(run.BUILD / "verdictbench")]):
                done = subprocess.run(command + argv, capture_output=True, text=True,
                                      timeout=60)
                self.assertNotEqual(done.returncode, 0, (command, flag, value))
                self.assertIn(flag.lstrip("-"), done.stderr, (command, flag, value))
                self.assertEqual(done.stdout, "", (command, flag, value))
        done = subprocess.run([sys.executable, str(HERE / "steadiness.py"), "--runs", "x"],
                              capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("--runs", done.stderr)

    def test_without_sources_exits_nonzero(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "verdictbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(CONFIG["command"] + ["--workload", "cold-change", "--seed",
                                                   "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def check_result(self, workload, trace, listed):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_line(done.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for metric in listed:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        return result

    def test_untraced_result_line(self):
        result = self.check_result("fault-sweep", 0, CONFIG["end_to_end"])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_result_line(self):
        result = self.check_result("cold-change", 1, CONFIG["per_layer"])
        self.assertEqual(result["metrics"]["error_rate"]["value"], 0)
        self.assertGreater(result["metrics"]["dist.route_subtask_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
