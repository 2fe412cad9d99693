"""Command-line contract of the benchmark (run from the repository root):

    python3 -m unittest discover -s perfbench/tests -v

Each runner invocation builds on first use and then takes about half a
minute, because every run makes at least three passes over its workload.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def fingerprint_lines(out):
    return [line for line in out.stdout.splitlines()
            if line.startswith(("run ", "fingerprint "))]


class BenchmarkCli(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        args = ("--workload", "paper-grid", "--seed", "42", "--seconds", "1")
        cls.plain = [run_bench(*args, "--trace", "0") for _ in range(2)]
        cls.traced = run_bench(*args, "--trace", "1")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_runs_succeed_and_pass_their_checks(self):
        for out in [*self.plain, self.traced]:
            self.assertEqual(out.returncode, 0, out.stderr)
            result = result_of(out)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)

    def test_metric_names_and_units(self):
        declared = self.spec["end_to_end"] + self.spec["per_layer"]
        for metric in declared:
            self.assertRegex(metric["name"], NAME)
        for out, kind in [(self.plain[0], "end_to_end"), (self.traced, "per_layer")]:
            metrics = result_of(out)["metrics"]
            self.assertEqual(set(metrics), {m["name"] for m in self.spec[kind]})
            for metric in self.spec[kind]:
                self.assertEqual(metrics[metric["name"]]["unit"], metric["unit"])

    def test_back_to_back_runs_have_identical_fingerprints(self):
        first, second = (fingerprint_lines(out) for out in self.plain)
        self.assertTrue(first)
        self.assertEqual([re.sub(r" step_s=\S+", "", l) for l in first],
                         [re.sub(r" step_s=\S+", "", l) for l in second])

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("--workload", "churn-1k", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
