#!/usr/bin/env python3
"""Self-tests for tools/bench_compare.py.

Run directly (`python3 tools/tests/test_bench_compare.py`) or via the
`lint.bench_compare_selftest` ctest registered in tools/CMakeLists.txt.

Each case writes two small Google-Benchmark JSON artifacts to a
temporary directory, runs the script on them as CI does, and checks the
exit status and the report: a baseline from another build type or
another core count is refused under --strict and only warned about
otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(TOOLS_DIR, "bench_compare.py")


def artifact(times, num_cpus=4, build_type="release"):
    """A benchmark JSON document with one iteration row per name."""
    context = {"library_build_type": build_type}
    if num_cpus is not None:
        context["num_cpus"] = num_cpus
    return {
        "context": context,
        "benchmarks": [
            {"name": name, "run_type": "iteration", "real_time": t,
             "cpu_time": t, "time_unit": "ms"}
            for name, t in times.items()
        ],
    }


class BenchCompare(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def run_compare(self, base, curr, *flags):
        paths = []
        for name, doc in (("base.json", base), ("curr.json", curr)):
            path = os.path.join(self._tmp.name, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, COMPARE, *paths, *flags],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def test_matching_hosts_pass_strict(self):
        code, out = self.run_compare(artifact({"BM_A": 10.0}),
                                     artifact({"BM_A": 10.5}), "--strict")
        self.assertEqual(code, 0, out)
        self.assertIn("0 regression(s)", out)
        self.assertNotIn("mismatch", out)

    def test_regression_fails_strict(self):
        code, out = self.run_compare(artifact({"BM_A": 10.0}),
                                     artifact({"BM_A": 20.0}), "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("1 regression(s)", out)

    def test_core_count_mismatch_fails_strict(self):
        code, out = self.run_compare(artifact({"BM_A": 10.0}, num_cpus=1),
                                     artifact({"BM_A": 10.0}, num_cpus=4),
                                     "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("num_cpus mismatch", out)
        self.assertIn("FAIL (strict): num_cpus mismatch", out)

    def test_core_count_mismatch_warns_without_strict(self):
        code, out = self.run_compare(artifact({"BM_A": 10.0}, num_cpus=1),
                                     artifact({"BM_A": 10.0}, num_cpus=4))
        self.assertEqual(code, 0, out)
        self.assertIn("num_cpus mismatch", out)
        self.assertNotIn("FAIL", out)

    def test_core_count_absent_is_not_a_mismatch(self):
        code, out = self.run_compare(artifact({"BM_A": 10.0}, num_cpus=None),
                                     artifact({"BM_A": 10.0}, num_cpus=4),
                                     "--strict")
        self.assertEqual(code, 0, out)
        self.assertNotIn("mismatch", out)

    def test_build_type_mismatch_fails_strict(self):
        code, out = self.run_compare(
            artifact({"BM_A": 10.0}, build_type="debug"),
            artifact({"BM_A": 10.0}), "--strict")
        self.assertEqual(code, 1, out)
        self.assertIn("library_build_type mismatch", out)

    def test_filter_applies_before_the_gate(self):
        code, out = self.run_compare(
            artifact({"BM_A": 10.0, "BM_B": 10.0}),
            artifact({"BM_A": 10.0, "BM_B": 30.0}),
            "--strict", "--filter", "^BM_A")
        self.assertEqual(code, 0, out)
        self.assertIn("across 1 shared benchmark(s)", out)


if __name__ == "__main__":
    unittest.main()
