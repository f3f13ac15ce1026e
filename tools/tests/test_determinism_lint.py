#!/usr/bin/env python3
"""Self-tests for tools/determinism_lint.py.

Run directly (`python3 tools/tests/test_determinism_lint.py`) or via the
`lint.determinism_selftest` ctest registered in tools/CMakeLists.txt.

Each lint rule is exercised against a committed fixture pair under
tools/tests/fixtures/: a *_positive.snippet that must produce exactly the
expected findings, and a *_waived.snippet (legitimate shapes plus
`// sgl-lint: allow(...)` waivers) that must lint clean. Fixtures use the
.snippet extension so the clang-format CI leg, which only formats
*.cpp/*.hpp, leaves their deliberate rule-breaking layout alone.
"""

import collections
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, TOOLS_DIR)

import determinism_lint as dl  # noqa: E402

FIXTURES = os.path.join(TOOLS_DIR, "tests", "fixtures")
LINT = os.path.join(TOOLS_DIR, "determinism_lint.py")


def lint_fixture(name, rel_path):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return dl.lint_text(fh.read(), rel_path)


def rule_counts(findings):
    return collections.Counter(rule for _, rule, _ in findings)


class StripCommentsAndStrings(unittest.TestCase):
    def test_preserves_line_structure(self):
        text = "a /* multi\nline */ b\n// tail\nc\n"
        stripped = dl.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertEqual(stripped.splitlines()[3], "c")
        self.assertNotIn("multi", stripped)
        self.assertNotIn("tail", stripped)

    def test_blanks_strings_and_chars(self):
        stripped = dl.strip_comments_and_strings(
            's = "std::rand()"; c = \'x\';')
        self.assertNotIn("rand", stripped)
        self.assertNotIn("x", stripped.replace("x = ", ""))

    def test_digit_separators_are_not_char_literals(self):
        stripped = dl.strip_comments_and_strings("int n = 1'000'000; f();")
        self.assertIn("f()", stripped)

    def test_escaped_quote_inside_string(self):
        stripped = dl.strip_comments_and_strings('s = "a\\"b"; g();')
        self.assertIn("g()", stripped)


class Waivers(unittest.TestCase):
    def test_single_and_multi_rule_waivers(self):
        text = ("x;\n"
                "// sgl-lint: allow(raw-threading, nondeterministic-rng) why\n"
                "y;  // sgl-lint: allow(reciprocal-multiply) reason\n")
        waivers = dl.waived_lines(text)
        self.assertEqual(waivers[2],
                         {"raw-threading", "nondeterministic-rng"})
        self.assertEqual(waivers[3], {"reciprocal-multiply"})
        self.assertNotIn(1, waivers)


class RuleFixtures(unittest.TestCase):
    def test_nondeterministic_rng_positive(self):
        findings = lint_fixture("nondeterministic_rng_positive.snippet",
                                "src/core/fixture.cpp")
        self.assertEqual(rule_counts(findings),
                         {"nondeterministic-rng": 4})

    def test_nondeterministic_rng_waived(self):
        self.assertEqual(lint_fixture("nondeterministic_rng_waived.snippet",
                                      "src/core/fixture.cpp"), [])

    def test_raw_threading_positive(self):
        findings = lint_fixture("raw_threading_positive.snippet",
                                "src/graph/fixture.cpp")
        self.assertEqual(rule_counts(findings), {"raw-threading": 3})

    def test_raw_threading_waived(self):
        self.assertEqual(lint_fixture("raw_threading_waived.snippet",
                                      "src/graph/fixture.cpp"), [])

    def test_raw_threading_exempt_in_parallel_impl(self):
        # The pool implementation itself owns the raw primitives.
        for exempt in ("src/common/parallel.cpp", "src/common/parallel.hpp"):
            self.assertEqual(
                lint_fixture("raw_threading_positive.snippet", exempt), [],
                exempt)

    def test_unordered_iteration_positive(self):
        findings = lint_fixture("unordered_iteration_positive.snippet",
                                "src/la/fixture.cpp")
        self.assertEqual(rule_counts(findings), {"unordered-iteration": 2})

    def test_unordered_iteration_waived(self):
        self.assertEqual(lint_fixture("unordered_iteration_waived.snippet",
                                      "src/la/fixture.cpp"), [])

    def test_unordered_iteration_scoped_to_numeric_modules(self):
        # graph/ uses unordered containers for topology bookkeeping; the
        # rule only bites in la / solver / spectral / eig.
        self.assertEqual(
            lint_fixture("unordered_iteration_positive.snippet",
                         "src/graph/fixture.cpp"), [])

    def test_shared_mutation_positive(self):
        findings = lint_fixture("shared_mutation_positive.snippet",
                                "src/spectral/fixture.cpp")
        self.assertEqual(rule_counts(findings),
                         {"shared-mutation-in-parallel": 2})

    def test_shared_mutation_waived(self):
        self.assertEqual(lint_fixture("shared_mutation_waived.snippet",
                                      "src/spectral/fixture.cpp"), [])

    def test_warm_start_accumulator_positive(self):
        # The warm-start bookkeeping shape (DESIGN.md §8): accumulators
        # folded inside a parallel body must be flagged like any captured
        # accumulator.
        findings = lint_fixture("warm_start_accumulator_positive.snippet",
                                "src/solver/fixture.cpp")
        self.assertEqual(rule_counts(findings),
                         {"shared-mutation-in-parallel": 2})

    def test_warm_start_accumulator_waived(self):
        # ... while a SERIAL accumulation loop and per-column writes to
        # disjoint slots lint clean.
        self.assertEqual(
            lint_fixture("warm_start_accumulator_waived.snippet",
                         "src/solver/fixture.cpp"), [])

    def test_solver_context_sources_in_scope_and_clean(self):
        # The real SolverContext sources sit in src/solver, so every
        # numeric-module rule applies to them; they must lint clean.
        repo_root = os.path.dirname(TOOLS_DIR)
        for rel in ("src/solver/solver_context.hpp",
                    "src/solver/solver_context.cpp"):
            with open(os.path.join(repo_root, rel), encoding="utf-8") as fh:
                self.assertEqual(dl.lint_text(fh.read(), rel), [], rel)

    def test_panel_accumulation_positive(self):
        # The supernodal dense-panel shapes (DESIGN.md §9) gone wrong: a
        # reciprocal pivot scale and a captured cross-panel accumulator
        # inside the level-parallel body.
        findings = lint_fixture("panel_accumulation_positive.snippet",
                                "src/solver/fixture.cpp")
        self.assertEqual(rule_counts(findings),
                         {"reciprocal-multiply": 1,
                          "shared-mutation-in-parallel": 1})

    def test_panel_accumulation_waived(self):
        # ... while the dividing pivot scale and element-wise panel
        # updates the kernels actually use lint clean.
        self.assertEqual(
            lint_fixture("panel_accumulation_waived.snippet",
                         "src/solver/fixture.cpp"), [])

    def test_panel_and_hnsw_sources_in_scope_and_clean(self):
        # The PR-9 hot-path sources (panel factorization kernels, the
        # generation-batched HNSW build, and the SIMD helpers) must lint
        # clean under every rule that applies to their module.
        repo_root = os.path.dirname(TOOLS_DIR)
        for rel in ("src/solver/cholesky.hpp",
                    "src/solver/cholesky.cpp",
                    "src/knn/hnsw.hpp",
                    "src/knn/hnsw.cpp",
                    "src/common/simd.hpp"):
            with open(os.path.join(repo_root, rel), encoding="utf-8") as fh:
                self.assertEqual(dl.lint_text(fh.read(), rel), [], rel)

    def test_reciprocal_multiply_positive(self):
        findings = lint_fixture("reciprocal_multiply_positive.snippet",
                                "src/solver/fixture.cpp")
        self.assertEqual(rule_counts(findings), {"reciprocal-multiply": 2})

    def test_reciprocal_multiply_waived(self):
        self.assertEqual(lint_fixture("reciprocal_multiply_waived.snippet",
                                      "src/solver/fixture.cpp"), [])

    def test_reciprocal_multiply_scoped_to_solver_and_la(self):
        self.assertEqual(
            lint_fixture("reciprocal_multiply_positive.snippet",
                         "src/graph/fixture.cpp"), [])

    def test_findings_carry_line_numbers(self):
        findings = lint_fixture("reciprocal_multiply_positive.snippet",
                                "src/solver/fixture.cpp")
        lines = [line for line, _, _ in findings]
        self.assertEqual(lines, sorted(lines))
        self.assertTrue(all(line > 0 for line in lines))


class BaselineRoundTrip(unittest.TestCase):
    def test_write_then_load(self):
        counts = collections.Counter({
            ("src/solver/a.cpp", "reciprocal-multiply"): 2,
            ("src/la/b.hpp", "unordered-iteration"): 1,
        })
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline.txt")
            dl.write_baseline(path, counts)
            self.assertEqual(dl.load_baseline(path), counts)

    def test_missing_baseline_is_empty(self):
        self.assertEqual(
            dl.load_baseline("/nonexistent/baseline.txt"),
            collections.Counter())


class CommandLineGate(unittest.TestCase):
    """End-to-end: the gate fails on new findings, --update accepts them,
    and the gate passes afterwards."""

    def run_lint(self, cwd, *args):
        return subprocess.run(
            [sys.executable, LINT, "--baseline", "baseline.txt", "src",
             *args],
            cwd=cwd, capture_output=True, text=True, check=False)

    def test_gate_update_cycle(self):
        with tempfile.TemporaryDirectory() as tmp:
            solver_dir = os.path.join(tmp, "src", "solver")
            os.makedirs(solver_dir)
            bad = os.path.join(solver_dir, "sweep.cpp")
            with open(bad, "w", encoding="utf-8") as fh:
                fh.write("void f(double* x, double d, int n) {\n"
                         "  for (int i = 0; i < n; ++i) x[i] *= 1.0 / d;\n"
                         "}\n")

            gate = self.run_lint(tmp)
            self.assertEqual(gate.returncode, 1, gate.stdout)
            self.assertIn("reciprocal-multiply", gate.stdout)
            self.assertIn("src/solver/sweep.cpp:2", gate.stdout)

            update = self.run_lint(tmp, "--update")
            self.assertEqual(update.returncode, 0, update.stdout)

            gate = self.run_lint(tmp)
            self.assertEqual(gate.returncode, 0, gate.stdout)
            self.assertIn("PASS", gate.stdout)

            # Fixing the finding keeps the gate green and reports the
            # ratchet opportunity.
            with open(bad, "w", encoding="utf-8") as fh:
                fh.write("void f(double* x, double d, int n) {\n"
                         "  for (int i = 0; i < n; ++i) x[i] /= d;\n"
                         "}\n")
            gate = self.run_lint(tmp)
            self.assertEqual(gate.returncode, 0, gate.stdout)
            self.assertIn("improved", gate.stdout)


if __name__ == "__main__":
    unittest.main()
