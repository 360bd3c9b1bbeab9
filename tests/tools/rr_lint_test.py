"""Unit tests for tools/rr_lint.py.

Each rule is proven twice: a *_bad fixture that must fire (the rule finds
the violation) and an *_allowed/_good fixture that must stay clean (the
rule respects pairing and `// rr-lint: allow(...)` suppressions). Run via
ctest (`rr_lint_selftest`) or directly:

    python3 tests/tools/rr_lint_test.py
"""

import json
import os
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LINT = os.path.join(REPO, "tools", "rr_lint.py")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

sys.path.insert(0, os.path.join(REPO, "tools"))
import rr_lint  # noqa: E402


def run_on(fixture, rules):
    path = os.path.join(FIXTURES, fixture)
    return rr_lint.lint_file(path, [rules] if isinstance(rules, str) else rules)


class RawMutexTest(unittest.TestCase):
    def test_fires_on_every_std_primitive(self):
        findings = run_on("raw_mutex_bad.cc", "raw-mutex")
        lines = sorted(f.line for f in findings)
        # mutex, condition_variable members; lock_guard and unique_lock uses.
        self.assertEqual(len(findings), 4, findings)
        self.assertTrue(all(f.rule == "raw-mutex" for f in findings))
        self.assertIn(5, lines)   # std::mutex member
        self.assertIn(6, lines)   # std::condition_variable member

    def test_comments_and_strings_do_not_fire(self):
        findings = run_on("raw_mutex_bad.cc", "raw-mutex")
        # Lines 17-18 hold the commented-out mutex and the string literal.
        self.assertTrue(all(f.line < 17 for f in findings), findings)

    def test_suppression(self):
        self.assertEqual(run_on("raw_mutex_allowed.cc", "raw-mutex"), [])

    def test_wrapper_header_is_exempt(self):
        path = os.path.join(REPO, "src", "common", "mutex.h")
        self.assertEqual(rr_lint.lint_file(path, ["raw-mutex"]), [])


class HardwareConcurrencyTest(unittest.TestCase):
    def test_fires_on_calls(self):
        findings = run_on("hardware_concurrency_bad.cc", "hardware-concurrency")
        self.assertEqual(sorted(f.line for f in findings), [6, 10], findings)
        self.assertTrue(all(f.rule == "hardware-concurrency" for f in findings))

    def test_suppression_and_bare_names_are_clean(self):
        self.assertEqual(
            run_on("hardware_concurrency_allowed.cc", "hardware-concurrency"),
            [])

    def test_the_helper_is_exempt(self):
        path = os.path.join(REPO, "src", "osal", "cpus.cc")
        self.assertEqual(
            rr_lint.lint_file(path, ["hardware-concurrency"]), [])


class ReactorBlockingTest(unittest.TestCase):
    def test_fires_through_the_call_graph(self):
        findings = run_on("reactor_blocking_bad.cc", "reactor-blocking")
        self.assertEqual(len(findings), 1, findings)
        self.assertEqual(findings[0].rule, "reactor-blocking")
        self.assertEqual(findings[0].line, 10)  # cv.wait inside Helper

    def test_unreachable_blocking_is_clean(self):
        findings = run_on("reactor_blocking_bad.cc", "reactor-blocking")
        # BackgroundWorker's wait (line 22) is not reachable from OnEvent.
        self.assertTrue(all(f.line != 22 for f in findings), findings)

    def test_suppression(self):
        self.assertEqual(
            run_on("reactor_blocking_allowed.cc", "reactor-blocking"), [])

    def test_no_entry_points_means_no_findings(self):
        # A file full of blocking calls but no reactor-thread mark is clean.
        self.assertEqual(run_on("raw_mutex_bad.cc", "reactor-blocking"), [])


class LeaseMemberTest(unittest.TestCase):
    def test_fires_on_members_not_locals(self):
        findings = run_on("lease_member_bad.cc", "lease-member")
        lines = sorted(f.line for f in findings)
        self.assertEqual(lines, [15, 16], findings)

    def test_suppression(self):
        self.assertEqual(run_on("lease_member_allowed.cc", "lease-member"), [])


class RegionGuardTest(unittest.TestCase):
    def test_fires_without_guard(self):
        findings = run_on("region_guard_bad.cc", "region-guard")
        self.assertEqual(len(findings), 1, findings)
        self.assertEqual(findings[0].line, 7)

    def test_guarded_and_suppressed_are_clean(self):
        self.assertEqual(run_on("region_guard_good.cc", "region-guard"), [])


class MetricDocTest(unittest.TestCase):
    # The fixtures' nearest README is fixtures/metric_doc/README.md.
    def test_fires_on_undocumented_series(self):
        findings = run_on(os.path.join("metric_doc", "metric_doc_bad.cc"),
                          "metric-doc")
        # Line 7 is missing outright; line 9 is a label list glued onto a
        # name. Line 8 names a series only inside a comment.
        self.assertEqual(sorted(f.line for f in findings), [7, 9], findings)
        self.assertIn("rr_fixture_dropped_total", findings[0].message)

    def test_documented_shorthand_and_suppressed_are_clean(self):
        self.assertEqual(
            run_on(os.path.join("metric_doc", "metric_doc_good.cc"),
                   "metric-doc"), [])

    def test_readme_tokens_expand_shorthand_and_drop_label_lists(self):
        self.assertEqual(rr_lint.expand_series("rr_a_{x,y}_total"),
                         ["rr_a_x_total", "rr_a_y_total"])
        self.assertEqual(rr_lint.expand_series("rr_b_total{mode,direction}"),
                         ["rr_b_total"])
        self.assertEqual(rr_lint.expand_series("rr_c_{x,y}_total{code}"),
                         ["rr_c_x_total", "rr_c_y_total"])


class CliTest(unittest.TestCase):
    def cli(self, *args):
        return subprocess.run(
            [sys.executable, LINT, *args],
            capture_output=True, text=True)

    def test_exit_codes(self):
        bad = self.cli(os.path.join(FIXTURES, "raw_mutex_bad.cc"))
        self.assertEqual(bad.returncode, 1)
        clean = self.cli(os.path.join(FIXTURES, "raw_mutex_allowed.cc"))
        self.assertEqual(clean.returncode, 0)
        usage = self.cli("--rules", "no-such-rule", FIXTURES)
        self.assertEqual(usage.returncode, 2)

    def test_json_output(self):
        result = self.cli("--json", os.path.join(FIXTURES, "raw_mutex_bad.cc"))
        findings = json.loads(result.stdout)
        self.assertTrue(findings)
        self.assertEqual(
            {"rule", "path", "line", "message"}, set(findings[0].keys()))

    def test_rule_subset(self):
        result = self.cli("--rules", "region-guard",
                          os.path.join(FIXTURES, "raw_mutex_bad.cc"))
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_repo_is_clean(self):
        result = self.cli(os.path.join(REPO, "src"))
        self.assertEqual(result.returncode, 0,
                         "rr-lint must stay green on src/:\n" + result.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
