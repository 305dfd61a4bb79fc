#!/usr/bin/env python3
"""Tests for tools/bench_diff.py over small fixture snapshots.

Each case writes a baseline and a new snapshot of BENCH_*.json files
into a temporary directory, runs bench_diff.py on them and checks its
exit status and report.

    python3 tools/bench_diff_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")

BASELINE = {
    "bench": "retrieval",
    "mode": "smoke",
    "gates": {"MF/bitwise": True, "MF/sq8_bitwise": True},
    "metrics": {
        "2000/ivf/probes=2/recall_at_10": 0.852,
        "2000/ivf/probes=8/recall_at_10": 0.952,
        "MF/factor_bytes": 9600,
    },
    "timings": {"2000/brute-force/qps": 1000.0},
    "rss": {"peak_rss_bytes": 9000000},
}


class BenchDiffTest(unittest.TestCase):

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.old_dir = os.path.join(self._tmp.name, "old")
        self.new_dir = os.path.join(self._tmp.name, "new")
        os.mkdir(self.old_dir)
        os.mkdir(self.new_dir)
        self.write(self.old_dir, BASELINE)
        self.new = copy.deepcopy(BASELINE)

    def tearDown(self):
        self._tmp.cleanup()

    @staticmethod
    def write(directory, report):
        path = os.path.join(directory, f"BENCH_{report['bench']}.json")
        with open(path, "w") as f:
            json.dump(report, f)

    def diff(self, *extra):
        """Writes self.new as the new snapshot; returns (exit, stdout)."""
        self.write(self.new_dir, self.new)
        run = subprocess.run(
            [sys.executable, BENCH_DIFF, self.old_dir, self.new_dir, *extra],
            capture_output=True, text=True)
        return run.returncode, run.stdout + run.stderr

    def test_identical_snapshots_pass(self):
        code, out = self.diff()
        self.assertEqual(code, 0, out)
        self.assertIn("no change above threshold", out)

    def test_flipped_gate_fails(self):
        self.new["gates"]["MF/sq8_bitwise"] = False
        code, out = self.diff()
        self.assertEqual(code, 1, out)
        self.assertIn("gate MF/sq8_bitwise: true -> false  [REGRESSION]", out)

    def test_dropped_gate_fails(self):
        del self.new["gates"]["MF/sq8_bitwise"]
        code, out = self.diff()
        self.assertEqual(code, 1, out)
        self.assertIn("gate MF/sq8_bitwise: true -> (absent)  [LOST]", out)

    def test_missing_artifact_fails(self):
        self.new["bench"] = "other"
        code, out = self.diff()
        self.assertEqual(code, 1, out)
        self.assertIn("retrieval: artifact missing in new snapshot", out)

    def test_metric_change_is_reported_and_passes(self):
        self.new["metrics"]["MF/factor_bytes"] = 9608
        code, out = self.diff()
        self.assertEqual(code, 0, out)
        self.assertIn("metrics MF/factor_bytes: 9600 -> 9608", out)

    def test_timing_drift_is_reported_only_past_threshold(self):
        self.new["timings"]["2000/brute-force/qps"] = 1040.0
        self.new["rss"]["peak_rss_bytes"] = 9100000
        code, out = self.diff("--threshold", "5")
        self.assertEqual(code, 0, out)
        self.assertNotIn("qps", out)
        self.assertNotIn("peak_rss_bytes", out)

        self.new["timings"]["2000/brute-force/qps"] = 1100.0
        self.new["rss"]["peak_rss_bytes"] = 9900000
        code, out = self.diff("--threshold", "5")
        self.assertEqual(code, 0, out)
        self.assertIn("timings 2000/brute-force/qps: 1000 -> 1100  (+10.0%)",
                      out)
        self.assertIn("rss peak_rss_bytes", out)

    def test_mode_mismatch_fails(self):
        self.new["mode"] = "full"
        code, out = self.diff()
        self.assertEqual(code, 1, out)
        self.assertIn("regenerate the baseline", out)

    def test_rows_differing_only_in_probes_have_distinct_keys(self):
        self.new["metrics"]["2000/ivf/probes=2/recall_at_10"] = 0.85
        self.new["metrics"]["2000/ivf/probes=8/recall_at_10"] = 0.95
        code, out = self.diff()
        self.assertEqual(code, 0, out)
        self.assertIn("metrics 2000/ivf/probes=2/recall_at_10: 0.852 -> 0.85",
                      out)
        self.assertIn("metrics 2000/ivf/probes=8/recall_at_10: 0.952 -> 0.95",
                      out)

    def test_old_schema_artifact_fails(self):
        self.write(self.old_dir, {"bench": "retrieval", "mode": "smoke",
                                  "pass": True})
        code, out = self.diff()
        self.assertEqual(code, 1, out)
        self.assertIn("not a bench report", out)


if __name__ == "__main__":
    unittest.main()
