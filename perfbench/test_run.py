#!/usr/bin/env python3
"""Negative controls for the benchmark's correctness check.

Run from the repository root:

    python3 perfbench/test_run.py

Each test runs perfbench/run.py on the fault_campaign workload for a
fraction of a second against a doctored copy of references.json, and
checks that a wrong reference is counted as failed (ok_frac < 1, exit
code 1) while a correct one passes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out")
CASE = "campaign/update/0"


def run(refs, seed):
    """Run the benchmark against @p refs; return (exit code, result)."""
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "test-references.json")
    with open(path, "w") as f:
        json.dump(refs, f)
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "fault_campaign", "--seed", str(seed),
         "--seconds", "0.2", "--trace", "0", "--references", path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def references():
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)


class ReferenceCheck(unittest.TestCase):
    def test_correct_references_pass(self):
        code, res = run(references(), 0)
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_wrong_checksum_fails_on_any_seed(self):
        refs = references()
        refs["cases"][CASE]["checksum"] += 1e-9
        code, res = run(refs, 7)
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_wrong_cycles_fail_on_recorded_seed_only(self):
        refs = references()
        refs["cases"][CASE]["cycles"] += 1
        code, res = run(refs, refs["recorded_seed"])
        self.assertEqual(code, 1)
        self.assertGreater(res["failed"], 0)
        code, res = run(refs, refs["recorded_seed"] + 1)
        self.assertEqual(code, 0)
        self.assertEqual(res["failed"], 0)


if __name__ == "__main__":
    unittest.main()
