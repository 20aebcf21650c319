"""Smoke tests for the measurement scripts under tools/."""

import os
import subprocess
import sys

from solgeom import verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_suite_ab_prints_every_row():
    out = subprocess.run(
        [sys.executable, "tools/suite_ab.py", "--parent", ".", "--change",
         ".", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    labels = [line[:18].rstrip() for line in out.stdout.splitlines()[2:]]
    assert sorted(labels) == sorted(list(verify.SUITES)
                                    + ["slowest op", "round total"])
