"""Smoke tests of the scripts under ``scripts/``: each runs as a user would
run it, in a fresh interpreter with ``PYTHONPATH=src``."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_shuffle_uniformity_prints_a_chi_square_line():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "shuffle_uniformity.py"), "--seeds", "2000"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert re.search(r"^chi-square = \d+\.\d+ on 23 df, p = [01]\.\d{4}$", result.stdout, re.M), \
        result.stdout
