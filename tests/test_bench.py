"""Smoke test of the benchmark under ``bench/``."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_passes():
    """Every workload runs at its smallest size and passes the benchmark's
    own correctness checks, and a wrong exact trace is caught."""
    done = subprocess.run(
        [sys.executable, "selftest.py"],
        cwd=BENCH,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
