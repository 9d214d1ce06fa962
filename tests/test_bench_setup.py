"""The benchmark builds its inputs from the library's public names (the
sources, block programs, measures and specs it times); a set-up probe of
each workload builds all of them without timing a pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["products", "analysis"])
def test_benchmark_workload_sets_up(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"] > 0
