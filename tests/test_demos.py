"""Every script in demos/ runs cleanly against the in-tree package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=ROOT, env=env
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_hilbert_fixed_points_labels_the_basis():
    proc = run_demo(ROOT / "demos" / "hilbert_fixed_points.py")
    assert proc.returncode == 0, proc.stderr
    line = "monomial basis of R_2: X_2^2 X_1*X_2 X_1^2 X_0*X_2 X_0*X_1 X_0^2"
    assert line in proc.stdout.splitlines()
