"""Every script in demos/ runs cleanly against the in-tree package and
prints the bytes pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of every demo's stdout.  A change that alters a byte of it updates
# the digest here and says what changed and why in CHANGES.md.
STDOUT_SHA256 = {
    "cohomology_presentation.py": "c4380443767dfa297e3e9aa1e0824987791df4411c85d9ab23bc7deaef93e63a",
    "equivariant_localization.py": "7587e4746ef0b26faa87b669bd8679e6d770d25acd2d0976f06e5178da0eddf6",
    "grassmannian_poincare.py": "c9326d9b846a24e7e3df0239a8f01cea447158a86aa17a4e05b1e317ba3586b3",
    "hilbert_betti.py": "df8b894f1d3f5183572acd50c1fcd6365e0b5f7100f7705d375b340c3e48dbf7",
    "hilbert_fixed_points.py": "4fa1a89719937354a1852fc7d7d5f17a773286e315d360e7db04dbf710525020",
    "regularity_obstructions.py": "22d138fa22b7542ad2482d4187160cd335a014c80e668d7f56de7385932d3132",
}


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
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == STDOUT_SHA256[demo.name]


def test_every_demo_pinned():
    assert set(STDOUT_SHA256) == {d.name for d in DEMOS}


def test_hilbert_fixed_points_labels_the_basis():
    proc = run_demo(ROOT / "demos" / "hilbert_fixed_points.py")
    assert proc.returncode == 0, proc.stderr
    line = "monomial basis of R_2: X_2^2 X_1*X_2 X_1^2 X_0*X_2 X_0*X_1 X_0^2"
    assert line in proc.stdout.splitlines()
