"""Every demo runs standalone, and the classification demo prints the same
bytes on every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_five_demos():
    assert [p.name for p in DEMOS] == [
        "01_games.py", "02_membership.py", "03_classification.py",
        "04_weakening.py", "05_reduction_and_fixtures.py"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_classification_demo_output_is_stable():
    first = run_demo(ROOT / "demos" / "03_classification.py")
    second = run_demo(ROOT / "demos" / "03_classification.py")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
