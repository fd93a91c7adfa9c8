"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_honeycomb_spectrum():
    out = run_script("honeycomb_spectrum.py")
    assert "exact equilibria: origin and (1, 0, 0, 0, 0, 0, 0)" in out


def test_impurity_dichotomy():
    out = run_script("impurity_dichotomy.py", "--steps", 50)
    assert out.startswith("equilibria:\n")

