"""Smoke run of the experiment script, which calls the library directly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script and small arguments: a line its output must contain
SCRIPTS = {
    ("null_model_check.py", "--draws", "400"): "|z| <= 3 is consistent with chance",
}


@pytest.mark.parametrize("argv", sorted(SCRIPTS))
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert SCRIPTS[argv] in proc.stdout
