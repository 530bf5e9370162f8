"""Smoke runs of the experiment script and README's Python examples, which
call the library directly."""

import os
import re
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


# Each fenced ``python`` block of README.md, in order, with the line its fence opens on.
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = [(README[: m.start()].count("\n") + 1, m.group(1))
                 for m in re.finditer(r"^```python\n(.*?)^```$", README, re.M | re.S)]


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("line,code", README_BLOCKS, ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(line, code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, f"README.md line {line}:\n{proc.stderr}"
