"""Smoke test: every demo script under ``scripts/`` runs to exit 0 on a
coarse grid and a short horizon."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_demo_script_runs(tmp_path, script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # the working directory takes any file a script writes (lambda_sweep.csv)
    run = subprocess.run([sys.executable, str(script), "--h", "0.125", "--T", "0.05"],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
