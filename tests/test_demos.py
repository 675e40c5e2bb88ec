"""Every script in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    """Exit 0, and leave no directory behind in the demo's temp dir."""
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    before = set(tmp_path.iterdir())
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert [p for p in tmp_path.iterdir() if p.is_dir() and p not in before] == []
