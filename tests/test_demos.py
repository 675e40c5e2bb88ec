"""Every script in demos/ runs to completion against the package in src/."""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    """Exit 0, and leave no directory behind in the demo's temp dir."""
    before = set(tmp_path.iterdir())
    proc = run_python(str(demo), cwd=tmp_path, TMPDIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [p for p in tmp_path.iterdir() if p.is_dir() and p not in before] == []
