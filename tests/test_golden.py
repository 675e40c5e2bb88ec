"""Byte-for-byte regression: three CLI runs against committed golden outputs.

The files under data/golden/ are the outputs of the commands below.  The
runs set no BLAS thread variable: at these sizes the bytes agreed at one
thread, two threads and the library default.  A deliberate change of
output means regenerating them with the same commands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffdist

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RUNS = {
    "sweep_s2.csv": ["sweep", "--q", "7,13,31", "--s", "2", "--sizes", "20x30,45x40",
                     "--trials", "2", "--seed", "5", "--out", "sweep_s2.csv"],
    "sweep_s3.csv": ["sweep", "--q", "5,7,13", "--s", "3", "--sizes", "20x30,120x100",
                     "--trials", "2", "--seed", "5", "--out", "sweep_s3.csv"],
    "verify_q31_s3.json": ["verify", "--q", "31", "--s", "3", "--sizeE", "2000",
                           "--sizeF", "2010", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_golden_bytes(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ffdist.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "ffdist", *RUNS[name]],
                          capture_output=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    produced = tmp_path / name
    got = produced.read_bytes() if produced.exists() else proc.stdout
    assert got == (GOLDEN / name).read_bytes()
