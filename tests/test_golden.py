"""Byte-for-byte regression: three CLI runs against committed golden outputs.

The files under data/golden/ are the outputs of the commands below.  The
runs set no BLAS thread variable: at these sizes the bytes agreed at one
thread, two threads and the library default.  A deliberate change of
output means regenerating them with the same commands.  A fourth run
checks that a sweep above the dense-transform range gives the same bytes
at one and two BLAS threads.
"""

from pathlib import Path

import pytest

from conftest import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RUNS = {
    "sweep_s2.csv": ["sweep", "--q", "7,13,31", "--s", "2", "--sizes", "20x30,45x40",
                     "--trials", "2", "--seed", "5", "--out", "sweep_s2.csv"],
    "sweep_s3.csv": ["sweep", "--q", "5,7,13", "--s", "3", "--sizes", "20x30,120x100",
                     "--trials", "2", "--seed", "5", "--out", "sweep_s3.csv"],
    "verify_q31_s3.json": ["verify", "--q", "31", "--s", "3", "--sizeE", "2000",
                           "--sizeF", "2010", "--format", "json"],
}


def run_cli(args, cwd, **env_vars):
    proc = cli(*args, cwd=cwd, text=False, **env_vars)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_golden_bytes(name, tmp_path):
    proc = run_cli(RUNS[name], tmp_path)
    produced = tmp_path / name
    got = produced.read_bytes() if produced.exists() else proc.stdout
    assert got == (GOLDEN / name).read_bytes()


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # q = 257 transforms on pocketfft; the dense BLAS passes gave different
    # cross_zero and sigma_bound bytes at one and two threads here.
    args = ["sweep", "--q", "257", "--s", "2", "--sizes", "200x300", "--trials", "2",
            "--seed", "5", "--lemma", "cross_zero,sigma_bound", "--out", "sweep.csv"]
    outputs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        run_cli(args, tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
        outputs.append((tmp_path / threads / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
