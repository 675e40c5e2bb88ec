"""Byte-for-byte regression: five CLI runs against committed golden outputs.

The files under data/golden/ are the outputs of the commands below.  The
runs set no BLAS thread variable: at these sizes the bytes agreed at one
thread, two threads and the library default.  A deliberate change of
output means regenerating them with the same commands:

    PYTHONPATH=src python tests/test_golden.py

rewrites every file from RUNS.  Two of the runs are at pocketfft q (131 and
157), where set_spectra splits one complex transform into both spectra, so
their bytes pin that split.  A second test checks that a sweep gives the
same bytes at one and two BLAS threads, in seven cases on both transform
backends.
"""

import tempfile
from pathlib import Path

import pytest

from conftest import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RUNS = {
    "sweep_s2.csv": ["sweep", "--q", "7,13,31", "--s", "2", "--sizes", "20x30,45x40",
                     "--trials", "2", "--seed", "5", "--out", "sweep_s2.csv"],
    "sweep_s3.csv": ["sweep", "--q", "5,7,13", "--s", "3", "--sizes", "20x30,120x100",
                     "--trials", "2", "--seed", "5", "--out", "sweep_s3.csv"],
    # q = 131 and 157 transform on pocketfft (spectral.dense_forward), where
    # distance.set_spectra splits one complex transform into both spectra.
    "sweep_pocketfft_s2.csv": ["sweep", "--q", "131,157", "--s", "2",
                               "--sizes", "200x300,2000x1500", "--trials", "2",
                               "--seed", "5", "--out", "sweep_pocketfft_s2.csv"],
    "sweep_pocketfft_s3.csv": ["sweep", "--q", "131", "--s", "3", "--sizes", "200x300",
                               "--trials", "2", "--seed", "5", "--lemma",
                               "cross_zero,distance_theorem,dyadic,nu_spectral,nu_zero,"
                               "offzero_moment,profile_mass,profile_product,"
                               "second_moment,sigma_bound",
                               "--out", "sweep_pocketfft_s3.csv"],
    "verify_q31_s3.json": ["verify", "--q", "31", "--s", "3", "--sizeE", "2000",
                           "--sizeF", "2010"],
}


def run_cli(args, cwd, **env_vars):
    proc = cli(*args, cwd=cwd, text=False, **env_vars)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def output(name, cwd):
    """The bytes that RUNS[name] writes, run in cwd: its output file, else its stdout."""
    proc = run_cli(RUNS[name], cwd)
    produced = Path(cwd) / name
    return produced.read_bytes() if produced.exists() else proc.stdout


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_golden_bytes(name, tmp_path):
    assert output(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("q,s,lemma,sizes", (
    pytest.param(131, 2, "cross_zero,sigma_bound", "200x300", id="131"),
    pytest.param(151, 2, "cross_zero,sigma_bound", "200x300", id="151"),
    pytest.param(257, 2, "cross_zero,sigma_bound", "200x300", id="257"),
    pytest.param(151, 3, "cross_zero,sigma_bound", "200x300", id="151-s3"),
    pytest.param(31, 3, "sphere_bounds", "20x30", id="sphere-31-s3"),
    pytest.param(151, 2, "sphere_bounds", "20x30", id="sphere-151"),
    pytest.param(157, 2, "sphere_bounds", "20x30", id="sphere-157")))
def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path, q, s, lemma, sizes):
    # q = 151 is the largest q on the dense BLAS passes (spectral.DENSE_MAX_Q)
    # and q = 131 and 257 transform on pocketfft; at one and two threads dense
    # passes gave different sigma_bound bytes at q = 131, and different
    # cross_zero and sigma_bound bytes at q = 257.  At
    # 151^3 these sets leave most last-axis lines empty, so the later passes
    # run as batched matmuls over padded groups of occupied lines; one of
    # them groups 132 lines, a contraction length that BLAS blocks by thread
    # count unless the pass pads it to q.  sphere_bounds takes its sum over t
    # as one zgemm per first-axis value at q = 31 and 151 and as pocketfft's
    # fft at q = 157.
    outputs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        run_cli(["sweep", "--q", str(q), "--s", str(s), "--sizes", sizes, "--trials", "2",
                 "--seed", "5", "--lemma", lemma, "--out", "sweep.csv"],
                tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
        outputs.append((tmp_path / threads / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def regenerate():
    """Rewrite every golden file from its command in RUNS."""
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(output(name, tmp))
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    regenerate()
