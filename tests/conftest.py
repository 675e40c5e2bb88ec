import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffdist
from ffdist import make_field, make_point_set

PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.fixture(scope="session")
def contexts():
    """One FieldContext per small prime, shared across the whole run."""
    return {q: make_field(q) for q in PRIMES_TO_31 + (101,)}


def random_set(q, s, size, seed):
    """Uniform duplicate-free set; plain helper for tests."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(q ** s, size=size, replace=False)
    pts = np.stack(np.unravel_index(flat, (q,) * s), axis=1)
    return make_point_set(q, s, pts)


def run_python(*args, cwd=None, text=True, **env_vars):
    """Run `python *args` in a child that imports the ffdist these tests import.

    The package's own directory goes first on PYTHONPATH, so the child
    finds it from an uninstalled checkout and from any cwd; env_vars are
    added to the child's environment.  PYTHONWARNINGS=error holds the child
    to the warning policy of pyproject.toml: every warning fails it.
    """
    path = [str(Path(ffdist.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONWARNINGS="error", **env_vars,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          cwd=cwd, env=env)


def cli(*args, **kwargs):
    """`python -m ffdist *args` through run_python."""
    return run_python("-m", "ffdist", *args, **kwargs)
