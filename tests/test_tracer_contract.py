"""The names and argument positions that perfbench/tracing.py reads.

The tracer wraps package functions by name (TARGETS, every CHECKERS
entry) and reads some of their arguments by position; a rename or a
reordered signature would silently drop spans from the benchmark.  This
test loads the tracer by path, runs one small traced cell, one
sphere_spectrum (no checker calls it: sphere_bounds reads every radius from
spectral.sphere_blocks) and one nu_spectral above DENSE_MAX_Q, and checks
that every name it wraps was called and that it puts every binding back.
"""

import importlib.util
import math
from pathlib import Path

from ffdist import distance, generators, spectral, sweep
from ffdist.checks import CHECKERS
from ffdist.field import make_field

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_called_and_unwrapped():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        sweep.run_verify(sweep.SweepConfig(q_list=[5], s_list=[3], size_pairs=[(20, 21)],
                                           trials=1, seed=0, checkers=sorted(CHECKERS)))
        spectral.sphere_spectrum(make_field(5), 3, 1)
        q = spectral.DENSE_MAX_Q + 6  # 157, on the pocketfft path
        ctx = make_field(q)
        E, F = (generators.generate(ctx, 2, generators.GeneratorSpec(
            "uniform_random", size=40, seed=seed)) for seed in (1, 2))
        distance.nu_spectral(ctx, E, F)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []

    called = {sp.name for sp in tracer.spans}
    wrapped = {f"{layer}.{name}" for layer, names in tracing.TARGETS.items() for name in names}
    wrapped |= {f"checks.{name}" for name in tracing.CHECKER_NAMES}
    assert wrapped - called == set()

    metrics = tracer.metrics([0])
    for key in ("spectral.norm_grid.misses", "spectral.dft_cache.misses",
                "spectral.dft_cache.entries"):
        assert math.isfinite(metrics[key]) and metrics[key] >= 0, key
    assert metrics["spectral.norm_grid.misses"] >= 1  # (157, 2) follows (5, 3) in a 1-entry cache
