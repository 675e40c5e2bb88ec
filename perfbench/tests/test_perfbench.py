"""Self-tests of the benchmark's own code, on tiny shapes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SMALL = {
    "nu_plane": workloads.NuWorkload("nu_plane", 31, 2, 60, ""),
    "nu_cube": workloads.NuWorkload("nu_cube", 7, 3, 40, ""),
    "verify_cell": workloads.VerifyCellWorkload("verify_cell", 5, 3, (20, 21), ""),
}

# Where each wrapped function must be called: its heavy workload.
HEAVY = {
    "field.make_field": "verify_cell",
    "generators.generate": "verify_cell",
    "spectral.forward_transform": "nu_plane",
    "spectral.sphere_spectrum": "verify_cell",
    "spectral.norm_grid": "nu_cube",
    "charsums.sphere_unit": "nu_plane",
    "charsums.gauss_data": "nu_plane",
    "distance.indicator_grid": "nu_cube",
    "distance.set_spectrum": "nu_plane",
    "distance.nu_spectral": "nu_plane",
    "distance.nu_brute": "verify_cell",
    "distance.spherical_profile": "verify_cell",
    "distance.cross_profile": "verify_cell",
    **{f"checks.{c}": "verify_cell" for c in workloads.VERIFY_CHECKERS},
    "sweep.validate_config": "verify_cell",
    "sweep.iter_sweep": "verify_cell",
}


def test_self_times_on_a_synthetic_nested_trace():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 3.0, 6.0, 0, 0),   # overlaps b: the union 1..6 is covered
        Span("d", 2.0, 3.0, 1, 0),
        Span("e", 9.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        Span("f", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    shares = tracing.op_self_shares(spans, {0: 13.0, 1: 2.0})
    assert shares[0] == pytest.approx(13.0 / 13.0)
    assert shares[1] == pytest.approx(0.5)


def test_layer_metrics_are_per_op_and_ratios_count_distinct_inputs():
    key = {"key": ("E", "F"), "pairs": 6}
    spans = [
        Span("distance.nu_brute", 0.0, 2.0, None, 0, dict(key)),
        Span("distance.nu_brute", 2.0, 3.0, None, 0, dict(key)),
        Span("distance.nu_brute", 5.0, 6.0, None, 1, dict(key)),
        Span("distance.nu_brute", 9.0, 9.5, None, None, dict(key)),  # not an op
    ]
    m = tracing.layer_metrics(spans, [0, 1])
    assert m["distance.nu_brute.calls"] == 1.5
    assert m["distance.nu_brute.self_s"] == pytest.approx(2.0)
    assert m["distance.nu_brute.pairs"] == 9.0
    # One distinct pair in op 0 (two calls) and one in op 1 (one call).
    assert m["distance.nu_brute.useful_ratio"] == pytest.approx(2 / 3)
    assert m["distance.set_spectrum.useful_ratio"] == 0.0
    assert m["spectral.forward_transform.gflops"] == 0.0


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_not_below_p50():
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, pytest.approx(100 * 20 / 30), 10)
    assert run.tail(times[:21]) == (11.0, pytest.approx(100 * 11 / 21), 10)
    assert run.tail(times[:20]) == (11.0, pytest.approx(100 * 11 / 20), 9)
    assert run.tail(times[:15]) == (8.0, pytest.approx(100 * 8 / 15), 7)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(100 * 2 / 3), 1)


def test_traced_runs_reach_every_layer_on_its_heavy_workload(tmp_path):
    layers = {}
    for name, wl in SMALL.items():
        res = run.run_workload(wl, 3, 0.05, True, tmp_path)
        assert res["correct"] and res["failed"] == 0, name
        assert list(res["metrics"]) == [n for n, _, _ in tracing.PER_LAYER]
        assert res["detail"]["self_share_max"] <= 1.0
        layers[name] = res["detail"]["layers_all"]
        assert tracing.installed_wrappers() == []
    wrapped = {f"{layer}.{f}" for layer, fs in tracing.TARGETS.items() for f in fs}
    wrapped |= {f"checks.{c}" for c in tracing.CHECKER_NAMES}
    # cross_zero raises at odd s; no workload calls it.
    assert set(HEAVY) == wrapped - {"checks.cross_zero"}
    missed = [fn for fn, wl in HEAVY.items() if not layers[wl][f"{fn}.calls"] > 0]
    assert missed == []
    # Calls bound through `from .x import y` are seen as children of the caller.
    assert layers["verify_cell"]["distance.nu_brute.calls"] == 2
    assert layers["verify_cell"]["spectral.sphere_spectrum.calls"] == 5


def test_cold_ops_run_on_emptied_caches(tmp_path, monkeypatch):
    from ffdist import spectral

    left = []

    def clear():
        cleared = real_clear()
        left.append(spectral._dft_matrices.cache_info().currsize
                    + spectral.norm_grid.cache_info().currsize)
        return cleared

    real_clear = workloads.clear_caches
    assert real_clear() == 2
    monkeypatch.setattr(workloads, "clear_caches", clear)
    res = run.run_workload(SMALL["nu_plane"], 3, 0.05, False, tmp_path)
    cold, warm = res["detail"]["cold_ops"], res["detail"]["timed_ops"]
    assert res["correct"] and cold >= 2 and warm >= 2 * (cold - 1)
    # The first op needs no clear: its process has not filled the caches.
    assert left == [0] * (cold - 1)


class _Watching:
    """A workload whose every op records which wrappers are bound."""

    def __init__(self, wl):
        self.wl, self.seen = wl, []
        self.name, self.shape, self.pairs_per_op = wl.name, wl.shape, wl.pairs_per_op

    def setup(self, seed, tmp_dir):
        return self.wl.setup(seed, tmp_dir)

    def op(self, state):
        self.seen.append(tracing.installed_wrappers())
        return self.wl.op(state)

    def keep(self, state, out):
        return self.wl.keep(state, out)

    def verify(self, state, kept):
        return self.wl.verify(state, kept)


def test_an_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed a wrapper")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    wl = _Watching(SMALL["verify_cell"])
    res = run.run_workload(wl, 3, 0.05, False, tmp_path)
    assert res["correct"]
    assert len(wl.seen) >= 2 and all(s == [] for s in wl.seen)


def test_an_op_that_raises_is_failed_and_the_run_goes_on(tmp_path):
    class Flaky(_Watching):
        def op(self, state):
            self.seen.append(None)
            if len(self.seen) == 2:
                raise RuntimeError("injected")
            return self.wl.op(state)

    res = run.run_workload(Flaky(SMALL["nu_plane"]), 3, 0.05, False, tmp_path)
    assert res["failed"] == 1 and not res["correct"]
    assert res["attempted"] >= 3


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
