"""The shared per-cell Instance and the per-field reuse in sweeps.

The checkers of one (ctx, E, F) cell read their spectra, profiles and
nu from one Instance; these tests pin both halves of that contract: the
work is done once per cell, and every report is the same as a direct
checker call on fresh copies of the sets.
"""

import gc
import importlib
import pkgutil
import sys
import weakref

import pytest

import ffdist
from ffdist import checks, distance, spectral, sweep
from ffdist.checks import (
    CHECKERS,
    check_cross_zero,
    check_distance_theorem,
    check_dyadic,
    check_nu_spectral,
    check_nu_zero_bound,
    check_offzero_moment,
    check_profile_mass,
    check_profile_product,
    check_second_moment,
    check_sigma_bound,
    check_sphere_bounds,
    instance,
)
from ffdist.distance import PointSet
from ffdist.field import make_field
from ffdist.sweep import SweepConfig, run_verify
from conftest import random_set

# Each checker called on its own; with fresh copies of the sets, every
# call computes its own spectra, profiles and nu.
DIRECT = {
    "profile_mass": check_profile_mass,
    "nu_spectral": check_nu_spectral,
    "nu_zero": check_nu_zero_bound,
    "second_moment": check_second_moment,
    "cross_zero": check_cross_zero,
    "profile_product": check_profile_product,
    "sigma_bound": check_sigma_bound,
    "sphere_bounds": lambda ctx, E, F: check_sphere_bounds(ctx, E.s),
    "dyadic": check_dyadic,
    "distance_theorem": check_distance_theorem,
    "offzero_moment": check_offzero_moment,
}


def fresh(E):
    return PointSet(q=E.q, s=E.s, points=E.points.copy())


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestComputeOnce:
    def test_one_oracle_pass_and_one_transform_per_set(self, monkeypatch):
        brute = counting(monkeypatch, checks, "nu_brute")
        spectra = counting(monkeypatch, checks, "set_spectrum")
        # A transform taken behind the instance's back would show here.
        monkeypatch.setattr(distance, "set_spectrum", checks.set_spectrum)
        cfg = SweepConfig(q_list=[7], s_list=[3], size_pairs=[(20, 21)],
                          trials=1, seed=4, checkers=sorted(CHECKERS))
        rows = run_verify(cfg)
        assert len(rows) == 11
        assert all(r.report.explicit_pass is not False for r in rows)
        assert len(brute) == 1
        assert len(spectra) == 2

    def test_one_cross_bucketing_per_cell(self, monkeypatch):
        crosses = counting(monkeypatch, checks, "cross_profile")
        # nu_spectral bucketing its own cross profile would show here.
        monkeypatch.setattr(distance, "cross_profile", checks.cross_profile)
        cfg = SweepConfig(q_list=[7], s_list=[3], size_pairs=[(20, 21)],
                          trials=1, seed=4, checkers=sorted(CHECKERS))
        assert len(run_verify(cfg)) == 11
        assert len(crosses) == 1

    def test_nu_spectral_leaves_the_shared_profile_alone(self, contexts):
        ctx = contexts[13]
        inst = instance(ctx, random_set(13, 2, 40, 8), random_set(13, 2, 35, 9))
        before = inst.sig_ef.copy()
        inst.spectral
        assert before.tobytes() == inst.sig_ef.tobytes()

    def test_sweep_releases_the_last_cell(self, monkeypatch):
        made = []
        original = checks.set_spectrum

        def recorded(*args):
            spectrum = original(*args)
            made.extend([weakref.ref(spectrum), weakref.ref(spectrum.values)])
            return spectrum

        monkeypatch.setattr(checks, "set_spectrum", recorded)
        cfg = SweepConfig(q_list=[7], s_list=[2, 3], size_pairs=[(20, 21)],
                          trials=2, seed=4, checkers=sorted(CHECKERS))
        run_verify(cfg)
        gc.collect()
        assert len(made) == 16
        assert all(ref() is None for ref in made)

    def test_memo_is_keyed_on_object_identity(self, contexts):
        ctx = contexts[7]
        E, F = random_set(7, 2, 10, 1), random_set(7, 2, 12, 2)
        for other in ((make_field(7), E, F), (ctx, fresh(E), F), (ctx, E, fresh(F)),
                      (ctx, F, E)):
            inst = instance(ctx, E, F)
            assert instance(ctx, E, F) is inst
            assert instance(*other) is not inst

    def test_direct_call_builds_its_own_instance(self, contexts):
        ctx = contexts[13]
        E, F = random_set(13, 2, 20, 5), random_set(13, 2, 30, 6)
        instance(ctx, random_set(13, 2, 5, 7), F).brute  # an unrelated cell
        rep = check_nu_spectral(ctx, E, F)
        assert rep.explicit_pass and rep.lhs == 0.0
        assert instance(ctx, E, F).F is F


class TestSameReports:
    @pytest.mark.parametrize("q,s,ne,nf", [
        (13, 2, 30, 48),
        (13, 2, 60, 25),   # #E > #F: the swapping checkers swap
        (7, 3, 40, 30),
        (5, 3, 20, 21),
    ])
    def test_run_verify_matches_direct_calls(self, q, s, ne, nf):
        cfg = SweepConfig(q_list=[q], s_list=[s], size_pairs=[(ne, nf)],
                          trials=2, seed=17, checkers=sorted(CHECKERS))
        rows = run_verify(cfg)
        assert len(rows) == 2 * len(CHECKERS)
        ctx = make_field(q)
        for row in rows:
            E, F = sweep.cell_sets(ctx, s, (ne, nf), cfg.seed, row.trial)
            direct = DIRECT[row.lemma_id](ctx, fresh(E), fresh(F))
            assert row.report.to_json() == direct.to_json(), row.lemma_id

    def test_interleaved_cells(self, contexts):
        ctx = contexts[13]
        E1, F1 = random_set(13, 2, 40, 1), random_set(13, 2, 25, 2)
        E2, F2 = random_set(13, 2, 30, 3), random_set(13, 2, 50, 4)
        for E, F in ((E1, F1), (E2, F2), (E1, F1), (E1, F2), (E2, F2)):
            for name in sorted(CHECKERS):
                shared = CHECKERS[name](ctx, E, F)
                direct = DIRECT[name](ctx, fresh(E), fresh(F))
                assert shared.to_json() == direct.to_json(), name


class TestPerField:
    def test_sphere_bounds_runs_once_per_field(self, monkeypatch):
        calls = counting(monkeypatch, checks, "sphere_spectrum")
        cfg = SweepConfig(q_list=[5], s_list=[2], size_pairs=[(4, 6)],
                          trials=2, seed=1, checkers=["sphere_bounds"])
        rows = run_verify(cfg)
        assert len(rows) == 2
        assert len(calls) == 5  # q transforms, not 2q
        assert rows[0].report.to_json() == rows[1].report.to_json()
        run_verify(cfg)
        assert len(calls) == 10  # nothing is kept across calls

    def test_each_field_is_built_once(self, monkeypatch):
        calls = counting(monkeypatch, sweep, "make_field")
        cfg = SweepConfig(q_list=[5, 7], s_list=[2], size_pairs=[(4, 6)],
                          trials=1, seed=1, checkers=["profile_mass"])
        assert len(run_verify(cfg)) == 2
        assert len(calls) == 2  # validation's contexts are the sweep's

    def test_nu_zero_counts_the_zero_sphere_once_per_field(self, monkeypatch):
        calls = counting(monkeypatch, checks, "sphere_counts")
        cfg = SweepConfig(q_list=[7], s_list=[3], size_pairs=[(20, 21), (21, 20)],
                          trials=2, seed=3, checkers=["nu_zero"])
        rows = run_verify(cfg)
        assert len(rows) == 4
        assert len(calls) == 1
        ctx = make_field(7)
        for row in rows:
            E, F = sweep.cell_sets(ctx, 3, (row.sizeE, row.sizeF), cfg.seed, row.trial)
            assert row.report.to_json() == check_nu_zero_bound(ctx, fresh(E), fresh(F)).to_json()

    def test_direct_calls_share_sphere_bounds_across_cells(self, monkeypatch, contexts):
        calls = counting(monkeypatch, checks, "sphere_spectrum")
        ctx = contexts[5]
        first = CHECKERS["sphere_bounds"](ctx, random_set(5, 2, 4, 1), random_set(5, 2, 6, 2))
        second = CHECKERS["sphere_bounds"](ctx, random_set(5, 2, 7, 3), random_set(5, 2, 3, 4))
        assert len(calls) == 5  # q transforms, not 2q
        assert second is first

    def test_another_context_or_dimension_recomputes(self, monkeypatch, contexts):
        calls = counting(monkeypatch, checks, "sphere_counts")
        E2, F2 = random_set(5, 2, 4, 1), random_set(5, 2, 6, 2)
        E3, F3 = random_set(5, 3, 4, 1), random_set(5, 3, 6, 2)
        other = make_field(5, pair_cap=10 ** 6)  # same q, other caps
        for ctx, E, F in ((contexts[5], E2, F2), (contexts[5], fresh(E2), F2),
                          (other, E2, F2), (other, E3, F3), (contexts[5], E3, F3)):
            check_nu_zero_bound(ctx, E, F)
        assert len(calls) == 4
        checks.release()
        check_nu_zero_bound(contexts[5], E3, F3)
        assert len(calls) == 5  # release drops the field's results too

    def test_each_field_gets_its_own_report(self):
        cfg = SweepConfig(q_list=[3, 5], s_list=[2, 3], size_pairs=[(2, 3), (3, 2)],
                          trials=1, seed=1, checkers=["sphere_bounds"])
        for row in run_verify(cfg):
            direct = check_sphere_bounds(make_field(row.q), row.s)
            assert row.report.to_json() == direct.to_json()


class TestCaches:
    def test_the_package_keeps_exactly_two_caches(self):
        # Every module-global of ffdist with cache_clear and cache_info, found the
        # way a cold benchmark run finds the caches it empties.
        for mod in pkgutil.iter_modules(ffdist.__path__):
            importlib.import_module(f"ffdist.{mod.name}")
        found = {id(obj): obj for name, mod in list(sys.modules.items())
                 if name == "ffdist" or name.startswith("ffdist.")
                 for obj in vars(mod).values()
                 if callable(getattr(obj, "cache_clear", None))
                 and callable(getattr(obj, "cache_info", None))}
        assert {id(spectral._dft_matrices), id(spectral.norm_grid)} == set(found)
