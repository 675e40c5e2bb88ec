import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffdist import (
    charsums,
    cross_profile,
    distance,
    distance_set,
    intersection_count,
    make_field,
    make_point_set,
    nu_brute,
    nu_spectral,
    set_spectrum,
    spectral,
    spherical_profile,
    support_lower_bound,
)
from ffdist.errors import (
    DuplicatePoint,
    EmptyOffzeroSupport,
    FieldMismatch,
    PairCapExceeded,
)
from conftest import random_set

TWO_POINTS = [(0, 0), (1, 0)]


def literal_nu(E, F):
    """nu by its definition, one x at a time: int64 |x - y|^2 against all of F, mod q."""
    nu = np.zeros(E.q, dtype=np.int64)
    for x in E.points:
        nu += np.bincount(((x - F.points) ** 2).sum(axis=1) % E.q, minlength=E.q)
    return nu


def full_grid_set(q, s):
    pts = np.stack(np.unravel_index(np.arange(q ** s), (q,) * s), axis=1)
    return make_point_set(q, s, pts)


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoint, match=r"point \(0, 0\) appears twice"):
            make_point_set(3, 2, [(0, 0), (3, 3)])  # (3,3) reduces to (0,0)

    def test_coordinates_reduced_and_sorted(self):
        E = make_point_set(3, 2, [(4, 5), (0, 1)])
        assert E.points.tolist() == [[0, 1], [1, 2]]
        assert E.size == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_point_set(3, 2, [])

    @pytest.mark.parametrize("points", [[(0, 1, 2)], [(0,)], [0, 1]])
    def test_points_must_be_s_tuples(self, points):
        with pytest.raises(ValueError, match="points must be 2-tuples"):
            make_point_set(3, 2, points)


class TestSetSpectrum:
    def test_singleton_is_flat_in_modulus(self, contexts):
        E = make_point_set(3, 2, [(1, 2)])
        F = set_spectrum(contexts[3], E)
        assert np.allclose(np.abs(F.values), 1 / 9, atol=1e-12)

    def test_full_grid_is_point_mass(self, contexts):
        F = set_spectrum(contexts[3], full_grid_set(3, 2))
        expected = np.zeros((3, 2), dtype=np.complex128)  # the stored half of the (3, 3) grid
        expected[0, 0] = 1.0
        assert F.values.shape == expected.shape
        assert np.allclose(F.values, expected, atol=1e-12)

    def test_zero_frequency_is_density(self, contexts):
        E = make_point_set(3, 2, TWO_POINTS)
        assert set_spectrum(contexts[3], E).values[0, 0] == pytest.approx(2 / 9)

    @pytest.mark.parametrize("q", (151, 163))  # the dense and the pocketfft backend
    def test_refuses_a_set_over_another_field(self, monkeypatch, q):
        E, F = random_set(157, 2, 10, 0), random_set(157, 2, 12, 1)
        ctx = make_field(q)
        monkeypatch.setattr(distance, "indicator_grid", None)  # no grid is built
        for call in (lambda: set_spectrum(ctx, E), lambda: nu_spectral(ctx, E, F)):
            with pytest.raises(FieldMismatch, match=f"q=157, field context has q={q}"):
                call()


class TestNuBrute:
    def test_two_point_example(self):
        E = make_point_set(3, 2, TWO_POINTS)
        assert nu_brute(E, E).nu.tolist() == [2, 2, 0]

    def test_singleton_pair_is_point_mass(self):
        E = make_point_set(7, 2, [(1, 2)])
        F = make_point_set(7, 2, [(4, 0)])
        # |x - y|^2 = 9 + 4 = 13 = 6 mod 7
        expected = [0] * 7
        expected[6] = 1
        assert nu_brute(E, F).nu.tolist() == expected

    def test_isotropic_line_all_mass_at_zero(self):
        E = make_point_set(5, 2, [(x, (2 * x) % 5) for x in range(5)])
        nu = nu_brute(E, E).nu
        assert nu.tolist() == [25, 0, 0, 0, 0]

    def test_pair_cap(self):
        E = random_set(13, 2, 40, 0)
        with pytest.raises(PairCapExceeded):
            nu_brute(E, E, pair_cap=100)

    def test_field_mismatch(self):
        E = make_point_set(3, 2, TWO_POINTS)
        F = make_point_set(5, 2, TWO_POINTS)
        with pytest.raises(FieldMismatch):
            nu_brute(E, F)

    def test_mass_identity(self):
        E = random_set(13, 2, 31, 1)
        F = random_set(13, 2, 17, 2)
        assert int(nu_brute(E, F).nu.sum()) == 31 * 17

    def test_hand_count_at_q3_s3(self):
        E = make_point_set(3, 3, [(0, 0, 0), (1, 1, 1)])
        F = make_point_set(3, 3, [(0, 0, 0), (0, 0, 1), (1, 2, 0), (2, 2, 2)])
        # From (0,0,0): 0, 1, 1 + 4 = 5 = 2, 12 = 0.  From (1,1,1): 3 = 0,
        # 1 + 1 = 2, 0 + 1 + 1 = 2, 3 = 0.
        nu = nu_brute(E, F).nu
        assert nu.tolist() == [4, 1, 3] == literal_nu(E, F).tolist()

    def test_most_axes_an_int64_radix_index_allows(self):
        # 3**39 < 2**63 < 3**40.
        rng = np.random.default_rng(5)
        E = make_point_set(3, 39, rng.integers(0, 3, (60, 39)))
        F = make_point_set(3, 39, rng.integers(0, 3, (70, 39)))
        assert np.array_equal(nu_brute(E, F).nu, literal_nu(E, F))

    @pytest.mark.parametrize("s", (1, 3))
    def test_longest_tables_and_largest_sum(self, s):
        # q = 1048573 is the largest prime <= 2**20 and 5 mod 8, so 2 is a
        # nonsquare and i = 2**((q-1)/4) has i^2 = -1: the pair (i,...,i) vs
        # 0 sums s (q - 1), the top histogram bin; (0,...) vs (q-1,...) reads
        # both ends of the squares table.
        q = 1048573
        i = pow(2, (q - 1) // 4, q)
        assert i * i % q == q - 1
        rng = np.random.default_rng(s)
        E = make_point_set(q, s, [(i,) * s, (0,) * s, (q - 1,) * s,
                                  *rng.integers(0, q, (40, s)).tolist()])
        F = make_point_set(q, s, [(0,) * s, (q - 1,) * s, (1,) * s,
                                  *rng.integers(0, q, (50, s)).tolist()])
        nu = nu_brute(E, F).nu
        assert nu[(s * (q - 1)) % q] >= 1
        assert np.array_equal(nu, literal_nu(E, F))

    def test_one_row_per_block(self):
        # #F > 1_000_000 leaves max(1, 1_000_000 // #F) = 1 row of E per block.
        E, F = random_set(1021, 2, 3, 1), random_set(1021, 2, 1_000_001, 2)
        nu = nu_brute(E, F).nu
        assert nu.dtype == np.int64 and int(nu.sum()) == 3 * 1_000_001
        assert np.array_equal(nu, literal_nu(E, F))

    def test_last_block_is_partial(self):
        # 3000 points of F give blocks of 333 rows; 1000 = 3 * 333 + 1.
        E, F = random_set(31, 3, 1000, 3), random_set(31, 3, 3000, 4)
        assert np.array_equal(nu_brute(E, F).nu, literal_nu(E, F))

    def test_temporaries_stay_bounded(self):
        # About 1e6 pairs per block in int32; an int64 (block, #F, s)
        # difference tensor would peak at 76 MB here.
        E, F = random_set(31, 3, 2000, 1), random_set(31, 3, 2010, 2)
        tracemalloc.start()
        try:
            nu_brute(E, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_independent_of_every_fourier_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached a Fourier route")

        for name in np.fft.__all__:
            if callable(getattr(np.fft, name)):
                monkeypatch.setattr(np.fft, name, refuse)
        for module in (spectral, charsums):
            for name, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", None) == module.__name__:
                    monkeypatch.setattr(module, name, refuse)
        for name in ("forward_transform", "by_norm"):
            monkeypatch.setattr(distance, name, refuse)
        E, F = random_set(31, 3, 200, 5), random_set(31, 3, 210, 6)
        assert np.array_equal(nu_brute(E, F).nu, literal_nu(E, F))


class TestNuSpectral:
    def test_two_point_example(self, contexts):
        E = make_point_set(3, 2, TWO_POINTS)
        assert nu_spectral(contexts[3], E, E).nu.tolist() == [2, 2, 0]

    def test_singleton_pair(self, contexts):
        E = make_point_set(7, 2, [(1, 2)])
        F = make_point_set(7, 2, [(4, 0)])
        assert np.array_equal(nu_spectral(contexts[7], E, F).nu,
                              nu_brute(E, F).nu)

    @pytest.mark.parametrize("q,s", [(3, 2), (5, 2), (13, 2), (7, 3)])
    def test_matches_oracle_on_random_sets(self, contexts, q, s):
        for trial in range(20):
            nE = 1 + (trial * 7) % min(q ** s - 1, 40)
            nF = 1 + (trial * 11) % min(q ** s - 1, 40)
            E = random_set(q, s, nE, seed=1000 * trial + 1)
            F = random_set(q, s, nF, seed=1000 * trial + 2)
            assert np.array_equal(nu_spectral(contexts[q], E, F).nu,
                                  nu_brute(E, F).nu)

    # 151 is the last dense q; 157 and 257 transform on pocketfft.
    @pytest.mark.parametrize("q", (151, 157, 257))
    def test_matches_oracle_on_both_backends(self, q):
        E, F = random_set(q, 2, 300, seed=q), random_set(q, 2, 310, seed=q + 1)
        assert np.array_equal(nu_spectral(make_field(q), E, F).nu, nu_brute(E, F).nu)

    def test_q13_size40_example(self, contexts):
        E = random_set(13, 2, 40, 81)
        F = random_set(13, 2, 40, 82)
        assert np.array_equal(nu_spectral(contexts[13], E, F).nu,
                              nu_brute(E, F).nu)

    def test_spectra_reuse_gives_same_result(self, contexts):
        ctx = contexts[13]
        E, F = random_set(13, 2, 25, 5), random_set(13, 2, 30, 6)
        pre = cross_profile(ctx, E, F)
        assert np.array_equal(nu_spectral(ctx, E, F, cross=pre).nu,
                              nu_spectral(ctx, E, F).nu)

    @pytest.mark.parametrize("other", ["over-q11", "column"])
    def test_refuses_a_cross_profile_of_another_shape(self, contexts, other):
        E, F = random_set(7, 2, 12, seed=3), random_set(7, 2, 9, seed=4)
        cross = np.ones((7, 1)) if other == "column" else cross_profile(
            contexts[11], random_set(11, 2, 12, seed=3), random_set(11, 2, 9, seed=4))
        with pytest.raises(FieldMismatch, match=re.escape(
                f"shape {cross.shape}, expected (7,) at q=7")):
            nu_spectral(contexts[7], E, F, cross=cross)

    def test_residual_is_exposed(self, contexts):
        E, F = random_set(13, 2, 25, 5), random_set(13, 2, 30, 6)
        assert 0.0 <= nu_spectral(contexts[13], E, F).residual <= 1e-6
        assert nu_brute(E, F).residual == 0.0

    def test_drift_gate_trips_on_absurd_tolerance(self, contexts, monkeypatch):
        from ffdist import distance
        from ffdist.errors import RoundingDrift
        E, F = random_set(13, 2, 25, 5), random_set(13, 2, 30, 6)
        monkeypatch.setattr(distance, "DEFAULT_RESIDUAL_TOL", 1e-30)
        with pytest.raises(RoundingDrift, match=r"#E #F = 25 \* 30 and q\*\*s = 13\*\*2") as err:
            nu_spectral(contexts[13], E, F)
        assert "reduce" not in str(err.value)


class TestDistanceSet:
    def test_two_point_example(self):
        E = make_point_set(3, 2, TWO_POINTS)
        assert distance_set(nu_brute(E, E)) == {0, 1}

    def test_isotropic_line(self):
        E = make_point_set(5, 2, [(x, (2 * x) % 5) for x in range(5)])
        assert distance_set(nu_brute(E, E)) == {0}

    def test_full_grid_attains_everything(self):
        E = full_grid_set(5, 2)
        assert distance_set(nu_brute(E, E)) == set(range(5))


class TestProfiles:
    def test_singleton_profile(self, contexts):
        E = make_point_set(3, 2, [(1, 1)])
        prof = spherical_profile(contexts[3], E)
        assert np.allclose(prof, np.array([1, 4, 4]) / 81, atol=1e-12)

    @pytest.mark.parametrize("q,s", [(3, 2), (7, 2), (5, 3)])
    def test_mass_identity(self, contexts, q, s):
        E = random_set(q, s, min(q ** s, 11), seed=q + s)
        prof = spherical_profile(contexts[q], E)
        assert abs(prof.sum() - E.size / q ** s) <= 1e-12

    def test_cross_of_set_with_itself(self, contexts):
        E = random_set(7, 2, 12, seed=3)
        single = spherical_profile(contexts[7], E)
        cross = cross_profile(contexts[7], E, E)
        assert (single.dtype, single.shape) == (np.float64, (7,))
        assert (cross.dtype, cross.shape) == (np.float64, (7,))
        assert np.max(np.abs(cross - single)) <= 1e-12

    def test_values_in_unit_interval(self, contexts):
        E = random_set(13, 2, 100, seed=4)
        vals = spherical_profile(contexts[13], E)
        assert np.all(vals >= 0)
        assert np.all(vals <= E.size / 13 ** 2 + 1e-12)

    def test_pointwise_cauchy_schwarz(self, contexts):
        E = random_set(13, 2, 60, seed=8)
        F = random_set(13, 2, 45, seed=9)
        se = spherical_profile(contexts[13], E)
        sf = spherical_profile(contexts[13], F)
        cr = np.abs(cross_profile(contexts[13], E, F)) ** 2
        assert np.all(cr <= se * sf + 1e-15)

    def test_spherical_profile_refuses_a_spectrum_over_another_field(self, contexts, monkeypatch):
        E = random_set(11, 2, 12, seed=3)
        S = set_spectrum(contexts[7], random_set(7, 2, 12, seed=3))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match="spectrum lives over q=7, field context has q=11"):
            spherical_profile(contexts[11], E, spectrum=S)

    def test_spherical_profile_refuses_a_spectrum_of_another_dimension(self, contexts,
                                                                       monkeypatch):
        S = set_spectrum(contexts[7], random_set(7, 3, 12, seed=3))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match="spectrum lives over s=3, set over s=2"):
            spherical_profile(contexts[7], random_set(7, 2, 12, seed=3), spectrum=S)

    def test_cross_profile_refuses_spectra_of_another_dimension(self, contexts, monkeypatch):
        E = random_set(7, 2, 12, seed=3)
        S = set_spectrum(contexts[7], random_set(7, 3, 12, seed=3))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match="spectrum lives over s=3, set over s=2"):
            cross_profile(contexts[7], E, E, spectra=(S, S))

    def test_cross_profile_refuses_a_spectrum_over_another_field(self, contexts, monkeypatch):
        E, F = random_set(11, 2, 12, seed=3), random_set(11, 2, 9, seed=4)
        spectra = (set_spectrum(contexts[11], E), set_spectrum(contexts[7], random_set(7, 2, 9, 4)))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match="spectrum lives over q=7, field context has q=11"):
            cross_profile(contexts[11], E, F, spectra=spectra)


class TestIntersectionCount:
    def test_examples(self):
        E = make_point_set(3, 2, [(0, 0), (1, 0)])
        F = make_point_set(3, 2, [(1, 0), (2, 1)])
        assert intersection_count(E, E) == 2
        assert intersection_count(E, F) == 1
        G = make_point_set(3, 2, [(2, 2)])
        assert intersection_count(E, G) == 0

    def test_spectral_cross_check(self, contexts):
        # #(E n F) = q^s * sum_m conj(Ehat) Fhat = q^s * sum_r sigma_EF(r), real
        q, s = 13, 2
        E, F = random_set(q, s, 50, 10), random_set(q, s, 70, 11)
        cross = cross_profile(contexts[q], E, F)
        assert cross.dtype == np.float64
        assert abs(float(cross.sum()) * q ** s - intersection_count(E, F)) <= 1e-8


class TestSupportLowerBound:
    def test_two_point_example(self):
        E = make_point_set(3, 2, TWO_POINTS)
        dist = nu_brute(E, E)
        bound = support_lower_bound(dist)
        assert bound == Fraction(1)
        assert len(distance_set(dist) - {0}) >= bound

    def test_uniform_equality_case(self, contexts):
        # full grid: nu is uniform over F_q^* by translation invariance
        E = full_grid_set(5, 2)
        dist = nu_brute(E, E)
        assert support_lower_bound(dist) == Fraction(4)
        assert len(distance_set(dist) - {0}) == 4

    def test_empty_offzero(self):
        E = make_point_set(5, 2, [(x, (2 * x) % 5) for x in range(5)])
        with pytest.raises(EmptyOffzeroSupport):
            support_lower_bound(nu_brute(E, E))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), q=st.sampled_from((5, 7, 13)),
           nE=st.integers(2, 20), nF=st.integers(2, 20))
    def test_bound_property(self, seed, q, nE, nF):
        E = random_set(q, 2, nE, seed)
        F = random_set(q, 2, nF, seed + 1)
        dist = nu_brute(E, F)
        if int(dist.nu[1:].sum()) == 0:
            return
        bound = support_lower_bound(dist)
        assert len(distance_set(dist) - {0}) >= bound


class TestSecondMomentIdentity:
    @pytest.mark.parametrize("q,s", [(3, 2), (7, 2), (5, 3), (13, 2)])
    def test_identity_random(self, contexts, q, s):
        ctx = contexts[q]
        E = random_set(q, s, min(q ** s - 1, 23), seed=q)
        F = random_set(q, s, min(q ** s - 1, 17), seed=q + 1)
        nu = nu_brute(E, F).nu.astype(float)
        lhs = float((nu ** 2).sum())
        cross = cross_profile(ctx, E, F)
        inter = intersection_count(E, F)
        rhs = (E.size * F.size) ** 2 / q \
            + q ** (3 * s) * float(np.sum(np.abs(cross) ** 2)) \
            - q ** (s - 1) * inter ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_singleton_hand_instance(self, contexts):
        # E = F = one point, q = 3, s = 2: 1 = 1/3 + 11/3 - 3
        E = make_point_set(3, 2, [(0, 0)])
        cross = cross_profile(contexts[3], E, E)
        assert 3 ** 6 * float(np.sum(np.abs(cross) ** 2)) == pytest.approx(11 / 3)
        assert (1 * 1) ** 2 / 3 + 11 / 3 - 3 == pytest.approx(1.0)
