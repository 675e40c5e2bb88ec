import cmath

import numpy as np
import pytest

from ffdist import (
    GridFunction,
    Spectrum,
    enumerate_sphere,
    forward_transform,
    inverse_transform,
    make_field,
    norm_squared,
    plancherel_gap,
    spectral,
    sphere_counts,
    sphere_spectrum,
)
from ffdist.errors import CapExceeded, FieldMismatch
from ffdist.spectral import by_norm, norm_grid


def brute_forward(ctx, values):
    """Independent oracle: the literal O(q^(2s)) double sum."""
    q, s = ctx.q, values.ndim
    out = np.zeros_like(values, dtype=np.complex128)
    for xf in range(q ** s):
        x = np.unravel_index(xf, (q,) * s)
        acc = 0.0 + 0.0j
        for mf in range(q ** s):
            m = np.unravel_index(mf, (q,) * s)
            dot = sum(int(a) * int(b) for a, b in zip(m, x)) % q
            acc += cmath.exp(-2j * cmath.pi * dot / q) * values[m]
        out[x] = acc / q ** s
    return out


def half(values):
    """The stored half of a full (q,)*s spectrum: last-axis indices 0 .. (q-1)/2."""
    return values[..., :(values.shape[-1] + 1) // 2]


def dense_passes(mat, values):
    """Apply the same length-q kernel along every axis of a full grid."""
    for axis in range(values.ndim):
        values = np.moveaxis(np.tensordot(mat, np.moveaxis(values, axis, 0), axes=(1, 0)), 0, axis)
    return values


def random_grid(q, s, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(q=q, s=s, values=rng.standard_normal((q,) * s))


class TestNormSquared:
    def test_examples(self, contexts):
        assert norm_squared(contexts[5], (1, 2)) == 0
        assert norm_squared(contexts[3], (0, 0)) == 0
        assert norm_squared(contexts[7], (2, 3, 1)) == 0

    def test_one_function_for_every_module(self):
        from ffdist import charsums, field, spectral
        assert spectral.norm_squared is field.norm_squared
        assert charsums.norm_squared is field.norm_squared


class TestForwardTransform:
    def test_point_mass_is_flat(self, contexts):
        for q, s in ((3, 2), (5, 1), (7, 2)):
            vals = np.zeros((q,) * s)
            vals.flat[0] = 1.0
            F = forward_transform(contexts[q], GridFunction(q=q, s=s, values=vals))
            assert np.allclose(F.values, 1.0 / q ** s, atol=1e-12)

    def test_constant_is_point_mass(self, contexts):
        q, s = 5, 2
        F = forward_transform(contexts[q], GridFunction(q=q, s=s, values=np.ones((q,) * s)))
        expected = np.zeros((q, (q + 1) // 2), dtype=np.complex128)
        expected.flat[0] = 1.0
        assert np.allclose(F.values, expected, atol=1e-12)

    def test_sphere_indicator_mass(self, contexts):
        F = sphere_spectrum(contexts[3], 2, 1, "direct")
        assert F.values[0, 0] == pytest.approx(4 / 9, abs=1e-12)

    @pytest.mark.parametrize("q,s", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_matches_literal_double_sum(self, contexts, q, s):
        f = random_grid(q, s, seed=q * 10 + s)
        got = forward_transform(contexts[q], f).values
        want = brute_forward(contexts[q], f.values)
        assert np.max(np.abs(got - half(want))) <= 1e-10

    @pytest.mark.parametrize("q,s", [(3, 1), (13, 2), (31, 3), (151, 2), (157, 2), (1021, 1)])
    def test_stores_half_of_the_last_axis(self, q, s):
        # Both backends, dense (q <= DENSE_MAX_Q) and pocketfft, store the same layout.
        F = forward_transform(make_field(q), random_grid(q, s, seed=q))
        assert F.values.shape == (q,) * (s - 1) + ((q + 1) // 2,)
        assert F.values.dtype == np.complex128

    def test_rejects_complex_grid(self, contexts):
        f = random_grid(5, 2, 0)
        with pytest.raises(TypeError, match="complex"):
            forward_transform(contexts[5], GridFunction(q=5, s=2, values=f.values + 0j))

    def test_rejects_spectrum_input(self, contexts):
        F = forward_transform(contexts[3], random_grid(3, 2, 0))
        with pytest.raises(TypeError):
            forward_transform(contexts[3], F)

    def test_grid_cap(self):
        f = random_grid(7, 2, 0)
        with pytest.raises(CapExceeded):
            forward_transform(make_field(7, grid_cap=10), f)

    @pytest.mark.parametrize("q", (151, 167))  # the dense and the pocketfft backend
    def test_refuses_a_grid_over_another_field(self, monkeypatch, q):
        monkeypatch.setattr(spectral, "_dft_matrices", None)  # no transform runs
        monkeypatch.setattr(np.fft, "rfftn", None)
        f = GridFunction(q=163, s=2, values=np.ones((163, 163)))
        with pytest.raises(FieldMismatch, match=f"grid lives over q=163, field context has q={q}"):
            forward_transform(make_field(q), f)


class TestInverseTransform:
    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_round_trip(self, contexts, q, s):
        f = random_grid(q, s, seed=q + 100 * s)
        back = inverse_transform(contexts[q], forward_transform(contexts[q], f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-9

    def test_round_trip_binary_grid(self, contexts):
        rng = np.random.default_rng(7)
        vals = (rng.random((5, 5)) < 0.5).astype(np.float64)
        f = GridFunction(q=5, s=2, values=vals)
        back = inverse_transform(contexts[5], forward_transform(contexts[5], f))
        assert back.values.dtype == np.float64
        assert np.max(np.abs(back.values - vals)) <= 1e-9

    def test_point_mass_spectrum_gives_constant(self, contexts):
        vals = np.zeros((3, 2), dtype=np.complex128)
        vals[0, 0] = 1.0
        g = inverse_transform(contexts[3], Spectrum(q=3, s=2, values=vals))
        assert g.values.shape == (3, 3)
        assert np.allclose(g.values, 1.0, atol=1e-12)

    def test_rejects_grid_input(self, contexts):
        with pytest.raises(TypeError):
            inverse_transform(contexts[3], random_grid(3, 2, 0))

    def test_refuses_a_spectrum_over_another_field(self, contexts, monkeypatch):
        S = forward_transform(contexts[7], random_grid(7, 2, 0))
        monkeypatch.setattr(np.fft, "irfftn", None)  # no transform runs
        with pytest.raises(FieldMismatch, match="spectrum lives over q=7, field context has q=11"):
            inverse_transform(contexts[11], S)


class TestPlancherel:
    def test_single_point(self, contexts):
        vals = np.zeros((5, 5))
        vals[2, 3] = 1.0
        assert plancherel_gap(contexts[5], GridFunction(q=5, s=2, values=vals)) <= 1e-12

    def test_zero_grid(self, contexts):
        f = GridFunction(q=3, s=2, values=np.zeros((3, 3)))
        assert plancherel_gap(contexts[3], f) == 0.0

    @pytest.mark.parametrize("q,s", [(7, 2), (13, 2), (5, 3)])
    def test_random_relative(self, contexts, q, s):
        f = random_grid(q, s, seed=3 * q + s)
        energy = float(np.sum(f.values ** 2)) / q ** s
        assert plancherel_gap(contexts[q], f) <= 1e-9 * max(1.0, energy)


class TestSpheres:
    def test_counts_q3_s2(self, contexts):
        assert sphere_counts(contexts[3], 2).tolist() == [1, 4, 4]

    def test_counts_q5_s2(self, contexts):
        assert sphere_counts(contexts[5], 2).tolist() == [9, 4, 4, 4, 4]

    def test_counts_q3_s1(self, contexts):
        assert sphere_counts(contexts[3], 1).tolist() == [1, 2, 0]

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_partition(self, contexts, q, s):
        assert int(sphere_counts(contexts[q], s).sum()) == q ** s

    def test_enumerate_origin_only(self, contexts):
        assert enumerate_sphere(contexts[3], 2, 0).tolist() == [[0, 0]]

    def test_enumerate_unit_sphere_q3(self, contexts):
        sph = enumerate_sphere(contexts[3], 2, 1)
        assert len(sph) == 4
        assert {tuple(p) for p in sph.tolist()} == {
            (0, 1), (0, 2), (1, 0), (2, 0)}

    def test_enumerate_isotropic_q5(self, contexts):
        assert len(enumerate_sphere(contexts[5], 2, 0)) == 9

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_members_satisfy_norm(self, contexts, q, s):
        ctx = contexts[q]
        for r in (0, 1, q - 1):
            sph = enumerate_sphere(ctx, s, r)
            # int64 rows, one per point of S_r, in radix order
            assert sph.dtype == np.int64
            assert sph.shape == (sphere_counts(ctx, s)[r % q], s)
            assert np.all(np.diff(np.ravel_multi_index(sph.T, (q,) * s)) > 0)
            for p in sph:
                assert norm_squared(ctx, p) == r % q


class TestSphereSpectrum:
    @pytest.mark.parametrize("q,s", [(3, 2), (5, 2), (7, 2), (13, 2),
                                     (3, 3), (5, 3), (7, 3), (13, 3)])
    def test_modes_agree(self, contexts, q, s):
        ctx = contexts[q]
        for r in range(q):
            d = sphere_spectrum(ctx, s, r, "direct").values
            c = sphere_spectrum(ctx, s, r, "closed_form").values
            assert np.max(np.abs(d - c)) <= 1e-9

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (2, 3))
    def test_origin_value_is_density(self, contexts, q, s):
        counts = sphere_counts(contexts[q], s)
        for r in range(q):
            for mode in ("direct", "closed_form"):
                F = sphere_spectrum(contexts[q], s, r, mode)
                assert abs(F.values.flat[0] - counts[r] / q ** s) <= 1e-12

    def test_q7_r3_example(self, contexts):
        d = sphere_spectrum(contexts[7], 2, 3, "direct").values
        c = sphere_spectrum(contexts[7], 2, 3, "closed_form").values
        assert np.max(np.abs(d - c)) <= 1e-9

    def test_unknown_mode(self, contexts):
        with pytest.raises(ValueError):
            sphere_spectrum(contexts[3], 2, 1, "fancy")


class TestDeterminism:
    def test_repeated_transform_bit_identical(self, contexts):
        f = random_grid(13, 2, seed=99)
        a = forward_transform(contexts[13], f).values
        b = forward_transform(contexts[13], f).values
        assert a.tobytes() == b.tobytes()

    def test_fresh_context_bit_identical(self):
        f = random_grid(13, 2, seed=99)
        a = forward_transform(make_field(13), f).values
        b = forward_transform(make_field(13), f).values
        assert a.tobytes() == b.tobytes()

    def test_repeated_make_field_does_not_grow_the_caches(self):
        from ffdist import spectral
        from ffdist.distance import nu_spectral
        from conftest import random_set
        spectral._dft_matrices.cache_clear()
        spectral.norm_grid.cache_clear()
        E, F = random_set(31, 2, 40, 1), random_set(31, 2, 50, 2)
        for _ in range(20):
            nu_spectral(make_field(31), E, F)
        assert spectral._dft_matrices.cache_info().currsize == 1
        assert spectral.norm_grid.cache_info().currsize == 1

    def test_caches_hold_only_the_field_in_use(self):
        from ffdist import spectral
        from ffdist.sweep import SweepConfig, run_verify
        cfg = SweepConfig(q_list=[3, 5, 7, 11, 13, 17], s_list=[2], size_pairs=[(4, 6)],
                          trials=1, seed=0, checkers=["profile_mass", "nu_spectral"])
        run_verify(cfg)
        assert spectral._dft_matrices.cache_info().currsize == 1
        assert spectral.norm_grid.cache_info().currsize == 1


class TestDftMatrix:
    @pytest.mark.parametrize("q", (3, 5, 7, 13, 31))
    def test_one_matrix_serves_both_signs(self, contexts, q):
        from ffdist import spectral
        ctx = contexts[q]
        W = spectral._dft_matrices(ctx)
        assert isinstance(W, np.ndarray) and W.shape == (q, q)
        x = np.arange(q)
        plus = ctx.char_table[np.outer(x, x) % q]  # e(+x m / q)
        assert np.array_equal(W, ctx.char_table[np.outer(-x % q, x) % q])
        assert np.array_equal(W[-x % q], plus)


class TestPocketfftBackend:
    """Above spectral.DENSE_MAX_Q the forward transform runs on numpy's pocketfft;
    the inverse runs on it at every q."""

    @pytest.mark.parametrize("binary", (False, True))
    def test_forward_matches_dense_passes_at_q157(self, binary):
        from ffdist import spectral
        ctx = make_field(157)
        g = random_grid(157, 2, seed=3).values
        if binary:
            g = (g > 0).astype(np.float64)
        got = forward_transform(ctx, GridFunction(q=157, s=2, values=g)).values
        dense = dense_passes(spectral._dft_matrices(ctx), g) / 157 ** 2
        assert got.shape == (157, 79)
        assert np.max(np.abs(got - half(dense))) <= 1e-12

    @pytest.mark.parametrize("q", (13, 151, 157))
    def test_inverse_matches_dense_passes(self, q):
        # The inverse runs pocketfft at every q, on both sides of DENSE_MAX_Q.
        from ffdist import spectral
        ctx = make_field(q)
        F = np.fft.fftn(random_grid(q, 2, seed=4).values)  # a real grid's full spectrum
        got = inverse_transform(ctx, Spectrum(q=q, s=2, values=half(F))).values
        V = spectral._dft_matrices(ctx)[-np.arange(q) % q]
        assert np.max(np.abs(got - dense_passes(V, F))) <= 1e-10


class TestByNorm:
    """by_norm over the stored half equals the literal sum over the full grid."""

    @pytest.mark.parametrize("s", (1, 2, 3, 4))
    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    def test_by_norm_matches_full_grid_sum(self, contexts, q, s):
        ctx = contexts[q]
        rng = np.random.default_rng(10 * q + s)
        full_e, full_f = (np.fft.fftn(rng.standard_normal((q,) * s)) for _ in range(2))
        ng = norm_grid(ctx, s)
        for v in (np.abs(full_e) ** 2, (np.conj(full_e) * full_f).real):
            want = np.zeros(q)
            for m in np.ndindex(*ng.shape):
                want[ng[m]] += v[m]
            got = by_norm(ctx, s, half(v))
            assert got.dtype == np.float64 and got.shape == (q,)
            assert np.max(np.abs(got - want)) <= 1e-12 * q ** s * np.max(np.abs(v))
