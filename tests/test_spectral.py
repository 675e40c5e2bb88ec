import cmath
from pathlib import Path

import numpy as np
import pytest

from ffdist import (
    GridFunction,
    Spectrum,
    forward_transform,
    inverse_transform,
    make_field,
    spectral,
    sphere_counts,
    sphere_spectrum,
)
from ffdist.errors import BadGenerator, CapExceeded, FieldMismatch
from ffdist.charsums import sphere_class_values
from ffdist.distance import indicator_grid
from ffdist.generators import GeneratorSpec, generate
from ffdist.spectral import by_norm, half_norm_grid, norm_grid, sphere_blocks

from conftest import random_set, run_python


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


def closed_form_spectrum(ctx, s, r):
    """sphere_class_values spread over the stored half: by class, origin value at m = 0."""
    at_origin, by_class = sphere_class_values(ctx, s, r)
    vals = by_class[half_norm_grid(ctx, s)]
    vals.flat[0] = at_origin
    return vals


def plancherel_gap(ctx, f):
    """| sum |fhat|^2 - q^(-s) sum |f|^2 |, both sums taken over the whole grid."""
    F = forward_transform(ctx, f)
    lhs = float(by_norm(ctx, np.abs(F.values) ** 2).sum())
    rhs = float(np.sum(f.values ** 2)) / ctx.q ** f.s
    return abs(lhs - rhs)


def random_grid(q, s, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(rng.standard_normal((q,) * s))


class TestNormSquared:
    def test_examples(self, contexts):
        assert norm_grid(contexts[5], 2)[1, 2] == 0
        assert norm_grid(contexts[3], 2)[0, 0] == 0
        assert norm_grid(contexts[7], 3)[2, 3, 1] == 0


class TestForwardTransform:
    def test_point_mass_is_flat(self, contexts):
        for q, s in ((3, 2), (5, 1), (7, 2), (7, 3)):
            vals = np.zeros((q,) * s)
            vals.flat[0] = 1.0
            F = forward_transform(contexts[q], GridFunction(vals))
            assert np.allclose(F.values, 1.0 / q ** s, atol=1e-12)

    def test_constant_is_point_mass(self, contexts):
        q, s = 5, 2
        F = forward_transform(contexts[q], GridFunction(np.ones((q,) * s)))
        expected = np.zeros((q, (q + 1) // 2), dtype=np.complex128)
        expected.flat[0] = 1.0
        assert np.allclose(F.values, expected, atol=1e-12)

    def test_sphere_spectrum_mass(self, contexts):
        F = sphere_spectrum(contexts[3], 2, 1)
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
            forward_transform(contexts[5], GridFunction(f.values + 0j))

    def test_rejects_spectrum_input(self, contexts):
        F = forward_transform(contexts[3], random_grid(3, 2, 0))
        with pytest.raises(TypeError, match="complex"):
            forward_transform(contexts[3], F)

    def test_grid_cap(self):
        f = random_grid(7, 2, 0)
        with pytest.raises(CapExceeded):
            forward_transform(make_field(7, grid_cap=10), f)

    # A grid over another field, at the dense and at the pocketfft backend, and grids
    # whose first axis is q but whose shape is not (q,)*s.
    @pytest.mark.parametrize("q,shape,match", (
        (151, (163, 163), "grid lives over q=163, field context has q=151"),
        (167, (163, 163), "grid lives over q=163, field context has q=167"),
        (7, (7, 5), r"grid has shape \(7, 5\), expected \(7, 7\)"),
        (7, (7, 14), r"grid has shape \(7, 14\), expected \(7, 7\)"),
        (7, (7, 7, 1), r"grid has shape \(7, 7, 1\), expected \(7, 7, 7\)"),
    ), ids=("151", "167", "7x5", "7x14", "7x7x1"))
    def test_refuses_a_grid_over_another_field(self, monkeypatch, q, shape, match):
        monkeypatch.setattr(spectral, "_dft_matrices", None)  # no transform runs
        monkeypatch.setattr(np.fft, "rfftn", None)
        with pytest.raises(FieldMismatch, match=match):
            forward_transform(make_field(q), GridFunction(np.ones(shape)))


def support_sum(values, ms):
    """q^(-s) sum_x f(x) e(-m.x/q) at each frequency row of ms, in long double, off BLAS.

    The kernel e(-t/q) is built from 2 pi t / q in long double, as in the inverse's
    reference below, and the sum runs over the support of f alone, so a sparse
    151^3 grid is cheap; the phases m.x mod q are integer products.
    """
    q, s = values.shape[0], values.ndim
    support = np.argwhere(values)
    weights = values[tuple(support.T)].astype(np.longdouble)
    kernel = np.exp(-1j * (np.arange(q) * (2 * np.pi / np.longdouble(q))))
    out = np.zeros(len(ms), dtype=np.clongdouble)
    for lo in range(0, len(ms), 256):
        out[lo:lo + 256] = (kernel[ms[lo:lo + 256] @ support.T % q] * weights).sum(axis=1)
    return out / np.longdouble(q) ** s


def sparse_grid(q, s, density, seed):
    """A real grid, nonzero on about a `density` share of its points, so groups differ in size."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((q,) * s) * (rng.random((q,) * s) < density)


def grouped_lines(group, size, seed):
    """A 151^3 grid with one random point on each of `size` last-axis lines.

    group 1: the lines share their first coordinate, so pass 2 meets one group of
    `size` lines.  group 2: their first coordinates differ, so pass 3 meets one
    group of `size` prefixes.
    """
    q = 151
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, q, (size, 3))
    pts[:, 2 - group] = rng.choice(q, size, replace=False)
    if group == 1:
        pts[:, 0] = 0
    values = np.zeros((q,) * 3)
    values[tuple(pts.T)] = rng.standard_normal(size)
    return values


OCCUPANCY_CASES = [  # (id, q, grid builder given the field)
    ("zero", 7, lambda ctx: np.zeros((7, 7, 7))),
    ("one_point", 7, lambda ctx: np.eye(1, 7 ** 3, 200).reshape(7, 7, 7)),
    ("every_line", 13, lambda ctx: random_grid(13, 3, seed=1).values),
    ("uniform_set", 31, lambda ctx: indicator_grid(random_set(31, 3, 2000, seed=2)).values),
    ("sphere", 13, lambda ctx: (norm_grid(ctx, 3) == 5).astype(np.float64)),
    ("set_151_cube", 151, lambda ctx: indicator_grid(random_set(151, 3, 5000, seed=3)).values),
] + [(f"sparse_q{q}_s{s}", q, lambda ctx, s=s: sparse_grid(ctx.q, s, 0.2, seed=10 * ctx.q + s))
     for q in (3, 5) for s in range(1, 6)] + [
    (f"pass{group + 1}_group_{size}", 151, lambda ctx, group=group, size=size: grouped_lines(group, size, seed=size))
    for group in (1, 2) for size in (spectral.PAD_MAX, spectral.PAD_MAX + 1)]


# Prints a hash of the transform's bytes for each grid of a group of PAD_MAX and of
# PAD_MAX + 1 lines at pass 2 and at pass 3.
THREAD_SCRIPT = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
from test_spectral import grouped_lines
from ffdist import GridFunction, forward_transform, make_field, spectral
ctx = make_field(151)
for group in (1, 2):
    for size in (spectral.PAD_MAX, spectral.PAD_MAX + 1):
        out = forward_transform(ctx, GridFunction(grouped_lines(group, size, seed=size)))
        print(group, size, hashlib.sha256(out.values.tobytes()).hexdigest())
"""


class TestOccupiedLines:
    """The dense passes run over the occupied lines only; every shape of occupancy
    is held to the literal sum over the grid's support, in long double."""

    @pytest.mark.parametrize("q,build", [pytest.param(q, build, id=name)
                                         for name, q, build in OCCUPANCY_CASES])
    def test_matches_long_double_support_sum(self, q, build):
        ctx = make_field(q)
        values = build(ctx)
        got = forward_transform(ctx, GridFunction(values)).values
        ms = np.argwhere(np.ones(got.shape, dtype=bool))
        if len(ms) > 4096:  # a large grid: 2000 of its frequencies, the origin among them
            ms = ms[np.random.default_rng(0).choice(len(ms), 2000, replace=False)]
            ms[0] = 0
        assert np.max(np.abs(got[tuple(ms.T)] - support_sum(values, ms)), initial=0) <= 1e-10
        if not values.any():
            assert not got.any()

    def test_bytes_at_the_padding_limit_do_not_depend_on_blas_threads(self):
        # A group of PAD_MAX lines is one padded contraction of that length; a group
        # one longer is padded to q (at pass 3) or makes pass 1 run over the whole
        # group (at pass 2).  OpenBLAS gave other bytes at 1 and 2 threads for
        # contractions of 129-150 rows.
        here = str(Path(__file__).resolve().parent)
        outputs = []
        for threads in ("1", "2"):
            proc = run_python("-c", THREAD_SCRIPT, here, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]


class TestInverseTransform:
    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_round_trip(self, contexts, q, s):
        f = random_grid(q, s, seed=q + 100 * s)
        F = forward_transform(contexts[q], f)
        back = inverse_transform(contexts[q], F)
        assert (f.q, f.s) == (F.q, F.s) == (back.q, back.s) == (q, s)
        assert np.max(np.abs(back.values - f.values)) <= 1e-9

    def test_round_trip_binary_grid(self, contexts):
        rng = np.random.default_rng(7)
        vals = (rng.random((5, 5)) < 0.5).astype(np.float64)
        f = GridFunction(vals)
        back = inverse_transform(contexts[5], forward_transform(contexts[5], f))
        assert back.values.dtype == np.float64
        assert np.max(np.abs(back.values - vals)) <= 1e-9

    def test_point_mass_spectrum_gives_constant(self, contexts):
        vals = np.zeros((3, 2), dtype=np.complex128)
        vals[0, 0] = 1.0
        g = inverse_transform(contexts[3], Spectrum(vals))
        assert g.values.shape == (3, 3)
        assert np.allclose(g.values, 1.0, atol=1e-12)

    def test_rejects_grid_input(self, contexts):
        # A (3, 3) grid is not the stored half (3, 2) of a spectrum over q = 3.
        with pytest.raises(FieldMismatch, match=r"has shape \(3, 3\), expected \(3, 2\)"):
            inverse_transform(contexts[3], random_grid(3, 2, 0))

    def test_refuses_a_spectrum_over_another_field(self, contexts, monkeypatch):
        S = forward_transform(contexts[7], random_grid(7, 2, 0))
        monkeypatch.setattr(np.fft, "irfftn", None)  # no transform runs
        with pytest.raises(FieldMismatch, match="spectrum lives over q=7, field context has q=11"):
            inverse_transform(contexts[11], S)
        with pytest.raises(FieldMismatch, match=r"spectrum has shape \(5, 4\), expected \(7, 4\)"):
            inverse_transform(contexts[7], Spectrum(S.values[:5]))


class TestPlancherel:
    def test_single_point(self, contexts):
        vals = np.zeros((5, 5))
        vals[2, 3] = 1.0
        assert plancherel_gap(contexts[5], GridFunction(vals)) <= 1e-12

    def test_zero_grid(self, contexts):
        f = GridFunction(np.zeros((3, 3)))
        assert plancherel_gap(contexts[3], f) == 0.0

    @pytest.mark.parametrize("q,s", [(7, 2), (13, 2), (5, 3)])
    def test_random_relative(self, contexts, q, s):
        f = random_grid(q, s, seed=3 * q + s)
        energy = float(np.sum(f.values ** 2)) / q ** s
        assert plancherel_gap(contexts[q], f) <= 1e-9 * max(1.0, energy)


def sphere_points(ctx, s, r):
    """Every point of S_r as rows, from the sphere_set generator."""
    return generate(ctx, s, GeneratorSpec("sphere_set", params={"radius": r})).points


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
        assert sphere_points(contexts[3], 2, 0).tolist() == [[0, 0]]

    def test_enumerate_unit_sphere_q3(self, contexts):
        sph = sphere_points(contexts[3], 2, 1)
        assert len(sph) == 4
        assert {tuple(p) for p in sph.tolist()} == {
            (0, 1), (0, 2), (1, 0), (2, 0)}

    def test_enumerate_isotropic_q5(self, contexts):
        assert len(sphere_points(contexts[5], 2, 0)) == 9

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (1, 2, 3))
    def test_members_satisfy_norm(self, contexts, q, s):
        ctx = contexts[q]
        for r in (0, 1, q - 1):
            count = sphere_counts(ctx, s)[r % q]
            if count == 0:  # sphere_set refuses an empty sphere
                with pytest.raises(BadGenerator, match="is empty"):
                    sphere_points(ctx, s, r)
                continue
            sph = sphere_points(ctx, s, r)
            # int64 rows, one per point of S_r, in radix order
            assert sph.dtype == np.int64
            assert sph.shape == (count, s)
            assert np.all(np.diff(np.ravel_multi_index(sph.T, (q,) * s)) > 0)
            for p in sph:
                assert int((p * p).sum()) % q == r % q


class TestSphereSpectrum:
    """sphere_spectrum, the axis-factored sum, against the closed form spread over the grid."""

    @pytest.mark.parametrize("q,s", [(3, 2), (5, 2), (7, 2), (13, 2),
                                     (3, 3), (5, 3), (7, 3), (13, 3)])
    def test_modes_agree(self, contexts, q, s):
        ctx = contexts[q]
        for r in range(q):
            d = sphere_spectrum(ctx, s, r).values
            c = closed_form_spectrum(ctx, s, r)
            assert np.max(np.abs(d - c)) <= 1e-9

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    @pytest.mark.parametrize("s", (2, 3))
    def test_origin_value_is_density(self, contexts, q, s):
        counts = sphere_counts(contexts[q], s)
        for r in range(q):
            for vals in (sphere_spectrum(contexts[q], s, r).values,
                         closed_form_spectrum(contexts[q], s, r)):
                assert abs(vals.flat[0] - counts[r] / q ** s) <= 1e-12

    def test_q7_r3_example(self, contexts):
        d = sphere_spectrum(contexts[7], 2, 3).values
        c = closed_form_spectrum(contexts[7], 2, 3)
        assert np.max(np.abs(d - c)) <= 1e-9


class TestSphereBlocks:
    """Every row of sphere_blocks against the direct transform of the sphere's 0/1 grid."""

    @pytest.mark.parametrize("q,s", [(3, 2), (5, 2), (13, 2), (7, 3), (31, 3), (5, 4), (13, 4),
                                     (7, 5), (3, 6), (5, 1), (7, 1), (157, 2)])
    def test_rows_match_the_direct_transform(self, q, s):
        # At q = 157 > DENSE_MAX_Q the sum over t runs on pocketfft, elsewhere as zgemm.
        ctx = make_field(q)
        direct = np.stack([forward_transform(ctx, GridFunction(
            (norm_grid(ctx, s) == r).astype(np.float64))).values for r in range(q)])
        m0s = []
        for m0, vals in sphere_blocks(ctx, s):
            assert vals.shape == (q,) + direct.shape[2:]
            assert np.max(np.abs(vals - direct[:, m0])) <= 1e-14
            m0s.append(m0)
        assert m0s == list(range(direct.shape[1]))  # every first-axis value of the half

    @pytest.mark.parametrize("q,s", [(7, 1), (7, 3), (157, 2)])
    def test_sphere_spectrum_is_a_row_of_the_blocks(self, q, s):
        ctx = make_field(q)
        # The same products summed alone over t, so equal up to rounding.
        for r in (0, 1, q - 1, q + 1, -2):
            want = np.stack([vals[r % q] for _, vals in sphere_blocks(ctx, s)])
            got = sphere_spectrum(ctx, s, r).values
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-15


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
        got = forward_transform(ctx, GridFunction(g)).values
        dense = dense_passes(spectral._dft_matrices(ctx), g) / 157 ** 2
        assert got.shape == (157, 79)
        assert np.max(np.abs(got - half(dense))) <= 1e-12

    @pytest.mark.parametrize("q", (13, 151, 157))
    def test_inverse_matches_dense_passes(self, q):
        # The inverse runs pocketfft at every q, on both sides of DENSE_MAX_Q.
        ctx = make_field(q)
        F = np.fft.fftn(random_grid(q, 2, seed=4).values)  # a real grid's full spectrum
        got = inverse_transform(ctx, Spectrum(half(F))).values
        # The reference runs in long double, off BLAS, with the kernel e(+x m / q)
        # built from 2 pi k / q, so its bytes do not depend on the BLAS thread count.
        k = np.arange(q)
        V = np.exp(1j * (np.outer(k, k) % q * (2 * np.pi / np.longdouble(q))))
        assert np.max(np.abs(got - dense_passes(V, F.astype(np.clongdouble)))) <= 1e-10


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
            got = by_norm(ctx, half(v))
            assert got.dtype == np.float64 and got.shape == (q,)
            assert np.max(np.abs(got - want)) <= 1e-12 * q ** s * np.max(np.abs(v))
