import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
    set_spectra,
    set_spectrum,
    spectral,
    spherical_profile,
)
from ffdist.errors import CapExceeded, ConfigError, DuplicatePoint, FieldMismatch
from conftest import random_set, run_python

TWO_POINTS = [(0, 0), (1, 0)]


def literal_nu(E, F):
    """nu by its definition, one x at a time: int64 |x - y|^2 against all of F, mod q."""
    nu = np.zeros(E.q, dtype=np.int64)
    for x in E.points:
        nu += np.bincount(((x - F.points) ** 2).sum(axis=1) % E.q, minlength=E.q)
    return nu


@pytest.fixture
def lookups(monkeypatch):
    """(table size, index shape) of every np.take call the test makes, in block order.

    One worker runs every block, as the order is that of the blocks only then;
    TestWorkers holds the split.
    """
    monkeypatch.setattr(spectral, "WORKERS", 1)
    calls, take = [], np.take

    def spy(a, indices, *args, **kwargs):
        calls.append((a.size, indices.shape))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    return calls


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
        assert (E.q, E.s, E.size) == (3, 2, 2)
        assert make_point_set(13, 1, [(5,)]).s == 1  # s is read off the points

    def test_large_permuted_set_matches_a_unique_sort(self):
        q, s, n = 2039, 2, 300_000
        rng = np.random.default_rng(4)
        pts = np.stack(np.unravel_index(rng.choice(q ** s, n, replace=False), (q,) * s), axis=1)
        E = make_point_set(q, s, pts)
        assert E.points.dtype == np.int64 and E.points.shape == (n, s)
        assert E.points.tobytes() == np.unique(pts, axis=0).astype(np.int64).tobytes()
        # A repeat names its second input row: row n - 7 moves to n - 6 behind the copy.
        with pytest.raises(DuplicatePoint) as info:
            make_point_set(q, s, np.insert(pts, 1000, pts[n - 7], axis=0))
        assert info.value.row == n - 6

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="at least one point"):
            make_point_set(3, 2, [])

    @pytest.mark.parametrize("points", [[(0, 1, 2)], [(0,)], [0, 1]])
    def test_points_must_be_s_tuples(self, points):
        with pytest.raises(ConfigError, match="points must be 2-tuples"):
            make_point_set(3, 2, points)

    def test_ragged_list_is_a_config_error(self):
        # numpy refuses a ragged list with its own ValueError.
        with pytest.raises(ConfigError, match="points must be 2-tuples"):
            make_point_set(3, 2, [(0, 1), (2,)])

    def test_refuses_a_space_past_the_radix_indices(self):
        with pytest.raises(ConfigError, match=r"3\*\*41 exceeds the int64"):
            make_point_set(3, 41, [[0] * 41])

    def test_refuses_dimension_0(self):
        with pytest.raises(ConfigError, match="dimension s = 0 must be >= 1"):
            make_point_set(3, 0, [()])

    def test_refuses_non_integer_coordinates(self):
        with pytest.raises(ConfigError, match=r"must be integers, each reduced mod q; got 1\.5"):
            make_point_set(7, 2, [(1.5, 2)])

    # numpy reads True beside 2 as the int64 1, and 1.0 beside 2 as a float64 array.
    @pytest.mark.parametrize("points,bad", [
        ([(True, False)], "True"),
        ([(2, True)], "True"),
        ([(2, 1.0)], "1.0"),
        (np.array([[1, 0]], dtype=bool), "np.True_"),
        (np.array([[3.0, 1.0]]), "np.float64(3.0)"),
    ], ids=["bool", "bool-beside-int", "float-beside-int", "bool-array", "float-array"])
    def test_refusal_names_the_rule(self, points, bad):
        with pytest.raises(ConfigError) as info:
            make_point_set(7, 2, points)
        assert str(info.value) == f"coordinates must be integers, each reduced mod q; got {bad}"

    # Before, [0, 2**63] and [-1, 2**63] read as float64 arrays and were refused, while
    # [2**63, 2**63 + 1] read as uint64 and was reduced: the verdict hung on the neighbours.
    @pytest.mark.parametrize("row", [(0, 2 ** 63), (-1, 2 ** 63), (2 ** 63, 2 ** 63 + 1),
                                     (2 ** 70, -5), (np.int64(-1), 2 ** 64)],
                             ids=["zero-beside-2^63", "minus-one-beside-2^63", "uint64-pair",
                                  "past-uint64", "numpy-int-beside-2^64"])
    def test_each_integer_coordinate_is_reduced_exactly(self, row):
        assert make_point_set(7, 2, [row]).points.tolist() == [[int(c) % 7 for c in row]]

    @pytest.mark.parametrize("q,message", [
        (4, "q = 4 is even"), (9, "q = 9 is not prime"), (1, "q = 1 < 3"),
        (2 ** 20 + 7, "q = 1048583 exceeds cap 1048576"), (7.0, "q must be an integer, got 7.0"),
    ], ids=["even", "composite", "below-3", "past-cap", "float"])
    def test_refuses_a_modulus_make_field_refuses(self, q, message):
        # Over Z/4 nu_brute counted [0 2 0 0] for two points against (1, 1).
        for call in (make_field, lambda q: make_point_set(q, 2, [(0, 1), (2, 3)])):
            with pytest.raises(ConfigError) as info:
                call(q)
            assert str(info.value) == message

    def test_refuses_a_non_integer_dimension(self):
        with pytest.raises(ConfigError, match="s must be an integer, got 2.0"):
            make_point_set(7, 2.0, [(1, 2)])

    def test_numpy_modulus_does_not_wrap_the_radix_check(self):
        # np.int64(3) ** 41 wraps in int64 and used to pass the check (numpy's ValueError).
        with pytest.raises(ConfigError, match=r"3\*\*41 exceeds the int64"):
            make_point_set(np.int64(3), 41, [[0] * 41])

    @pytest.mark.parametrize("coord", [2 ** 63, 2 ** 64 - 1])
    def test_reduces_uint64_coordinates_before_the_int64_cast(self, coord):
        # Both lists read as uint64 arrays; cast to int64 first, they would wrap negative.
        assert make_point_set(7, 1, [[coord]]).points.tolist() == [[coord % 7]]


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


# Dense q: set_spectra is two set_spectrum calls.  Pocketfft q (131 is past PAD_MAX,
# s = 1 has no leading axis to reverse): one complex transform gives both spectra.
DENSE_SHAPES = [(31, 3), (151, 2), (151, 3)]
POCKETFFT_SHAPES = [(131, 2), (157, 2), (157, 3), (257, 2), (1021, 1), (1021, 2)]


def spectra_sets(q, s):
    n = min(2000, q ** s // 3)
    return random_set(q, s, n, seed=q + s), random_set(q, s, n + 10, seed=q + s + 1)


class TestSetSpectra:
    @pytest.mark.parametrize("q,s", DENSE_SHAPES)
    def test_dense_q_gives_the_bytes_of_two_set_spectrum_calls(self, q, s):
        ctx = make_field(q)
        assert spectral.dense_forward(q)
        E, F = spectra_sets(q, s)
        for spectrum, A in zip(set_spectra(ctx, E, F), (E, F)):
            assert spectrum.values.tobytes() == set_spectrum(ctx, A).values.tobytes()

    @pytest.mark.parametrize("q,s", POCKETFFT_SHAPES)
    def test_pocketfft_q_matches_set_spectrum(self, q, s):
        ctx = make_field(q)
        assert not spectral.dense_forward(q)
        E, F = spectra_sets(q, s)
        for spectrum, A in zip(set_spectra(ctx, E, F), (E, F)):
            ref = set_spectrum(ctx, A).values
            assert spectrum.values.shape == ref.shape
            assert np.max(np.abs(spectrum.values - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert spectrum.values.flat[0] == pytest.approx(A.size / q ** s, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q,s", DENSE_SHAPES + POCKETFFT_SHAPES)
    def test_nu_spectral_matches_oracle(self, q, s):
        ctx = make_field(q)
        E, F = spectra_sets(q, s)
        for A, B in ((E, F), (F, E), (E, E)):  # E is F too: G = (1 + i) 1_E
            assert np.array_equal(nu_spectral(ctx, A, B).nu, nu_brute(A, B).nu)

    @pytest.mark.parametrize("q", (151, 157))  # the dense and the pocketfft backend
    def test_refuses_sets_over_different_fields(self, q):
        ctx = make_field(q)
        E = random_set(q, 2, 10, 0)
        for other in (random_set(163, 2, 10, 1), random_set(q, 3, 10, 1)):
            for A, B in ((E, other), (other, E)):
                with pytest.raises(FieldMismatch, match="inputs live over"):
                    set_spectra(ctx, A, B)
        with pytest.raises(FieldMismatch, match=f"q=163, field context has q={q}"):
            set_spectra(ctx, random_set(163, 2, 10, 1), random_set(163, 2, 12, 2))


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
        with pytest.raises(CapExceeded, match=r"#E \* #F = 1600 exceeds pair cap 100"):
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

    # Group tables at TABLE_MAX = 2**18 hold (2q - 1)^n entries each.
    @pytest.mark.parametrize("q,s,tables", [
        (31, 3, [61 ** 3]),                     # every axis in one group
        (101, 2, [201 ** 2]),
        (13, 5, [25 ** 3, 25 ** 2]),            # a full group, then a shorter one
        (3, 39, [5 ** 7] * 5 + [5 ** 4]),
        (1048573, 2, [2 * 1048573 - 1] * 2),    # (2q - 1)^2 > TABLE_MAX: one axis a group
    ], ids=["31^3", "101^2", "13^5", "3^39", "1048573^2"])
    def test_one_lookup_per_pair_and_group_of_axes(self, lookups, q, s, tables):
        rng = np.random.default_rng(q + s)
        E = make_point_set(q, s, np.unique(rng.integers(0, q, (300, s)), axis=0))
        F = make_point_set(q, s, np.unique(rng.integers(0, q, (250, s)), axis=0))
        nu = nu_brute(E, F).nu
        # Each block of E rows looks up every group once, all against F, and the
        # blocks cover E.
        k = len(tables)
        assert [n for n, _ in lookups] == tables * (len(lookups) // k)
        shapes = [shape for _, shape in lookups]
        assert all(shapes[i:i + k] == [shapes[i]] * k for i in range(0, len(shapes), k))
        assert {cols for _, cols in shapes} == {F.size}
        assert sum(rows for rows, _ in shapes[::k]) == E.size
        assert np.array_equal(nu, literal_nu(E, F))

    def test_no_group_table_exceeds_table_max(self, lookups):
        # Groups take the most axes whose table fits TABLE_MAX; one axis always
        # does, so only a one-axis table (2q - 1 entries) may be longer.
        for q in (3, 5, 7, 13, 31, 61, 101, 151, 257, 521, 1021, 1048573):
            base = 2 * q - 1
            for s in range(1, 9):
                if q ** s > 2 ** 63 - 1:
                    break
                lookups.clear()
                nu_brute(make_point_set(q, s, [(0,) * s, (1,) * s]),
                         make_point_set(q, s, [(q - 1,) * s]))
                sizes = [size for size, _ in lookups]
                assert math.prod(sizes) == base ** s  # the groups cover the s axes
                assert all(n <= distance.TABLE_MAX or n == base for n in sizes)
                assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]
                assert len(sizes) == 1 or sizes[0] * base > distance.TABLE_MAX

    def test_one_row_per_block(self):
        # #F > max(BLOCK_PAIRS, s q) leaves one row of E per block.
        E, F = random_set(1021, 2, 3, 1), random_set(1021, 2, 1_000_001, 2)
        nu = nu_brute(E, F).nu
        assert nu.dtype == np.int64 and int(nu.sum()) == 3 * 1_000_001
        assert np.array_equal(nu, literal_nu(E, F))

    def test_last_block_is_partial(self):
        # 3000 points of F give blocks of ceil(2**16 / 3000) = 22 rows; 1000 = 45 * 22 + 10.
        E, F = random_set(31, 3, 1000, 3), random_set(31, 3, 3000, 4)
        assert np.array_equal(nu_brute(E, F).nu, literal_nu(E, F))

    # A block is ceil(BLOCK_PAIRS / #F) rows where s q <= BLOCK_PAIRS (31^3, one
    # group of axes), and ceil(s q / #F) rows where the histogram is longer
    # (s q = 65542 at 32771^2, one axis a group).
    @pytest.mark.parametrize("q,s,nE,nF,groups,rows", [
        (31, 3, 100, 3000, 1, [22] * 4 + [12]),
        (32771, 2, 400, 500, 2, [132] * 3 + [4]),
    ], ids=["BLOCK_PAIRS", "s*q"])
    def test_partial_last_block_on_each_side_of_the_floor(self, lookups, q, s, nE, nF,
                                                          groups, rows):
        assert -(-max(distance.BLOCK_PAIRS, s * q) // nF) == rows[0]
        E, F = random_set(q, s, nE, 7), random_set(q, s, nF, 8)
        nu = nu_brute(E, F).nu
        assert [shape for _, shape in lookups] == [(n, nF) for n in rows for _ in range(groups)]
        assert np.array_equal(nu, literal_nu(E, F))

    def test_no_block_is_smaller_than_its_histogram(self, lookups):
        # At 1048573^2 the s q = 2097146 bins of a block's bincount outnumber
        # BLOCK_PAIRS, so each block but the last takes at least s q pairs, not 2**16.
        q, s = 1048573, 2
        rng = np.random.default_rng(9)
        E = make_point_set(q, s, np.unique(rng.integers(0, q, (1500, s)), axis=0))
        F = make_point_set(q, s, np.unique(rng.integers(0, q, (3000, s)), axis=0))
        assert s * q > distance.BLOCK_PAIRS
        nu = nu_brute(E, F).nu
        rows = [shape[0] for _, shape in lookups[::s]]  # one-axis groups: s lookups a block
        assert len(rows) > 1 and sum(rows) == E.size
        assert all(n * F.size >= s * q for n in rows[:-1])
        assert int(nu.sum()) == E.size * F.size

    def test_temporaries_stay_bounded(self, monkeypatch):
        # One 61^3 int32 table (0.9 MB) and blocks of 2**16 pairs, 0.5 MB of int64
        # offsets and 0.25 MB of int32 sums, one block a worker: a 2.0 MB peak at one
        # worker, 3.1 MB at two.  Blocks of 1e6 pairs peaked at 16 MB, an int64
        # (block, #F, s) difference tensor would at 76 MB.
        E, F = random_set(31, 3, 2000, 1), random_set(31, 3, 2010, 2)
        for workers in (1, 2):
            monkeypatch.setattr(spectral, "WORKERS", workers)
            tracemalloc.start()
            try:
                nu_brute(E, F)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20, workers

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


def at_one_and_two_workers(monkeypatch, module, name, call):
    """[(call(), whether every call of module.name ran in the main thread)] at 1 and 2 workers."""
    inner, on_main = getattr(module, name), []

    def spy(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "WORKERS", workers)
        on_main.clear()
        result = call()
        assert on_main
        out.append((result, set(on_main)))
    return out


class TestWorkers:
    """The split loops give the same bytes at one and at two workers (spectral.split_map)."""

    @pytest.mark.parametrize("q,s", [(1021, 2), (157, 3), (131, 2), (1021, 1)])
    def test_set_spectra_bytes(self, monkeypatch, q, s):
        ctx = make_field(q)
        assert not spectral.dense_forward(q)
        E, F = spectra_sets(q, s)
        (one, main_one), (two, main_two) = at_one_and_two_workers(
            monkeypatch, np.fft, "fft", lambda: [S.values.tobytes() for S in set_spectra(ctx, E, F)])
        assert one == two
        # Each pass of s >= 2 cuts its lines into two slabs, each run on a pool thread;
        # the one line at s = 1 runs inline.
        assert main_one == {True} and main_two == {s == 1}

    # 2000 x 2010 at 31^3 makes 61 blocks of 33 rows, 100 x 3000 five; s q = 1048573
    # sets the block at 1048573^1 (350 rows, 9 blocks).
    @pytest.mark.parametrize("q,s,nE,nF,blocks", [
        (31, 3, 2000, 2010, 61), (1021, 2, 3000, 3000, 137), (31, 3, 10, 20, 1),
        (31, 3, 100, 3000, 5), (1048573, 1, 3000, 3000, 9),
    ], ids=["31^3", "1021^2", "one-block", "odd-blocks", "1048573^1"])
    def test_nu_brute_bytes(self, monkeypatch, q, s, nE, nF, blocks):
        E, F = random_set(q, s, nE, 11), random_set(q, s, nF, 12)
        block = -(-max(distance.BLOCK_PAIRS, s * q) // nF)
        assert -(-nE // block) == blocks
        (one, main_one), (two, main_two) = at_one_and_two_workers(
            monkeypatch, np, "take", lambda: nu_brute(E, F).nu)
        assert one.dtype == two.dtype == np.int64 and one.tobytes() == two.tobytes()
        assert int(one.sum()) == nE * nF
        assert main_one == {True} and main_two == {blocks == 1}

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # Four callers at once, each splitting across the one pool at a short switch interval.
        monkeypatch.setattr(spectral, "WORKERS", 2)
        ctx = make_field(257)
        E, F = spectra_sets(257, 2)
        want = [S.values.tobytes() for S in set_spectra(ctx, E, F)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                runs = [callers.submit(set_spectra, ctx, E, F) for _ in range(8)]
                got = [[S.values.tobytes() for S in run.result(timeout=60)] for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8

    def test_import_starts_no_thread(self):
        # Nor does it load concurrent.futures, which the first split of two parts imports.
        proc = run_python("-c", "import sys, threading; n = threading.active_count(); "
                          "import ffdist; print(threading.active_count() - n, ffdist.spectral._pool, "
                          "'concurrent.futures' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]", "False"]


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
        pre = cross_profile(ctx, set_spectrum(ctx, E), set_spectrum(ctx, F))
        assert np.array_equal(nu_spectral(ctx, E, F, cross=pre).nu,
                              nu_spectral(ctx, E, F).nu)

    @pytest.mark.parametrize("other", ["over-q11", "column"])
    def test_refuses_a_cross_profile_of_another_shape(self, contexts, other):
        E, F = random_set(7, 2, 12, seed=3), random_set(7, 2, 9, seed=4)
        ctx = contexts[11]
        cross = np.ones((7, 1)) if other == "column" else cross_profile(
            ctx, set_spectrum(ctx, random_set(11, 2, 12, seed=3)),
            set_spectrum(ctx, random_set(11, 2, 9, seed=4)))
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
        prof = spherical_profile(contexts[3], set_spectrum(contexts[3], E))
        assert np.allclose(prof, np.array([1, 4, 4]) / 81, atol=1e-12)

    @pytest.mark.parametrize("q,s", [(3, 2), (7, 2), (5, 3)])
    def test_mass_identity(self, contexts, q, s):
        E = random_set(q, s, min(q ** s, 11), seed=q + s)
        prof = spherical_profile(contexts[q], set_spectrum(contexts[q], E))
        assert abs(prof.sum() - E.size / q ** s) <= 1e-12

    def test_cross_of_set_with_itself(self, contexts):
        ctx = contexts[7]
        Ehat = set_spectrum(ctx, random_set(7, 2, 12, seed=3))
        single, cross = spherical_profile(ctx, Ehat), cross_profile(ctx, Ehat, Ehat)
        assert (single.dtype, single.shape) == (np.float64, (7,))
        assert (cross.dtype, cross.shape) == (np.float64, (7,))
        assert np.max(np.abs(cross - single)) <= 1e-12

    def test_values_in_unit_interval(self, contexts):
        E = random_set(13, 2, 100, seed=4)
        vals = spherical_profile(contexts[13], set_spectrum(contexts[13], E))
        assert np.all(vals >= 0)
        assert np.all(vals <= E.size / 13 ** 2 + 1e-12)

    def test_pointwise_cauchy_schwarz(self, contexts):
        ctx = contexts[13]
        Ehat = set_spectrum(ctx, random_set(13, 2, 60, seed=8))
        Fhat = set_spectrum(ctx, random_set(13, 2, 45, seed=9))
        se, sf = spherical_profile(ctx, Ehat), spherical_profile(ctx, Fhat)
        cr = np.abs(cross_profile(ctx, Ehat, Fhat)) ** 2
        assert np.all(cr <= se * sf + 1e-15)

    def test_spherical_profile_refuses_a_spectrum_over_another_field(self, contexts, monkeypatch):
        S = set_spectrum(contexts[7], random_set(7, 2, 12, seed=3))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match="spectrum lives over q=7, field context has q=11"):
            spherical_profile(contexts[11], S)

    def test_cross_profile_refuses_spectra_of_another_dimension(self, contexts, monkeypatch):
        Ehat = set_spectrum(contexts[7], random_set(7, 2, 12, seed=3))
        Fhat = set_spectrum(contexts[7], random_set(7, 3, 12, seed=3))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match=re.escape(
                "inputs live over (q=7, s=2) and (q=7, s=3)")):
            cross_profile(contexts[7], Ehat, Fhat)

    def test_profiles_refuse_a_spectrum_of_another_shape(self, contexts, monkeypatch):
        # (5, 4) reads as q = 7, s = 2 off its last axis; the leading axis is not 7.
        bad = spectral.Spectrum(np.zeros((5, 4), dtype=np.complex128))
        good = set_spectrum(contexts[7], random_set(7, 2, 12, seed=3))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        shape = re.escape("spectrum has shape (5, 4), expected (7, 4)")
        with pytest.raises(FieldMismatch, match=shape):
            spherical_profile(contexts[7], bad)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(FieldMismatch, match=shape):
                cross_profile(contexts[7], *pair)

    def test_cross_profile_refuses_a_spectrum_over_another_field(self, contexts, monkeypatch):
        Ehat = set_spectrum(contexts[7], random_set(7, 2, 12, seed=3))
        Fhat = set_spectrum(contexts[7], random_set(7, 2, 9, seed=4))
        monkeypatch.setattr(distance, "by_norm", None)  # no bucketing runs
        with pytest.raises(FieldMismatch, match="spectrum lives over q=7, field context has q=11"):
            cross_profile(contexts[11], Ehat, Fhat)


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
        ctx = contexts[q]
        cross = cross_profile(ctx, set_spectrum(ctx, E), set_spectrum(ctx, F))
        assert cross.dtype == np.float64
        assert abs(float(cross.sum()) * q ** s - intersection_count(E, F)) <= 1e-8


def support_floor(dist):
    """Cauchy-Schwarz floor (sum_{j != 0} nu(j))^2 / sum_{j != 0} nu(j)^2, exact; the
    number of distinct nonzero attained distances is at least this value."""
    off = [int(n) for n in dist.nu[1:]]
    return Fraction(sum(off) ** 2, sum(n * n for n in off))


class TestSupportLowerBound:
    def test_two_point_example(self):
        E = make_point_set(3, 2, TWO_POINTS)
        dist = nu_brute(E, E)
        bound = support_floor(dist)
        assert bound == Fraction(1)
        assert len(distance_set(dist) - {0}) >= bound

    def test_uniform_equality_case(self, contexts):
        # full grid: nu is uniform over F_q^* by translation invariance
        E = full_grid_set(5, 2)
        dist = nu_brute(E, E)
        assert support_floor(dist) == Fraction(4)
        assert len(distance_set(dist) - {0}) == 4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), q=st.sampled_from((5, 7, 13)),
           nE=st.integers(2, 20), nF=st.integers(2, 20))
    def test_bound_property(self, seed, q, nE, nF):
        E = random_set(q, 2, nE, seed)
        F = random_set(q, 2, nF, seed + 1)
        dist = nu_brute(E, F)
        if int(dist.nu[1:].sum()) == 0:
            return
        bound = support_floor(dist)
        assert len(distance_set(dist) - {0}) >= bound


class TestSecondMomentIdentity:
    @pytest.mark.parametrize("q,s", [(3, 2), (7, 2), (5, 3), (13, 2)])
    def test_identity_random(self, contexts, q, s):
        ctx = contexts[q]
        E = random_set(q, s, min(q ** s - 1, 23), seed=q)
        F = random_set(q, s, min(q ** s - 1, 17), seed=q + 1)
        nu = nu_brute(E, F).nu.astype(float)
        lhs = float((nu ** 2).sum())
        cross = cross_profile(ctx, set_spectrum(ctx, E), set_spectrum(ctx, F))
        inter = intersection_count(E, F)
        rhs = (E.size * F.size) ** 2 / q \
            + q ** (3 * s) * float(np.sum(np.abs(cross) ** 2)) \
            - q ** (s - 1) * inter ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_singleton_hand_instance(self, contexts):
        # E = F = one point, q = 3, s = 2: 1 = 1/3 + 11/3 - 3
        Ehat = set_spectrum(contexts[3], make_point_set(3, 2, [(0, 0)]))
        cross = cross_profile(contexts[3], Ehat, Ehat)
        assert 3 ** 6 * float(np.sum(np.abs(cross) ** 2)) == pytest.approx(11 / 3)
        assert (1 * 1) ** 2 / 3 + 11 / 3 - 3 == pytest.approx(1.0)
