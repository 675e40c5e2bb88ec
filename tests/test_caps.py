"""The run's caps live on the FieldContext and reach every computation.

make_field(q, grid_cap=..., pair_cap=...) stores both caps; every
function that builds or reads a q**s grid reads ctx.grid_cap, and the checkers'
nu_brute pass reads ctx.pair_cap.  The cached per-q tables take no part
in this: a table warmed under one context serves a context with another
cap, and the cap is still checked.
"""

import json
import tracemalloc

import numpy as np
import pytest

from ffdist import distance, spectral
from ffdist.charsums import sphere_class_values
from ffdist.checks import CHECKERS, check_nu_spectral, check_nu_zero_bound, check_sphere_bounds
from ffdist.distance import (
    cross_profile,
    indicator_grid,
    nu_spectral,
    set_spectra,
    set_spectrum,
    spherical_profile,
)
from ffdist.errors import CapExceeded, ConfigError
from ffdist.field import DEFAULT_GRID_CAP, DEFAULT_PAIR_CAP, make_field
from ffdist.generators import GeneratorSpec, generate
from ffdist.setio import read_pointset
from ffdist.spectral import (
    GridFunction,
    by_norm,
    forward_transform,
    half_norm_grid,
    norm_grid,
    sphere_blocks,
    sphere_counts,
    sphere_spectrum,
)
from ffdist.sweep import SweepConfig, validate_config
from conftest import cli, random_set

# 7**2 = 49 grid entries, one over the cap.
CAPPED = make_field(7, grid_cap=48)
E, F = random_set(7, 2, 5, 1), random_set(7, 2, 6, 2)
# Spectra taken under an uncapped context: bucketing them still reads the cap.
EHAT, FHAT = set_spectrum(make_field(7), E), set_spectrum(make_field(7), F)

# Every public function and generator kind that builds or reads a grid on F_q^s,
# called with its defaults.
GRID_FUNCTIONS = {
    "forward_transform": lambda ctx: forward_transform(
        ctx, GridFunction(np.zeros((7, 7)))),
    "half_norm_grid": lambda ctx: half_norm_grid(ctx, 2),
    "by_norm": lambda ctx: by_norm(ctx, np.ones((7, 4))),
    "sphere_counts": lambda ctx: sphere_counts(ctx, 2),
    "sphere_set": lambda ctx: generate(ctx, 2, GeneratorSpec("sphere_set", params={"radius": 1})),
    "sphere_blocks": lambda ctx: list(sphere_blocks(ctx, 2)),
    "sphere_spectrum": lambda ctx: sphere_spectrum(ctx, 2, 1),
    "set_spectrum": lambda ctx: set_spectrum(ctx, E),
    "set_spectra": lambda ctx: set_spectra(ctx, E, F),
    "nu_spectral": lambda ctx: nu_spectral(ctx, E, F),
    "spherical_profile": lambda ctx: spherical_profile(ctx, EHAT),
    "cross_profile": lambda ctx: cross_profile(ctx, EHAT, FHAT),
}


class TestContextCaps:
    def test_make_field_stores_the_caps(self):
        ctx = make_field(7)
        assert (ctx.grid_cap, ctx.pair_cap) == (DEFAULT_GRID_CAP, DEFAULT_PAIR_CAP)
        ctx = make_field(7, grid_cap=48, pair_cap=10)
        assert (ctx.grid_cap, ctx.pair_cap) == (48, 10)

    def test_caps_take_no_part_in_equality(self):
        assert CAPPED == make_field(7) and hash(CAPPED) == hash(make_field(7))

    def test_validate_config_builds_the_caps_in(self):
        cfg = SweepConfig(q_list=[5, 7], s_list=[2], size_pairs=[(2, 3)], trials=1,
                          seed=0, checkers=["profile_mass"], grid_cap=60, pair_cap=10)
        assert {q: (c.grid_cap, c.pair_cap) for q, c in validate_config(cfg).items()} \
            == {5: (60, 10), 7: (60, 10)}

    def test_the_pair_cap_reaches_the_oracle(self):
        with pytest.raises(CapExceeded, match="pair cap 29"):
            check_nu_spectral(make_field(7, pair_cap=29), E, F)
        assert check_nu_spectral(make_field(7, pair_cap=30), E, F).explicit_pass


class TestNegativeCaps:
    # A negative cap is a usage error (exit 2), not a cap hit (exit 3).
    SMALL = ("--q", "13", "--s", "2", "--sizeE", "5", "--sizeF", "5")

    @pytest.mark.parametrize("args", (
        ("verify", *SMALL, "--cap-pairs", "-1", "--lemma", "nu_spectral"),
        ("verify", *SMALL, "--cap-grid", "-1", "--lemma", "nu_spectral"),
        ("bench", *SMALL, "--cap-pairs", "-5"),
    ), ids=("verify-pairs", "verify-grid", "bench-pairs"))
    def test_cli_refuses_a_negative_cap(self, args):
        proc = cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "must be >= 0" in proc.stderr

    def test_make_field_refuses_a_negative_cap(self):
        with pytest.raises(ConfigError, match="pair_cap = -1 must be >= 0") as info:
            make_field(7, pair_cap=-1)
        assert not isinstance(info.value, CapExceeded)
        with pytest.raises(ConfigError, match="grid_cap = -1 must be >= 0"):
            make_field(7, grid_cap=-1)

    def test_zero_pair_cap_asks_for_spectral_only(self):
        proc = cli("bench", *self.SMALL, "--reps", "1", "--cap-pairs", "0")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mode"] == "spectral_only"


class TestGridCap:
    @pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
    @pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
    def test_every_grid_function_reads_the_cap(self, name, warm):
        spectral.norm_grid.cache_clear()
        spectral._dft_matrices.cache_clear()
        if warm:  # tables cached under an uncapped context of the same q
            norm_grid(make_field(7), 2)
            GRID_FUNCTIONS["forward_transform"](make_field(7))
        with pytest.raises(CapExceeded, match="exceeds grid cap 48"):
            GRID_FUNCTIONS[name](CAPPED)
        assert norm_grid.cache_info().misses == int(warm)  # the refusal built no grid
        GRID_FUNCTIONS[name](make_field(7, grid_cap=49))

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_every_checker_reads_the_cap(self, name):
        norm_grid(make_field(7), 2)
        with pytest.raises(CapExceeded, match="exceeds grid cap 48"):
            CHECKERS[name](CAPPED, E, F)
        CHECKERS[name](make_field(7, grid_cap=49), E, F)

    def test_set_spectra_refuses_before_it_allocates_on_pocketfft(self):
        # The table above runs at q = 7, on the dense passes; at 1021 the complex grid
        # 1_E + i 1_F alone would take 16 MB.
        ctx = make_field(1021, grid_cap=1021 ** 2 - 1)
        E2, F2 = random_set(1021, 2, 50, 1), random_set(1021, 2, 60, 2)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=f"exceeds grid cap {1021 ** 2 - 1}"):
                set_spectra(ctx, E2, F2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_character_sum_table_reads_the_cap(self):
        # At s = 1 the q x (q - 1) table of the class values outgrows the q**s grid.
        with pytest.raises(CapExceeded, match="character-sum table 13 x 12 = 156 "
                                              "entries exceeds grid cap 155"):
            sphere_class_values(make_field(13, grid_cap=155), 1, 1)
        sphere_class_values(make_field(13, grid_cap=156), 1, 1)
        # nu_zero builds no such table: it runs under a cap of the q**s grid alone.
        E1, F1 = random_set(13, 1, 5, 1), random_set(13, 1, 6, 2)
        assert check_nu_zero_bound(make_field(13, grid_cap=13), E1, F1).explicit_pass

    def test_sphere_sum_tables_read_the_cap(self):
        # At s = 1 the q x q tables G and W of the sphere transforms outgrow the q**s grid.
        with pytest.raises(CapExceeded, match="sphere-sum table 13 x 13 = 169 "
                                              "entries exceeds grid cap 168"):
            check_sphere_bounds(make_field(13, grid_cap=168), 1)
        assert check_sphere_bounds(make_field(13, grid_cap=169), 1).explicit_pass
        args = ("verify", "--q", "13", "--s", "1", "--sizeE", "3", "--sizeF", "3",
                "--lemma", "sphere_bounds")
        proc = cli(*args, "--cap-grid", "168")
        assert proc.returncode == 3
        assert "169 entries exceeds grid cap 168" in proc.stderr
        proc = cli(*args, "--cap-grid", "169")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["explicit_pass"] is True

    def test_sphere_bounds_at_large_q_and_s_1(self):
        # 4099**2 = 16801801 table entries are over the default cap; nu_zero runs there.
        proc = cli("verify", "--q", "4099", "--s", "1", "--sizeE", "100", "--sizeF", "100",
                   "--lemma", "sphere_bounds")
        assert proc.returncode == 3
        assert "4099 x 4099 = 16801801 entries exceeds grid cap 4194304" in proc.stderr

    def test_nu_zero_at_large_q_and_s_1(self):
        # At q = 4099 the class-value table would be 4099 x 4098 entries, over the default cap.
        proc = cli("verify", "--q", "4099", "--s", "1", "--sizeE", "100", "--sizeF", "100",
                   "--lemma", "nu_zero")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["explicit_pass"] is True

    def test_product_sets_read_the_cap(self):
        spec = GeneratorSpec("product_interval", params={"lengths": [7, 7]})
        with pytest.raises(CapExceeded, match="product set of 49 points exceeds grid cap 48"):
            generate(CAPPED, 2, spec)
        assert generate(make_field(7, grid_cap=49), 2, spec).size == 49

    def test_cli_cap_grid_reaches_the_checkers(self):
        # 2053**2 = 4214809 is over the default cap of 2**22 = 4194304.
        args = ("verify", "--s", "2", "--sizeE", "10", "--sizeF", "10",
                "--lemma", "profile_mass")
        proc = cli(*args, "--q", "2053", "--cap-grid", "5000000")
        assert proc.returncode == 0, proc.stderr
        proc = cli(*args, "--q", "7", "--cap-grid", "48")
        assert proc.returncode == 3
        assert "exceeds grid cap 48" in proc.stderr

    def test_cli_cap_grid_reaches_gen(self, tmp_path):
        out = tmp_path / "E.txt"
        args = ("gen", "--q", "7", "--s", "2", "--kind", "product_interval",
                "--lengths", "7,7", "--out", str(out))
        proc = cli(*args, "--cap-grid", "48")
        assert proc.returncode == 3
        assert "product set of 49 points exceeds grid cap 48" in proc.stderr
        assert not out.exists()
        proc = cli(*args, "--cap-grid", "-1")
        assert proc.returncode == 2 and "grid_cap = -1 must be >= 0" in proc.stderr
        proc = cli(*args, "--cap-grid", "49")
        assert proc.returncode == 0, proc.stderr
        assert read_pointset(out).size == 49


class TestRealIndicators:
    def test_indicator_grids_are_real(self):
        ctx = make_field(7)
        assert indicator_grid(E).values.dtype == np.float64
        # forward_transform refuses a complex grid, so a sphere's direct transform is of
        # this real one; sphere_spectrum is row r of sphere_blocks' sum, taken alone.
        sphere = GridFunction((norm_grid(ctx, 2) == 1).astype(np.float64))
        got = sphere_spectrum(ctx, 2, 1).values
        rows = np.stack([vals[1] for _, vals in sphere_blocks(ctx, 2)])
        assert np.max(np.abs(got - rows)) <= 1e-15
        assert np.max(np.abs(got - forward_transform(ctx, sphere).values)) <= 1e-14

    @pytest.mark.parametrize("q, s", ((31, 3), (151, 2)))
    def test_real_indicator_transforms_bit_identical(self, q, s):
        # On the dense side (q <= spectral.DENSE_MAX_Q) the transform of the
        # real 0/1 grid is repeatable bit for bit and is the set's spectrum;
        # the same grid stored as complex128 is refused.
        ctx = make_field(q)
        G = random_set(q, s, 2000, 7)
        real = indicator_grid(G)
        before = real.values.copy()
        a = forward_transform(ctx, real).values
        assert a.shape == (q,) * (s - 1) + ((q + 1) // 2,)
        assert forward_transform(ctx, real).values.tobytes() == a.tobytes()
        assert np.array_equal(real.values, before)  # the input is not written
        assert np.array_equal(distance.set_spectrum(ctx, G).values, a)
        as_complex = GridFunction(real.values.astype(np.complex128))
        with pytest.raises(TypeError, match="complex"):
            forward_transform(ctx, as_complex)

    def test_real_indicator_transforms_agree_on_pocketfft(self):
        # Above DENSE_MAX_Q real input takes rfftn: its half agrees with the
        # complex fftn of the same grid to rounding, not bit for bit.
        q, s = 1021, 2
        ctx = make_field(q)
        G = random_set(q, s, 2000, 7)
        real = indicator_grid(G)
        before = real.values.copy()
        a = forward_transform(ctx, real).values
        b = np.fft.fftn(real.values.astype(np.complex128))[:, :(q + 1) // 2] / q ** s
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
        assert np.array_equal(real.values, before)  # the input is not written
        assert np.array_equal(distance.set_spectrum(ctx, G).values, a)
