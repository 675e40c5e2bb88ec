"""The run's caps live on the FieldContext and reach every computation.

make_field(q, grid_cap=..., pair_cap=...) stores both caps; every
function that builds a q**s grid reads ctx.grid_cap, and the checkers'
nu_brute pass reads ctx.pair_cap.  The cached per-q tables take no part
in this: a table warmed under one context serves a context with another
cap, and the cap is still checked.
"""

import json

import numpy as np
import pytest

from ffdist import distance, spectral
from ffdist.charsums import sphere_class_values
from ffdist.checks import CHECKERS, check_nu_spectral, check_nu_zero_bound
from ffdist.distance import (
    cross_profile,
    indicator_grid,
    nu_spectral,
    set_spectrum,
    spherical_profile,
)
from ffdist.errors import CapError, CapExceeded, ConfigError, PairCapExceeded
from ffdist.field import DEFAULT_GRID_CAP, DEFAULT_PAIR_CAP, make_field
from ffdist.generators import GeneratorSpec, generate
from ffdist.spectral import (
    GridFunction,
    Spectrum,
    enumerate_sphere,
    forward_transform,
    inverse_transform,
    norm_grid,
    sphere_counts,
    sphere_indicator,
    sphere_spectrum,
)
from ffdist.sweep import SweepConfig, validate_config
from conftest import cli, random_set

# 7**2 = 49 grid entries, one over the cap.
CAPPED = make_field(7, grid_cap=48)
E, F = random_set(7, 2, 5, 1), random_set(7, 2, 6, 2)

# Every public function that builds a grid on F_q^s, called with its defaults.
GRID_FUNCTIONS = {
    "forward_transform": lambda ctx: forward_transform(
        ctx, GridFunction(q=7, s=2, values=np.zeros((7, 7)))),
    "inverse_transform": lambda ctx: inverse_transform(
        ctx, Spectrum(q=7, s=2, values=np.zeros((7, 4), dtype=np.complex128))),
    "sphere_counts": lambda ctx: sphere_counts(ctx, 2),
    "enumerate_sphere": lambda ctx: enumerate_sphere(ctx, 2, 1),
    "sphere_indicator": lambda ctx: sphere_indicator(ctx, 2, 1),
    "sphere_spectrum": lambda ctx: sphere_spectrum(ctx, 2, 1),
    "set_spectrum": lambda ctx: set_spectrum(ctx, E),
    "nu_spectral": lambda ctx: nu_spectral(ctx, E, F),
    "spherical_profile": lambda ctx: spherical_profile(ctx, E),
    "cross_profile": lambda ctx: cross_profile(ctx, E, F),
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
        with pytest.raises(PairCapExceeded, match="pair cap 29"):
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
        assert not isinstance(info.value, CapError)
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
        GRID_FUNCTIONS[name](make_field(7, grid_cap=49))

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_every_checker_reads_the_cap(self, name):
        norm_grid(make_field(7), 2)
        with pytest.raises(CapExceeded, match="exceeds grid cap 48"):
            CHECKERS[name](CAPPED, E, F)
        CHECKERS[name](make_field(7, grid_cap=49), E, F)

    def test_character_sum_table_reads_the_cap(self):
        # At s = 1 the q x (q - 1) table of the class values outgrows the q**s grid.
        with pytest.raises(CapExceeded, match="character-sum table 13 x 12 = 156 "
                                              "entries exceeds grid cap 155"):
            sphere_class_values(make_field(13, grid_cap=155), 1, 1)
        sphere_class_values(make_field(13, grid_cap=156), 1, 1)
        # nu_zero builds no such table: it runs under a cap of the q**s grid alone.
        E1, F1 = random_set(13, 1, 5, 1), random_set(13, 1, 6, 2)
        assert check_nu_zero_bound(make_field(13, grid_cap=13), E1, F1).explicit_pass

    def test_nu_zero_at_large_q_and_s_1(self):
        # At q = 4099 the class-value table would be 4099 x 4098 entries, over the default cap.
        proc = cli("verify", "--q", "4099", "--s", "1", "--sizeE", "100", "--sizeF", "100",
                   "--lemma", "nu_zero")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["explicit_pass"] is True

    def test_product_sets_read_the_cap(self):
        specs = (GeneratorSpec("subspace", params={"dim": 2}),
                 GeneratorSpec("product_interval", params={"lengths": [7, 7]}))
        for spec in specs:
            with pytest.raises(CapExceeded, match="product set of 49 points exceeds "
                                                  "grid cap 48"):
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


class TestRealIndicators:
    def test_indicator_grids_are_real(self):
        ctx = make_field(7)
        assert indicator_grid(E).values.dtype == np.float64
        assert sphere_indicator(ctx, 2, 1).values.dtype == np.float64

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
        as_complex = GridFunction(q=q, s=s, values=real.values.astype(np.complex128))
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
