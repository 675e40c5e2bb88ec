import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ffdist import (
    charsums,
    cross_profile,
    make_point_set,
    nu_brute,
    set_spectrum,
    spherical_profile,
)
from ffdist import checks
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
)
from ffdist.sweep import SweepConfig, cell_sets, run_verify
from conftest import random_set
from test_distance import full_grid_set

README = Path(__file__).resolve().parents[1] / "README.md"


class TestProfileMass:
    def test_singleton(self, contexts):
        S = make_point_set(3, 2, [(0, 0)])
        rep = check_profile_mass(contexts[3], S, S)
        assert rep.explicit_pass
        assert rep.lhs == pytest.approx(1 / 9)

    def test_random(self, contexts):
        S = random_set(13, 2, 37, 0)
        rep = check_profile_mass(contexts[13], S, S)
        assert rep.explicit_pass

    def test_full_grid(self, contexts):
        S = full_grid_set(5, 2)
        rep = check_profile_mass(contexts[5], S, S)
        assert rep.explicit_pass
        assert rep.lhs == pytest.approx(1.0)


class TestNuSpectralChecker:
    def test_examples(self, contexts):
        E = make_point_set(3, 2, [(0, 0), (1, 0)])
        assert check_nu_spectral(contexts[3], E, E).explicit_pass
        E1 = make_point_set(7, 2, [(1, 2)])
        F1 = make_point_set(7, 2, [(4, 0)])
        assert check_nu_spectral(contexts[7], E1, F1).explicit_pass
        E2, F2 = random_set(13, 2, 40, 3), random_set(13, 2, 40, 4)
        assert check_nu_spectral(contexts[13], E2, F2).explicit_pass


class TestNuZeroBound:
    def test_full_grid_q31(self, contexts):
        # 961^2 >= 900 * 961 and |S_0| = 1 since 31 = 3 mod 4, so nu(0) = 961
        E = full_grid_set(31, 2)
        rep = check_nu_zero_bound(contexts[31], E, E)
        assert rep.hypothesis_met
        assert rep.explicit_pass
        assert rep.lhs == 961
        assert rep.lhs <= 0.7 * 961 ** 2

    def test_delta_bound_asserted_without_hypothesis(self, contexts):
        E = random_set(7, 2, 5, 0)
        F = random_set(7, 2, 8, 1)
        rep = check_nu_zero_bound(contexts[7], E, F)
        assert not rep.hypothesis_met
        assert rep.explicit_pass  # the unconditional delta bound still holds
        assert rep.rhs_terms["delta_abs"] <= rep.rhs_terms["delta_cap"] + 1e-9

    def test_report_is_json_round_trippable(self, contexts):
        rep = check_nu_zero_bound(contexts[5], random_set(5, 2, 4, 2),
                                  random_set(5, 2, 4, 3))
        parsed = json.loads(rep.to_json())
        assert parsed["lemma_id"] == "nu_zero"
        assert set(parsed) == {"lemma_id", "hypothesis_met", "lhs", "rhs_terms",
                               "explicit_pass", "measured_constant", "notes"}

    @pytest.mark.parametrize("s", (1, 2, 3, 4))
    @pytest.mark.parametrize("q", (3, 5, 7, 13, 31))
    def test_delta_is_the_exact_remainder_of_nu0(self, contexts, q, s):
        ctx = contexts[q]
        E = random_set(q, s, min(q ** s - 1, 60), q + s)
        F = random_set(q, s, min(q ** s, 45), q * s)
        rep = check_nu_zero_bound(ctx, E, F)
        assert rep.explicit_pass
        # delta = nu(0) - |S_0| #E #F / q^s, with |S_0| counted point by point.
        norms = sum(c * c for c in np.indices((q,) * s)) % q
        s0 = int(np.count_nonzero(norms == 0))
        exact = abs(int(nu_brute(E, F).nu[0]) - Fraction(s0 * E.size * F.size, q ** s))
        assert rep.rhs_terms["delta_abs"] == float(exact)
        # It is the spectral sum q^(2s) sum_{m != 0} Shat_0(m) conj(Ehat(m)) Fhat(m).
        _, by_class = charsums.sphere_class_values(ctx, s, 0)
        G = cross_profile(ctx, set_spectrum(ctx, E), set_spectrum(ctx, F))
        G[0] -= E.size * F.size / q ** (2 * s)  # drop m = 0
        spectral_sum = abs(q ** (2 * s) * complex(np.dot(by_class, G)))
        assert rep.rhs_terms["delta_abs"] == pytest.approx(spectral_sum, rel=1e-9, abs=1e-9)


class TestSecondMoment:
    def test_singleton_hand_instance(self, contexts):
        E = make_point_set(3, 2, [(0, 0)])
        rep = check_second_moment(contexts[3], E, E)
        assert rep.explicit_pass
        assert rep.lhs == 1.0
        assert rep.rhs_terms["identity_gap_rel"] <= 1e-12

    def test_random_pairs(self, contexts):
        for seed in range(5):
            E = random_set(7, 2, 9 + seed, seed)
            F = random_set(7, 2, 13, 100 + seed)
            rep = check_second_moment(contexts[7], E, F)
            assert rep.explicit_pass

    def test_full_grid(self, contexts):
        E = full_grid_set(5, 2)
        rep = check_second_moment(contexts[5], E, E)
        assert rep.explicit_pass


class TestCrossZero:
    def test_odd_dimension_reported(self, contexts):
        E = random_set(5, 3, 6, 0)
        rep = check_cross_zero(contexts[5], E, E)
        assert not rep.hypothesis_met
        assert rep.explicit_pass is None
        assert set(rep.rhs_terms) == {"main_term", "error_scale"}
        assert math.isfinite(rep.lhs) and math.isfinite(rep.measured_constant)
        # #E = #F and #E #F >= 900 q^s hold here; odd s alone fails it
        E = full_grid_set(11, 3)
        assert not check_cross_zero(contexts[11], E, E).hypothesis_met

    def test_full_grid_q31_hypothesis(self, contexts):
        E = full_grid_set(31, 2)
        rep = check_cross_zero(contexts[31], E, E)
        assert rep.hypothesis_met
        assert rep.explicit_pass is None
        assert rep.measured_constant is not None
        assert math.isfinite(rep.measured_constant)

    def test_small_sets_reported_not_raised(self, contexts):
        rep = check_cross_zero(contexts[7], random_set(7, 2, 4, 1),
                               random_set(7, 2, 6, 2))
        assert not rep.hypothesis_met
        assert math.isfinite(rep.measured_constant)


class TestProfileProduct:
    def test_random_q13(self, contexts):
        rep = check_profile_product(contexts[13], random_set(13, 2, 20, 0),
                                    random_set(13, 2, 33, 1))
        assert rep.measured_constant > 0
        assert math.isfinite(rep.measured_constant)
        assert "alt_envelope" in rep.rhs_terms  # s = 2 variant

    def test_odd_s_includes_zero_term(self, contexts):
        rep = check_profile_product(contexts[7], random_set(7, 3, 10, 2),
                                    random_set(7, 3, 20, 3))
        assert "lhs_including_zero" in rep.rhs_terms
        assert rep.rhs_terms["lhs_including_zero"] >= rep.lhs

    def test_singletons_consistent(self, contexts):
        rep = check_profile_product(contexts[5], make_point_set(5, 2, [(1, 1)]),
                                    make_point_set(5, 2, [(2, 3)]))
        assert rep.lhs <= rep.measured_constant * rep.rhs_terms["envelope"] + 1e-15

    def test_swaps_to_smaller_first(self, contexts):
        big, small = random_set(13, 2, 50, 4), random_set(13, 2, 5, 5)
        a = check_profile_product(contexts[13], big, small)
        b = check_profile_product(contexts[13], small, big)
        assert a.rhs_terms["envelope"] == pytest.approx(b.rhs_terms["envelope"])


class TestSigmaBound:
    def test_singleton(self, contexts):
        S = make_point_set(7, 2, [(3, 4)])
        rep = check_sigma_bound(contexts[7], S, S)
        assert rep.explicit_pass

    def test_random_q13_s2(self, contexts):
        S = random_set(13, 2, 60, 6)
        rep = check_sigma_bound(contexts[13], S, S)
        assert rep.explicit_pass
        assert rep.measured_constant is not None

    def test_random_q7_s3_includes_r0(self, contexts):
        S = random_set(7, 3, 50, 7)
        rep = check_sigma_bound(contexts[7], S, S)
        assert rep.explicit_pass
        # odd s: the bound covers r = 0 as well; worst over all r reported
        sig = spherical_profile(contexts[7], set_spectrum(contexts[7], S))
        assert rep.lhs >= sig[0] - 1e-15


class TestSphereBounds:
    @pytest.mark.parametrize("q,s", [(31, 2), (13, 3), (5, 2), (3, 3)])
    def test_pass(self, contexts, q, s):
        rep = check_sphere_bounds(contexts[q], s)
        assert rep.explicit_pass
        assert rep.rhs_terms["exact_value_gap"] <= 1e-9

    def test_exact_value_case_q5(self, contexts):
        # q = 5 = 1 mod 4 has isotropic directions, so the exact-value
        # branch is exercised and must agree to 1e-9
        rep = check_sphere_bounds(contexts[5], 2)
        assert rep.explicit_pass


class TestDyadic:
    """check_dyadic on a 13^2 cell whose profiles are set in its Instance."""

    q, s = 13, 2
    i_min = math.ceil(-4 * s * math.log2(q))

    @pytest.fixture
    def cell(self, contexts):
        checks.release()
        yield contexts[13], random_set(13, 2, 25, 0), random_set(13, 2, 30, 1)
        checks.release()

    def dyadic(self, cell, sig_e, sig_f):
        checks.instance(*cell).__dict__.update(sig_e=sig_e, sig_f=sig_f)
        return check_dyadic(*cell)

    def test_constant_profile_single_level(self, cell):
        sig_f = np.full(self.q, 0.3)  # 1/4 < 0.3 <= 1/2: level -1 for every r != 0
        rep = self.dyadic(cell, np.full(self.q, 0.5), sig_f)
        t = rep.rhs_terms
        assert t["level_count"] == 1 - self.i_min
        assert t["chosen_A"] == 0.25 and t["chosen_size"] == self.q - 1
        assert t["max_level_sum"] == rep.lhs == pytest.approx(0.15 * (self.q - 1))
        assert rep.explicit_pass is None
        assert rep.measured_constant == rep.lhs / (t["floor_term"] + t["level_count"] * rep.lhs)

    def test_level_range_and_A(self, contexts):
        ctx, E = contexts[13], random_set(13, 2, 29, 0)
        sig = spherical_profile(ctx, set_spectrum(ctx, E))
        t = check_dyadic(ctx, E, E).rhs_terms
        assert t["level_count"] == 1 - self.i_min
        A = t["chosen_A"]
        assert A == 2.0 ** round(math.log2(A))
        assert t["chosen_size"] == np.count_nonzero((sig[1:] > A) & (sig[1:] <= 2 * A)) > 0

    def test_below_floor_profile_reported_empty(self, cell):
        sig_f = np.full(self.q, 1e-40)
        sig_f[0] = 0.0
        rep = self.dyadic(cell, np.full(self.q, 0.5), sig_f)
        t = rep.rhs_terms
        assert t["chosen_A"] == 0.0 and t["chosen_size"] == 0.0 and t["max_level_sum"] == 0.0
        assert rep.lhs > 0 and rep.measured_constant == rep.lhs / t["floor_term"]

    def test_floor_mass_joins_no_level_but_counts(self, cell):
        sig_f = np.zeros(self.q)
        sig_f[1], sig_f[2] = 0.5, 2.0 ** (self.i_min - 2)  # sig_f[2] lies under the floor
        sig_e = np.full(self.q, 3.0)
        sig_e[2] = 2.0 ** (3 - self.i_min)  # weight 2 at r = 2, more than level -1's 1.5
        rep = self.dyadic(cell, sig_e, sig_f)
        t = rep.rhs_terms
        assert t["chosen_A"] == 0.25 and t["chosen_size"] == 1.0  # 1/4 < 0.5 <= 1/2
        assert t["max_level_sum"] == 1.5
        assert rep.lhs == 3.5

    def test_a_tie_chooses_the_higher_level(self, cell):
        sig_e, sig_f = np.zeros(self.q), np.zeros(self.q)
        sig_e[1], sig_f[1] = 0.4, 0.5  # level -1, T = 0.2
        sig_e[2], sig_f[2] = 1.0, 0.2  # level -2, T = 0.2
        t = self.dyadic(cell, sig_e, sig_f).rhs_terms
        assert t["chosen_A"] == 0.25 and t["chosen_size"] == 1.0

    def test_checker_measures_the_pigeonhole_share(self, contexts):
        ctx = contexts[13]
        for seed in range(4):
            E, F = random_set(13, 2, 25, seed), random_set(13, 2, 30, 50 + seed)
            rep = check_dyadic(ctx, E, F)
            sig_e = spherical_profile(ctx, set_spectrum(ctx, E))
            sig_f = spherical_profile(ctx, set_spectrum(ctx, F))
            assert rep.explicit_pass is None
            assert 0 <= rep.measured_constant <= 1
            assert rep.lhs == float((sig_e * sig_f)[1:].sum())


class TestDistanceTheorem:
    def test_isotropic_line_hypothesis_fails(self, contexts):
        E = make_point_set(13, 2, [(x, (5 * x) % 13) for x in range(13)])
        rep = check_distance_theorem(contexts[13], E, E)
        assert not rep.hypothesis_met
        assert rep.lhs == 1.0  # the counterexample: one attained distance

    def test_singletons_hypothesis_fails(self, contexts):
        rep = check_distance_theorem(contexts[7], make_point_set(7, 2, [(0, 0)]),
                                     make_point_set(7, 2, [(1, 1)]))
        assert not rep.hypothesis_met

    def test_dense_q31_attains_q(self, contexts):
        E = random_set(31, 2, 932, 0)
        F = random_set(31, 2, 932, 1)
        rep = check_distance_theorem(contexts[31], E, F)
        assert rep.hypothesis_met
        assert rep.lhs == 31.0
        assert rep.measured_constant >= 1.0


class TestOffzeroMoment:
    def test_full_grid(self, contexts):
        E = full_grid_set(7, 2)
        rep = check_offzero_moment(contexts[7], E, E)
        # nu is uniform over F_q^*: nu(r) = q^3 * |S_r| contributions; the
        # lhs must match the brute second moment off zero exactly
        from ffdist import nu_brute
        nu = nu_brute(E, E).nu
        assert rep.lhs == pytest.approx(float((nu[1:] ** 2).sum()))

    def test_hypothesis_flag(self, contexts):
        rep = check_offzero_moment(contexts[7], random_set(7, 2, 4, 0),
                                   random_set(7, 2, 4, 1))
        assert not rep.hypothesis_met
        assert math.isfinite(rep.measured_constant)


class TestRegistry:
    def test_no_checker_builds_a_character_sum_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a checker built the class-value table")

        monkeypatch.setattr(charsums, "sphere_class_values", refuse)
        rows = run_verify(SweepConfig(q_list=[7], s_list=[3], size_pairs=[(40, 30)],
                                      trials=1, seed=0, checkers=sorted(CHECKERS)))
        assert [r.report.lemma_id for r in rows] == sorted(CHECKERS)
        assert all(r.report.explicit_pass is not False for r in rows)

    def test_known_names(self, contexts):
        assert set(CHECKERS) == {
            "profile_mass", "nu_spectral", "nu_zero", "second_moment",
            "cross_zero", "profile_product", "sigma_bound", "sphere_bounds",
            "dyadic", "distance_theorem", "offzero_moment",
        }
        # every checker reports at odd s; cross_zero's hypothesis fails there
        E, F = random_set(5, 3, 4, 0), random_set(5, 3, 6, 1)
        reports = {name: fn(contexts[5], E, F) for name, fn in CHECKERS.items()}
        assert all(rep.lemma_id == name for name, rep in reports.items())
        assert not reports["cross_zero"].hypothesis_met

    def test_uniform_signature(self, contexts):
        E = random_set(5, 2, 4, 0)
        F = random_set(5, 2, 6, 1)
        for name, fn in CHECKERS.items():
            rep = fn(contexts[5], E, F)
            assert rep.lemma_id == name


def _bumped(dist, j, by):
    """The DistanceDistribution dist with nu[j] moved by the integer by."""
    nu = dist.nu.copy()
    nu[j] += by
    return dataclasses.replace(dist, nu=nu)


# Each corruption crosses its checker's own tolerance by the least amount that is
# not float noise, so a loosened tolerance lets the corrupted cell pass.
def _corrupt_profile_mass(inst, monkeypatch):
    # moves sum sigma_F by 2e-10, twice the 1e-10 equality tolerance
    inst.__dict__["sig_f"] = inst.sig_f * (1 + 2e-10 / inst.sig_f.sum())


def _corrupt_nu_spectral(inst, monkeypatch):
    # the least step of an exact integer count
    inst.__dict__["brute"] = _bumped(inst.brute, 5, 1)


def _corrupt_nu_zero(inst, monkeypatch):
    # puts |delta| = |nu(0) - |S_0| #E #F / q^s| one count past q^(s/2) sqrt(#E #F)
    (q, s), mass = (inst.E.q, inst.E.s), inst.E.size * inst.F.size
    main = Fraction(inst.s0_size * mass, q ** s)
    nu0 = math.floor(main + q ** (s / 2) * math.sqrt(mass)) + 1
    inst.__dict__["spectral"] = _bumped(inst.spectral, 0, nu0 - int(inst.spectral.nu[0]))


def _corrupt_second_moment(inst, monkeypatch):
    # moves the identity's q^(3s) sum |sigma_EF|^2 by 2e-8 of sum nu^2, twice its 1e-8
    q, s = inst.E.q, inst.E.s
    lhs = float((inst.brute.nu.astype(np.float64) ** 2).sum())
    term = q ** (3 * s) * float((inst.sig_ef ** 2).sum())
    inst.__dict__["sig_ef"] = inst.sig_ef * math.sqrt(1 + 2e-8 * lhs / term)


def _corrupt_sigma_bound(inst, monkeypatch):
    # lifts max sigma_E to 1 + 1e-9 times 2 q^(-s-1) #E + 2 q^(-(3s+1)/2) (#E)^2
    q, s, n = inst.E.q, inst.E.s, inst.E.size
    bound = 2 * q ** (-s - 1) * n + 2 * q ** (-(3 * s + 1) / 2) * n ** 2
    inst.__dict__["sig_e"] = inst.sig_e * (bound * (1 + 1e-9) / inst.sig_e.max())


def _corrupt_sphere_bounds(inst, monkeypatch):
    # |Shat_1(m)| at one m != 0, the second stored entry of the first block, to
    # 1 + 1e-9 times the Weil cap 2 q^(-(s+1)/2)
    q = inst.E.q
    sphere_blocks = checks.sphere_blocks

    def corrupted(ctx, s):
        for m0, vals in sphere_blocks(ctx, s):
            if m0 == 0:
                vals[1].flat[1] = 2 * q ** (-(s + 1) / 2) * (1 + 1e-9)
            yield m0, vals

    monkeypatch.setattr(checks, "sphere_blocks", corrupted)
    del inst.__dict__["sphere_bounds"]


CORRUPTIONS = {
    "profile_mass": _corrupt_profile_mass,
    "nu_spectral": _corrupt_nu_spectral,
    "nu_zero": _corrupt_nu_zero,
    "second_moment": _corrupt_second_moment,
    "sigma_bound": _corrupt_sigma_bound,
    "sphere_bounds": _corrupt_sphere_bounds,
}


class TestAssertedCheckersCanFail:
    """Every asserted checker returns explicit_pass False once one cached quantity of
    its cell is corrupted, and the README's checker table marks exactly these as
    asserted."""

    @pytest.fixture(scope="class")
    def cell(self, contexts):
        ctx = contexts[31]
        return (ctx, *cell_sets(ctx, 3, (2000, 2010), 0, 0))

    @pytest.fixture(autouse=True)
    def _release(self):
        checks.release()
        yield
        checks.release()

    def test_every_asserted_checker_is_covered(self, cell):
        asserted = {name for name, fn in CHECKERS.items()
                    if fn(*cell).explicit_pass is not None}
        assert asserted == set(CORRUPTIONS)

    def test_readme_table_marks_the_asserted_checkers(self, cell):
        section = README.read_text().split("\n## Checkers\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.strip().strip("|").split("|") for line in section.splitlines()
                if line.startswith("| `")]
        verdicts = {cells[0].strip().strip("`"): cells[-1].strip() for cells in rows}
        assert set(verdicts) == set(CHECKERS)
        asserted = {name for name, fn in CHECKERS.items()
                    if fn(*cell).explicit_pass is not None}
        assert {name for name, v in verdicts.items() if v.startswith("asserted")} == asserted

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corrupted_cell_fails(self, cell, monkeypatch, name):
        checker = CHECKERS[name]
        assert checker(*cell).explicit_pass is True
        CORRUPTIONS[name](checks.instance(*cell), monkeypatch)
        assert checker(*cell).explicit_pass is False
