import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ffdist import charsums, cross_profile, make_point_set, nu_brute, spherical_profile
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
    dyadic_decompose,
)
from ffdist.sweep import SweepConfig, run_verify
from conftest import random_set
from test_distance import full_grid_set


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
        G = cross_profile(ctx, E, F)
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
        sig = spherical_profile(contexts[7], random_set(7, 3, 50, 7))
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
    def test_constant_profile_single_level(self, contexts):
        # singleton set at q = 3: sigma is 4/81 on all of F_q^*
        E = make_point_set(3, 2, [(1, 1)])
        sig = spherical_profile(contexts[3], E)
        dec = dyadic_decompose(sig, sig, 2)
        assert dec.chosen_level is not None
        assert set(dec.M.tolist()) == {1, 2}
        occupied = [n for _, _, n in dec.levels if n > 0]
        assert occupied == [2]

    def test_level_range_and_A(self, contexts):
        E = random_set(13, 2, 29, 0)
        sig = spherical_profile(contexts[13], E)
        dec = dyadic_decompose(sig, sig, 2)
        i_min = math.ceil(-8 * math.log2(13))
        assert dec.levels[0][0] == i_min
        assert dec.levels[-1][0] == 0
        assert dec.A == 2.0 ** (dec.chosen_level - 1)
        on_m = sig[dec.M]
        assert np.all(on_m >= dec.A - 1e-15)
        assert np.all(on_m <= 2 * dec.A + 1e-15)

    def test_below_floor_profile_reported_empty(self):
        vals = np.full(13, 1e-40)
        vals[0] = 0.0
        dec = dyadic_decompose(vals, vals, 2)
        assert dec.chosen_level is None
        assert dec.M.size == 0
        assert dec.A == 0.0

    def test_floor_mass_joins_no_level_but_counts(self):
        q, s = 13, 2
        i_min = math.ceil(-4 * s * math.log2(q))
        sig = np.zeros(q)
        sig[1], sig[2] = 0.5, 2.0 ** (i_min - 2)  # sig[2] lies under the floor
        companion = np.full(q, 3.0)
        dec = dyadic_decompose(sig, companion, s)
        assert dec.chosen_level == -1 and dec.M.tolist() == [1]  # 1/4 < 0.5 <= 1/2
        assert sum(n for _, _, n in dec.levels) == 1
        assert dec.product_sum == 1.5 + 3.0 * 2.0 ** (i_min - 2)
        assert sum(t for _, t, _ in dec.levels) == 1.5

    def test_refuses_a_cross_profile(self, contexts):
        E, F = random_set(13, 2, 29, 0), random_set(13, 2, 31, 1)
        sig, cross = spherical_profile(contexts[13], E), cross_profile(contexts[13], E, F)
        # A cross profile is real but can be negative; a single-set profile cannot.
        assert cross.dtype == np.float64 and cross.min() < 0 <= sig.min()
        for args in ((cross, sig), (sig, cross)):
            with pytest.raises(ValueError, match="single-set profiles"):
                dyadic_decompose(*args, 2)

    def test_checker_pigeonhole(self, contexts):
        for seed in range(4):
            rep = check_dyadic(contexts[13], random_set(13, 2, 25, seed),
                               random_set(13, 2, 30, 50 + seed))
            assert rep.explicit_pass


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
        assert [r.lemma_id for r in rows] == sorted(CHECKERS)
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
