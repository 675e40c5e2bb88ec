import cmath
import math

import numpy as np
import pytest

from ffdist import gauss_data, inverse, kloosterman, make_field, norm_squared, salie
from ffdist.charsums import sphere_class_values, sphere_unit
from conftest import PRIMES_TO_31


def closed_form(ctx, s, r, m):
    """sphere_class_values read at one frequency m: its origin value at m = 0,
    else its value at the norm class |m|^2."""
    at_origin, by_class = sphere_class_values(ctx, s, r)
    return at_origin if not any(c % ctx.q for c in m) else by_class[norm_squared(ctx, m)]


def brute_sphere_transform(q, s, r, m):
    """Independent oracle: literal O(q^s) sum over the sphere indicator."""
    total = 0.0 + 0.0j
    for flat in range(q ** s):
        x, rem = [], flat
        for _ in range(s):
            x.append(rem % q)
            rem //= q
        if sum(c * c for c in x) % q == r % q:
            dot = sum(mc * xc for mc, xc in zip(m, reversed(x))) % q
            total += cmath.exp(-2j * cmath.pi * dot / q)
    return total / q ** s


class TestGaussData:
    def test_c5_is_one(self, contexts):
        assert gauss_data(contexts[5]).c_q == pytest.approx(1.0, abs=1e-9)

    def test_c3_is_i(self, contexts):
        assert gauss_data(contexts[3]).c_q == pytest.approx(1j, abs=1e-9)

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_unit_modulus(self, contexts, q):
        assert abs(abs(gauss_data(contexts[q]).c_q) - 1.0) <= 1e-12

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_square_law(self, contexts, q):
        # g^2 = eta(-1) q, by direct multiplication of the computed sum
        ctx = contexts[q]
        g = gauss_data(ctx).g
        eta_minus1 = int(ctx.eta_table[q - 1])
        assert g * g == pytest.approx(eta_minus1 * q, abs=1e-9)

    @pytest.mark.parametrize("q", (5, 13, 17, 29, 37, 101))
    def test_sign_law_1_mod_4(self, q):
        assert gauss_data(make_field(q)).c_q == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", (3, 7, 11, 19, 23, 31, 103))
    def test_sign_law_3_mod_4(self, q):
        assert gauss_data(make_field(q)).c_q == pytest.approx(1j, abs=1e-9)

    def test_epsilon_class(self, contexts):
        # The class of q mod 4 is the sign of c_q^2 = eta(-1).
        assert gauss_data(contexts[5]).c_q ** 2 == pytest.approx(1.0, abs=1e-9)
        assert gauss_data(contexts[7]).c_q ** 2 == pytest.approx(-1.0, abs=1e-9)


class TestKloosterman:
    def test_q5_1_1(self, contexts):
        # inverses mod 5: 1,3,2,4 so exponents t + 1/t are 2,0,0,3
        expected = 2 + 2 * math.cos(4 * math.pi / 5)
        assert kloosterman(contexts[5], 1, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3819660112501051)

    def test_degenerate_is_ramanujan(self, contexts):
        assert kloosterman(contexts[5], 1, 0) == pytest.approx(-1.0, abs=1e-12)
        assert kloosterman(contexts[5], 0, 1) == pytest.approx(-1.0, abs=1e-12)
        assert kloosterman(contexts[7], 0, 0) == pytest.approx(6.0, abs=1e-12)

    def test_q7_weil(self, contexts):
        assert abs(kloosterman(contexts[7], 1, 1)) <= 2 * math.sqrt(7)

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_weil_bound_exhaustive(self, contexts, q):
        ctx = contexts[q]
        cap = 2 * math.sqrt(q) + 1e-12
        for a in range(1, q):
            for b in range(1, q):
                assert abs(kloosterman(ctx, a, b)) <= cap

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_diagonal_real(self, contexts, q):
        ctx = contexts[q]
        for a in range(1, q):
            assert abs(kloosterman(ctx, a, a).imag) <= 1e-9


class TestSalie:
    def test_q5_modulus(self, contexts):
        assert abs(salie(contexts[5], 1, 1)) <= 2 * math.sqrt(5)

    def test_zero_args_orthogonality(self, contexts):
        assert salie(contexts[3], 0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_q7_modulus(self, contexts):
        assert abs(salie(contexts[7], 2, 3)) <= 2 * math.sqrt(7)

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_modulus_bound_exhaustive(self, contexts, q):
        ctx = contexts[q]
        cap = 2 * math.sqrt(q) + 1e-12
        for a in range(1, q):
            for b in range(1, q):
                assert abs(salie(ctx, a, b)) <= cap


class TestSphereFourierClosed:
    def test_q3_s2_origin(self, contexts):
        # chi term 1/3 plus q^-2 c_3^2 * (-1) * (-1) = 1/9; equals |S_1|/9
        val = closed_form(contexts[3], 2, 1, (0, 0))
        assert val == pytest.approx(4 / 9, abs=1e-10)

    def test_q5_s2_isotropic_direction(self, contexts):
        # |m|^2 = 1 + 4 = 0 mod 5 and s even: c_5^2 (1/5 - 1/25) = 0.16
        val = closed_form(contexts[5], 2, 0, (1, 2))
        assert val == pytest.approx(0.16, abs=1e-10)

    def test_q3_s3_salie_branch(self, contexts):
        val = closed_form(contexts[3], 3, 1, (1, 0, 0))
        assert abs(val) <= 2 * 3 ** -2 + 1e-12

    @pytest.mark.parametrize("q,s", [(3, 2), (5, 2), (3, 3)])
    def test_against_literal_enumeration(self, contexts, q, s):
        ctx = contexts[q]
        for r in range(q):
            for flat in range(q ** s):
                m, rem = [], flat
                for _ in range(s):
                    m.append(rem % q)
                    rem //= q
                m = tuple(reversed(m))
                want = brute_sphere_transform(q, s, r, m)
                got = closed_form(ctx, s, r, m)
                assert got == pytest.approx(want, abs=1e-9)

    def test_class_values_match_single_evaluations(self, contexts):
        ctx = contexts[7]
        for s in (2, 3):
            for r in range(7):
                at0, by_class = sphere_class_values(ctx, s, r)
                assert at0 == pytest.approx(
                    brute_sphere_transform(7, s, r, (0,) * s), abs=1e-12)
                # m = (1, 0, ...) has norm 1; m = (2, 0, ...) has norm 4
                for w, m0 in ((1, 1), (4, 2)):
                    m = (m0,) + (0,) * (s - 1)
                    assert by_class[w] == pytest.approx(
                        brute_sphere_transform(7, s, r, m), abs=1e-12)

    def test_unit_constant_even_s_is_cq_power(self, contexts):
        for q in (5, 7):
            gd = gauss_data(contexts[q])
            assert sphere_unit(contexts[q], 2) == pytest.approx(gd.c_q ** 2)


class TestOneEvaluator:
    """The sums share one evaluator, so these identities hold bit for bit."""

    @pytest.mark.parametrize("q", (3, 5, 7, 13, 31))
    @pytest.mark.parametrize("s", (2, 3))
    def test_class_values_are_scaled_kloosterman_or_salie(self, contexts, q, s):
        ctx = contexts[q]
        K = kloosterman if s % 2 == 0 else salie
        inv4 = inverse(ctx, 4)
        scale = q ** (-s / 2 - 1) * sphere_unit(ctx, s)
        for r in range(q):
            at0, by_class = sphere_class_values(ctx, s, r)
            assert at0 == 1.0 / q + by_class[0]
            # Scaled as one array, like the class values: numpy's vectorised
            # complex product can round the last bit unlike a scalar product.
            sums = np.array([K(ctx, r, w * inv4) for w in range(q)])
            assert np.array_equal(by_class, scale * sums)

    @pytest.mark.parametrize("q", (3, 5, 7, 13, 31))
    def test_gauss_sum_is_salie_at_b_zero(self, contexts, q):
        assert gauss_data(contexts[q]).g == salie(contexts[q], 1, 0)
