import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffdist import make_field, sqrt_mod
from ffdist.errors import BadModulus
from conftest import PRIMES_TO_31


def euler_eta(a, q):
    """Independent oracle: Euler's criterion a^((q-1)/2) mod q."""
    if a % q == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


class TestMakeField:
    def test_q3_inverse_table(self):
        ctx = make_field(3)
        assert ctx.inv_table[1:].tolist() == [1, 2]  # 2*2 = 4 = 1 mod 3

    def test_composite_rejected(self):
        with pytest.raises(BadModulus, match="q = 9 is not prime"):
            make_field(9)

    def test_even_rejected(self):
        with pytest.raises(BadModulus, match="q = 4 is even"):
            make_field(4)

    def test_too_small_rejected(self):
        for q in (-1, 0, 1, 2):
            with pytest.raises(BadModulus, match=f"q = {q} < 3"):
                make_field(q)

    def test_cap_rejected(self):
        with pytest.raises(BadModulus, match="q = 1048583 exceeds cap 1048576"):
            make_field(1048583)  # prime just above 2**20

    def test_q5_eta_table_matches_euler_criterion(self):
        ctx = make_field(5)
        assert ctx.eta_table[1:].tolist() == [euler_eta(a, 5) for a in range(1, 5)]
        assert ctx.eta_table[1:].tolist() == [1, -1, -1, 1]

    def test_contexts_compare_by_modulus(self):
        a, b = make_field(7), make_field(7)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make_field(11)
        assert a != 7

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_tables_consistent(self, contexts, q):
        ctx = contexts[q]
        a = np.arange(1, q)
        assert np.all((a * ctx.inv_table[1:]) % q == 1)
        assert int(ctx.eta_table[1:].sum()) == 0
        assert np.allclose(np.abs(ctx.char_table), 1.0)
        assert ctx.char_table[0] == 1.0 + 0.0j


class TestInverse:
    def test_examples(self, contexts):
        assert contexts[5].inv_table[2] == 3
        assert contexts[7].inv_table[4] == 2

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_involution(self, contexts, q):
        inv = contexts[q].inv_table
        a = np.arange(1, q)
        assert np.array_equal(inv[inv[a]], a)


class TestQuadraticCharacter:
    def test_examples(self, contexts):
        eta = contexts[7].eta_table
        assert eta[4] == 1
        assert eta[3] == euler_eta(3, 7) == -1
        assert eta[0] == 0

    @pytest.mark.parametrize("q", PRIMES_TO_31)
    def test_multiplicative(self, contexts, q):
        ctx = contexts[q]
        eta = ctx.eta_table
        a = np.arange(1, q)
        prod = (a[:, None] * a[None, :]) % q
        assert np.all(eta[prod] == eta[a][:, None] * eta[a][None, :])


class TestSqrtMod:
    def test_examples(self, contexts):
        assert sqrt_mod(contexts[5], 4) == 2
        assert sqrt_mod(contexts[5], -1) == 2  # 5 = 1 mod 4, 2^2 = 4 = -1
        # exhaustive: squares mod 7 are {0, 1, 2, 4}, so 3 has no root
        assert {(r * r) % 7 for r in range(7)} == {0, 1, 2, 4}
        assert sqrt_mod(contexts[7], 3) is None

    @pytest.mark.parametrize("q", PRIMES_TO_31 + (257, 1009))
    def test_exhaustive(self, q):
        ctx = make_field(q)
        for a in range(q):
            r = sqrt_mod(ctx, a)
            if ctx.eta_table[a] == -1:
                assert r is None
            else:
                assert r is not None
                assert (r * r) % q == a
                assert r <= (q - r) % q  # canonical smaller root


class TestAdditiveCharacter:
    def test_main_character(self, contexts):
        for q in (3, 5, 7):
            assert contexts[q].char_table[0] == 1.0 + 0.0j
            assert contexts[q].char_table[0] == pytest.approx(cmath.exp(2j * cmath.pi * q / q))

    def test_cube_root_of_unity(self, contexts):
        z = complex(contexts[3].char_table[1])
        assert z == pytest.approx(cmath.exp(2j * cmath.pi / 3))
        assert z.real == pytest.approx(-0.5)
        assert z.imag == pytest.approx(math.sqrt(3) / 2)

    def test_conjugate_pair(self, contexts):
        total = complex(contexts[5].char_table[2] + contexts[5].char_table[3])
        assert total == pytest.approx(2 * math.cos(4 * math.pi / 5))
        assert total.real == pytest.approx(-1.6180339887498949)

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    def test_orthogonality(self, contexts, q):
        ctx = contexts[q]
        j = np.arange(q)
        for a in range(q):
            total = ctx.char_table[j * a % q].sum()
            expected = q if a == 0 else 0
            assert abs(total - expected) < 1e-10


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from(PRIMES_TO_31), a=st.integers(min_value=1, max_value=10 ** 9))
def test_inverse_property(q, a):
    ctx = make_field(q)
    if a % q == 0:
        a += 1
    assert (a * int(ctx.inv_table[a % q])) % q == 1
