"""Complete exponential sums over F_q, evaluated by literal summation.

This module is the trusted oracle for everything spectral: every sum is
an explicit O(q) loop over the character table, all through the one
evaluator twisted_sums, with no closed-form shortcuts.  twisted_sums
evaluates Kloosterman sums K(a, b) = sum_{t != 0} e((a t + b t^-1)/q) and
their eta-twisted Salie variant, for many b at once.  From it come

  * the unit normalization c_q = g / sqrt(q) of the Gauss sum
    g = sum_{t != 0} eta(t) e(t/q), and
  * the closed form for the Fourier transform of the sphere
    {x : |x|^2 = r} in F_q^s, evaluated once per norm class |m|^2 by
    sphere_class_values:

      S_r^(m) = chi(m)/q
                + q^(-s/2-1) c_q^s
                  sum_{j != 0} e((j r + |m|^2 * inv(4) * inv(j)) / q) eta^s(j)

    where chi(m) = 1 exactly at m = 0 and eta^s is 1 for even s,
    eta for odd s.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .field import FieldContext


def inverse_multiples(ctx: FieldContext, b: Sequence[int] | np.ndarray) -> np.ndarray:
    """Index table (b_i * t^-1) mod q, shape (len(b), q - 1), under ctx.grid_cap."""
    q = ctx.q
    if len(b) * (q - 1) > ctx.grid_cap:
        raise CapExceeded(f"character-sum table {len(b)} x {q - 1} = {len(b) * (q - 1)} "
                          f"entries exceeds grid cap {ctx.grid_cap}")
    return (np.asarray(b, dtype=np.int64)[:, None] % q) * ctx.inv_table[1:][None, :] % q


def twisted_sums(ctx: FieldContext, a: int, b: Sequence[int] | np.ndarray,
                 twisted: bool) -> np.ndarray:
    """sum_{t != 0} eta(t)^e e((a t + b_i t^-1)/q) for every b_i, by literal summation.

    e = 1 when twisted (Gauss and Salie sums), e = 0 otherwise (Kloosterman).
    """
    t = np.arange(1, ctx.q, dtype=np.int64)
    terms = ctx.char_table[(a % ctx.q * t + inverse_multiples(ctx, b)) % ctx.q]
    if twisted:
        terms = terms * ctx.eta_table[1:]
    return terms.sum(axis=1)


def gauss_data(ctx: FieldContext) -> complex:
    """c_q = g / sqrt(q) of the Gauss sum g = sum_{t != 0} eta(t) e(t/q), summed directly.

    The classical sign (c_q = 1 for q = 1 mod 4, c_q = i for q = 3 mod 4)
    is never assumed here; tests verify it against these computed values.
    """
    return complex(twisted_sums(ctx, 1, [0], twisted=True)[0]) / math.sqrt(ctx.q)


def sphere_unit(ctx: FieldContext, s: int) -> complex:
    """The unit constant multiplying the j-sum in the sphere transform.

    Completing the square in sum_x e((j|x|^2 - m.x)/q) produces
    (eta(-1) g / sqrt(q))^s, because conj(g) = eta(-1) g.  The eta(-1)
    factor only matters for odd s; for even s this is just c_q^s.
    """
    u = gauss_data(ctx) ** s
    if s % 2 == 1:
        u *= int(ctx.eta_table[ctx.q - 1])
    return u


def sphere_class_values(ctx: FieldContext, s: int, r: int) -> tuple[complex, np.ndarray]:
    """Closed-form sphere transform, evaluated once per norm class.

    At m != 0, S_r^(m) is q^(-s/2-1) u_s times K(r, |m|^2 inv(4)) (Salie
    for odd s), so the whole transform collapses to q values plus the
    origin correction.  Returns (value at m = 0, array v of length q with
    v[w] the value at any m != 0 with |m|^2 = w).  Cost O(q^2).
    """
    q = ctx.q
    w_inv4 = np.arange(q, dtype=np.int64) * int(ctx.inv_table[4 % q])
    v = q ** (-s / 2 - 1) * sphere_unit(ctx, s) * twisted_sums(ctx, r, w_inv4, s % 2 == 1)
    return complex(1.0 / q + v[0]), v
