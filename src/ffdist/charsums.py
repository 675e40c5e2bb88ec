"""Complete exponential sums over F_q, evaluated by literal summation.

This module is the trusted oracle for everything spectral: every sum is
an explicit O(q) loop over the character table, with no closed-form
shortcuts.  It provides

  * the Gauss sum g = sum_{t != 0} eta(t) e(t/q) and its unit
    normalization c_q = g / sqrt(q),
  * Kloosterman sums K(a, b) = sum_{t != 0} e((a t + b t^-1)/q),
  * Salie sums, the eta-twisted variant, and
  * the closed form for the Fourier transform of the sphere
    {x : |x|^2 = r} in F_q^s:

      S_r^(m) = chi(m)/q
                + q^(-s/2-1) c_q^s
                  sum_{j != 0} e((j r + |m|^2 * inv(4) * inv(j)) / q) eta^s(j)

    where chi(m) = 1 exactly at m = 0 and eta^s is 1 for even s,
    eta for odd s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import FieldContext, norm_squared


@dataclass(frozen=True)
class GaussData:
    g: complex            # sum_{t != 0} eta(t) e(t/q)
    c_q: complex          # g / sqrt(q); unit modulus
    epsilon_class: int    # q mod 4


def gauss_data(ctx: FieldContext) -> GaussData:
    """Compute the Gauss sum by direct summation and normalize it.

    The classical sign (c_q = 1 for q = 1 mod 4, c_q = i for q = 3 mod 4)
    is never assumed here; tests verify it against these computed values.
    """
    q = ctx.q
    g = complex(np.sum(ctx.eta_table[1:].astype(np.complex128) * ctx.char_table[1:]))
    return GaussData(g=g, c_q=g / math.sqrt(q), epsilon_class=q % 4)


def kloosterman(ctx: FieldContext, a: int, b: int) -> complex:
    """K(a, b) = sum over t in F_q^* of e((a t + b t^-1)/q)."""
    q = ctx.q
    t = np.arange(1, q, dtype=np.int64)
    idx = (a % q * t + b % q * ctx.inv_table[1:]) % q
    return complex(np.sum(ctx.char_table[idx]))


def salie(ctx: FieldContext, a: int, b: int) -> complex:
    """The eta-twisted Kloosterman sum sum_t eta(t) e((a t + b t^-1)/q)."""
    q = ctx.q
    t = np.arange(1, q, dtype=np.int64)
    idx = (a % q * t + b % q * ctx.inv_table[1:]) % q
    return complex(np.sum(ctx.eta_table[1:] * ctx.char_table[idx]))


def sphere_unit(ctx: FieldContext, s: int) -> complex:
    """The unit constant multiplying the j-sum in the sphere transform.

    Completing the square in sum_x e((j|x|^2 - m.x)/q) produces
    (eta(-1) g / sqrt(q))^s, because conj(g) = eta(-1) g.  The eta(-1)
    factor only matters for odd s; for even s this is just c_q^s.
    """
    u = gauss_data(ctx).c_q ** s
    if s % 2 == 1:
        u *= int(ctx.eta_table[ctx.q - 1])
    return u


def sphere_class_values(ctx: FieldContext, s: int, r: int) -> tuple[complex, np.ndarray]:
    """Closed-form sphere transform, evaluated once per norm class.

    S_r^(m) depends on m only through |m|^2 and the m = 0 flag, so the
    whole transform collapses to q values plus the origin correction.
    Returns (value at m = 0, array v of length q with v[w] the value at
    any m != 0 with |m|^2 = w).  Cost O(q^2).
    """
    q = ctx.q
    j = np.arange(1, q, dtype=np.int64)
    jr = (j * (r % q)) % q
    inv4 = int(ctx.inv_table[4 % q])
    # phase[w, t] = (j_t * r + w * inv4 * inv(j_t)) mod q
    w_part = (np.arange(q, dtype=np.int64)[:, None] * inv4 % q) * ctx.inv_table[1:][None, :] % q
    idx = (jr[None, :] + w_part) % q
    terms = ctx.char_table[idx]
    if s % 2 == 1:
        terms = terms * ctx.eta_table[1:][None, :]
    scale = q ** (-s / 2 - 1) * sphere_unit(ctx, s)
    v = scale * terms.sum(axis=1)
    at_origin = 1.0 / q + v[0]
    return complex(at_origin), v


def sphere_fourier_closed(ctx: FieldContext, s: int, r: int, m: Sequence[int]) -> complex:
    """Evaluate the displayed closed form at a single frequency m."""
    q = ctx.q
    if s < 1:
        raise ValueError("dimension s must be >= 1")
    mm = [int(c) % q for c in m]
    if len(mm) != s:
        raise ValueError(f"point has {len(mm)} coordinates, expected s = {s}")
    j = np.arange(1, q, dtype=np.int64)
    inv4 = int(ctx.inv_table[4 % q])
    idx = (j * (r % q) + norm_squared(ctx, mm) * inv4 % q * ctx.inv_table[1:]) % q
    terms = ctx.char_table[idx]
    if s % 2 == 1:
        terms = terms * ctx.eta_table[1:]
    val = q ** (-s / 2 - 1) * sphere_unit(ctx, s) * complex(np.sum(terms))
    if all(c == 0 for c in mm):
        val += 1.0 / q
    return val
