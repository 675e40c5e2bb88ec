"""Arithmetic in the prime field F_q for odd prime q.

A FieldContext precomputes the three tables everything else runs on:
multiplicative inverses, the quadratic character eta (+1 on nonzero
squares, -1 on nonsquares), and the additive character table
exp(2*pi*i*j/q).  Field elements are plain Python ints reduced mod q.
It also carries the run's two cost caps, which every computation on it obeys.

All character evaluations go through char_table, so identical j always
yields bit-identical complex values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    CompositeModulus,
    ConfigError,
    EvenModulus,
    FieldMismatch,
    ModulusTooLarge,
    ModulusTooSmall,
    ZeroInverse,
)

# Table memory cap: q complex values per context.
DEFAULT_MODULUS_CAP = 2 ** 20
# Grid cap: q**s entries per dense grid (2**22, 32 MB as float64; a half spectrum
# takes as much).  It bounds memory, not time: sphere_bounds runs q transforms,
# about 11 min at q = 2039, s = 2.
DEFAULT_GRID_CAP = 2 ** 22
# Pair cap: #E * #F pairs for the nu_brute oracle.
DEFAULT_PAIR_CAP = 10 ** 9


@dataclass(frozen=True, eq=False)
class FieldContext:
    """Immutable tables for F_q plus the run's caps; safe to share across threads."""

    q: int
    inv_table: np.ndarray   # int64, length q; inv_table[0] = 0 sentinel
    eta_table: np.ndarray   # int8, length q; eta_table[0] = 0
    char_table: np.ndarray  # complex128, length q; char_table[j] = e(j/q)
    grid_cap: int = DEFAULT_GRID_CAP  # max q**s of any dense grid (check_grid_cap)
    pair_cap: int = DEFAULT_PAIR_CAP  # max #E * #F of a checker cell's nu_brute pass

    def __repr__(self) -> str:  # keep reprs short; tables are big
        return f"FieldContext(q={self.q})"

    # The tables are a function of q alone, so caches keyed on a context
    # hold one entry per q however many contexts are built; the caps are
    # checked outside those caches and take no part in the key.
    def __eq__(self, other) -> bool:
        return isinstance(other, FieldContext) and other.q == self.q

    def __hash__(self) -> int:
        return hash(self.q)


def _is_prime(n: int) -> bool:
    """Trial division by odd factors for odd n >= 3; adequate for q <= 2**20."""
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def make_field(q: int, grid_cap: int = DEFAULT_GRID_CAP,
               pair_cap: int = DEFAULT_PAIR_CAP) -> FieldContext:
    """Validate q and build the inverse / quadratic-character / character tables.

    grid_cap and pair_cap are stored on the context for every computation
    that runs on it; a negative cap raises ConfigError (0 is legal and
    refuses every grid or pair pass).  Raises ModulusTooSmall, EvenModulus,
    ModulusTooLarge or CompositeModulus when q is not an odd prime in
    [3, DEFAULT_MODULUS_CAP].
    """
    for name, cap in (("grid_cap", grid_cap), ("pair_cap", pair_cap)):
        if cap < 0:
            raise ConfigError(f"{name} = {cap} must be >= 0")
    q = int(q)
    if q < 3:
        raise ModulusTooSmall(f"q = {q} < 3")
    if q % 2 == 0:
        raise EvenModulus(f"q = {q} is even")
    if q > DEFAULT_MODULUS_CAP:
        raise ModulusTooLarge(f"q = {q} exceeds cap {DEFAULT_MODULUS_CAP}")
    if not _is_prime(q):
        raise CompositeModulus(f"q = {q} is not prime")

    # inv[a] via the O(q) recurrence inv[a] = -(q//a) * inv[q%a] mod q.
    inv = np.zeros(q, dtype=np.int64)
    inv[1] = 1
    for a in range(2, q):
        inv[a] = (-(q // a) * inv[q % a]) % q

    # eta: mark the (q-1)/2 nonzero squares.
    eta = np.full(q, -1, dtype=np.int8)
    eta[0] = 0
    a = np.arange(1, q, dtype=np.int64)
    eta[(a * a) % q] = 1

    char = np.exp(2j * np.pi * np.arange(q) / q)
    char[0] = 1.0 + 0.0j

    return FieldContext(q=q, inv_table=inv, eta_table=eta, char_table=char,
                        grid_cap=grid_cap, pair_cap=pair_cap)


def check_grid_cap(ctx: FieldContext, s: int) -> None:
    """Raise CapExceeded when a dense grid on F_q^s would exceed ctx.grid_cap."""
    if ctx.q ** s > ctx.grid_cap:
        raise CapExceeded(
            f"q**s = {ctx.q}**{s} = {ctx.q ** s} exceeds grid cap {ctx.grid_cap}")


def check_field(ctx: FieldContext, what: str, q: int) -> None:
    """Raise FieldMismatch, naming both moduli, when data over F_q meets ctx over another field."""
    if q != ctx.q:
        raise FieldMismatch(f"{what} lives over q={q}, field context has q={ctx.q}")


def inverse(ctx: FieldContext, a: int) -> int:
    """Multiplicative inverse of a mod q; raises ZeroInverse for a = 0."""
    a = a % ctx.q
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return int(ctx.inv_table[a])


def quadratic_character(ctx: FieldContext, a: int) -> int:
    """eta(a): +1 for nonzero squares, -1 for nonsquares, 0 for a = 0."""
    return int(ctx.eta_table[a % ctx.q])


def sqrt_mod(ctx: FieldContext, a: int) -> Optional[int]:
    """Canonical square root of a mod q, or None when a is a nonsquare.

    Canonical means the numerically smaller of the two roots, which an
    O(q) scan from 0 meets first.
    """
    a = a % ctx.q
    if ctx.eta_table[a] == -1:
        return None
    x = np.arange(ctx.q, dtype=np.int64)
    return int(np.argmax(x * x % ctx.q == a))


def norm_squared(ctx: FieldContext, x: Sequence[int]) -> int:
    """|x|^2 = sum of squared coordinates, reduced mod q."""
    return int(sum(int(c) * int(c) for c in x) % ctx.q)


def additive_character(ctx: FieldContext, j: int) -> complex:
    """e(j/q) = exp(2*pi*i*j/q), read from the precomputed table."""
    return complex(ctx.char_table[j % ctx.q])
