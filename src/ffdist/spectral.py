"""Dense real functions on F_q^s and their normalized Fourier transforms.

Conventions (pinned so every power of q downstream is literal):

    forward:  fhat(x) = q^(-s) * sum_m e(-m.x/q) f(m)
    inverse:  f(x)    =          sum_m e(+m.x/q) fhat(m)
    Plancherel:  sum_m |fhat(m)|^2 = q^(-s) * sum_x |f(x)|^2

Grids are real numpy arrays of shape (q,)*s in C order, which is exactly
the radix-q row-major encoding of (x_1, ..., x_s).  As fhat(-m) =
conj(fhat(m)), a Spectrum stores only last-axis indices 0 .. (q-1)/2 (q is
odd: no Nyquist plane), and by_norm buckets by |m|^2 from that half.  The
inverse is pocketfft's irfftn; the forward backend is chosen from q alone:

  * q <= DENSE_MAX_Q = 151: s dense length-q passes against the cached
    q x q table, the last axis first onto its half.  Theta(s q^(s+1) / 2).
  * q > 151: pocketfft's rfftn (Bluestein for prime lengths), O(q^s log q).
    It uses no BLAS, so its bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import charsums
from .field import FieldContext, check_field, check_grid_cap, norm_squared  # noqa: F401  (re-exported)

# Every function here that builds a q**s grid first checks it against
# ctx.grid_cap (field.check_grid_cap); the cached tables below stay uncapped.

# Largest q transformed forward by the dense passes; above it pocketfft runs.
# rfftn/dense time of a real 0/1 grid's forward transform (1 BLAS thread,
# 2-core host, OpenBLAS 0.3.31, median of 5-7 interleaved calls):
#   s = 2: 2.21 at q = 101, 2.27 at 151, 1.14 at 199, 0.55 at 509, 0.32 at 1021
#   s >= 3: 2.31 at 101^3, 1.79 at 151^3, 1.74 at 157^3, 2.02 at 43^4, 1.34 at 13^5
# Dense stays faster to about q = 200; 151 is kept for thread stability: dense
# bytes were equal at 1 and 2 BLAS threads for every q <= 151 tried (31^3, 13^5,
# 43^4, 101^2, 101^3, 151^2, 151^3) and differed at 157^2, 257^2 and 157^3.
DENSE_MAX_Q = 151


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A dense real function on F_q^s (space domain)."""

    q: int
    s: int
    values: np.ndarray  # float64, shape (q,)*s


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The stored half of a GridFunction's transform, already scaled by q^(-s).

    values has shape (q,)*(s-1) + ((q+1)//2,): last-axis indices 0 .. (q-1)/2
    of fhat; fhat(-m) = conj(fhat(m)) gives the rest.  A separate type, so a
    spectrum cannot be fed back into forward_transform by accident.
    """

    q: int
    s: int
    values: np.ndarray


# Both caches hold the one field (and dimension) in use: a sweep walks q in
# its outer loop, so an older entry is never read again.
@lru_cache(maxsize=1)
def _dft_matrices(ctx: FieldContext) -> np.ndarray:
    """W[x, m] = e(-x m / q), the kernel of the dense forward passes."""
    q = ctx.q
    prod = np.outer(np.arange(q, dtype=np.int64), np.arange(q, dtype=np.int64)) % q
    return ctx.char_table[(-prod) % q]


@lru_cache(maxsize=1)
def norm_grid(ctx: FieldContext, s: int) -> np.ndarray:
    """Array of shape (q,)*s holding |x|^2 mod q at every grid point."""
    q = ctx.q
    sq = (np.arange(q, dtype=np.int64) ** 2) % q
    acc = sq
    for _ in range(s - 1):
        acc = np.add.outer(acc, sq)
    return acc % q


def half_norm_grid(ctx: FieldContext, s: int) -> np.ndarray:
    """|m|^2 mod q on the stored half of a Spectrum: a view of norm_grid."""
    return norm_grid(ctx, s)[..., :(ctx.q + 1) // 2]


def by_norm(ctx: FieldContext, s: int, values: np.ndarray) -> np.ndarray:
    """out[r] = sum of v(m) over all m in F_q^s with |m|^2 = r, as a float64 (q,) array.

    values holds v, with v(-m) = v(m), on the stored half of a Spectrum: an entry
    off last-axis index 0 also stands for its negative, of the same norm, so it counts twice.
    """
    weights = 2.0 * values
    weights[..., 0] = values[..., 0]
    return np.bincount(half_norm_grid(ctx, s).ravel(), weights=weights.ravel(), minlength=ctx.q)


def forward_transform(ctx: FieldContext, f: GridFunction) -> Spectrum:
    """fhat(x) = q^(-s) sum_m e(-m.x/q) f(m) on the stored half, axis-factored."""
    if isinstance(f, Spectrum):
        raise TypeError("input is already a Spectrum; refusing a double transform")
    if np.iscomplexobj(f.values):
        raise TypeError("input grid is complex; a Spectrum stores half of a real grid's transform")
    check_field(ctx, "grid", f.q)
    check_grid_cap(ctx, f.s)
    if ctx.q <= DENSE_MAX_Q:
        W = _dft_matrices(ctx)
        vals = f.values @ W[:, :(ctx.q + 1) // 2]  # W is symmetric: columns = rows
        for axis in range(f.s - 1):
            vals = np.moveaxis(np.tensordot(W, np.moveaxis(vals, axis, 0), axes=(1, 0)), 0, axis)
    else:
        vals = np.fft.rfftn(f.values)
    vals *= 1.0 / ctx.q ** f.s
    return Spectrum(q=ctx.q, s=f.s, values=vals)


def inverse_transform(ctx: FieldContext, F: Spectrum) -> GridFunction:
    """f(x) = sum_m e(+m.x/q) fhat(m); exact inverse of forward_transform."""
    if isinstance(F, GridFunction):
        raise TypeError("input is a space-domain GridFunction, not a Spectrum")
    check_field(ctx, "spectrum", F.q)
    check_grid_cap(ctx, F.s)
    # norm="forward" leaves the inverse sum unscaled.
    vals = np.fft.irfftn(F.values, (ctx.q,) * F.s, axes=range(F.s), norm="forward")
    return GridFunction(q=ctx.q, s=F.s, values=vals)


def plancherel_gap(ctx: FieldContext, f: GridFunction) -> float:
    """| sum |fhat|^2 - q^(-s) sum |f|^2 |, computed two-sided."""
    F = forward_transform(ctx, f)
    lhs = float(by_norm(ctx, f.s, np.abs(F.values) ** 2).sum())
    rhs = float(np.sum(f.values ** 2)) / ctx.q ** f.s
    return abs(lhs - rhs)


def sphere_counts(ctx: FieldContext, s: int) -> np.ndarray:
    """counts[r] = |S_r| for every r, from one histogram pass over the grid."""
    check_grid_cap(ctx, s)
    return np.bincount(norm_grid(ctx, s).ravel(), minlength=ctx.q)


def enumerate_sphere(ctx: FieldContext, s: int, r: int) -> np.ndarray:
    """All x with |x|^2 = r as radix-sorted int64 rows of shape (|S_r|, s), by exhaustive scan."""
    check_grid_cap(ctx, s)
    flat = np.flatnonzero(norm_grid(ctx, s).ravel() == r % ctx.q)
    return np.stack(np.unravel_index(flat, (ctx.q,) * s), axis=1).astype(np.int64)


def sphere_indicator(ctx: FieldContext, s: int, r: int) -> GridFunction:
    """0/1 grid of the sphere S_r."""
    check_grid_cap(ctx, s)
    vals = (norm_grid(ctx, s) == r % ctx.q).astype(np.float64)
    return GridFunction(q=ctx.q, s=s, values=vals)


def sphere_spectrum(ctx: FieldContext, s: int, r: int, mode: str = "direct") -> Spectrum:
    """Fourier transform of the sphere indicator.

    mode="direct" pushes the 0/1 grid through forward_transform;
    mode="closed_form" fills the grid from the character-sum closed form
    (one value per norm class).  The two agree to 1e-9 per entry.  Both
    return the stored half, like every Spectrum.
    """
    if mode == "direct":
        return forward_transform(ctx, sphere_indicator(ctx, s, r))
    if mode == "closed_form":
        check_grid_cap(ctx, s)
        at_origin, by_class = charsums.sphere_class_values(ctx, s, r)
        vals = by_class[half_norm_grid(ctx, s)]
        vals.flat[0] = at_origin
        return Spectrum(q=ctx.q, s=s, values=vals)
    raise ValueError(f"unknown mode {mode!r}; expected 'direct' or 'closed_form'")
