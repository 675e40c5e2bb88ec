"""Dense functions on F_q^s and their normalized Fourier transforms.

Conventions (pinned so every power of q downstream is literal):

    forward:  fhat(x) = q^(-s) * sum_m e(-m.x/q) f(m)
    inverse:  f(x)    =          sum_m e(+m.x/q) fhat(m)
    Plancherel:  sum_m |fhat(m)|^2 = q^(-s) * sum_x |f(x)|^2

Grids are numpy arrays of shape (q,)*s in C order, which is exactly the
radix-q row-major encoding of (x_1, ..., x_s).  The inverse always runs
pocketfft; the forward backend is chosen from q alone (DENSE_MAX_Q):

  * q <= 151: s dense length-q passes, one per axis, each a matrix
    product against the cached q x q table.  Cost Theta(s * q^(s+1)).
  * q > 151: numpy's pocketfft (Bluestein for prime lengths), cost
    O(q^s log q).  It uses no BLAS, so its bytes do not depend on the
    BLAS thread count; the dense passes above q = 151 do.  Real input
    goes through rfftn and the other half of the spectrum is filled
    from F(-m) = conj(F(m)).

Either way a Spectrum holds the full (q,)*s grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import charsums
from .field import FieldContext, check_grid_cap, norm_squared  # noqa: F401  (re-exported)

# Every function here that builds a q**s grid first checks it against
# ctx.grid_cap (field.check_grid_cap); the cached tables below stay uncapped.

# Largest q transformed forward by the dense passes; above it pocketfft runs.
# Forward transform of a real 0/1 grid, 1 BLAS thread, 2-core host,
# OpenBLAS 0.3.31, fft/dense time ratio (median of interleaved calls):
#   s = 2: 1.44 at q = 101, 1.22 at 151, 0.60 at 199, 0.28 at 509, 0.19 at 1021
#   s = 3: 1.04 at q = 101, 1.00 at 151, 0.95 at 157
#   s = 4, 5 (q <= 43 under the grid cap): 1.07 at 43^4, 1.02 at 13^5
# Dense bytes were equal at 1 and 2 BLAS threads for every q <= 151 tried
# (31^3, 13^5, 43^4, 101^2, 101^3, 151^2, 151^3) and differed for every
# q >= 157 tried (157^2 ... 197^2, 257^2, 1021^2, 157^3).  151 is the largest
# q that is both no slower dense and thread-stable; from 157 to 197 at s = 2
# pocketfft costs up to about 1.2x on transforms of 1-2 ms.
DENSE_MAX_Q = 151


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A dense real or complex function on F_q^s (space domain)."""

    q: int
    s: int
    values: np.ndarray  # float64 (indicators) or complex128, shape (q,)*s


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Frequency-domain counterpart of GridFunction.

    Kept as a separate type so a spectrum cannot be fed back into
    forward_transform by accident; it already carries the q^(-s)
    normalization.
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


def _axis_passes(mat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the same length-q kernel along every axis of values.

    The first pass already returns a new complex array, so values (real
    or complex) is read, never written, and needs no copy of its own.
    """
    out = values
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def _hermitian_fill(half: np.ndarray, q: int) -> np.ndarray:
    """The full (q,)*s spectrum of a real grid from rfftn's half of it.

    half holds last-axis indices 0 .. (q-1)/2 (q is odd, so there is no
    Nyquist plane).  Index k > (q-1)/2 is F(m', k) = conj(F(-m', q - k)):
    negation maps index 0 of a leading axis to 0 and index i to q - i,
    so each leading axis splits into the slice {0} and the reversed
    slice {1 .. q-1}, and every pair of views is written without a copy.
    """
    h = half.shape[-1]
    out = np.empty(half.shape[:-1] + (q,), dtype=np.complex128)
    out[..., :h] = half
    lead = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for pairs in product(lead, repeat=half.ndim - 1):
        dst = tuple(d for d, _ in pairs) + (slice(h, None),)
        src = tuple(r for _, r in pairs) + (slice(h - 1, 0, -1),)
        np.conjugate(half[src], out=out[dst])
    return out


def forward_transform(ctx: FieldContext, f: GridFunction) -> Spectrum:
    """fhat(x) = q^(-s) sum_m e(-m.x/q) f(m), axis-factored."""
    if isinstance(f, Spectrum):
        raise TypeError("input is already a Spectrum; refusing a double transform")
    check_grid_cap(ctx, f.s)
    if ctx.q <= DENSE_MAX_Q:
        vals = _axis_passes(_dft_matrices(ctx), f.values)
    elif np.isrealobj(f.values):
        vals = _hermitian_fill(np.fft.rfftn(f.values), ctx.q)
    else:
        vals = np.fft.fftn(f.values)
    vals *= 1.0 / ctx.q ** f.s
    return Spectrum(q=ctx.q, s=f.s, values=vals)


def inverse_transform(ctx: FieldContext, F: Spectrum) -> GridFunction:
    """f(x) = sum_m e(+m.x/q) fhat(m); exact inverse of forward_transform."""
    if isinstance(F, GridFunction):
        raise TypeError("input is a space-domain GridFunction, not a Spectrum")
    check_grid_cap(ctx, F.s)
    # norm="forward" leaves the inverse sum unscaled.
    return GridFunction(q=ctx.q, s=F.s, values=np.fft.ifftn(F.values, norm="forward"))


def plancherel_gap(ctx: FieldContext, f: GridFunction) -> float:
    """| sum |fhat|^2 - q^(-s) sum |f|^2 |, computed two-sided."""
    F = forward_transform(ctx, f)
    lhs = float(np.sum(np.abs(F.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / ctx.q ** f.s
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
    (one value per norm class).  The two agree to 1e-9 per entry.
    """
    if mode == "direct":
        return forward_transform(ctx, sphere_indicator(ctx, s, r))
    if mode == "closed_form":
        check_grid_cap(ctx, s)
        at_origin, by_class = charsums.sphere_class_values(ctx, s, r)
        vals = by_class[norm_grid(ctx, s)]
        vals.flat[0] = at_origin
        return Spectrum(q=ctx.q, s=s, values=vals)
    raise ValueError(f"unknown mode {mode!r}; expected 'direct' or 'closed_form'")
