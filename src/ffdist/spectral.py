"""Dense functions on F_q^s and their normalized Fourier transforms.

Conventions (pinned so every power of q downstream is literal):

    forward:  fhat(x) = q^(-s) * sum_m e(-m.x/q) f(m)
    inverse:  f(x)    =          sum_m e(+m.x/q) fhat(m)
    Plancherel:  sum_m |fhat(m)|^2 = q^(-s) * sum_x |f(x)|^2

Grids are numpy arrays of shape (q,)*s in C order, which is exactly the
radix-q row-major encoding of (x_1, ..., x_s).  q is prime, so there is
no FFT radix split; the transform runs as s dense length-q passes, one
per axis, each a deterministic matrix product.  Cost Theta(s * q^(s+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from . import charsums
from .errors import CapExceeded
from .field import FieldContext, norm_squared  # noqa: F401  (re-exported)

# Grid cap: q**s complex entries (~4M keeps every exhaustive check fast).
DEFAULT_GRID_CAP = 2 ** 22


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A dense complex function on F_q^s (space domain)."""

    q: int
    s: int
    values: np.ndarray  # complex128, shape (q,)*s


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


@dataclass(frozen=True, eq=False)
class Sphere:
    """The sphere S_r = {x : |x|^2 = r} as explicit points."""

    q: int
    s: int
    r: int
    points: np.ndarray  # int64, shape (count, s), radix-sorted
    count: int


def check_grid_cap(q: int, s: int, grid_cap: int = DEFAULT_GRID_CAP) -> None:
    if q ** s > grid_cap:
        raise CapExceeded(f"q**s = {q}**{s} = {q ** s} exceeds grid cap {grid_cap}")


@lru_cache(maxsize=64)
def _dft_matrices(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """(W, V) with W[x, m] = e(-x m / q) and V[x, m] = e(+x m / q)."""
    q = ctx.q
    prod = np.outer(np.arange(q, dtype=np.int64), np.arange(q, dtype=np.int64)) % q
    V = ctx.char_table[prod]
    W = ctx.char_table[(-prod) % q]
    return W, V


@lru_cache(maxsize=64)
def norm_grid(ctx: FieldContext, s: int) -> np.ndarray:
    """Array of shape (q,)*s holding |x|^2 mod q at every grid point."""
    q = ctx.q
    sq = (np.arange(q, dtype=np.int64) ** 2) % q
    acc = sq
    for _ in range(s - 1):
        acc = np.add.outer(acc, sq)
    return acc % q


def _axis_passes(mat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the same length-q kernel along every axis of values."""
    out = values.astype(np.complex128, copy=True)
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def forward_transform(ctx: FieldContext, f: GridFunction,
                      grid_cap: int = DEFAULT_GRID_CAP) -> Spectrum:
    """fhat(x) = q^(-s) sum_m e(-m.x/q) f(m), axis-factored."""
    if isinstance(f, Spectrum):
        raise TypeError("input is already a Spectrum; refusing a double transform")
    check_grid_cap(ctx.q, f.s, grid_cap)
    W, _ = _dft_matrices(ctx)
    vals = _axis_passes(W, f.values) * (1.0 / ctx.q ** f.s)
    return Spectrum(q=ctx.q, s=f.s, values=vals)


def inverse_transform(ctx: FieldContext, F: Spectrum,
                      grid_cap: int = DEFAULT_GRID_CAP) -> GridFunction:
    """f(x) = sum_m e(+m.x/q) fhat(m); exact inverse of forward_transform."""
    if isinstance(F, GridFunction):
        raise TypeError("input is a space-domain GridFunction, not a Spectrum")
    check_grid_cap(ctx.q, F.s, grid_cap)
    _, V = _dft_matrices(ctx)
    return GridFunction(q=ctx.q, s=F.s, values=_axis_passes(V, F.values))


def plancherel_gap(ctx: FieldContext, f: GridFunction) -> float:
    """| sum |fhat|^2 - q^(-s) sum |f|^2 |, computed two-sided."""
    F = forward_transform(ctx, f)
    lhs = float(np.sum(np.abs(F.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / ctx.q ** f.s
    return abs(lhs - rhs)


def sphere_counts(ctx: FieldContext, s: int, grid_cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """counts[r] = |S_r| for every r, from one histogram pass over the grid."""
    check_grid_cap(ctx.q, s, grid_cap)
    return np.bincount(norm_grid(ctx, s).ravel(), minlength=ctx.q)


def enumerate_sphere(ctx: FieldContext, s: int, r: int,
                     grid_cap: int = DEFAULT_GRID_CAP) -> Sphere:
    """All x with |x|^2 = r, by exhaustive scan of the grid."""
    check_grid_cap(ctx.q, s, grid_cap)
    q = ctx.q
    r = r % q
    flat = np.flatnonzero(norm_grid(ctx, s).ravel() == r)
    pts = np.stack(np.unravel_index(flat, (q,) * s), axis=1).astype(np.int64)
    return Sphere(q=q, s=s, r=r, points=pts, count=len(flat))


def sphere_indicator(ctx: FieldContext, s: int, r: int,
                     grid_cap: int = DEFAULT_GRID_CAP) -> GridFunction:
    """0/1 grid of the sphere S_r."""
    check_grid_cap(ctx.q, s, grid_cap)
    vals = (norm_grid(ctx, s) == r % ctx.q).astype(np.complex128)
    return GridFunction(q=ctx.q, s=s, values=vals)


def sphere_spectrum(ctx: FieldContext, s: int, r: int, mode: str = "direct",
                    grid_cap: int = DEFAULT_GRID_CAP) -> Spectrum:
    """Fourier transform of the sphere indicator.

    mode="direct" pushes the 0/1 grid through forward_transform;
    mode="closed_form" fills the grid from the character-sum closed form
    (one value per norm class).  The two agree to 1e-9 per entry.
    """
    check_grid_cap(ctx.q, s, grid_cap)
    if mode == "direct":
        return forward_transform(ctx, sphere_indicator(ctx, s, r, grid_cap), grid_cap)
    if mode == "closed_form":
        at_origin, by_class = charsums.sphere_class_values(ctx, s, r)
        vals = by_class[norm_grid(ctx, s)]
        vals.flat[0] = at_origin
        return Spectrum(q=ctx.q, s=s, values=vals)
    raise ValueError(f"unknown mode {mode!r}; expected 'direct' or 'closed_form'")
