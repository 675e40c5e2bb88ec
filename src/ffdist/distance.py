"""Distance distributions and spherical averages for two point sets.

For E, F in F_q^s the central object is

    nu(j) = #{(x, y) in E x F : |x - y|^2 = j},

computed two ways: a literal pair loop (nu_brute, exact integers, the
oracle) and a spectral path (nu_spectral) that takes both spectra from
set_spectra (one grid transform per set on the dense passes, one complex
transform of 1_E + i 1_F for the pair on pocketfft), buckets the
cross-spectrum conj(Ehat) * Fhat by |m|^2, and assembles all q counts
through the closed-form sphere kernel with two length-q FFTs, O(q log q)
extra work.
The pair loop sums each pair's (x_i - y_i)^2 mod q one group of consecutive
axes at a time, one lookup per group in a table of those sums (all s axes in
one group at 31^3 or 101^2, one axis a group at q = 1021), into int32 (at most
s (q - 1) < 2^31), in blocks of about 1e6 pairs, and folds their histogram
mod q once; no Fourier step.
The spectral counts must round back to the brute-force integers; a
residual above 1e-6 raises RoundingDrift instead of returning drifted
values.

Spherical averages, each a length-q array indexed by r:

    sigma_E(r)   = sum_{|a|^2 = r} |Ehat(a)|^2          (in [0, 1])
    sigma_EF(r)  = sum_{|m|^2 = r} conj(Ehat(m)) Fhat(m)

Both are real (E and F are real sets, so Ehat(-m) = conj(Ehat(m)), and m and -m
share a norm class); each is one spectral.by_norm pass over the spectra it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import charsums
from .errors import CapExceeded, ConfigError, DuplicatePoint, FieldMismatch, RoundingDrift
from .field import DEFAULT_PAIR_CAP, FieldContext, check_field, check_grid_cap
from .spectral import (
    GridFunction,
    Spectrum,
    by_norm,
    check_spectrum,
    dense_forward,
    forward_transform,
)

DEFAULT_RESIDUAL_TOL = 1e-6

# Most entries of one nu_brute group table: a group takes the most axes n with
# (2q - 1)^n <= TABLE_MAX.  nu_brute seconds by TABLE_MAX (1 BLAS thread, 2-core
# host, median of 11 interleaved calls; E x F of 2000 x 2010 at 31^3, 5000 x 5000
# at 101^2, 151^3 and 1021^2, 3000 x 3000 otherwise):
#                2^12   2^14   2^16   2^17   2^18   2^19   2^20   2^22
#   31^3        0.038  0.041  0.040  0.038  0.029  0.028  0.027  0.028
#   101^2       0.208  0.208  0.141  0.134  0.144  0.138  0.133  0.145
#   13^5        0.105  0.084  0.081  0.080  0.081  0.099  0.101  0.095
#   151^3       0.265  0.271  0.279  0.202  0.192  0.185  0.183  0.175
#   1021^2      0.193  0.166  0.172  0.184  0.177  0.174  0.186  0.356
#   3^30        0.174  0.139  0.141  0.173  0.160  0.161  0.167  0.306
#   43^3        0.081  0.059  0.058  0.055  0.056  0.054  0.044  0.048
#   7^8         0.091  0.077  0.059  0.057  0.056  0.056  0.062  0.073
# 2^18 is the least that takes all of 31^3 into one group (61^3 = 226981
# entries, under 1 MB); from 2^19 the 390625-entry four-axis table slows 13^5,
# and at 2^22 the two-axis table of 1021^2 (16 MB) doubles its time.
TABLE_MAX = 2 ** 18


@dataclass(frozen=True, eq=False)
class PointSet:
    """A duplicate-free set of points in F_q^s, radix-sorted; s is read off points."""

    q: int
    points: np.ndarray  # int64, shape (size, s), coordinates in [0, q)
    s = property(lambda self: self.points.shape[1])

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def radix_indices(self) -> np.ndarray:
        """Row-major flat index of every point; sorted ascending."""
        return np.ravel_multi_index(self.points.T, (self.q,) * self.s)


def check_indexable(q: int, s: int) -> None:
    """Raise ConfigError unless s >= 1 and every point of F_q^s has an int64 radix index."""
    if s < 1:
        raise ConfigError(f"dimension s = {s} must be >= 1")
    if q ** s > 2 ** 63 - 1:
        raise ConfigError(f"q**s = {q}**{s} exceeds the int64 radix index range 2**63 - 1")


def make_point_set(q: int, s: int, points: Iterable[Sequence[int]]) -> PointSet:
    """Build a PointSet, reducing integer coordinates mod q and rejecting duplicates.

    Like generate and read_pointset it raises ConfigError for an s or
    q**s past the radix indices; a malformed list raises ValueError.
    """
    check_indexable(q, s)
    pts = np.asarray(list(points))
    if pts.size == 0:
        raise ValueError("a point set must contain at least one point")
    if pts.ndim != 2 or pts.shape[1] != s:
        raise ValueError(f"points must be {s}-tuples")
    if pts.dtype.kind not in "iu":
        raise ValueError(f"coordinates must be int64-range integers, not {pts.dtype}")
    return sorted_point_set(q, s, np.ravel_multi_index((pts % q).astype(np.int64).T, (q,) * s))


def sorted_point_set(q: int, s: int, idx: np.ndarray) -> PointSet:
    """The PointSet of the points of F_q^s with radix indices idx; a repeat raises DuplicatePoint.

    The indices are sorted and unravelled into rows once; only a repeat takes the stable
    argsort, which names the repeat's second position in idx (its input row).
    """
    shape = (q,) * s
    keys = np.sort(idx)
    if np.any(keys[1:] == keys[:-1]):
        order = np.argsort(idx, kind="stable")
        row = int(order[np.flatnonzero(np.diff(idx[order]) == 0)[0] + 1])
        point = tuple(int(c) for c in np.unravel_index(idx[row], shape))
        raise DuplicatePoint(f"point {point} appears twice", row=row)
    return PointSet(q=q, points=np.stack(np.unravel_index(keys, shape), axis=1))


@dataclass(frozen=True, eq=False)
class DistanceDistribution:
    """nu[j] for j in F_q, as exact integers."""

    nu: np.ndarray  # int64, length q, nonnegative
    residual: float = 0.0  # max distance of the counts from integers before rounding


def _require_same_field(A: PointSet | Spectrum, B: PointSet | Spectrum) -> None:
    """Raise FieldMismatch, naming both, unless two sets or two spectra share one (q, s)."""
    if A.q != B.q or A.s != B.s:
        raise FieldMismatch(
            f"inputs live over (q={A.q}, s={A.s}) and (q={B.q}, s={B.s})"
        )


def indicator_grid(E: PointSet) -> GridFunction:
    """The 0/1 characteristic function of E as a dense real grid."""
    vals = np.zeros((E.q,) * E.s, dtype=np.float64)
    vals.flat[E.radix_indices()] = 1.0
    return GridFunction(vals)


def set_spectrum(ctx: FieldContext, E: PointSet) -> Spectrum:
    """Fourier transform of the indicator; Ehat(0) = #E / q^s, exactly on the dense passes."""
    check_field(ctx, "set", E.q)
    check_grid_cap(ctx, E.s)
    return forward_transform(ctx, indicator_grid(E))


def set_spectra(ctx: FieldContext, E: PointSet, F: PointSet) -> tuple[Spectrum, Spectrum]:
    """(Ehat, Fhat), the spectra of a cell's two sets; E may be F.

    Where forward_transform runs the dense passes these are two set_spectrum calls.  On
    pocketfft one complex transform G of the grid 1_E + i 1_F gives both, as the
    transform of a real grid has fhat(-m) = conj(fhat(m)):
    Ehat(m) = (G(m) + conj G(-m)) / 2 and Fhat(m) = (G(m) - conj G(-m)) / 2i.
    """
    _require_same_field(E, F)
    check_field(ctx, "set", E.q)
    check_grid_cap(ctx, E.s)
    if dense_forward(ctx.q):
        return set_spectrum(ctx, E), set_spectrum(ctx, F)
    q, s = E.q, E.s
    g = np.zeros((q,) * s, dtype=np.complex128)
    g.reshape(-1).real[E.radix_indices()] = 1.0
    g.reshape(-1).imag[F.radix_indices()] = 1.0
    np.fft.fftn(g, out=g)
    h, minus = (q + 1) // 2, -np.arange(q) % q
    neg = g[np.ix_(*[minus] * (s - 1), minus[:h])]  # G(-m) on the stored half
    np.conj(neg, out=neg)
    half, scale = g[..., :h], 0.5 / q ** s
    ehat = half + neg
    ehat *= scale
    np.subtract(half, neg, out=neg)
    neg *= -1j * scale
    return Spectrum(ehat), Spectrum(neg)


def nu_brute(E: PointSet, F: PointSet,
             pair_cap: int = DEFAULT_PAIR_CAP) -> DistanceDistribution:
    """Bucket |x - y|^2 over all of E x F; exact integer counts.

    Blocks of E rows against all of F, about 1e6 pairs each, bound the
    temporaries.  The axes are cut into groups of n consecutive axes, n the
    most with (2q - 1)^n <= TABLE_MAX (at least 1; the last group may be
    shorter).  A group's int32 table holds sum_i (d_i^2 mod q) for each
    offset vector d + (q - 1) read in base 2q - 1, and each point has one
    int64 key per group, (x + q - 1) . w for E and y . w for F with w the
    powers of 2q - 1, so a pair's index into the table is kx - ky.  The
    lookups, one per pair and group, add into one int32 (block, #F)
    accumulator, whose entries stay at most s (q - 1) < 2^31 (3145716 at
    q <= 2^20 with q^s < 2^63).  Their int64 histogram, of length s q,
    folds mod q once.
    """
    _require_same_field(E, F)
    if E.size * F.size > pair_cap:
        raise CapExceeded(
            f"#E * #F = {E.size * F.size} exceeds pair cap {pair_cap}"
        )
    q, s = E.q, E.s
    base = 2 * q - 1
    d = np.arange(1 - q, q)
    squares = (d * d % q).astype(np.int32)  # squares[d + q - 1] = d^2 mod q
    # tables[k - 1] holds the sums over k axes; each further axis is the next
    # more significant digit in base 2q - 1.
    tables = [squares]
    while len(tables) < s and base ** (len(tables) + 1) <= TABLE_MAX:
        tables.append(np.add.outer(squares, tables[-1]).ravel())
    n = len(tables)
    groups = []  # (table, keys of E, keys of F) per group of axes
    for lo in range(0, s, n):
        k = min(n, s - lo)
        w = base ** np.arange(k, dtype=np.int64)
        groups.append((tables[k - 1], (E.points[:, lo:lo + k] + (q - 1)) @ w,
                       F.points[:, lo:lo + k] @ w))
    (table, kx, ky), *rest = groups
    sums = np.zeros(s * q, dtype=np.int64)  # sums[t] = #pairs whose sum is t
    block = max(1, 1_000_000 // max(1, F.size))
    for lo in range(0, E.size, block):
        acc = np.take(table, kx[lo:lo + block, None] - ky)
        for t, x, y in rest:
            acc += np.take(t, x[lo:lo + block, None] - y)
        sums += np.bincount(acc.ravel(), minlength=s * q)
    return DistanceDistribution(nu=sums.reshape(s, q).sum(axis=0))


def nu_spectral(ctx: FieldContext, E: PointSet, F: PointSet,
                cross: np.ndarray | None = None) -> DistanceDistribution:
    """All q counts nu(j) from the identity

        nu(j) = q^(2s) * sum_m Shat_j(m) conj(Ehat(m)) Fhat(m).

    The cross-spectrum conj(Ehat) * Fhat is bucketed by |m|^2 once (the
    cross profile sigma_EF); because Shat_j(m) depends on m only through
    |m|^2, the remaining j-dependence is a single length-q character sum,
    and both length-q sums below are unnormalised inverse FFTs: O(q log q)
    for all j after set_spectra.  Counts are rounded to integers and
    the pre-rounding residual is gated at DEFAULT_RESIDUAL_TOL
    (RoundingDrift).

    Pass cross=cross_profile(ctx, Ehat, Fhat) to reuse a profile computed
    elsewhere; it is read, never written.
    """
    _require_same_field(E, F)
    check_field(ctx, "set", E.q)
    q, s = E.q, E.s
    if cross is None:
        cross = cross_profile(ctx, *set_spectra(ctx, E, F))
    if np.shape(cross) != (q,):
        raise FieldMismatch(f"cross profile has shape {np.shape(cross)}, expected ({q},) at q={q}")

    # B[k] = h[inv(4) * inv(k)] for k in F_q^*, h[n] = sum_w sigma_EF(w) e(w n / q);
    # norm="forward" leaves ifft as the unscaled e(+) sum.
    # m = 0 needs no split: the 1/q part of Shat_j(0) = 1/q + (class value at w = 0)
    # gives q^(2s) conj(Ehat(0)) Fhat(0) / q = #E #F / q, the first term of raw.
    h = np.fft.ifft(cross, norm="forward")
    B = np.zeros(q, dtype=np.complex128)  # B[0] = 0: the sum runs over k != 0
    B[1:] = h[charsums.inverse_multiples(ctx, [ctx.inv_table[4 % q]])[0]]
    if s % 2 == 1:
        B[1:] *= ctx.eta_table[1:]
    # dft[j] = sum_{k != 0} e(j k / q) B[k].
    dft = np.fft.ifft(B, norm="forward")

    raw = E.size * F.size / q \
        + q ** (1.5 * s - 1) * charsums.sphere_unit(ctx, s) * dft
    rounded = np.rint(raw.real)
    residual = float(np.max(np.abs(raw - rounded)))
    if residual > DEFAULT_RESIDUAL_TOL:
        raise RoundingDrift(
            f"spectral counts are {residual:.3e} from integers "
            f"(tolerance {DEFAULT_RESIDUAL_TOL:.1e}) at #E #F = {E.size} * {F.size} "
            f"and q**s = {q}**{s}"
        )
    return DistanceDistribution(nu=rounded.astype(np.int64), residual=residual)


def distance_set(dist: DistanceDistribution) -> set[int]:
    """Support of nu: the attained values of |x - y|^2."""
    return {int(j) for j in np.flatnonzero(dist.nu > 0)}


def spherical_profile(ctx: FieldContext, Ehat: Spectrum) -> np.ndarray:
    """sigma_E(r) for all r as a float64 (q,) array: one bucketing pass over |Ehat|^2.

    A spectrum of another shape than ctx's stored half raises FieldMismatch.
    """
    check_spectrum(ctx, Ehat)
    return by_norm(ctx, np.abs(Ehat.values) ** 2)


def cross_profile(ctx: FieldContext, Ehat: Spectrum, Fhat: Spectrum) -> np.ndarray:
    """sigma_{E,F}(r) = sum_{|m|^2 = r} Re(conj(Ehat(m)) Fhat(m)) as a float64 (q,) array.

    Like spherical_profile it refuses, with FieldMismatch, a spectrum of another shape.
    """
    _require_same_field(Ehat, Fhat)
    check_spectrum(ctx, Ehat)
    check_spectrum(ctx, Fhat)
    return by_norm(ctx, (np.conj(Ehat.values) * Fhat.values).real)


def intersection_count(E: PointSet, F: PointSet) -> int:
    """#(E intersect F) by exact set intersection of radix indices."""
    _require_same_field(E, F)
    return int(np.intersect1d(E.radix_indices(), F.radix_indices(),
                              assume_unique=True).size)
