"""Distance distributions and spherical averages for two point sets.

For E, F in F_q^s the central object is

    nu(j) = #{(x, y) in E x F : |x - y|^2 = j},

computed two ways: a literal pair loop (nu_brute, exact integers, the
oracle) and a spectral path (nu_spectral) that runs two grid transforms,
buckets the cross-spectrum conj(Ehat) * Fhat by |m|^2, and assembles all
q counts through the closed-form sphere kernel with two length-q FFTs,
O(q log q) extra work.
The pair loop sums each pair's (x_i - y_i)^2 mod q one coordinate at a
time from a table of squares into int32 (at most s (q - 1) < 2^31), in
blocks of about 1e6 pairs, and folds their histogram mod q once; no Fourier step.
The spectral counts must round back to the brute-force integers; a
residual above 1e-6 raises RoundingDrift instead of returning drifted
values.

Spherical averages, each a length-q array indexed by r:

    sigma_E(r)   = sum_{|a|^2 = r} |Ehat(a)|^2          (in [0, 1])
    sigma_EF(r)  = sum_{|m|^2 = r} conj(Ehat(m)) Fhat(m)

Both are real (E and F are real sets, so Ehat(-m) = conj(Ehat(m)), and m
and -m share a norm class); each is one spectral.by_norm pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import charsums
from .errors import (
    DuplicatePoint,
    EmptyOffzeroSupport,
    FieldMismatch,
    PairCapExceeded,
    RoundingDrift,
    UnindexableSpace,
)
from .field import DEFAULT_PAIR_CAP, FieldContext, check_field, check_grid_cap
from .spectral import GridFunction, Spectrum, by_norm, forward_transform

DEFAULT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PointSet:
    """A duplicate-free set of points in F_q^s, radix-sorted."""

    q: int
    s: int
    points: np.ndarray  # int64, shape (size, s), coordinates in [0, q)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def radix_indices(self) -> np.ndarray:
        """Row-major flat index of every point; sorted ascending."""
        return np.ravel_multi_index(self.points.T, (self.q,) * self.s)


def check_indexable(q: int, s: int) -> None:
    """Raise UnindexableSpace unless s >= 1 and every point of F_q^s has an int64 radix index."""
    if s < 1:
        raise UnindexableSpace(f"dimension s = {s} must be >= 1")
    if q ** s > 2 ** 63 - 1:
        raise UnindexableSpace(f"q**s = {q}**{s} exceeds the int64 radix index range 2**63 - 1")


def make_point_set(q: int, s: int, points: Iterable[Sequence[int]]) -> PointSet:
    """Build a PointSet, reducing coordinates mod q and rejecting duplicates."""
    pts = np.asarray(list(points), dtype=np.int64)
    if pts.size == 0:
        raise ValueError("a point set must contain at least one point")
    if pts.ndim != 2 or pts.shape[1] != s:
        raise ValueError(f"points must be {s}-tuples")
    return sorted_point_set(q, s, pts % q)


def sorted_point_set(q: int, s: int, pts: np.ndarray) -> PointSet:
    """Radix-sort rows with coordinates in [0, q) into a PointSet; repeats raise DuplicatePoint."""
    idx = np.ravel_multi_index(pts.T, (q,) * s)
    order = np.argsort(idx, kind="stable")
    repeats = np.flatnonzero(np.diff(idx[order]) == 0)
    if repeats.size:
        row = int(order[repeats[0] + 1])
        raise DuplicatePoint(
            f"point {tuple(int(c) for c in pts[row])} appears twice", row=row)
    return PointSet(q=q, s=s, points=pts[order])


@dataclass(frozen=True, eq=False)
class DistanceDistribution:
    """nu[j] for j in F_q, as exact integers."""

    nu: np.ndarray  # int64, length q, nonnegative
    residual: float = 0.0  # max distance of the counts from integers before rounding


def _require_same_field(E: PointSet, F: PointSet) -> None:
    if E.q != F.q or E.s != F.s:
        raise FieldMismatch(
            f"sets live over (q={E.q}, s={E.s}) and (q={F.q}, s={F.s})"
        )


def _require_spectra_of(ctx: FieldContext, E: PointSet, spectra: Sequence[Spectrum]) -> None:
    for S in spectra:
        check_field(ctx, "spectrum", S.q)
        if S.s != E.s:
            raise FieldMismatch(f"spectrum lives over s={S.s}, set over s={E.s}")


def indicator_grid(E: PointSet) -> GridFunction:
    """The 0/1 characteristic function of E as a dense real grid."""
    vals = np.zeros((E.q,) * E.s, dtype=np.float64)
    vals.flat[E.radix_indices()] = 1.0
    return GridFunction(q=E.q, s=E.s, values=vals)


def set_spectrum(ctx: FieldContext, E: PointSet) -> Spectrum:
    """Fourier transform of the indicator; Ehat(0) = #E / q^s exactly."""
    check_field(ctx, "set", E.q)
    check_grid_cap(ctx, E.s)
    return forward_transform(ctx, indicator_grid(E))


def nu_brute(E: PointSet, F: PointSet,
             pair_cap: int = DEFAULT_PAIR_CAP) -> DistanceDistribution:
    """Bucket |x - y|^2 over all of E x F; exact integer counts.

    Blocks of E rows against all of F, about 1e6 pairs each, bound the
    temporaries.  Each pair's |x - y|^2 is built one axis at a time: the
    offset difference (x_i + q - 1) - y_i indexes a table of squares mod q,
    and the s lookups add into one int32 (block, #F) accumulator, whose
    entries stay at most s (q - 1) < 2^31 (3145716 at q <= 2^20 with
    q^s < 2^63).  Their int64 histogram, of length s q, folds mod q once.
    """
    _require_same_field(E, F)
    if E.size * F.size > pair_cap:
        raise PairCapExceeded(
            f"#E * #F = {E.size * F.size} exceeds pair cap {pair_cap}"
        )
    q, s = E.q, E.s
    d = np.arange(1 - q, q)
    squares = (d * d % q).astype(np.int32)  # squares[d + q - 1] = d^2 mod q
    X, Y = E.points + (q - 1), F.points
    sums = np.zeros(s * q, dtype=np.int64)  # sums[n] = #pairs whose sum is n
    block = max(1, 1_000_000 // max(1, F.size))
    for lo in range(0, E.size, block):
        rows = X[lo:lo + block]
        acc = np.take(squares, rows[:, None, 0] - Y[None, :, 0])
        for i in range(1, s):
            acc += np.take(squares, rows[:, None, i] - Y[None, :, i])
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
    for all j after two transforms.  Counts are rounded to integers and
    the pre-rounding residual is gated at DEFAULT_RESIDUAL_TOL
    (RoundingDrift).

    Pass cross=cross_profile(ctx, E, F) to reuse a profile computed
    elsewhere; it is read, never written.
    """
    _require_same_field(E, F)
    check_field(ctx, "set", E.q)
    q, s = E.q, E.s
    if cross is None:
        cross = cross_profile(ctx, E, F)
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


def spherical_profile(ctx: FieldContext, E: PointSet,
                      spectrum: Spectrum | None = None) -> np.ndarray:
    """sigma_E(r) for all r as a float64 (q,) array: one bucketing pass over |Ehat|^2."""
    if spectrum is None:
        spectrum = set_spectrum(ctx, E)
    _require_spectra_of(ctx, E, [spectrum])
    return by_norm(ctx, E.s, np.abs(spectrum.values) ** 2)


def cross_profile(ctx: FieldContext, E: PointSet, F: PointSet,
                  spectra: tuple[Spectrum, Spectrum] | None = None,
                  ) -> np.ndarray:
    """sigma_{E,F}(r) = sum_{|m|^2 = r} Re(conj(Ehat(m)) Fhat(m)) as a float64 (q,) array."""
    _require_same_field(E, F)
    if spectra is None:
        spectra = (set_spectrum(ctx, E), set_spectrum(ctx, F))
    _require_spectra_of(ctx, E, spectra)
    return by_norm(ctx, E.s, (np.conj(spectra[0].values) * spectra[1].values).real)


def intersection_count(E: PointSet, F: PointSet) -> int:
    """#(E intersect F) by exact set intersection of radix indices."""
    _require_same_field(E, F)
    return int(np.intersect1d(E.radix_indices(), F.radix_indices(),
                              assume_unique=True).size)


def support_lower_bound(dist: DistanceDistribution) -> Fraction:
    """Cauchy-Schwarz floor for the off-zero support of nu.

    Returns (sum_{j != 0} nu(j))^2 / (sum_{j != 0} nu(j)^2) as an exact
    rational; the number of distinct nonzero attained distances is always
    >= this value.
    """
    off = dist.nu[1:]
    total = int(off.sum())
    if total == 0:
        raise EmptyOffzeroSupport("all off-zero counts vanish")
    square_sum = int((off.astype(object) ** 2).sum())
    return Fraction(total * total, square_sum)
