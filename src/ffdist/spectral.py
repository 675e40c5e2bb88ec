"""Dense real functions on F_q^s and their normalized Fourier transforms.

Conventions (pinned so every power of q downstream is literal):

    forward:  fhat(x) = q^(-s) * sum_m e(-m.x/q) f(m)
    Plancherel:  sum_m |fhat(m)|^2 = q^(-s) * sum_x |f(x)|^2

Grids are real numpy arrays of shape (q,)*s in C order, which is exactly
the radix-q row-major encoding of (x_1, ..., x_s); the transforms refuse
any other shape.  As fhat(-m) =
conj(fhat(m)), a Spectrum stores only last-axis indices 0 .. (q-1)/2 (q is
odd: no Nyquist plane), and by_norm buckets by |m|^2 from that half.  The
forward backend is chosen from q alone, by dense_forward, which
distance.set_spectra reads too:

  * q <= PAD_MAX = 128 and q = DENSE_MAX_Q = 151: s dense length-q passes
    against the cached q x q table, the last axis first onto its half, over
    the occupied lines only.  Pass 1 costs q (q+1)/2 per nonzero last-axis
    line; a later pass costs q k per output column of each group of occupied
    prefixes, k the largest group, padded to q past PAD_MAX.  A grid with
    every line occupied costs Theta(s q^(s+1) / 2); 5000 points in 151^3 fill
    about 4500 of its 22801 lines and cost about half that.
  * every other q, 131 to 149 included: pocketfft's rfftn (Bluestein for
    prime lengths), O(q^s log q).  It uses no BLAS, so its bytes do not
    depend on the BLAS thread count.  At prime q its real transform costs
    about as much as its complex one, so set_spectra takes a cell's two sets
    through one complex transform of 1_E + i 1_F there, not through this
    function: fftn's length-q passes, last axis first, each pass's lines cut
    into one contiguous slab per worker of split_map.

split_map runs the two loops that are cut across CPUs, those passes and
distance.nu_brute's blocks: one worker thread per CPU of the process's
affinity (os.sched_getaffinity; taskset -c 0 gives one, and one worker runs
inline).  The *_NUM_THREADS variables govern BLAS threads alone; the dense
passes and the sphere sums stay serial.  Each line of a pass, and each block's
integer histogram, is computed as on one worker, so no output byte depends on
the worker count.

Every sphere transform comes from one axis-factored sum, with no closed form:
as 1[|x|^2 = r] = q^(-1) sum_t e(t (|x|^2 - r)/q),

    Shat_r(m) = q^(-s-1) sum_t e(-t r/q) prod_i G(t, m_i),
    G(t, m)   = sum_x e((t x^2 - m x)/q),

with G one q x q table, each row pocketfft's DFT over x of e(t x^2/q): a
literal sum.  sphere_blocks gives every r at once, one first-axis value m_0 of
the stored half at a time; at dense_forward(q) the sum over t is one zgemm
against the cached q x q table per m_0, equal in bytes at 1 and 2 BLAS
threads there and faster than pocketfft's fft over t (the t-sums of all blocks
took 3.4 against 7.9 ms at 31^3 and 0.73 against 1.15 s at 101^3, 1 BLAS
thread, 2-core host); elsewhere it is that fft, whose bytes no BLAS thread
count moves.  sphere_spectrum takes row r of the same sum alone, one product
against the weights e(-t r/q).  The character-sum closed form of the same
values is charsums' sphere_class_values alone, and a sphere's points are
generators' sphere_set.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator

import numpy as np

from .errors import CapExceeded, FieldMismatch
from .field import FieldContext, check_field, check_grid_cap

# Every function here that builds or reads a q**s grid (half_norm_grid, so by_norm
# too) first checks ctx.grid_cap (field.check_grid_cap); the cached tables stay uncapped,
# but the sphere sums count their q x q tables, G and W, against the cap too.

# Largest q transformed forward by the dense passes; above it pocketfft runs, and
# so it does at PAD_MAX < q < DENSE_MAX_Q.
# rfftn/dense time of a real 0/1 grid's forward transform, measured when the
# dense passes ran over the whole grid (1 BLAS thread, 2-core host, OpenBLAS
# 0.3.31, median of 5-7 interleaved calls):
#   s = 2: 2.21 at q = 101, 2.27 at 151, 1.14 at 199, 0.55 at 509, 0.32 at 1021
#   s >= 3: 2.31 at 101^3, 1.79 at 151^3, 1.74 at 157^3, 2.02 at 43^4, 1.34 at 13^5
# Over the occupied lines only, sparse grids favour the dense passes further.
# Dense stayed faster to about q = 200; 151 is kept for thread stability, under the
# SkylakeX OpenBLAS kernel only (see PAD_MAX): dense bytes were equal at 1 and 2 BLAS
# threads at 31^3, 13^5, 43^4, 101^2, 101^3, 151^2 and 151^3 and differed at 157^2, 257^2,
# 157^3, 131^2, 131^3, 137^2, 149^2 and 149^3 (BLAS blocks those lengths by thread count).
DENSE_MAX_Q = 151

# Longest contraction the dense passes pad a group of occupied lines to; a longer
# group is padded to q, the length of the plain passes.  OpenBLAS 0.3.31 zgemm under
# its SkylakeX kernel (2-core host) gave equal bytes at 1 and 2 threads for a (151 x k)
# by (k x n) product at every k <= 128 and at k = 135, 136, 143, 144 and 151 (n = 76
# batched 151 times, 2000 and 11476), other bytes elsewhere.  So no padded contraction
# is less stable than the plain pass at q; this scan fails under the Haswell and Zen kernels.
PAD_MAX = 128

# Threads of a split loop (split_map): one per CPU this process may run on, so
# taskset -c 0 gives one.  The *_NUM_THREADS variables set BLAS threads alone.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool: list = []  # the ThreadPoolExecutor, made by the first split_map of two parts
_pool_lock = threading.Lock()


def split_map(fn: Callable[[slice], Any], n: int) -> list:
    """[fn(part) for part in parts], range(n) cut into min(WORKERS, n) contiguous slices.

    Every part runs on a thread of one pool, made on first use; a single part runs
    inline.  Each fn(part) must write only what its part owns, so the results do not
    depend on WORKERS.
    """
    k = max(1, min(WORKERS, n))
    parts = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]
    if k == 1:
        return [fn(parts[0])]
    with _pool_lock:
        if not _pool:
            # Imported here: concurrent.futures loads logging, about 6 ms of start-up.
            from concurrent.futures import ThreadPoolExecutor
            _pool.append(ThreadPoolExecutor(WORKERS, thread_name_prefix="ffdist"))
    return list(_pool[0].map(fn, parts))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A dense real function on F_q^s (space domain); q and s are read off values."""

    values: np.ndarray  # float64, shape (q,)*s
    q = property(lambda self: self.values.shape[0])
    s = property(lambda self: self.values.ndim)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The stored half of a GridFunction's transform, already scaled by q^(-s).

    values has shape (q,)*(s-1) + ((q+1)//2,): last-axis indices 0 .. (q-1)/2
    of fhat; fhat(-m) = conj(fhat(m)) gives the rest, and q and s are read off
    that shape.  Fed back into forward_transform, a spectrum is refused as a
    complex grid.
    """

    values: np.ndarray
    q = property(lambda self: 2 * self.values.shape[-1] - 1)
    s = property(lambda self: self.values.ndim)


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
    check_grid_cap(ctx, s)
    return norm_grid(ctx, s)[..., :(ctx.q + 1) // 2]


def by_norm(ctx: FieldContext, values: np.ndarray) -> np.ndarray:
    """out[r] = sum of v(m) over all m in F_q^s with |m|^2 = r, as a float64 (q,) array.

    values holds v, with v(-m) = v(m), on the stored half of a Spectrum, so s = values.ndim:
    an entry off last-axis index 0 also stands for its negative, of the same norm, so it
    counts twice.
    """
    weights = 2.0 * values
    weights[..., 0] = values[..., 0]
    ng = half_norm_grid(ctx, values.ndim)
    return np.bincount(ng.ravel(), weights=weights.ravel(), minlength=ctx.q)


def _spread(rows: np.ndarray, slot: np.ndarray, n: int) -> np.ndarray:
    """An n-row array of zeros holding rows at the indices slot."""
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    out[slot] = rows
    return out


def _dense_passes(W: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unscaled stored half of values' transform: s passes against W over occupied lines only.

    Pass 1 takes the nonzero last-axis lines onto their half.  Every later pass
    contracts the last coordinate of the occupied prefixes: the prefixes that agree
    on all other coordinates form a group, padded with zero rows to the largest
    group's size k (to q once k passes PAD_MAX), and one batched matmul gives each
    group its q outputs.  At k == q the pass runs against W itself, with no gathered
    copy of W.  When pass 2 pads to q, pass 1 runs on every line of the occupied
    groups instead, so pass 2 needs no padding; when every group is occupied, pass 1
    reads the grid itself, and the passes are the plain dense passes.
    """
    q = W.shape[0]
    shape = values.shape[:-1] + ((q + 1) // 2,)
    flat = values.reshape(-1, q)
    keys = np.flatnonzero((flat != 0).any(axis=1))  # radix indices of the occupied lines
    if keys.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    counts = np.bincount(keys // q)
    if counts.max() > PAD_MAX:
        # Only at q = 151: at q <= PAD_MAX no group can exceed PAD_MAX.  Gathering the
        # occupied lines and spreading pass 1's rows into zero rows cost more than
        # pass 1 over the empty lines of the occupied groups: at 151^3 the transform
        # took 99 ms this way and 107 ms without it for 56000 points (largest group
        # 147), 95 and 108 ms for 150000 points, with equal bytes (medians of 6
        # interleaved calls, 1 BLAS thread, 2-core host, OpenBLAS 0.3.31).
        keys = (np.flatnonzero(counts)[:, None] * q + np.arange(q)).ravel()
    # W is symmetric: its columns are its rows.
    vals = (flat if keys.size == flat.shape[0] else flat[keys]) @ W[:, :shape[-1]]
    for _ in range(values.ndim - 1):
        prefix, x = np.divmod(keys, q)
        counts = np.bincount(prefix)
        keys = np.flatnonzero(counts)  # the occupied prefixes, one coordinate shorter
        sizes = counts[keys]
        k = int(sizes.max())
        if k > PAD_MAX:
            k = q
        # The output is allocated before the pass's scratch (padding, gathered W), and
        # the scratch is freed within its pass, which keeps the heap from fragmenting:
        # peak RSS over repeated nu_spectral calls on 5000-point sets in 151^3 was
        # 191 MB this way and 224 MB with the output allocated last.
        out = np.empty((keys.size, q, vals.shape[1]), dtype=np.complex128)
        if x.size < keys.size * k:  # groups short of k: pad each with zero rows
            slot = (np.repeat(np.arange(0, keys.size * q, q), sizes) + x if k == q
                    else np.flatnonzero(np.arange(k) < sizes[:, None]))
            vals = _spread(vals, slot, keys.size * k)
            if k < q:
                x = _spread(x, slot, keys.size * k)  # a pad reads row 0 of W
        np.matmul(W if k == q else W[x].reshape(-1, k, q).transpose(0, 2, 1),
                  vals.reshape(keys.size, k, -1), out=out)
        vals = out.reshape(keys.size, -1)
    return vals.reshape(shape)


def dense_forward(q: int) -> bool:
    """Whether the forward transform at q runs the dense passes; else it runs pocketfft."""
    return q <= PAD_MAX or q == DENSE_MAX_Q


def forward_transform(ctx: FieldContext, f: GridFunction) -> Spectrum:
    """fhat(x) = q^(-s) sum_m e(-m.x/q) f(m) on the stored half, axis-factored."""
    if np.iscomplexobj(f.values):
        raise TypeError("input grid is complex; a Spectrum stores half of a real grid's transform")
    check_field(ctx, "grid", f.q)
    if f.values.shape != (ctx.q,) * f.s:
        raise FieldMismatch(f"grid has shape {f.values.shape}, expected {(ctx.q,) * f.s}")
    check_grid_cap(ctx, f.s)
    if dense_forward(ctx.q):
        vals = _dense_passes(_dft_matrices(ctx), f.values)
    else:
        vals = np.fft.rfftn(f.values)
    vals *= 1.0 / ctx.q ** f.s
    return Spectrum(vals)


def check_spectrum(ctx: FieldContext, F: Spectrum) -> None:
    """Raise FieldMismatch unless F is a stored half over ctx.q: shape (q,)*(s-1) + ((q+1)//2,)."""
    check_field(ctx, "spectrum", F.q)
    shape = (ctx.q,) * (F.s - 1) + ((ctx.q + 1) // 2,)
    if F.values.shape != shape:
        raise FieldMismatch(f"spectrum has shape {F.values.shape}, expected {shape}")


def sphere_counts(ctx: FieldContext, s: int) -> np.ndarray:
    """counts[r] = |S_r| for every r, from one histogram pass over the grid."""
    check_grid_cap(ctx, s)
    return np.bincount(norm_grid(ctx, s).ravel(), minlength=ctx.q)


def _sphere_factors(ctx: FieldContext, s: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(G, inner, half) of the axis-factored sphere sum, both tables against the grid cap.

    G[t, m] = sum_x e((t x^2 - m x)/q): row t is pocketfft's DFT over x of
    e(t x^2/q), a literal sum.  inner[t, j] = prod_{i >= 1} G(t, m_i) over the
    tails (m_1, ..., m_{s-1}) of the stored half in C order, one column at s = 1.
    half is the stored half's shape.
    """
    q = ctx.q
    check_grid_cap(ctx, s)
    if q * q > ctx.grid_cap:  # G and W, which outgrow the q**s grid at s = 1
        raise CapExceeded(f"sphere-sum table {q} x {q} = {q * q} entries "
                          f"exceeds grid cap {ctx.grid_cap}")
    half = (q,) * (s - 1) + ((q + 1) // 2,)
    x = np.arange(q, dtype=np.int64)
    G = np.fft.fft(ctx.char_table[np.outer(x, x * x % q) % q], axis=1)
    inner = np.ones((q, 1), dtype=np.complex128)
    for n in half[1:]:
        inner = (inner[:, :, None] * G[:, None, :n]).reshape(q, -1)
    return G, inner, half


def sphere_blocks(ctx: FieldContext, s: int) -> Iterator[tuple[int, np.ndarray]]:
    """Every Shat_r at once: (m_0, vals) for each first-axis value m_0 of the stored half.

    vals[r] holds Shat_r at the stored-half points with first coordinate m_0, so
    vals has shape (q,) + (q,)*(s-2) + ((q+1)//2,) at s >= 2 and (q,) at s = 1,
    at most q**s entries; each block is computed as it is drawn.
    """
    q = ctx.q
    G, inner, half = _sphere_factors(ctx, s)
    W = _dft_matrices(ctx) if dense_forward(q) else None
    scale = 1.0 / q ** (s + 1)
    for m0 in range(half[0]):
        if W is not None:
            vals = (W * G[:, m0]) @ inner
        else:
            vals = np.fft.fft(G[:, m0, None] * inner, axis=0)
        vals *= scale
        yield m0, vals.reshape((q,) + half[1:])


def sphere_spectrum(ctx: FieldContext, s: int, r: int) -> Spectrum:
    """Stored half of the transform of the sphere S_r's 0/1 grid: row r of sphere_blocks' sum.

    One product over t against the single weight row e(-t r/q), whatever q.
    The character-sum closed form of the same values is
    charsums.sphere_class_values, one value per norm class.
    """
    q = ctx.q
    G, inner, half = _sphere_factors(ctx, s)
    weight = ctx.char_table[(-r * np.arange(q, dtype=np.int64)) % q]  # e(-t r/q)
    vals = (weight[:, None] * G[:, :half[0]]).T @ inner
    vals *= 1.0 / q ** (s + 1)
    return Spectrum(vals.reshape(half))
