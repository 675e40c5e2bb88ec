"""Seeded point-set generators: random and structured/adversarial.

Every generator is deterministic in (q, s, spec): the random kinds run
on a counter-based Philox stream keyed by spec.seed, which must lie in
[0, 2**128), so identical specs reproduce identical sets with no global
state.  A sampled size must lie in [1, support], a product_interval box
over ctx.grid_cap points is refused before it is built, and a spec that
sets a size or a params key its kind does not read (READS) is refused, as
is a bool or float size, seed, radius or side length (none is truncated)
and a product_interval lengths that is not a sequence: each is one ConfigError.
A coordinate subspace F_q^k x {0} is the box with sides [q]*k + [1]*(s-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .distance import PointSet, check_indexable, sorted_point_set
from .errors import CapExceeded, ConfigError, FieldMismatch
from .field import FieldContext, as_integer, check_grid_cap, sqrt_mod
from .spectral import norm_grid
from . import setio

# kind -> (whether it reads spec.size, the spec.params keys it reads).
READS = {
    "uniform_random": (True, ()),
    "isotropic_line": (False, ()),
    "sphere_set": (True, ("radius",)),
    "product_interval": (False, ("lengths",)),
    "from_file": (False, ("path",)),
}
KINDS = tuple(READS)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    size: Optional[int] = None
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)


def _choose(spec: GeneratorSpec, n: int, support: str) -> np.ndarray:
    """spec.size distinct indices of range(n) from the Philox stream keyed by spec.seed."""
    if spec.size is None or spec.size < 1:
        raise ConfigError(f"{spec.kind} needs a positive size")
    if spec.size > n:
        raise ConfigError(f"size {spec.size} exceeds {support}")
    if not 0 <= spec.seed < 2 ** 128:
        raise ConfigError(f"seed {spec.seed} outside [0, 2**128)")
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    return rng.choice(n, size=spec.size, replace=False)


def generate(ctx: FieldContext, s: int, spec: GeneratorSpec) -> PointSet:
    """Materialize a point set in F_q^s from a generator spec; a spec or s its kind
    refuses raises ConfigError, a box or sphere grid over ctx.grid_cap CapExceeded."""
    q = ctx.q
    check_indexable(q, s)
    if spec.kind not in READS:
        raise ConfigError(f"unknown generator kind {spec.kind!r}")
    reads_size, keys = READS[spec.kind]
    unread = (["size"] if spec.size is not None and not reads_size else []) \
        + sorted(set(spec.params) - set(keys))
    if unread:
        raise ConfigError(f"kind {spec.kind} does not read {', '.join(unread)}")
    as_integer(spec.seed, "seed")
    if spec.size is not None:
        as_integer(spec.size, "size")

    if spec.kind == "uniform_random":
        return sorted_point_set(q, s, _choose(spec, q ** s, f"q**s = {q ** s}"))

    if spec.kind == "isotropic_line":
        if s != 2:
            raise ConfigError("isotropic_line lives in dimension 2")
        if q % 4 != 1:
            raise ConfigError(f"q = {q} = 3 mod 4 has no square root of -1")
        i = sqrt_mod(ctx, q - 1)
        assert i is not None
        x = np.arange(q, dtype=np.int64)
        return sorted_point_set(q, 2, x * q + (i * x) % q)

    if spec.kind == "sphere_set":
        r = as_integer(spec.params.get("radius", 1), "radius")
        check_grid_cap(ctx, s)
        idx = np.flatnonzero(norm_grid(ctx, s).ravel() == r % q)  # S_r in radix order
        if idx.size == 0:
            raise ConfigError(f"sphere r = {r} is empty at q = {q}, s = {s}")
        if spec.size is not None:
            idx = idx[_choose(spec, idx.size, f"|S_{r}| = {idx.size}")]
        return sorted_point_set(q, s, idx)

    if spec.kind == "product_interval":
        lengths = spec.params.get("lengths", [])
        if isinstance(lengths, (str, bytes)) or not isinstance(lengths, Sequence):
            raise ConfigError(f"product_interval lengths must be a sequence, got {lengths!r}")
        lengths = [as_integer(v, "side length") for v in lengths]
        if len(lengths) != s or any(not 1 <= v <= q for v in lengths):
            raise ConfigError(f"product_interval needs {s} side lengths in [1, {q}]")
        count = math.prod(lengths)  # of the box [0, l_1) x ... x [0, l_s)
        if count > ctx.grid_cap:
            raise CapExceeded(f"product set of {count} points exceeds grid cap {ctx.grid_cap}")
        return sorted_point_set(q, s, np.ravel_multi_index(np.indices(lengths).reshape(s, -1),
                                                          (q,) * s))

    path = spec.params.get("path")  # from_file
    if not path:
        raise ConfigError("from_file needs params['path']")
    E = setio.read_pointset(path)
    if E.q != q or E.s != s:
        raise FieldMismatch(
            f"file declares (q={E.q}, s={E.s}), expected (q={q}, s={s})"
        )
    return E
