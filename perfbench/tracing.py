"""Span tracing of the ffdist layers, installed from outside the package.

A traced run replaces selected package functions with wrappers that
record one span per call: name, start, end, parent span and op id.
Spans stay in memory and are written out when the run ends.

A wrapper bound only on the defining module would miss most calls:
checks, sweep and distance bind their callees with ``from .x import y``,
and ``checks.CHECKERS`` holds function objects.  ``Tracer.install``
therefore rebinds every ffdist namespace that holds the original object,
and every CHECKERS entry, and ``Tracer.uninstall`` puts them all back.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# Functions wrapped in a traced run, by layer (= package module).
TARGETS = {
    "field": ("make_field",),
    "generators": ("generate",),
    "spectral": ("forward_transform", "sphere_spectrum", "norm_grid"),
    "charsums": ("sphere_unit", "gauss_data"),
    "distance": ("indicator_grid", "set_spectrum", "nu_spectral", "nu_brute",
                 "spherical_profile", "cross_profile"),
    "sweep": ("validate_config", "iter_sweep"),
}

# The 11 entries of ffdist.checks.CHECKERS, each wrapped as checks.<name>.
# cross_zero raises OddDimension at odd s and every workload that runs
# checkers has s = 3, so it is wrapped but has no metric.
CHECKER_NAMES = ("profile_mass", "nu_spectral", "nu_zero", "second_moment",
                 "cross_zero", "profile_product", "sigma_bound",
                 "sphere_bounds", "dyadic", "distance_theorem",
                 "offzero_moment")

MARK = "__perfbench_span__"


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _set_key(E) -> str:
    """Content digest of a point set, to count distinct inputs."""
    return hashlib.blake2b(E.points.tobytes(), digest_size=8,
                           person=f"{E.q}:{E.s}".encode()[:16]).hexdigest()


def _transform_attrs(args: tuple, kwargs: dict) -> dict:
    """Computed cost of one forward transform: s dense length-q axis passes.

    Each pass is q**s * q complex multiply-adds.  Bytes are computed from
    array sizes (16-byte complex): every pass reads and writes the grid
    and reads the q x q matrix; cache misses are not counted.
    """
    q = _arg(args, kwargs, 0, "ctx").q
    s = _arg(args, kwargs, 1, "f").s
    return {"ops": s * q ** (s + 1),
            "bytes": s * 16 * (2 * q ** s + q * q)}


def _spectrum_attrs(args: tuple, kwargs: dict) -> dict:
    return {"key": _set_key(_arg(args, kwargs, 1, "E"))}


def _brute_attrs(args: tuple, kwargs: dict) -> dict:
    E, F = _arg(args, kwargs, 0, "E"), _arg(args, kwargs, 1, "F")
    return {"pairs": E.size * F.size, "key": (_set_key(E), _set_key(F))}


def _sphere_bounds_attrs(args: tuple, kwargs: dict) -> dict:
    return {"key": (_arg(args, kwargs, 0, "ctx").q, _arg(args, kwargs, 1, "E").s)}


ATTRS: dict[str, Callable[[tuple, dict], dict]] = {
    "spectral.forward_transform": _transform_attrs,
    "distance.set_spectrum": _spectrum_attrs,
    "distance.nu_brute": _brute_attrs,
    "checks.sphere_bounds": _sphere_bounds_attrs,
}

# Per-layer metrics of a traced run, all given per traced op:
# (name, unit, better).
PER_LAYER = (
    ("field.make_field.calls", "count", "lower"),
    ("field.make_field.self_s", "s", "lower"),
    ("generators.generate.calls", "count", "lower"),
    ("generators.generate.self_s", "s", "lower"),
    ("spectral.forward_transform.calls", "count", "lower"),
    ("spectral.forward_transform.self_s", "s", "lower"),
    ("spectral.forward_transform.ops_computed", "count", "lower"),
    ("spectral.forward_transform.bytes_computed", "B", "lower"),
    ("spectral.forward_transform.gflops", "GFLOP/s", "higher"),
    ("spectral.sphere_spectrum.calls", "count", "lower"),
    ("spectral.sphere_spectrum.self_s", "s", "lower"),
    ("spectral.norm_grid.calls", "count", "lower"),
    ("spectral.norm_grid.misses", "count", "lower"),
    ("spectral.dft_cache.misses", "count", "lower"),
    ("spectral.dft_cache.entries", "count", "lower"),
    ("charsums.sphere_unit.calls", "count", "lower"),
    ("charsums.sphere_unit.self_s", "s", "lower"),
    ("charsums.gauss_data.calls", "count", "lower"),
    ("distance.indicator_grid.self_s", "s", "lower"),
    ("distance.set_spectrum.calls", "count", "lower"),
    ("distance.set_spectrum.self_s", "s", "lower"),
    ("distance.set_spectrum.useful_ratio", "ratio", "higher"),
    ("distance.nu_spectral.calls", "count", "lower"),
    ("distance.nu_spectral.self_s", "s", "lower"),
    ("distance.nu_brute.calls", "count", "lower"),
    ("distance.nu_brute.self_s", "s", "lower"),
    ("distance.nu_brute.pairs", "count", "lower"),
    ("distance.nu_brute.useful_ratio", "ratio", "higher"),
    ("distance.spherical_profile.calls", "count", "lower"),
    ("distance.spherical_profile.self_s", "s", "lower"),
    ("distance.cross_profile.calls", "count", "lower"),
    ("distance.cross_profile.self_s", "s", "lower"),
    *((f"checks.{name}.self_s", "s", "lower") for name in CHECKER_NAMES
      if name != "cross_zero"),
    ("checks.sphere_bounds.useful_ratio", "ratio", "higher"),
    ("sweep.validate_config.self_s", "s", "lower"),
    ("sweep.iter_sweep.self_s", "s", "lower"),
    ("trace.op_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name: str, start: float, end: Optional[float],
                 parent: Optional[int], op: Optional[int],
                 attrs: Optional[dict] = None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.op, self.attrs = parent, op, attrs or {}

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op,
                "attrs": {k: v for k, v in self.attrs.items() if k != "key"}}


class Tracer:
    """Collects spans; ``op`` is the id stamped on spans opened now."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[dict, Any, Any]] = []
        self._caches: list[dict[str, tuple[int, int]]] = []

    def _open(self, name: str, attrs: Optional[dict]) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent,
                               self.op, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        attrs_of = ATTRS.get(name)
        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration; the only consumer in the
            # package (run_verify) drains the generator without other work.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = self._open(name, attrs_of(args, kwargs) if attrs_of else None)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(idx)
            setattr(traced_gen, MARK, name)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        setattr(traced, MARK, name)
        return traced

    def _patch(self, namespace: dict, key: Any, new: Any) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = new

    def install(self) -> None:
        """Wrap every target in every ffdist namespace and in CHECKERS."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in TARGETS:
            importlib.import_module(f"ffdist.{layer}")
        self._caches = [_cache_info()]
        spaces = [vars(m) for n, m in list(sys.modules.items())
                  if n == "ffdist" or n.startswith("ffdist.")]
        for layer, names in TARGETS.items():
            module = sys.modules[f"ffdist.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(original, f"{layer}.{fname}")
                for space in spaces:
                    for key in [k for k, v in space.items() if v is original]:
                        self._patch(space, key, wrapped)
        checkers = sys.modules["ffdist.checks"].CHECKERS
        if set(checkers) != set(CHECKER_NAMES):
            raise RuntimeError(f"CHECKERS changed: {sorted(checkers)}")
        for key, fn in list(checkers.items()):
            self._patch(checkers, key, self.wrap(fn, f"checks.{key}"))

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original
        self._caches.append(_cache_info())

    def metrics(self, ops: list[int]) -> dict[str, float]:
        """layer_metrics of the given ops, plus the spectral cache counters
        read at install and uninstall (so only valid after uninstall)."""
        out = layer_metrics(self.spans, ops)
        (ng0, dft0), (ng1, dft1) = [(c["norm_grid"], c["dft"]) for c in self._caches]
        out["spectral.norm_grid.misses"] = (ng1[0] - ng0[0]) / len(ops)
        out["spectral.dft_cache.misses"] = (dft1[0] - dft0[0]) / len(ops)
        out["spectral.dft_cache.entries"] = dft1[1]
        return out


def _cache_info() -> dict[str, tuple[int, int]]:
    """(misses, current entries) of the two lru caches in ffdist.spectral."""
    spectral = sys.modules["ffdist.spectral"]
    return {"norm_grid": tuple(spectral.norm_grid.cache_info()[1::2]),
            "dft": tuple(spectral._dft_matrices.cache_info()[1::2])}


def installed_wrappers() -> list[str]:
    """Names of tracing wrappers currently bound anywhere in ffdist."""
    found = []
    for n, m in list(sys.modules.items()):
        if n == "ffdist" or n.startswith("ffdist."):
            found += [getattr(v, MARK) for v in vars(m).values() if hasattr(v, MARK)]
    checks = sys.modules.get("ffdist.checks")
    if checks is not None:
        found += [getattr(v, MARK) for v in checks.CHECKERS.values() if hasattr(v, MARK)]
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        parts = sorted((max(spans[c].start, sp.start), min(spans[c].end, sp.end))
                       for c in children[i])
        covered, reach = 0.0, sp.start
        for lo, hi in parts:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((sp.end - sp.start) - covered)
    return out


def layer_metrics(spans: list[Span], ops: list[int]) -> dict[str, float]:
    """Per-op call counts, self times and counters of the traced ops.

    Keys are ``<layer>.<function>.<stat>`` for every wrapped function,
    with stats calls, self_s and, where the wrapper records them,
    ops_computed, bytes_computed, gflops, pairs and useful_ratio
    (distinct inputs / calls, 0 when never called).
    """
    n = len(ops)
    wanted = set(ops)
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    keys: dict[tuple[str, int], set] = defaultdict(set)
    for sp, st in zip(spans, selfs):
        if sp.op not in wanted:
            continue
        calls[sp.name] += 1
        self_s[sp.name] += st
        for k, v in sp.attrs.items():
            if k == "key":
                keys[(sp.name, sp.op)].add(v)
            else:
                sums[(sp.name, k)] += v
    names = [f"{layer}.{f}" for layer, fs in TARGETS.items() for f in fs]
    names += [f"checks.{c}" for c in CHECKER_NAMES]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
    ft = "spectral.forward_transform"
    out[f"{ft}.ops_computed"] = sums[(ft, "ops")] / n
    out[f"{ft}.bytes_computed"] = sums[(ft, "bytes")] / n
    # A complex multiply-add is 8 real flops.
    out[f"{ft}.gflops"] = (8 * sums[(ft, "ops")] / self_s[ft] / 1e9
                           if self_s[ft] > 0 else 0.0)
    out["distance.nu_brute.pairs"] = sums[("distance.nu_brute", "pairs")] / n
    for name in ("distance.set_spectrum", "distance.nu_brute", "checks.sphere_bounds"):
        distinct = sum(len(v) for (nm, _), v in keys.items() if nm == name)
        out[f"{name}.useful_ratio"] = distinct / calls[name] if calls[name] else 0.0
    return out


def op_self_shares(spans: list[Span], op_times: dict[int, float]) -> dict[int, float]:
    """Sum of self times within each op, as a share of that op's wall time."""
    total: dict[int, float] = defaultdict(float)
    for sp, st in zip(spans, self_times(spans)):
        if sp.op in op_times:
            total[sp.op] += st
    return {op: total[op] / t for op, t in op_times.items()}
