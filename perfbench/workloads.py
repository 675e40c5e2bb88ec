"""The benchmark's workloads: set-up from a seed, one op, output checks.

Each workload makes its inputs from the seed alone and hands the
program only the generated point sets (or the sweep configuration that
names them).  Ops call the package through module attributes, as in
``distance.nu_spectral``, never through a ``from`` import held here,
so that a traced run sees every call.

Per-op checks are split in two: ``keep`` reduces an op's output to
what the checks need, outside the op's timer, and ``verify`` judges
every kept output after the timed ops (for the nu workloads this is
where the nu_brute oracle runs, so it counts in no metric).  An op that
raised is kept as None and judged wrong.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ffdist import distance, field, generators, sweep

# Every checker but cross_zero, which raises OddDimension at odd s:
# `ffdist verify` with the default `--lemma all` exits 2 at odd s.
VERIFY_CHECKERS = ("distance_theorem", "dyadic", "nu_spectral", "nu_zero",
                   "offzero_moment", "profile_mass", "profile_product",
                   "second_moment", "sigma_bound", "sphere_bounds")


def clear_caches() -> int:
    """Empty every functools cache of the ffdist modules; return how many.

    An op run right after this is a cold op: it rebuilds every table the
    package caches between calls.
    """
    found = {id(obj): obj for name, mod in list(sys.modules.items())
             if name == "ffdist" or name.startswith("ffdist.")
             for obj in vars(mod).values()
             if callable(getattr(obj, "cache_clear", None))
             and callable(getattr(obj, "cache_info", None))}
    for obj in found.values():
        obj.cache_clear()
    return len(found)


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit seed for one generated input of a run."""
    text = f"perfbench:{seed}:{tag}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


@dataclass
class NuState:
    ctx: Any
    E: Any
    F: Any


class NuWorkload:
    """op = nu_spectral(ctx, E, F) on two uniform random sets."""

    def __init__(self, name: str, q: int, s: int, size: int, why: str):
        self.name, self.q, self.s, self.size, self.why = name, q, s, size, why
        self.pairs_per_op = size * size
        self.shape = f"q={q} s={s} #E=#F={size}"

    def setup(self, seed: int, tmp_dir: Path) -> NuState:
        ctx = field.make_field(self.q)
        E, F = (generators.generate(ctx, self.s, generators.GeneratorSpec(
            "uniform_random", size=self.size, seed=derive_seed(seed, tag)))
            for tag in ("E", "F"))
        return NuState(ctx, E, F)

    def op(self, st: NuState):
        return distance.nu_spectral(st.ctx, st.E, st.F)

    def keep(self, st: NuState, out) -> list[int]:
        return out.nu.tolist()

    def verify(self, st: NuState, kept: list[Optional[list[int]]]) -> list[bool]:
        oracle = distance.nu_brute(st.E, st.F).nu.tolist()
        mass = st.E.size * st.F.size
        return [nu == oracle and sum(nu) == mass for nu in kept]


class VerifyCellWorkload:
    """op = run_verify of one (q, s, #E, #F) cell with the odd-s checkers."""

    def __init__(self, name: str, q: int, s: int, sizes: tuple[int, int], why: str):
        self.name, self.q, self.s, self.sizes, self.why = name, q, s, sizes, why
        self.pairs_per_op = sizes[0] * sizes[1]
        self.shape = f"q={q} s={s} {sizes[0]}x{sizes[1]} 10 checkers"

    def setup(self, seed: int, tmp_dir: Path):
        return sweep.SweepConfig(q_list=[self.q], s_list=[self.s],
                                 size_pairs=[self.sizes], trials=1, seed=seed,
                                 checkers=list(VERIFY_CHECKERS))

    def op(self, cfg):
        return sweep.run_verify(cfg)

    def keep(self, cfg, rows) -> bool:
        spectral = [r.report for r in rows if r.report.lemma_id == "nu_spectral"]
        return (len(rows) == len(VERIFY_CHECKERS)
                and all(r.report.explicit_pass is not False for r in rows)
                and len(spectral) == 1 and spectral[0].lhs == 0)

    def verify(self, cfg, kept: list[Optional[bool]]) -> list[bool]:
        return [k is True for k in kept]


WORKLOADS = {
    "nu_plane": NuWorkload(
        "nu_plane", 1021, 2, 5000,
        "long-axis dense transform dominates; the shape where fftn beat the "
        "dense transform"),
    "nu_cube": NuWorkload(
        "nu_cube", 151, 3, 5000,
        "three short-axis passes over a 3.4M-entry complex grid; the shape "
        "where the dense transform beat fftn, and the memory peak"),
    "verify_cell": VerifyCellWorkload(
        "verify_cell", 31, 3, (2000, 2010),
        "bound by the nu_brute oracle and redundant recomputation across "
        "checkers; no large transform"),
}
