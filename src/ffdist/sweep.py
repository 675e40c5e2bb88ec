"""Experiment sweeps and the spectral-vs-brute benchmark.

A sweep walks (q, s, size pair, trial) cells in configuration order,
draws seeded random sets for every cell, runs the requested checkers,
and emits one row per (checker, cell).  Identical configurations give
byte-identical output: per-trial seeds are stable 64-bit hashes of
(master seed, q, s, trial, "E"/"F"), floats render with 17 significant
digits and '.' decimal, and rows are buffered in deterministic order.
Every checker is called the same way on every cell; checks.instance()
decides what a cell shares with the cell before it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .checks import CHECKERS, LemmaReport, release
from .distance import DEFAULT_RESIDUAL_TOL, PointSet, nu_brute, nu_spectral
from .errors import ConfigError, FFDistError, PairCapExceeded
from .field import DEFAULT_GRID_CAP, DEFAULT_PAIR_CAP, FieldContext, check_grid_cap, make_field
from .generators import GeneratorSpec, generate

CSV_HEADER = ("lemma_id,q,s,sizeE,sizeF,trial,seed,"
              "hypothesis_met,lhs,explicit_pass,measured_constant")


@dataclass
class SweepConfig:
    q_list: list[int]
    s_list: list[int]
    size_pairs: list[tuple[int, int]]
    trials: int
    seed: int
    checkers: list[str]
    grid_cap: int = DEFAULT_GRID_CAP
    pair_cap: int = DEFAULT_PAIR_CAP


@dataclass
class SweepRow:
    lemma_id: str
    q: int
    s: int
    sizeE: int
    sizeF: int
    trial: int
    seed: int
    report: LemmaReport


def trial_seed(master: int, q: int, s: int, trial: int, tag: str) -> int:
    """Stable 64-bit per-cell seed; independent of platform and run order."""
    text = f"{master}:{q}:{s}:{trial}:{tag}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def cell_sets(ctx: FieldContext, s: int, sizes: tuple[int, int], seed: int,
              trial: int) -> tuple[PointSet, PointSet]:
    """The seeded uniform random (E, F) of one sweep cell."""
    return tuple(generate(ctx, s, GeneratorSpec("uniform_random", size=n,
                                                seed=trial_seed(seed, ctx.q, s, trial, tag)))
                 for n, tag in zip(sizes, "EF"))


def validate_config(cfg: SweepConfig) -> dict[int, FieldContext]:
    """Raise ConfigError (or CapExceeded) on a bad config; else the contexts by q,
    each carrying cfg.grid_cap and cfg.pair_cap to every checker."""
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    for name, entries in (("q_list", cfg.q_list), ("s_list", cfg.s_list),
                          ("size_pairs", cfg.size_pairs), ("checkers", cfg.checkers)):
        if not entries:
            raise ConfigError(f"{name} must be nonempty")
        repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
        if repeated:  # one row per (checker, cell): a repeat would rerun and repeat rows
            raise ConfigError(f"{name} repeats the entry {repeated[0]!r}")
    for name in cfg.checkers:
        if name not in CHECKERS:
            raise ConfigError(
                f"unknown checker {name!r}; known: {', '.join(sorted(CHECKERS))}"
            )
    contexts = {}
    for q in cfg.q_list:
        try:
            contexts[q] = make_field(q, grid_cap=cfg.grid_cap, pair_cap=cfg.pair_cap)
        except ConfigError:  # a bad cap is not the fault of this q
            raise
        except FFDistError as exc:
            raise ConfigError(f"q_list entry {q}: {exc}") from None
    for s in cfg.s_list:
        if s < 1:
            raise ConfigError(f"s_list entry {s}: dimension must be >= 1")
        for ctx in contexts.values():
            check_grid_cap(ctx, s)
    for ne, nf in cfg.size_pairs:
        if ne < 1 or nf < 1:
            raise ConfigError(f"size pair ({ne}, {nf}): sizes must be >= 1")
        for q in cfg.q_list:
            for s in cfg.s_list:
                if max(ne, nf) > q ** s:
                    raise ConfigError(
                        f"size pair ({ne}, {nf}) exceeds q**s = {q ** s} "
                        f"at q = {q}, s = {s}"
                    )
    return contexts


def iter_sweep(cfg: SweepConfig) -> Iterator[SweepRow]:
    """Run the sweep in deterministic configuration order; the last cell's
    Instance is released when the sweep ends or is abandoned."""
    contexts = validate_config(cfg)
    try:
        for q, s, (ne, nf), trial in itertools.product(cfg.q_list, cfg.s_list, cfg.size_pairs,
                                                       range(cfg.trials)):
            E, F = cell_sets(contexts[q], s, (ne, nf), cfg.seed, trial)
            for name in cfg.checkers:
                report = CHECKERS[name](contexts[q], E, F)
                yield SweepRow(lemma_id=report.lemma_id, q=q, s=s, sizeE=ne, sizeF=nf,
                               trial=trial, seed=cfg.seed, report=report)
    finally:
        release()


def run_verify(cfg: SweepConfig) -> list[SweepRow]:
    return list(iter_sweep(cfg))


def _fmt(value) -> str:
    """17-significant-digit float rendering; '' for absent values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(float(value), ".17g")


def row_to_csv(row: SweepRow) -> str:
    rep = row.report
    return ",".join([
        row.lemma_id, str(row.q), str(row.s), str(row.sizeE), str(row.sizeF),
        str(row.trial), str(row.seed), _fmt(rep.hypothesis_met),
        _fmt(rep.lhs), _fmt(rep.explicit_pass), _fmt(rep.measured_constant),
    ])


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """The CSV document: header, one line per row, trailing newline."""
    return "\n".join([CSV_HEADER] + [row_to_csv(r) for r in rows]) + "\n"


def run_sweep(cfg: SweepConfig) -> tuple[list[SweepRow], bool]:
    """Execute the sweep and report overall pass; no I/O.

    The boolean is False exactly when some explicit_pass came back False.
    """
    rows = run_verify(cfg)
    return rows, all(r.report.explicit_pass is not False for r in rows)


def run_bench(q: int, s: int, sizeE: int, sizeF: int, repetitions: int = 5,
              seed: int = 0, grid_cap: int = DEFAULT_GRID_CAP,
              pair_cap: int = DEFAULT_PAIR_CAP) -> dict:
    """Median wall times of the brute and spectral nu paths, plus the
    spectral rounding residual and the tolerance it is gated at.

    When the pair count is over cap the brute path is skipped and the
    spectral result is self-checked against the mass identity
    sum_j nu(j) = #E #F (degraded mode, noted in the report).
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    ctx = make_field(q, grid_cap=grid_cap, pair_cap=pair_cap)
    E, F = cell_sets(ctx, s, (sizeE, sizeF), seed, 0)

    t_spectral = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        spectral = nu_spectral(ctx, E, F)
        t_spectral.append(time.perf_counter() - t0)

    report = {
        "q": q, "s": s, "sizeE": sizeE, "sizeF": sizeF,
        "repetitions": repetitions,
        "t_spectral": statistics.median(t_spectral),
        "residual": spectral.residual,
        "residual_tol": DEFAULT_RESIDUAL_TOL,
    }
    try:
        t_brute = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            brute = nu_brute(E, F, pair_cap=ctx.pair_cap)
            t_brute.append(time.perf_counter() - t0)
        report["t_brute"] = statistics.median(t_brute)
        report["speedup"] = report["t_brute"] / report["t_spectral"]
        report["outputs_match"] = bool(np.array_equal(brute.nu, spectral.nu))
        report["mode"] = "full"
    except PairCapExceeded:
        report["t_brute"] = None
        report["speedup"] = None
        report["outputs_match"] = None
        report["mass_identity_ok"] = bool(int(spectral.nu.sum()) == sizeE * sizeF)
        report["mode"] = "spectral_only"
    return report


def bench_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def parse_sizes(text: str) -> list[tuple[int, int]]:
    """Parse '40x40,20x80' into [(40, 40), (20, 80)]."""
    pairs = []
    for item in text.split(","):
        parts = item.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"size pair {item!r} must look like 40x80")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(f"size pair {item!r}: not integers") from None
    return pairs


def parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what} must be a comma list of integers, got {text!r}") from None


def parse_checkers(text: Optional[Sequence[str]]) -> list[str]:
    if not text:
        return sorted(CHECKERS)
    names: list[str] = []
    for chunk in text:
        names.extend(v for v in chunk.split(",") if v)
    if names == ["all"]:
        return sorted(CHECKERS)
    return names
