"""ffdist benchmark: one closed-loop caller, one workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload nu_plane --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run pins every BLAS/OpenMP thread variable to 1 before numpy loads,
builds the workload's inputs from --seed, then runs ops back to back for
--seconds.  Every third op is cold: it runs right after the package's
caches are emptied, and its time is kept apart from the warm ops.  Every
op's output is checked.  The last line on stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of perfbench/tracing.py with
--trace 1.  Detail (environment block, tail percentile, op counts) is
printed above it and written to .bench_out/ in the repository root.

``--workload all`` runs every workload in its own process and prints one
table.  The program is imported from src/; a checkout without it is an
error (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
NAMES = ("nu_plane", "nu_cube", "verify_cell")
# Fresh processes that each set up and exit before the main run;
# setup_s is the median of their set-up times.
PROBES = 5
# In the timed loop every COLD_EVERY-th op is cold: the program's caches
# are emptied (untimed) just before it.  Interleaving cold with warm ops
# puts both under the same host load.
COLD_EVERY = 3
# (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
              ("first_op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile that has
    >= 10 ops beyond it, but never below the median: with fewer than 21
    ops that percentile would sit below p50, so the upper median is
    reported with the (fewer than 10) ops beyond it."""
    ts = sorted(times)
    n = len(ts)
    k = max(n - 11, n // 2)
    return ts[k], 100.0 * (k + 1) / n, n - 1 - k


class Runner:
    """Times ops of one workload; records a per-op verdict at the end."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.kept: list = []
        self.times: list[float] = []
        self.raised = 0

    def attempt(self) -> float:
        t0 = time.perf_counter()
        try:
            out = self.wl.op(self.state)
        except Exception:  # an op that raises is a failed op, not a stop
            dt = time.perf_counter() - t0
            if not self.raised:
                traceback.print_exc(file=sys.stderr)
            self.raised += 1
            self.kept.append(None)
        else:
            dt = time.perf_counter() - t0
            self.kept.append(self.wl.keep(self.state, out))
        self.times.append(dt)
        return dt

    def loop(self, seconds: float, tracer=None,
             cold_every: int = 0) -> tuple[list[int], list[int]]:
        """Closed loop for `seconds`: next op starts when the last ends, and
        none starts that the last op's time says would overrun.

        Returns the ids of the warm ops and of the cold ones: with
        ``cold_every`` k > 0, every k-th op runs after clear_caches.
        """
        import workloads

        warm, cold = [], []
        t_start = time.perf_counter()
        while True:
            i = len(self.kept)
            if cold_every and (len(warm) + len(cold) + 1) % cold_every == 0:
                workloads.clear_caches()
                cold.append(i)
            else:
                warm.append(i)
            if tracer is not None:
                tracer.op = i
            dt = self.attempt()
            if time.perf_counter() - t_start + dt > seconds:
                break
        if tracer is not None:
            tracer.op = None
        return warm, cold


def run_workload(wl, seed: int, seconds: float, trace: bool, tmp_dir: Path,
                 spans_path: Path | None = None) -> dict:
    """Set up, run the first op and a closed loop of ops, check all.

    The first op (fresh process, empty caches) and the loop's cold ops
    give first_op_s; the loop's warm ops give the other time metrics.
    With trace, the loop has no cold ops and is split: an untraced half,
    then a traced half whose spans give the per-layer metrics; the
    difference of the two halves' op_p50_s is the tracing overhead.
    """
    import tracing

    state = wl.setup(seed, tmp_dir)
    run = Runner(wl, state)
    run.attempt()
    detail: dict = {"workload": wl.name, "shape": wl.shape, "seed": seed,
                    "seconds": seconds, "trace": int(trace),
                    "pairs_per_op": wl.pairs_per_op}
    if not trace:
        ids, cold_ids = run.loop(seconds, cold_every=COLD_EVERY)
    else:
        ids, cold_ids = run.loop(seconds / 2)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced_ids, _ = run.loop(seconds / 2, tracer)
        finally:
            tracer.uninstall()
    cold_ids = [0] + cold_ids
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = wl.verify(state, run.kept)
    failed = verdicts.count(False)
    times = _passed(run.times, ids, verdicts)
    value, pct, beyond = tail(times)
    detail.update(attempted=len(verdicts), failed=failed, raised=run.raised,
                  fail_ratio=failed / len(verdicts), timed_ops=len(ids),
                  cold_ops=len(cold_ids), tail_percentile=pct,
                  tail_ops_beyond=beyond)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": sum(verdicts[i] for i in ids) / sum(run.times[i] for i in ids),
        "first_op_s": statistics.median(_passed(run.times, cold_ids, verdicts)),
        "peak_rss_mb": peak_rss_mb,
    }
    correct = failed == 0
    if trace:
        traced_times = [run.times[i] for i in traced_ids]
        layers = tracer.metrics(traced_ids)
        layers["trace.op_p50_s"] = statistics.median(traced_times)
        layers["trace.overhead_s"] = layers["trace.op_p50_s"] - metrics["op_p50_s"]
        shares = tracing.op_self_shares(
            tracer.spans, {i: run.times[i] for i in traced_ids})
        detail["self_share_max"] = max(shares.values())
        detail["traced_ops"] = len(traced_ids)
        detail["layers_all"] = layers
        correct = correct and detail["self_share_max"] <= 1.0
        if spans_path is not None:
            with open(spans_path, "w") as fh:
                for sp in tracer.spans:
                    fh.write(json.dumps(sp.to_json_dict()) + "\n")
            detail["spans_file"] = str(spans_path)
        metrics = {name: layers[name] for name, _, _ in tracing.PER_LAYER}
    detail["metrics"] = metrics
    return {"correct": correct, "attempted": len(verdicts), "failed": failed,
            "metrics": metrics, "detail": detail}


def _passed(times: list[float], ids: list[int], verdicts: list[bool]) -> list[float]:
    """Times of the ops in ids whose output passed; all of them if none did."""
    return [times[i] for i in ids if verdicts[i]] or [times[i] for i in ids]


def run_probes(args) -> list[float]:
    """Set up in fresh processes, one after another; their set-up times.

    A set-up time runs from process start to ready for the first op,
    both ends read on the system-wide monotonic clock.
    """
    samples = []
    for _ in range(PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: probe exited with {proc.returncode}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - t0)
    return samples


def run_one(args) -> int:
    import workloads  # numpy and ffdist load here, after pin_threads

    wl = workloads.WORKLOADS[args.workload]
    tmp_dir = OUT_DIR / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    if args.probe:
        wl.setup(args.seed, tmp_dir)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    res = run_workload(wl, args.seed, args.seconds, bool(args.trace), tmp_dir,
                       spans_path=OUT_DIR / f"spans-{stem}.jsonl")
    detail = res.pop("detail")
    detail["environment"] = environment()
    if not args.trace:
        detail["setup_samples_s"] = args.setup_samples
        res["metrics"]["setup_s"] = statistics.median(args.setup_samples)
        res["metrics"] = {k: res["metrics"][k] for k, _ in END_TO_END}
    units = _units(args.trace)
    res["metrics"] = {k: {"value": v, "unit": units[k]}
                      for k, v in res["metrics"].items()}
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({**res, "detail": detail}, indent=1) + "\n")
    print("env " + json.dumps(detail["environment"]))
    print(f"{wl.name}: {wl.shape}; {detail['attempted']} ops "
          f"({detail['timed_ops']} timed), fail_ratio "
          f"{detail['failed']}/{detail['attempted']} = {detail['fail_ratio']:g}")
    if not args.trace:
        print(f"op_tail_s at p{detail['tail_percentile']:.1f} with "
              f"{detail['tail_ops_beyond']} ops beyond; ops_per_s at "
              f"#E*#F = {wl.pairs_per_op} per op; first_op_s over "
              f"{detail['cold_ops']} cold ops")
    else:
        print(f"traced ops {detail['traced_ops']}, self-time share of op "
              f"wall <= {detail['self_share_max']:.4f}, tracing overhead "
              f"{res['metrics']['trace.overhead_s']['value']:+.4f} s per op")
    print(json.dumps(res))
    return 0


def _units(trace: int) -> dict[str, str]:
    """Metric name -> unit of the metrics a run reports, in print order."""
    import tracing

    if not trace:
        return dict(END_TO_END)
    return {name: unit for name, unit, _ in tracing.PER_LAYER}


def run_all(args) -> int:
    """Each workload in its own process; one table of their metrics."""
    rows = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        res["detail"] = json.loads((OUT_DIR / f"result-{stem}.json").read_text())["detail"]
        rows[name] = res
    print("env " + json.dumps(rows[NAMES[0]]["detail"]["environment"]))
    units = _units(args.trace)
    print(f"{'metric':44s} {'unit':8s}" + "".join(f"{n:>14s}" for n in NAMES))
    for m in units:
        print(f"{m:44s} {units[m]:8s}" + "".join(
            f"{rows[n]['metrics'][m]['value']:14.6g}" for n in NAMES))
    print(f"{'fail_ratio':44s} {'ratio':8s}" + "".join(
        f"{rows[n]['detail']['fail_ratio']:14.6g}" for n in NAMES))
    if not args.trace:
        print(f"{'op_tail percentile':44s} {'%':8s}" + "".join(
            f"{rows[n]['detail']['tail_percentile']:14.1f}" for n in NAMES))
        print(f"{'timed ops':44s} {'count':8s}" + "".join(
            f"{rows[n]['detail']['timed_ops']:14d}" for n in NAMES))
        print(f"{'#E*#F per op':44s} {'count':8s}" + "".join(
            f"{rows[n]['detail']['pairs_per_op']:14d}" for n in NAMES))
    else:
        print(f"{'self-time share of op (max)':44s} {'ratio':8s}" + "".join(
            f"{rows[n]['detail']['self_share_max']:14.4f}" for n in NAMES))
    ok = all(r["correct"] for r in rows.values())
    print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for n, r in rows.items()}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: set up, run one op, print times, exit")
    args = p.parse_args(argv)
    pin_threads()
    if not (ROOT / "src" / "ffdist" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'ffdist'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    args.setup_samples = [] if args.trace or args.probe else run_probes(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
