#!/usr/bin/env python3
"""Batch runs: a seeded checker sweep to CSV and the brute-vs-spectral bench.

The same entry points back the CLI (`ffdist sweep`, `ffdist bench`);
identical seeds give byte-identical CSV, so sweep outputs diff cleanly
across machines and runs.
"""

import json
import tempfile
from pathlib import Path

from ffdist.sweep import SweepConfig, run_bench, run_verify, rows_to_csv

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    cfg = SweepConfig(
        q_list=[5, 7, 13],
        s_list=[2],
        size_pairs=[(10, 15), (25, 25)],
        trials=2,
        seed=2024,
        checkers=["nu_spectral", "second_moment", "profile_product", "nu_zero"],
    )
    rows = run_verify(cfg)
    out.write_text(rows_to_csv(rows))
    # the CLI's exit rule: a run fails when some asserted check came back False
    all_ok = all(r.report.explicit_pass is not False for r in rows)
    print(f"sweep: {len(rows)} rows, all explicit checks pass: {all_ok}")
    print(f"CSV at {out} (removed on exit); first rows:\n")
    for line in out.read_text().splitlines()[:6]:
        print(f"  {line}")

print("\nbench: spectral path vs literal pair loop "
      "(both produce identical integer counts)")
report = run_bench(q=101, s=2, sizeE=2000, sizeF=2000, repetitions=3, seed=7)
print(json.dumps(report, indent=2))

print("equivalent CLI invocations:")
print("  ffdist sweep --q 5,7,13 --s 2 --sizes 10x15,25x25 --trials 2 "
      "--seed 2024 --lemma nu_spectral,second_moment,profile_product,nu_zero "
      "--out sweep.csv")
print("  ffdist bench --q 101 --s 2 --sizeE 2000 --sizeF 2000 --reps 3 --seed 7")
