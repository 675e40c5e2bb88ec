"""Command-line harness.

Subcommands:
  gen       write a generated point set to a file
  verify    run checkers on seeded random sets, emit reports
  sweep     run a checker grid over (q, s, sizes, trials), emit CSV
  bench     time nu_brute vs nu_spectral, emit a JSON report
  selftest  quick built-in identity suite

Exit codes: 0 ok, 1 explicit-check failure, 2 usage/config error or a
path that cannot be read or written, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECKERS
from .errors import CapError, FFDistError
from .field import DEFAULT_GRID_CAP, DEFAULT_PAIR_CAP, make_field
from .generators import KINDS, GeneratorSpec, generate
from .setio import write_pointset
from .sweep import (
    SweepConfig,
    bench_to_json,
    parse_checkers,
    parse_int_list,
    parse_sizes,
    rows_to_csv,
    run_bench,
    run_sweep,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _add_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap-grid", type=int, default=DEFAULT_GRID_CAP,
                   help="max q**s grid entries")
    p.add_argument("--cap-pairs", type=int, default=DEFAULT_PAIR_CAP,
                   help="max #E * #F for the brute path")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ffdist",
        description="Distance-distribution and spectral-identity harness over F_q^s",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a point set and write it to a file")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--kind", choices=KINDS, default="uniform_random")
    g.add_argument("--size", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--radius", type=int, default=None, help="sphere_set radius")
    g.add_argument("--lengths", type=str, default=None,
                   help="product_interval side lengths, comma separated")
    g.add_argument("--in-file", type=str, default=None, help="from_file source")
    g.add_argument("--out", type=str, required=True)

    v = sub.add_parser("verify", help="run checkers on seeded random sets")
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--s", type=int, required=True)
    v.add_argument("--sizeE", type=int, required=True)
    v.add_argument("--sizeF", type=int, required=True)
    v.add_argument("--trials", type=int, default=1)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--lemma", action="append", default=None,
                   help=f"checker name or comma list; one of {', '.join(sorted(CHECKERS))}; "
                        "default all")
    v.add_argument("--format", choices=("csv", "json"), default="json")
    v.add_argument("--out", type=str, default=None, help="default stdout")
    _add_caps(v)

    w = sub.add_parser("sweep", help="checker grid over q, s, sizes, trials; CSV out")
    w.add_argument("--q", type=str, required=True, help="comma list, e.g. 3,5,7")
    w.add_argument("--s", type=str, required=True, help="comma list, e.g. 2,3")
    w.add_argument("--sizes", type=str, required=True, help="pairs like 40x40,20x80")
    w.add_argument("--trials", type=int, default=1)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--lemma", action="append", default=None)
    w.add_argument("--out", type=str, required=True)
    _add_caps(w)

    b = sub.add_parser("bench", help="time nu_brute vs nu_spectral")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--sizeE", type=int, required=True)
    b.add_argument("--sizeF", type=int, required=True)
    b.add_argument("--reps", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", type=str, default=None, help="default stdout")
    _add_caps(b)

    sub.add_parser("selftest", help="quick built-in identity suite")
    return top


def _cmd_gen(args) -> int:
    ctx = make_field(args.q)
    params = {}
    if args.radius is not None:
        params["radius"] = args.radius
    if args.lengths is not None:
        params["lengths"] = parse_int_list(args.lengths, "--lengths")
    if args.in_file is not None:
        params["path"] = args.in_file
    spec = GeneratorSpec(kind=args.kind, size=args.size, seed=args.seed,
                         params=params)
    E = generate(ctx, args.s, spec)
    write_pointset(E, args.out)
    print(f"wrote {E.size} points to {args.out}")
    return EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    cfg = SweepConfig(
        q_list=[args.q], s_list=[args.s],
        size_pairs=[(args.sizeE, args.sizeF)],
        trials=args.trials, seed=args.seed,
        checkers=parse_checkers(args.lemma),
        grid_cap=args.cap_grid, pair_cap=args.cap_pairs,
    )
    rows, all_ok = run_sweep(cfg)
    if args.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = "\n".join(r.report.to_json() for r in rows) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        q_list=parse_int_list(args.q, "--q"),
        s_list=parse_int_list(args.s, "--s"),
        size_pairs=parse_sizes(args.sizes),
        trials=args.trials, seed=args.seed,
        checkers=parse_checkers(args.lemma),
        grid_cap=args.cap_grid, pair_cap=args.cap_pairs,
    )
    rows, all_ok = run_sweep(cfg)
    _emit(rows_to_csv(rows), args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_bench(args) -> int:
    report = run_bench(args.q, args.s, args.sizeE, args.sizeF,
                       repetitions=args.reps, seed=args.seed,
                       grid_cap=args.cap_grid, pair_cap=args.cap_pairs)
    _emit(bench_to_json(report), args.out)
    if report["mode"] == "full" and not report["outputs_match"]:
        return EXIT_CHECK_FAILED
    if report["mode"] == "spectral_only" and not report["mass_identity_ok"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_selftest(args) -> int:
    cfg = SweepConfig(
        q_list=[5, 7], s_list=[2], size_pairs=[(6, 10)], trials=2, seed=11,
        checkers=sorted(CHECKERS),
    )
    rows, all_ok = run_sweep(cfg)
    failures = [r for r in rows if r.report.explicit_pass is False]
    for r in rows:
        verdict = ("pass" if r.report.explicit_pass
                   else "FAIL" if r.report.explicit_pass is False else "info")
        print(f"{verdict:4} {r.report.lemma_id:17} q={r.q} s={r.s} trial={r.trial}")
    print(f"selftest: {len(rows)} checks, {len(failures)} failures")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (FFDistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
