"""Command-line harness.

Subcommands:
  gen       write a generated point set to a file
  verify    run checkers on seeded random sets, emit JSON reports, one a line
  sweep     run a checker grid over (q, s, sizes, trials), emit CSV
  bench     time nu_brute vs nu_spectral, emit a JSON report

Exit codes: 0 ok, 1 explicit-check failure, 2 usage/config error or a
path that cannot be read or written, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import CHECKERS
from .errors import CapExceeded, FFDistError
from .field import DEFAULT_GRID_CAP, DEFAULT_PAIR_CAP, make_field
from .generators import KINDS, GeneratorSpec, generate
from .setio import write_pointset
from .sweep import (
    SweepConfig,
    parse_checkers,
    parse_int_list,
    parse_sizes,
    rows_to_csv,
    run_bench,
    run_verify,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _add_grid_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap-grid", type=int, default=DEFAULT_GRID_CAP,
                   help="max q**s grid entries")


def _add_caps(p: argparse.ArgumentParser) -> None:
    _add_grid_cap(p)
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
    _add_grid_cap(g)

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
    return top


def _cmd_gen(args) -> int:
    ctx = make_field(args.q, grid_cap=args.cap_grid)
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


def _check_cells(args, q_list, s_list, size_pairs) -> int:
    """Run args' checkers over the cells and emit their CSV (sweep, which also says how
    many rows it wrote) or JSON reports (verify) to args.out; exit 1 when some asserted
    check failed."""
    rows = run_verify(SweepConfig(
        q_list=q_list, s_list=s_list, size_pairs=size_pairs,
        trials=args.trials, seed=args.seed, checkers=parse_checkers(args.lemma),
        grid_cap=args.cap_grid, pair_cap=args.cap_pairs,
    ))
    if args.command == "sweep":
        _emit(rows_to_csv(rows), args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        _emit("\n".join(r.report.to_json() for r in rows) + "\n", args.out)
    failed = any(r.report.explicit_pass is False for r in rows)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_verify(args) -> int:
    return _check_cells(args, [args.q], [args.s], [(args.sizeE, args.sizeF)])


def _cmd_sweep(args) -> int:
    return _check_cells(args, parse_int_list(args.q, "--q"), parse_int_list(args.s, "--s"),
                        parse_sizes(args.sizes))


def _cmd_bench(args) -> int:
    report = run_bench(args.q, args.s, args.sizeE, args.sizeF,
                       repetitions=args.reps, seed=args.seed,
                       grid_cap=args.cap_grid, pair_cap=args.cap_pairs)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if report["mode"] == "full" and not report["outputs_match"]:
        return EXIT_CHECK_FAILED
    if report["mode"] == "spectral_only" and not report["mass_identity_ok"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (FFDistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
