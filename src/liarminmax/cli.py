"""Command-line interface: experiments, verification and thickness measurement.

Invalid arguments, including the ones only the library rejects, end in an
argparse usage error (exit status 2), not a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    ALGORITHMS,
    ORACLES,
    SORTERS,
    ExperimentConfig,
    measure_thickness,
    rows_to_csv,
    run_experiments,
    verify_exhaustive,
    write_text,
)


def _writable(path: str) -> str:
    """An ``--out`` path, checked when the arguments are parsed, so an
    unwritable one, or an empty one, which names no file, is a usage error
    before the first trial runs."""
    directory = os.path.dirname(path) or "."
    existing = path if os.path.exists(path) else directory
    if (
        not path
        or os.path.isdir(path)
        or not os.path.isdir(directory)
        or not os.access(existing, os.W_OK)
    ):
        raise argparse.ArgumentTypeError(f"cannot write {path}")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liarminmax",
        description="Minimum/maximum selection against a comparison oracle "
        "with a bounded lie budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run seeded experiment trials and emit CSV rows")
    run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--k", type=int, default=0)
    run.add_argument("--oracle", choices=ORACLES, default="truthful")
    run.add_argument("--p", type=float, default=0.0, help="lie probability for random-liar")
    run.add_argument(
        "--trigger",
        type=int,
        action="append",
        default=None,
        help="global query index on which triggered-liar lies (repeatable)",
    )
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=_writable, help="CSV output path (default: stdout)")
    run.add_argument("--s-override", type=int, default=None, help="force the group size")
    run.add_argument(
        "--no-transcripts",
        action="store_true",
        help="skip transcript recording (large truthful runs)",
    )

    verify = sub.add_parser("verify", help="exhaustive adversary game-tree verification")
    verify.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--k", type=int, default=0)
    verify.add_argument("--s-override", type=int, default=None)

    thickness = sub.add_parser("thickness", help="measure sorter thickness over seeded inputs")
    thickness.add_argument("--sorter", choices=SORTERS, required=True)
    thickness.add_argument("--s", type=int, action="append", required=True, help="repeatable")
    thickness.add_argument("--trials", type=int, default=100)
    thickness.add_argument("--seed", type=int, default=0)
    thickness.add_argument("--out", type=_writable)
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        algorithm=args.algorithm,
        n=args.n,
        k=args.k,
        oracle=args.oracle,
        p=args.p,
        triggers=tuple(args.trigger) if args.trigger else (),
        trials=args.trials,
        seed=args.seed,
        s_override=args.s_override,
        record_transcripts=not args.no_transcripts,
    )
    rows = run_experiments(cfg)
    write_text(rows_to_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify_exhaustive(args.n, args.k, args.algorithm, s_override=args.s_override)
    if report.passed:
        print(
            f"pass: {args.algorithm} n={args.n} k={args.k} "
            f"({report.leaves} leaves, {report.nodes} nodes, "
            f"worst_comparisons={report.worst_comparisons})"
        )
        return 0
    ce = report.counterexample
    print(f"COUNTEREXAMPLE: {args.algorithm} n={args.n} k={args.k}")
    print(f"  answers: {[a.value for a in ce.answers]}")
    print(f"  reported min={ce.reported_min} max={ce.reported_max}")
    for order in ce.surviving:
        print(f"  consistent order: rank={order.rank}")
    return 1


def _cmd_thickness(args) -> int:
    rows = measure_thickness(args.sorter, args.s, args.trials, args.seed)
    write_text(rows_to_csv(rows), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify, "thickness": _cmd_thickness}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
