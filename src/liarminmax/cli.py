"""Command-line interface: experiments, verification, thickness and calibration."""

from __future__ import annotations

import argparse
import sys

from .config import DEFAULT, dump_constants, load_constants
from .harness import (
    ALGORITHMS,
    ORACLES,
    ExperimentConfig,
    calibrate,
    measure_thickness,
    rows_to_csv,
    run_experiments,
    thickness_rows_to_csv,
    verify_exhaustive,
    write_text,
)


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
    run.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    run.add_argument("--s-override", type=int, default=None, help="force the group size")
    run.add_argument("--config", default=None, help="calibrated-constants file (key=value)")
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
    thickness.add_argument("--sorter", choices=("mergesort", "balanced-quicksort"), required=True)
    thickness.add_argument("--s", type=int, action="append", required=True, help="repeatable")
    thickness.add_argument("--trials", type=int, default=100)
    thickness.add_argument("--seed", type=int, default=0)
    thickness.add_argument("--out", default=None)
    thickness.add_argument("--config", default=None)

    cal = sub.add_parser("calibrate", help="freeze sort-budget and thickness constants")
    cal.add_argument("--out", default="calibration.cfg")
    cal.add_argument("--trials", type=int, default=30)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument(
        "--sizes", type=int, action="append", default=None, help="repeatable size list"
    )
    return parser


def _cmd_run(args) -> int:
    constants = load_constants(args.config) if args.config else DEFAULT
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
    rows = run_experiments(cfg, constants)
    write_text(rows_to_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify_exhaustive(args.n, args.k, args.algorithm, s_override=args.s_override)
    if report.passed:
        print(
            f"pass: {args.algorithm} n={args.n} k={args.k} "
            f"({report.leaves} leaves, {report.nodes} nodes)"
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
    constants = load_constants(args.config) if args.config else DEFAULT
    rows = measure_thickness(args.sorter, args.s, args.trials, args.seed, constants)
    write_text(thickness_rows_to_csv(rows), args.out)
    return 0


def _cmd_calibrate(args) -> int:
    kwargs = {"trials": args.trials, "seed": args.seed, "out_path": args.out}
    if args.sizes:
        kwargs["sizes"] = tuple(args.sizes)
    result = calibrate(**kwargs)
    print(f"wrote {args.out}")
    print(f"sort_budget_linear={result.constants.sort_budget_linear}")
    print(f"sort_budget_log={result.constants.sort_budget_log}")
    print(f"thickness_ct={result.constants.thickness_ct}")
    print(
        f"observed: max sort ratio {result.max_sort_ratio:.3f} of budget, "
        f"max thickness ratio {result.max_thickness_ratio:.3f} of s"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "thickness": _cmd_thickness,
        "calibrate": _cmd_calibrate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
