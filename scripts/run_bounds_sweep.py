#!/usr/bin/env python3
"""Sweep every algorithm across an (n, k, oracle) grid and collect CSV rows.

Each row records the comparison count against the algorithm's bound; the
script fails loudly if any run lands outside its bound, so it doubles as a
slow regression check.  Only the CSV goes to stdout; the summary and any
out-of-bound rows go to stderr.

Usage: python3 scripts/run_bounds_sweep.py [--out sweep.csv] [--seed 0]
"""

import argparse
import sys

from liarminmax.harness import (
    CSV_HEADER,
    ExperimentConfig,
    rows_to_csv,
    run_experiments,
    write_text,
)


def sweep(seed: int):
    rows = []
    for n in (16, 64, 256):
        rows += run_experiments(ExperimentConfig("pohl", n=n, k=0, trials=5, seed=seed))
    for n in (50, 200):
        for k in (1, 2, 4):
            for oracle, p in (("truthful", 0.0), ("random-liar", 0.2), ("random-liar", 0.5)):
                for algorithm in ("find-min", "find-max", "simple", "improved"):
                    rows += run_experiments(
                        ExperimentConfig(
                            algorithm, n=n, k=k, oracle=oracle, p=p, trials=10, seed=seed
                        )
                    )
    for k in (8, 16):
        rows += run_experiments(
            ExperimentConfig(
                "improved", n=200 * k, k=k, trials=3, seed=seed, record_transcripts=False
            )
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rows = sweep(args.seed)
    out_of_bound = [row for row in rows if not row.within_bound]
    write_text(rows_to_csv(rows), args.out)
    if out_of_bound:
        print(f"{len(out_of_bound)} rows exceeded their bound:", file=sys.stderr)
        print(rows_to_csv(out_of_bound[:10]), end="", file=sys.stderr)
        return 1
    print(f"# {len(rows)} rows, all within bounds ({CSV_HEADER})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
