#!/usr/bin/env python3
"""Benchmark the checkout against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload restart-recorded \\
        --seeds 1-10 --held-out 562 --seconds 30

The parent is extracted with ``git archive`` into a temporary directory;
nothing is written into the checkout beyond what ``perfbench/run.py`` itself
appends under ``perfbench/out/``.  Each seed runs ``perfbench/run.py --trace
0`` once in each tree, the parent first on the first pair and the checkout
first on the next, alternating.  For every end-to-end metric that
``BENCHMARK.json`` lists, the summary gives each side's median and quartiles
over the seeds (as ``perfbench/sweep.py`` computes them), the pairs the
checkout won (ties count for neither) and the held-out seeds' pairs, and
ends with a verdict against the metric's ``bound``: ``better``, ``same``,
``worse by P% (bound B%)``, or ``unresolved`` when the parent's own quartile
distance over its median exceeds the bound and not every change run reads
better than every parent run.  A metric with no bound gets no verdict.  Then
come every pair's values, parent -> change, one line per metric, and every
problem: a change median worse than the parent's by more than its bound, and
whatever a run reported.  The exit status is 1 when there is a problem: a
median beyond its bound, a failed run or trial, or a fingerprint verdict
other than ``match``.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from sweep import seed_range, summarise  # noqa: E402

SIDES = ("parent", "change")


def read_run(stdout: str, returncode: int) -> tuple[dict[str, float], list[str]]:
    """(end-to-end metric values, problems) from one run's stdout.  The
    problems are a non-zero exit status, failed trials and every fingerprint
    verdict other than ``match``."""
    lines = stdout.strip().splitlines()
    problems = []
    for line in lines:
        words = line.split(None, 2)
        if words[:1] == ["fingerprint"] and words[2:] != ["match"]:
            problems.append(f"fingerprint {' '.join(words[1:])}")
    if returncode:
        problems.append(f"exit status {returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}, [*problems, "no result line"]
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} trials failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}, problems


def summary(
    pairs: list[dict], held_out: list[tuple[int, dict]], metrics: list[dict]
) -> tuple[list[str], list[str]]:
    """(lines, problems): one line per end-to-end metric, and one problem
    per metric whose change median is worse than the parent's by more than
    its bound.  ``pairs`` holds one {side: values} per seed; ``held_out``
    holds (seed, {side: values})."""
    lines = []
    problems = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        complete = [pair for pair in pairs if all(name in pair[side] for side in SIDES)]
        if not complete:
            continue
        line = f"{name:<24} {metric['unit']:<12}"
        stats = {}
        for side in SIDES:
            stats[side] = got = summarise([pair[side][name] for pair in complete])
            line += f" {side} {got['median']:.5g} [{got['q1']:.5g}, {got['q3']:.5g}]"
        # Signed so that a positive difference is always the change doing worse.
        sign = 1 if lower else -1
        won = sum(sign * (pair["change"][name] - pair["parent"][name]) < 0 for pair in complete)
        line += f"  won {won}/{len(complete)}"
        for seed, pair in held_out:
            if all(name in pair[side] for side in SIDES):
                line += f"  seed {seed}: {pair['parent'][name]:.5g} -> {pair['change'][name]:.5g}"
        if "bound" in metric:
            bound, parent, change = metric["bound"], stats["parent"], stats["change"]
            worse = sign * (change["median"] - parent["median"]) / (abs(parent["median"]) or 1)
            # Every change run better than every parent run.
            apart = max(sign * v for v in change["values"]) < min(
                sign * v for v in parent["values"]
            )
            limit = f"(bound {100 * bound:g}%)"
            if parent["spread"] > bound and not apart:
                line += "  unresolved"
            elif worse < 0:
                line += "  better"
            elif worse == 0:
                line += "  same"
            else:
                line += f"  worse by {100 * worse:.1f}% {limit}"
            if worse > bound:
                problems.append(f"{name} median worse by {100 * worse:.1f}% {limit}")
        lines.append(line)
    return lines, problems


def pair_lines(runs: list[tuple[int, dict]], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric with every pair's values, parent ->
    change, in run order.  ``runs`` holds (seed, {side: values})."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        values = [
            f"seed {seed}: {pair['parent'][name]:.5g} -> {pair['change'][name]:.5g}"
            for seed, pair in runs
            if all(name in pair[side] for side in SIDES)
        ]
        if values:
            lines.append(f"{name:<24} " + "  ".join(values))
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    return read_run(done.stdout, done.returncode)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument(
        "--workload", required=True, choices=[workload["name"] for workload in spec["workloads"]]
    )
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--held-out", type=seed_range, default=[])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    archive = subprocess.run(
        ["git", "archive", "--format=tar", args.parent], cwd=ROOT, capture_output=True, check=True
    ).stdout
    runs = []
    problems = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent, filter="data")
        trees = {"parent": Path(parent), "change": ROOT}
        for index, seed in enumerate(args.seeds + args.held_out):
            pair = {}
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                pair[side], found = run_once(trees[side], args.workload, seed, args.seconds)
                problems += [f"{side} seed {seed}: {problem}" for problem in found]
                print(f"{side} seed {seed} done", file=sys.stderr)
            runs.append((seed, pair))
    pairs = [pair for _, pair in runs[: len(args.seeds)]]
    print(f"{args.workload}: parent {args.parent} against the checkout, {args.seconds:g} s runs")
    lines, regressions = summary(pairs, runs[len(args.seeds) :], spec["end_to_end"])
    print("\n".join(lines))
    problems = regressions + problems
    print("every pair, parent -> change:")
    print("\n".join(pair_lines(runs, spec["end_to_end"])))
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
