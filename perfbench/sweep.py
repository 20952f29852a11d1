"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/out/sweep.json
    python3 perfbench/sweep.py --workloads restart-recorded --seeds 1-5

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the bound that
``BENCHMARK.json`` fixes for end-to-end metrics.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in args.seeds:
            command = [
                sys.executable, *spec["command"][1:], "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit status {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        metrics = {}
        print(f"{workload}: {attempted} trials, {failed} failed")
        for name, series in values.items():
            entry = {"unit": units[name], **summarise(series)}
            bound = bounds.get(name)
            note = ""
            if bound is not None and not args.trace:
                entry["bound"] = bound
                if entry["spread"] >= bound / 3:
                    steady = False
                    note = "  <-- spread not below a third of the bound"
            metrics[name] = entry
            print(f"  {name:<36} median {entry['median']:>14.6f} {entry['unit']:<12} "
                  f"spread {entry['spread']:.4f}" + (f" (bound {bound})" if bound else "") + note)
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
