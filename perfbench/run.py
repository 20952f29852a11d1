"""liarminmax benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload certify-truthful --seed 1 --seconds 30 --trace 0

Each trial starts only after the previous one returned.  ``--trace 0`` times
the package untouched and reports the end-to-end metrics; ``--trace 1``
alternates an untraced and a traced run of each trial, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>.npz``; it ends early once it holds
``SPAN_BUDGET`` spans.  Every run then replays the golden
configuration and reports it against ``golden.json``, and appends its record
to ``perfbench/out/results.jsonl``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file sits in; the
run exits with status 2 when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
# Fresh-process set-up probes per timed run; setup_s is their median.
SETUP_PROBES = 15
TAIL_BEYOND = 10
# A traced run stops early once it holds this many spans (about 28 MB; the
# analysis at the end needs about four times that).
SPAN_BUDGET = 1_000_000
# Wall time of one reference_work() call on the machine the baseline was
# measured on; every reported trial time is scaled to that speed.
REFERENCE_S = 0.0045
# Set-up is process start and imports, which follow the reference loop
# poorly; its reference is a fresh interpreter importing numpy, the heaviest
# import the package makes.  REFERENCE_SETUP_S is that process's wall time on
# the baseline machine.
SETUP_REFERENCE = [sys.executable, "-c", "import numpy"]
REFERENCE_SETUP_S = 0.22


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and build the first trial's inputs, then exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def reference_work(depth: int = 22) -> int:
    """Fixed pure-Python work: about 57k recursive calls on small ints.

    Of the loops tried (dict and list traffic, small objects, a toy memoized
    mergesort), plain call dispatch followed the machine's slow and fast
    phases most closely on all three workloads.
    """
    return depth if depth < 2 else reference_work(depth - 1) + reference_work(depth - 2)


def reference_seconds() -> float:
    """Median wall time of three reference_work() calls."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Closed-loop trial runner.

    The machine's speed drifts by up to 2x over seconds when it is shared, so
    a reference run sits between consecutive trials, and each trial's wall
    time is scaled by ``REFERENCE_S`` over the mean of the reference runs on
    either side of it.  The raw wall times are kept too.
    """

    def __init__(self, seed: int) -> None:
        from workloads import trial_seeds

        self.seeds = trial_seeds(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.references = [reference_seconds()]

    def call(self, trial):
        """(scaled seconds, wall seconds, result or None) for one trial; a
        failure is recorded, not raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = trial()
        except Exception as exc:  # a failed trial is counted; the run goes on
            self.failures.append(f"{type(exc).__name__}: {exc}")
            result = None
        wall = time.perf_counter() - start
        self.references.append(reference_seconds())
        speed = REFERENCE_S / statistics.fmean(self.references[-2:])
        return wall * speed, wall, result

    def first_failures(self) -> str:
        return "; ".join(self.failures[:3])


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; with fewer than eleven samples, the smallest sample."""
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure_setup(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """(probe, reference) wall times per probe: a fresh interpreter from spawn
    to ready for trial one, and the mean of the ``SETUP_REFERENCE`` processes
    run right before and right after it."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload_name, "--seed", str(seed), "--setup-only",
    ]

    def wall(argv):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120)
        return time.perf_counter() - start

    probes, references = [], []
    before = wall(SETUP_REFERENCE)
    for _ in range(SETUP_PROBES):
        probes.append(wall(command))
        after = wall(SETUP_REFERENCE)
        references.append((before + after) / 2)
        before = after
    return probes, references


def run_untraced(workload, seed: int, seconds: float):
    loop = Loop(seed)
    scaled, wall, results = [], [], []
    busy = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        trial_seed = next(loop.seeds)
        took, raw, result = loop.call(lambda: workload.trial(trial_seed))
        busy += took
        if result is not None:
            scaled.append(took)
            wall.append(raw)
            results.append(result)
        if time.perf_counter() >= deadline:
            break
    return loop, scaled, wall, results, busy


def run_traced(workload, seed: int, seconds: float):
    """Each trial input runs untraced, then traced, until ``seconds`` pass or
    the spans fill ``SPAN_BUDGET``; returns the wall-time pairs."""
    from tracer import Tracer, instrument

    loop = Loop(seed)
    tracer = Tracer()
    pairs = []  # (untraced s, traced s)
    deadline = time.perf_counter() + seconds
    while True:
        trial_seed = next(loop.seeds)
        _, plain, plain_result = loop.call(lambda: workload.trial(trial_seed))
        with instrument(tracer):
            _, traced, traced_result = loop.call(
                lambda: tracer.run_trial(lambda: workload.trial(trial_seed))
            )
        if plain_result is not None and traced_result is not None:
            pairs.append((plain, traced))
        if time.perf_counter() >= deadline or len(tracer.start) >= SPAN_BUDGET:
            break
    return loop, tracer, pairs


@dataclass
class Measured:
    """One run's outcome.  ``metrics`` go into the result line; ``extras`` are
    printed and recorded only.  Both map name -> (value, unit, samples)."""

    loop: Loop
    metrics: dict
    extras: dict
    lock: object  # a workloads.Lock, or the error text if the golden replay failed
    tracer: object = None


def end_to_end(workload, seed: int, seconds: float, setup) -> Measured:
    """The end-to-end metrics, with tracing off; ``setup`` is what
    :func:`measure_setup` returned."""
    loop, scaled, wall, results, busy = run_untraced(workload, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lock = replay_golden(workload)
    n = len(scaled)
    if n == 0:
        raise SystemExit("perfbench: every trial failed: " + loop.first_failures())
    ms = [t * 1e3 for t in scaled]
    tail_ms, tail_pct = tail(ms)
    elements = sum(r.elements for r in results)
    comparisons = sum(r.comparisons for r in results)
    if comparisons:
        per_element, per_element_samples = comparisons / elements, f"{n} trials"
    elif isinstance(lock, str):
        raise SystemExit(f"perfbench: the golden walk failed: {lock}")
    else:
        per_element, per_element_samples = lock.comparisons_per_element, "golden walk"
    metrics = {
        "setup_s": (
            statistics.median(p * REFERENCE_SETUP_S / r for p, r in zip(*setup)), "s",
            f"median of {len(setup[0])} fresh processes",
        ),
        "trial_ms_p50": (statistics.median(ms), "ms", f"{n} trials"),
        "trial_ms_tail": (tail_ms, "ms", f"p{tail_pct:.1f} of {n} trials"),
        "elements_per_s": (elements / busy, "1/s", f"{n} trials"),
        "comparisons_per_element": (per_element, "cmp/element", per_element_samples),
        "c_k": (per_element - (workload.k + 1), "cmp/element", f"k={workload.k}"),
        "success_rate": (
            100.0 * (loop.attempted - len(loop.failures)) / loop.attempted, "%",
            f"{loop.attempted} trials",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }
    extras = {
        "error_rate": (len(loop.failures) / loop.attempted, "ratio", f"{loop.attempted} trials"),
        "trial_ms_p50.wall": (statistics.median(wall) * 1e3, "ms", f"{n} trials, unscaled"),
        "reference_ms": (
            statistics.median(loop.references) * 1e3, "ms", f"{len(loop.references)} runs"
        ),
        "setup_s.wall": (statistics.median(setup[0]), "s", f"{len(setup[0])} probes, unscaled"),
        "setup_reference_s": (statistics.median(setup[1]), "s", f"{len(setup[1])} runs"),
    }
    nodes = sum(r.nodes for r in results)
    if nodes:
        extras["tree_nodes_per_s"] = (nodes / busy, "1/s", f"{n} walks")
    return Measured(loop, metrics, extras, lock)


def per_layer(workload, seed: int, seconds: float) -> Measured:
    """The per-layer metrics and the tracing overhead, from paired trials."""
    loop, tracer, pairs = run_traced(workload, seed, seconds)
    lock = replay_golden(workload)
    if not pairs:
        raise SystemExit("perfbench: every trial failed: " + loop.first_failures())
    samples = f"{tracer.trials} traced trials"
    metrics = {
        name: (value, unit, samples) for name, (value, unit) in tracer.layer_metrics().items()
    }
    count = f"{len(pairs)} untraced/traced pairs"
    metrics["tracing.overhead_ms"] = (
        statistics.median((traced - plain) * 1e3 for plain, traced in pairs), "ms/trial", count
    )
    metrics["tracing.overhead_ratio"] = (
        statistics.median(traced / plain for plain, traced in pairs), "ratio", count
    )
    extras = {
        "trial_ms_p50.untraced": (
            statistics.median(plain for plain, _ in pairs) * 1e3, "ms", f"{count}, unscaled"
        ),
        "trial_ms_p50.traced": (
            statistics.median(traced for _, traced in pairs) * 1e3, "ms", f"{count}, unscaled"
        ),
    }
    for layer, spans in tracer.layer_spans().items():
        extras[f"spans.{layer}"] = (spans, "count/trial", samples)
    extras["spans"] = (len(tracer.start), "count", "whole run")
    extras["spans_nest"] = (int(tracer.nests()), "bool", "whole run")
    return Measured(loop, metrics, extras, lock, tracer)


def replay_golden(workload):
    """The workload's behaviour lock, or the error text if its replay raised."""
    try:
        return workload.lock()
    except Exception as exc:  # a broken program is reported, not a crash
        return f"{type(exc).__name__}: {exc}"


def check_lock(workload_name: str, lock) -> dict[str, str]:
    if isinstance(lock, str):
        return {"golden_replay": f"FAILED ({lock})"}
    golden = json.loads(GOLDEN.read_text()).get(workload_name, {})
    verdicts = {}
    for key, value in lock.fingerprint.items():
        if key not in golden:
            verdicts[key] = f"NO GOLDEN (got {value})"
        elif golden[key] == value:
            verdicts[key] = "match"
        else:
            verdicts[key] = f"MISMATCH (golden {golden[key]}, got {value})"
    return verdicts


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "liarminmax" / "__init__.py").is_file():
        print(f"perfbench: no liarminmax source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(args.seed)
        return 0

    if args.trace:
        run = per_layer(workload, args.seed, args.seconds)
        run.tracer.write(OUT / f"spans-{workload.name}.npz")
    else:
        setup = measure_setup(workload.name, args.seed)
        run = end_to_end(workload, args.seed, args.seconds, setup)
    loop, metrics, extras = run.loop, run.metrics, run.extras
    verdicts = check_lock(workload.name, run.lock)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}  attempted {loop.attempted}  failed {len(loop.failures)}")
    for name, (value, unit, samples) in {**metrics, **extras}.items():
        print(f"  {name:<36} {value:>16.6f} {unit:<12} {samples}")
    for key, verdict in verdicts.items():
        print(f"  fingerprint {key:<24} {verdict}")
    for failure in loop.failures[:10]:
        print(f"  failed trial: {failure}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in {**metrics, **extras}.items()
        },
        "fingerprints": verdicts,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as results:
        results.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
