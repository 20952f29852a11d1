"""Experiment runner, exhaustive adversary verification and thickness measurement.

Everything here is deterministic given a root seed: each trial derives its
own child seed, builds its own oracle and hidden order, and rows come out in
trial order, so CSV output is byte-stable for a fixed configuration.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .core import LARGER, SMALLER, Answer, TotalOrder, assert_lie_budget
from .oracles import (
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
    _every_order,
    _split,
)
from .algorithms import (
    _blocks,
    _group_size,
    find_max_k_lies,
    find_min_k_lies,
    improved_minmax,
    pohl_minmax,
    simple_minmax,
)
from .sorters import balanced_quicksort, mergesort

__all__ = [
    "CSV_HEADER",
    "Counterexample",
    "ExperimentConfig",
    "ExperimentRow",
    "ThicknessRow",
    "VerifyReport",
    "measure_thickness",
    "mergesort_comparison_cap",
    "rows_to_csv",
    "run_experiments",
    "simple_comparison_bound",
    "thickness_rows_to_csv",
    "verify_exhaustive",
    "write_text",
]

ORACLES = ("truthful", "random-liar", "triggered-liar")

CSV_HEADER = "algorithm,n,k,oracle,seed,comparisons,restarts,bound,within_bound"


def _child_seed(root: int, index: int) -> int:
    # Splits one root seed into well-separated per-trial streams.
    return (root * 1_000_003 + index * 7_919 + 12_345) & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    n: int
    k: int
    oracle: str = "truthful"
    p: float = 0.0
    triggers: tuple[int, ...] = ()
    trials: int = 1
    seed: int = 0
    s_override: int | None = None
    record_transcripts: bool = True

    def validate(self) -> None:
        _check_algorithm(self.algorithm, self.k, self.s_override)
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.algorithm == "pohl" and self.oracle != "truthful":
            raise ValueError("the pairing algorithm assumes a reliable oracle")
        if self.n < REGISTRY[self.algorithm].min_n:  # n >= 1 holds, so min_n is 2 here
            raise ValueError(f"{self.algorithm} needs at least two elements")
        if self.p and self.oracle != "random-liar":
            raise ValueError("p applies only to the random-liar oracle")
        if self.triggers and self.oracle != "triggered-liar":
            raise ValueError("triggers apply only to the triggered-liar oracle")
        if any(trigger < 0 for trigger in self.triggers):
            raise ValueError("trigger indices must be non-negative")
        if not self.record_transcripts and self.oracle != "truthful":
            raise ValueError("a lying oracle always records its transcript")


@dataclass(frozen=True)
class ExperimentRow:
    algorithm: str
    n: int
    k: int
    oracle: str
    seed: int
    comparisons: int
    restarts: int
    bound: int
    within_bound: bool

    def as_csv(self) -> str:
        return (
            f"{self.algorithm},{self.n},{self.k},{self.oracle},{self.seed},"
            f"{self.comparisons},{self.restarts},{self.bound},"
            f"{'true' if self.within_bound else 'false'}"
        )


def mergesort_comparison_cap(m: int) -> int:
    """Worst-case mergesort comparisons for m elements."""
    return m * (m - 1).bit_length() if m > 1 else 0


def simple_comparison_bound(n: int, k: int, restarts: int) -> int:
    """Instrumented closed-form cap for the simple algorithm.

    Per-group worst case (mergesort cap plus (k+1)(s-1) verification), one
    extra per-group worst case per observed restart, plus the loss-counter
    bounds for the two final selections over the group extrema.
    """
    s = _group_size(k)
    sizes = [len(block) for block in _blocks(list(range(n)), s)]
    per_group = [mergesort_comparison_cap(m) + (k + 1) * (m - 1) for m in sizes]
    final = 2 * ((k + 1) * len(sizes) - 1)
    return sum(per_group) + restarts * max(per_group) + final


class Algorithm(NamedTuple):
    """A registry entry.  ``run(items, k, oracle, s)`` returns (min or None,
    max or None, comparisons, restarts), where only a ``sized`` algorithm
    takes a group size ``s``; ``bound(n, k, restarts)`` caps the comparisons
    of one run; ``min_n`` is the fewest elements it accepts.  Runners name
    the drivers at call time, so a caller may swap a driver out."""

    run: Callable
    bound: Callable[[int, int, int], int]
    min_n: int = 2
    sized: bool = False


def _minmax(result) -> tuple[int, int, int, int]:
    return result.min, result.max, result.stats.comparisons, result.stats.restarts


def _run_find_min(items, k, oracle, s):
    low, comparisons = find_min_k_lies(items, k, oracle)
    return low, None, comparisons, 0


def _run_find_max(items, k, oracle, s):
    high, comparisons = find_max_k_lies(items, k, oracle)
    return None, high, comparisons, 0


REGISTRY = {
    "pohl": Algorithm(
        lambda items, k, oracle, s: _minmax(pohl_minmax(items, oracle)),
        lambda n, k, restarts: (3 * n + 1) // 2 - 2,
    ),
    "simple": Algorithm(
        lambda items, k, oracle, s: _minmax(simple_minmax(items, k, oracle)),
        simple_comparison_bound,
    ),
    "improved": Algorithm(
        lambda items, k, oracle, s: _minmax(improved_minmax(items, k, oracle, s=s)),
        # Regression thresholds: constant 10 on n, cubic slack on k.
        lambda n, k, restarts: (k + 1 + 10) * n + 1000 * k**3,
        sized=True,
    ),
    "find-min": Algorithm(_run_find_min, lambda n, k, restarts: (k + 1) * n - 1, min_n=1),
    "find-max": Algorithm(_run_find_max, lambda n, k, restarts: (k + 1) * n - 1, min_n=1),
}
ALGORITHMS = tuple(REGISTRY)


def _check_algorithm(name: str, k: int, s_override: int | None) -> None:
    """The checks that ``run`` and ``verify`` share for a registry entry."""
    if name not in REGISTRY:
        raise ValueError(f"unknown algorithm {name!r}")
    if name == "pohl" and k != 0:
        raise ValueError("the pairing algorithm is a k=0 algorithm")
    if s_override is not None and not REGISTRY[name].sized:
        raise ValueError(f"{name} has no group size to override")
    if k < 0:
        raise ValueError("k must be non-negative")


def _oracle_label(cfg: ExperimentConfig, triggers: tuple[int, ...]) -> str:
    if cfg.oracle == "random-liar":
        return f"random-liar(p={cfg.p})"
    if cfg.oracle == "triggered-liar":
        return "triggered-liar(" + ";".join(str(t) for t in triggers) + ")"
    return "truthful"


def _build_oracle(cfg: ExperimentConfig, order: TotalOrder, rng: random.Random):
    if cfg.oracle == "truthful":
        return TruthfulOracle(order, record=cfg.record_transcripts), ()
    if cfg.oracle == "random-liar":
        return RandomLiarOracle(order, cfg.k, cfg.p, seed=rng.randrange(2**62)), ()
    triggers = cfg.triggers
    if not triggers:
        horizon = max(1, (cfg.k + 1) * cfg.n)
        triggers = tuple(sorted(rng.sample(range(horizon), min(cfg.k, horizon))))
    return TriggeredLiarOracle(order, cfg.k, triggers), triggers


def run_experiments(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """One row per trial; verifies correctness and lie accounting as it goes."""
    cfg.validate()
    algorithm = REGISTRY[cfg.algorithm]
    rows: list[ExperimentRow] = []
    items = list(range(cfg.n))
    for trial in range(cfg.trials):
        trial_seed = _child_seed(cfg.seed, trial)
        rng = random.Random(trial_seed)
        order = TotalOrder.shuffled(cfg.n, rng)
        oracle, triggers = _build_oracle(cfg, order, rng)
        low, high, comparisons, restarts = algorithm.run(items, cfg.k, oracle, cfg.s_override)
        if (low is not None and low != order.min_element()) or (
            high is not None and high != order.max_element()
        ):
            wrong = "wrong extrema" if None not in (low, high) else "a wrong element"
            raise RuntimeError(f"{cfg.algorithm} returned {wrong} (seed {trial_seed})")
        if oracle.transcript is not None:
            assert_lie_budget(oracle.transcript, order, cfg.k)
        if restarts > oracle.lies_told:
            raise RuntimeError("more restarts than lies told; restart logic is broken")
        bound = algorithm.bound(cfg.n, cfg.k, restarts)
        rows.append(
            ExperimentRow(
                cfg.algorithm,
                cfg.n,
                cfg.k,
                _oracle_label(cfg, triggers),
                trial_seed,
                comparisons,
                restarts,
                bound,
                comparisons <= bound,
            )
        )
    return rows


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.as_csv() for row in rows]) + "\n"


def write_text(text: str, out: str | Path | None) -> None:
    """Write to a file, or stdout when no path is given."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)


# --- exhaustive adversary verification -------------------------------------


@dataclass(frozen=True)
class Counterexample:
    answers: tuple[Answer, ...]
    reported_min: int | None
    reported_max: int | None
    surviving: tuple[TotalOrder, ...]


@dataclass
class VerifyReport:
    algorithm: str
    n: int
    k: int
    nodes: int = 0
    leaves: int = 0
    worst_comparisons: int = 0
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


Runner = Callable[[object], tuple[int | None, int | None]]


def _algorithm_runner(algorithm, items: list[int], k: int, s_override: int | None) -> Runner:
    if callable(algorithm):
        if s_override is not None:
            raise ValueError("a custom algorithm has no group size to override")
        return lambda oracle: algorithm(items, k, oracle)
    _check_algorithm(algorithm, k, s_override)
    run = REGISTRY[algorithm].run
    return lambda oracle: run(items, k, oracle, s_override)[:2]


def verify_exhaustive(
    n: int, k: int, algorithm, *, s_override: int | None = None
) -> VerifyReport:
    """Walk the complete adversary answer tree for an algorithm.

    At every query both answers are explored, except branches no (order,
    <= k lies) explanation can justify -- a contract-honoring oracle cannot
    produce them.  The algorithm runs once per leaf, against a
    :class:`ScriptedOracle` that replays an answer prefix and extends it by
    FIRST_SMALLER where an explanation survives, stacking the FIRST_LARGER
    side where both do.  The deepest sibling is replayed next, so leaves come
    depth first.  At each leaf the reported extrema must match the extrema of
    every surviving order, and ``worst_comparisons`` keeps the longest answer
    list.  The first violation is returned as a counterexample.  The walk
    starts from all n! orders, so n is capped at :data:`oracles.EXHAUSTIVE_CAP`.
    """
    items = list(range(n))
    runner = _algorithm_runner(algorithm, items, k, s_override)
    name = algorithm if isinstance(algorithm, str) else getattr(algorithm, "__name__", "custom")
    report = VerifyReport(name, n, k)
    siblings: list[tuple[int, dict]] = []
    answers: list[Answer] = []
    candidates = _every_order(n, k)
    ids = range(n)

    def branch(a: int, b: int) -> Answer:
        nonlocal candidates
        report.nodes += 1
        smaller, larger = _split(candidates, a, b, k)
        if smaller and larger:
            siblings.append((len(oracle.answers), larger))
        candidates = smaller or larger
        return SMALLER if smaller else LARGER

    while True:
        oracle = ScriptedOracle(answers, branch)
        low, high = runner(oracle)
        answers = oracle.answers
        report.nodes += 1
        report.leaves += 1
        report.worst_comparisons = max(report.worst_comparisons, len(answers))
        # An id outside 0..n-1 matches no order; checking it first keeps
        # ``rank[low]`` from failing, or from reading a negative index.
        valid = (low is None or low in ids) and (high is None or high in ids)
        for rank in candidates:
            if not valid or (low is not None and rank[low] != 0) or (
                high is not None and rank[high] != n - 1
            ):
                surviving = tuple(TotalOrder(r) for r in sorted(candidates))
                report.counterexample = Counterexample(tuple(answers), low, high, surviving)
                return report
        if not siblings:
            return report
        depth, candidates = siblings.pop()
        answers = answers[:depth] + [LARGER]


# --- thickness measurement ---------------------------------------------------


@dataclass(frozen=True)
class ThicknessRow:
    sorter: str
    s: int
    trials: int
    min_thickness: int
    mean_thickness: float
    max_thickness: int


SORTERS = {"mergesort": mergesort, "balanced-quicksort": balanced_quicksort}


def measure_thickness(sorter: str, s_values, trials: int, seed: int) -> list[ThicknessRow]:
    """Thickness statistics over seeded random inputs, one row per size."""
    if sorter not in SORTERS:
        raise ValueError(f"unknown sorter {sorter!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows = []
    for s in s_values:
        if s < 1:
            raise ValueError("s must be at least 1")
        observed = []
        for trial in range(trials):
            rng = random.Random(_child_seed(seed, s * 100_000 + trial))
            order = TotalOrder.shuffled(s, rng)
            oracle = TruthfulOracle(order, record=False)
            outcome = SORTERS[sorter](list(range(s)), oracle)
            observed.append(outcome.graph.thickness())
        rows.append(
            ThicknessRow(
                sorter, s, trials, min(observed), statistics.fmean(observed), max(observed)
            )
        )
    return rows


def thickness_rows_to_csv(rows: list[ThicknessRow]) -> str:
    lines = ["sorter,s,trials,min_thickness,mean_thickness,max_thickness"]
    for r in rows:
        lines.append(
            f"{r.sorter},{r.s},{r.trials},{r.min_thickness},"
            f"{r.mean_thickness:.3f},{r.max_thickness}"
        )
    return "\n".join(lines) + "\n"
