"""Experiment runner, exhaustive adversary verification and thickness measurement.

Everything here is deterministic given a root seed: each trial derives its
own child seed, builds its own oracle and hidden order, and rows come out in
trial order, so CSV output is byte-stable for a fixed configuration.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, fields
from itertools import permutations
from pathlib import Path
from typing import Callable, NamedTuple

from .core import LARGER, SMALLER, Answer, RunStats, TotalOrder, assert_lie_budget
from .oracles import (
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
)
from .algorithms import (
    MinMaxResult,
    find_max_k_lies,
    find_min_k_lies,
    improved_minmax,
    pohl_minmax,
    simple_comparison_bound,
    simple_minmax,
)
from .sorters import balanced_quicksort, mergesort

__all__ = [
    "CSV_HEADER",
    "Counterexample",
    "EXHAUSTIVE_CAP",
    "ExperimentConfig",
    "ExperimentRow",
    "ThicknessRow",
    "VerifyReport",
    "measure_thickness",
    "rows_to_csv",
    "run_experiments",
    "verify_exhaustive",
    "write_text",
]

ORACLES = ("truthful", "random-liar", "triggered-liar")


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
        _check_algorithm(self.algorithm, self.n, self.k, self.s_override)
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.algorithm == "pohl" and self.oracle != "truthful":
            raise ValueError("the pairing algorithm assumes a reliable oracle")
        if self.p and self.oracle != "random-liar":
            raise ValueError("p applies only to the random-liar oracle")
        if self.triggers and self.oracle != "triggered-liar":
            raise ValueError("triggers apply only to the triggered-liar oracle")
        if any(trigger < 0 for trigger in self.triggers):
            raise ValueError("trigger indices must be non-negative")
        if len(set(self.triggers)) != len(self.triggers):
            raise ValueError("trigger indices must be distinct")
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


CSV_HEADER = ",".join(field.name for field in fields(ExperimentRow))


class Algorithm(NamedTuple):
    """A registry entry.  ``run(items, k, oracle, s)`` returns the run's
    :class:`MinMaxResult`, whose ``min`` or ``max`` is None for a one-sided
    selection; only a ``sized`` algorithm takes a group size ``s``.
    ``bound(n, k, restarts)`` caps the comparisons of one run; ``min_n`` is
    the fewest elements it accepts.  Runners name the drivers at call time,
    so a caller may swap a driver out."""

    run: Callable
    bound: Callable[[int, int, int], int]
    min_n: int = 2
    sized: bool = False


def _run_find_min(items, k, oracle, s) -> MinMaxResult:
    low, comparisons = find_min_k_lies(items, k, oracle)
    return MinMaxResult(low, None, RunStats(0, {"final-min": comparisons} if comparisons else {}))


def _run_find_max(items, k, oracle, s) -> MinMaxResult:
    high, comparisons = find_max_k_lies(items, k, oracle)
    return MinMaxResult(None, high, RunStats(0, {"final-max": comparisons} if comparisons else {}))


REGISTRY = {
    "pohl": Algorithm(
        lambda items, k, oracle, s: pohl_minmax(items, oracle),
        lambda n, k, restarts: (3 * n + 1) // 2 - 2,
    ),
    "simple": Algorithm(
        lambda items, k, oracle, s: simple_minmax(items, k, oracle),
        simple_comparison_bound,
    ),
    "improved": Algorithm(
        lambda items, k, oracle, s: improved_minmax(items, k, oracle, s=s),
        # Regression thresholds: constant 10 on n, cubic slack on k.
        lambda n, k, restarts: (k + 1 + 10) * n + 1000 * k**3,
        sized=True,
    ),
    "find-min": Algorithm(_run_find_min, lambda n, k, restarts: (k + 1) * n - 1, min_n=1),
    "find-max": Algorithm(_run_find_max, lambda n, k, restarts: (k + 1) * n - 1, min_n=1),
}
ALGORITHMS = tuple(REGISTRY)


def _check_algorithm(name: str, n: int, k: int, s_override: int | None) -> None:
    """The checks that ``run`` and ``verify`` share for a registry entry."""
    if name not in REGISTRY:
        raise ValueError(f"unknown algorithm {name!r}")
    if name == "pohl" and k != 0:
        raise ValueError("the pairing algorithm is a k=0 algorithm")
    if s_override is not None and not REGISTRY[name].sized:
        raise ValueError(f"{name} has no group size to override")
    if k < 0:
        raise ValueError("k must be non-negative")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n < REGISTRY[name].min_n:  # n >= 1 holds, so min_n is 2 here
        raise ValueError(f"{name} needs at least two elements")


def _build_oracle(cfg: ExperimentConfig, order: TotalOrder, rng: random.Random):
    """A fresh oracle for one trial and its CSV label."""
    if cfg.oracle == "truthful":
        return TruthfulOracle(order, record=cfg.record_transcripts), "truthful"
    if cfg.oracle == "random-liar":
        oracle = RandomLiarOracle(order, cfg.k, cfg.p, seed=rng.randrange(2**62))
        return oracle, f"random-liar(p={cfg.p})"
    triggers = cfg.triggers
    if not triggers:
        horizon = max(1, (cfg.k + 1) * cfg.n)
        triggers = tuple(sorted(rng.sample(range(horizon), min(cfg.k, horizon))))
    label = "triggered-liar(" + ";".join(str(t) for t in triggers) + ")"
    return TriggeredLiarOracle(order, cfg.k, triggers), label


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
        oracle, label = _build_oracle(cfg, order, rng)
        result = algorithm.run(items, cfg.k, oracle, cfg.s_override)
        low, high, restarts = result.min, result.max, result.stats.restarts
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
        comparisons = result.stats.comparisons
        rows.append(
            ExperimentRow(
                cfg.algorithm,
                cfg.n,
                cfg.k,
                label,
                trial_seed,
                comparisons,
                restarts,
                bound,
                comparisons <= bound,
            )
        )
    return rows


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def rows_to_csv(rows: list) -> str:
    """CSV of rows of one dataclass: a header of its field names, then one
    line per row, with booleans as true/false and floats to three places."""
    if not rows:
        raise ValueError("no rows to write")
    names = [field.name for field in fields(rows[0])]
    lines = [",".join(names)]
    lines += [",".join(_csv_value(getattr(row, name)) for name in names) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(text: str, out: str | Path | None) -> None:
    """Write to a file, or stdout when no path is given."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)


# --- exhaustive adversary verification -------------------------------------

# The walk starts from all n! orders; keep that desk-sized.
EXHAUSTIVE_CAP = 6


def _split(candidates: dict, a: int, b: int, k: int) -> tuple[dict, dict]:
    """The explanations left by each answer to ``(a, b)``: (smaller, larger).

    ``candidates`` maps each ranking that explains the answers so far to the
    lies it spends on them.  A ranking keeps its count on the side it agrees
    with, and spends a lie on the other side while it has one of its ``k`` left.
    """
    smaller, larger = {}, {}
    for rank, lies in candidates.items():
        if rank[a] < rank[b]:
            smaller[rank] = lies
            if lies < k:
                larger[rank] = lies + 1
        else:
            larger[rank] = lies
            if lies < k:
                smaller[rank] = lies + 1
    return smaller, larger


@dataclass(frozen=True)
class Counterexample:
    answers: tuple[Answer, ...]
    reported_min: int | None
    reported_max: int | None
    surviving: tuple[TotalOrder, ...]


@dataclass
class VerifyReport:
    nodes: int = 0
    leaves: int = 0
    worst_comparisons: int = 0
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _algorithm_runner(algorithm, n: int, k: int, s_override: int | None) -> Callable:
    """A registry ``run(items, k, oracle, s)``: the entry's own, or a custom
    ``algorithm(items, k, oracle)`` returning (min, max), wrapped."""
    if callable(algorithm):
        if s_override is not None:
            raise ValueError("a custom algorithm has no group size to override")
        if k < 0:
            raise ValueError("k must be non-negative")
        if n < 1:
            raise ValueError("n must be at least 1")
        return lambda items, k, oracle, s: MinMaxResult(*algorithm(items, k, oracle), RunStats())
    _check_algorithm(algorithm, n, k, s_override)
    return REGISTRY[algorithm].run


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
    starts from all n! orders, each with no lie spent, so n is capped at
    :data:`EXHAUSTIVE_CAP`.
    """
    items = list(range(n))
    run = _algorithm_runner(algorithm, n, k, s_override)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive order enumeration needs n <= {EXHAUSTIVE_CAP}, got {n}")
    report = VerifyReport()
    siblings: list[tuple[int, dict]] = []
    answers: list[Answer] = []
    candidates = dict.fromkeys(permutations(items), 0)
    ids = range(n)

    def branch(a: int, b: int) -> Answer:
        nonlocal candidates
        smaller, larger = _split(candidates, a, b, k)
        if smaller and larger:
            siblings.append((len(oracle.answers), larger))
        candidates = smaller or larger
        return SMALLER if smaller else LARGER

    while True:
        oracle = ScriptedOracle(answers, branch)
        result = run(items, k, oracle, s_override)
        low, high = result.min, result.max
        # Every answer past the replayed prefix is a node, and so is the leaf.
        asked = len(oracle.answers)
        report.nodes += asked - len(answers) + 1
        report.leaves += 1
        if asked > report.worst_comparisons:
            report.worst_comparisons = asked
        answers = oracle.answers
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
        # The leaf's answers, cut to the sibling's depth, script the next run.
        depth, candidates = siblings.pop()
        del answers[depth:]
        answers.append(LARGER)


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
    """Thickness statistics over seeded random inputs, one row per size.

    Every size is checked before the first trial runs.
    """
    if sorter not in SORTERS:
        raise ValueError(f"unknown sorter {sorter!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    s_values = list(s_values)
    if any(s < 1 for s in s_values):
        raise ValueError("s must be at least 1")
    rows = []
    for s in s_values:
        observed = []
        for trial in range(trials):
            rng = random.Random(_child_seed(seed, s * 100_000 + trial))
            order = TotalOrder.shuffled(s, rng)
            # A plain truthful oracle, so the sort answers from its ranks.
            oracle = TruthfulOracle(order, record=False)
            outcome = SORTERS[sorter](list(range(s)), oracle)
            observed.append(outcome.thickness())
        rows.append(
            ThicknessRow(
                sorter, s, trials, min(observed), statistics.fmean(observed), max(observed)
            )
        )
    return rows
