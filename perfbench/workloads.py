"""The benchmark's workloads.

Each workload says what one trial runs through the package's public harness
entry point and which fixed configuration its behaviour lock replays.  The
library only ever sees the generated inputs: a per-trial seed for
``run_experiments``, or the (n, k, s) of a game-tree walk.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from liarminmax import harness
from liarminmax.harness import ExperimentConfig, rows_to_csv

from tracer import Tracer, instrument

# The behaviour lock replays this seed on every run, whatever --seed says.
GOLDEN_SEED = 2010
LOCK_TRIALS = 2
# The paper's constant: improved_minmax makes at most (k + 1 + C) n queries.
PAPER_C = 10


class TrialFailed(Exception):
    """A trial returned, but its answer broke a bound or had a counterexample."""


@dataclass(frozen=True)
class TrialResult:
    elements: int  # elements that went through the algorithm
    comparisons: int  # oracle queries charged to them; 0 where the workload does not count
    nodes: int = 0
    leaves: int = 0


@dataclass(frozen=True)
class Lock:
    fingerprint: dict
    comparisons_per_element: float


def trial_seeds(seed: int):
    """Endless per-trial seeds, the same sequence for the same run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(62)


@dataclass(frozen=True)
class RunWorkload:
    """Trials of ``run_experiments``, the path ``liarminmax run`` takes."""

    name: str
    algorithm: str
    n: int
    k: int
    oracle: str
    record_transcripts: bool

    def config(self, seed: int, trials: int = 1) -> ExperimentConfig:
        return ExperimentConfig(
            self.algorithm,
            n=self.n,
            k=self.k,
            oracle=self.oracle,
            trials=trials,
            seed=seed,
            record_transcripts=self.record_transcripts,
        )

    def prepare(self, seed: int) -> None:
        self.config(next(trial_seeds(seed))).validate()

    def trial(self, seed: int) -> TrialResult:
        # run_experiments itself raises on wrong extrema and on a failed lie audit.
        rows = harness.run_experiments(self.config(seed))
        for row in rows:
            if not row.within_bound:
                raise TrialFailed(f"{row.comparisons} comparisons exceed the bound {row.bound}")
            paper_bound = (self.k + 1 + PAPER_C) * self.n
            if self.algorithm == "improved" and row.comparisons > paper_bound:
                raise TrialFailed(
                    f"{row.comparisons} comparisons exceed (k+1+C)n = {paper_bound}"
                )
        return TrialResult(self.n * len(rows), sum(row.comparisons for row in rows))

    def lock(self) -> Lock:
        """CSV rows and full query sequence of the golden configuration."""
        tracer = Tracer(log_queries=True)
        with instrument(tracer):
            rows = tracer.run_trial(
                lambda: harness.run_experiments(self.config(GOLDEN_SEED, LOCK_TRIALS))
            )
        fingerprint = {
            "csv_sha256": hashlib.sha256(rows_to_csv(rows).encode()).hexdigest(),
            "queries_sha256": tracer.query_digest(),
        }
        comparisons = sum(row.comparisons for row in rows)
        return Lock(fingerprint, comparisons / (self.n * len(rows)))


@dataclass(frozen=True)
class GameTreeWorkload:
    """One trial is one full ``verify_exhaustive`` walk of ``improved``.

    The walk has no randomness, so the seed does not change its input.
    """

    name: str
    n: int
    k: int
    s: int

    def prepare(self, seed: int) -> None:
        pass

    def _walk(self):
        return harness.verify_exhaustive(self.n, self.k, "improved", s_override=self.s)

    def trial(self, seed: int) -> TrialResult:
        report = self._walk()
        if not report.passed:
            raise TrialFailed(f"counterexample: {report.counterexample}")
        # Every node replays the algorithm on all n elements.
        return TrialResult(report.nodes * self.n, 0, report.nodes, report.leaves)

    def lock(self) -> Lock:
        """Node and leaf counts, plus the mean cost of a complete run (a leaf)."""
        tracer = Tracer()
        with instrument(tracer):
            report = tracer.run_trial(self._walk)
        counts = tracer.counts
        charged = sum(v for key, v in counts.items() if key.startswith("phase:"))
        return Lock(
            {"nodes": report.nodes, "leaves": report.leaves},
            charged / counts["driver_elements"],
        )


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload("certify-truthful", "improved", n=2048, k=32, oracle="truthful",
                    record_transcripts=False),
        RunWorkload("restart-recorded", "simple", n=2048, k=8, oracle="triggered-liar",
                    record_transcripts=True),
        GameTreeWorkload("gametree-verify", n=4, k=2, s=2),
    )
}
