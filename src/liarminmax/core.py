"""Ground-truth orderings, comparison answers, transcripts, and lie accounting.

Every other layer (oracles, sorters, selection algorithms, the experiment
harness) builds on these primitives.  Elements are dense integer ids 0..n-1
and the hidden truth is a rank permutation, so deciding whether a recorded
answer was a lie costs two array lookups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Answer",
    "InvalidQuery",
    "LARGER",
    "LieBudgetViolation",
    "PHASES",
    "RunStats",
    "SMALLER",
    "TotalOrder",
    "Transcript",
    "assert_lie_budget",
    "count_lies",
]


class InvalidQuery(ValueError):
    """A malformed comparison query, e.g. an element compared against itself."""


class LieBudgetViolation(RuntimeError):
    """An oracle gave more false answers than its budget allows: it broke
    its contract, which is not an algorithm bug.

    ``lies`` is a lower bound on the lies told: the transcript audit counts
    them exactly, while a selection run that restarts more than ``budget``
    times reports its restarts, each the proof of at least one lie.
    """

    def __init__(self, lies: int, budget: int) -> None:
        super().__init__(f"at least {lies} lies against a lie budget of {budget}")
        self.lies = lies
        self.budget = budget


class Answer(Enum):
    """Oracle verdict for an ordered query pair (first, second)."""

    FIRST_SMALLER = "first-smaller"
    FIRST_LARGER = "first-larger"

    def flipped(self) -> "Answer":
        return LARGER if self is SMALLER else SMALLER


# The members, bound once.  Every ``Answer.<member>`` lookup goes through the
# enum metaclass's ``__getattr__`` (about 20 times a global read on Python
# 3.11), so code that runs per query reads these instead.
SMALLER = Answer.FIRST_SMALLER
LARGER = Answer.FIRST_LARGER


@dataclass(frozen=True)
class TotalOrder:
    """Hidden ground truth: ``rank[e]`` is the position of element ``e``, 0 = smallest."""

    rank: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.rank) != list(range(len(self.rank))):
            raise ValueError("rank must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.rank)

    @classmethod
    def shuffled(cls, n: int, rng: random.Random) -> "TotalOrder":
        ranks = list(range(n))
        rng.shuffle(ranks)
        return cls(tuple(ranks))

    def min_element(self) -> int:
        return self.rank.index(0)

    def max_element(self) -> int:
        return self.rank.index(self.n - 1)


class Transcript:
    """Ordered log of every oracle query, including repeats of the same pair,
    as ``(a, b, answer)`` triples; a triple's position is its query index.

    The triples live in one flat list ``a, b, answer, a, b, answer, ...``:
    ids are small ints and answers are the two enum members, so a record
    adds no object the garbage collector tracks, and a long transcript
    triggers no collections.  Iteration rebuilds the triples on the fly.
    """

    __slots__ = ("_flat",)

    def __init__(self) -> None:
        self._flat: list = []

    def append(self, a: int, b: int, answer: Answer) -> None:
        self._flat += (a, b, answer)

    def extend(self, fields: list) -> None:
        """Append the records whose fields ``fields`` lists in query order,
        ``a, b, answer`` for each: one call for a batch of records."""
        self._flat += fields

    def __len__(self) -> int:
        return len(self._flat) // 3

    def __iter__(self):
        fields = iter(self._flat)
        return zip(fields, fields, fields)


def count_lies(transcript: Transcript, order: TotalOrder) -> int:
    """Number of recorded answers that contradict the hidden order."""
    rank = order.rank
    lies = 0
    for a, b, answer in transcript:
        if (rank[a] < rank[b]) != (answer is SMALLER):
            lies += 1
    return lies


def assert_lie_budget(transcript: Transcript, order: TotalOrder, k: int) -> int:
    """Return the lie count, raising :class:`LieBudgetViolation` if it exceeds ``k``."""
    lies = count_lies(transcript, order)
    if lies > k:
        raise LieBudgetViolation(lies, k)
    return lies


PHASES = ("group-sort", "group-verify", "final-min", "final-max")


@dataclass
class RunStats:
    """Comparison accounting for one full selection run: ``phase_breakdown``
    maps each phase of :data:`PHASES` that asked a query to its count, in
    ``PHASES`` order."""

    restarts: int = 0
    phase_breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def comparisons(self) -> int:
        return sum(self.phase_breakdown.values())
