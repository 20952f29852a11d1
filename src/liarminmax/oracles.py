"""Comparison oracles that may lie, but never beyond their budget.

All oracles share one contract: ``query(a, b)`` returns an :class:`Answer`
for the ordered pair and never gives more than ``k`` false answers relative
to the hidden order.  A recording oracle also appends one transcript record
per call; the scripted replay keeps none, as its answer list is the record.
The adaptive adversary has no fixed hidden order; it keeps every (order,
lies-spent) explanation alive, split by :func:`_split` into the sides each
answer leaves, and commits as late as possible.  The scripted replay may
``extend`` its script, as the exhaustive verifier does.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Callable, Iterable, Sequence

from .core import LARGER, SMALLER, Answer, InvalidQuery, TotalOrder, Transcript

__all__ = [
    "AdaptiveAdversary",
    "AnswersExhausted",
    "EXHAUSTIVE_CAP",
    "LyingOracle",
    "RandomLiarOracle",
    "ScriptedOracle",
    "TriggeredLiarOracle",
    "TruthfulOracle",
    "adversary_consistent_orders",
]

# All n! orders get enumerated by the exhaustive backends; keep that desk-sized.
EXHAUSTIVE_CAP = 6


def _check_budget(k: int) -> None:
    if k < 0:
        raise ValueError("lie budget must be non-negative")


def _every_order(n: int, k: int) -> dict:
    """Every ranking of ``n`` elements, none with any of its ``k`` lies spent yet."""
    _check_budget(k)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive order enumeration needs n <= {EXHAUSTIVE_CAP}, got {n}")
    return dict.fromkeys(permutations(range(n)), 0)


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


class LyingOracle:
    """Base class for oracles with a fixed hidden order and a lie budget.

    The base class handles budget enforcement, lie counting, and transcript
    recording; ``record=False`` skips transcript records for large truthful
    benchmark runs.  A subclass decides its lies through two members:
    ``_next_lie``, an instance attribute holding the next query index at
    which to consult the lie rule (-1: never), and :meth:`_wants_lie`, which
    ``query`` calls only at that index while budget remains.  The hook says
    whether this query lies and sets ``_next_lie`` to the next index to
    consult.  Every other query skips the hook, so a truthful query costs
    one comparison of its index.
    """

    def __init__(self, order: TotalOrder, k: int = 0, record: bool = True) -> None:
        _check_budget(k)
        self.order = order
        self.k = k
        self.lies_told = 0
        self.queries = 0
        self.transcript: Transcript | None = Transcript() if record else None
        self._rank = order.rank
        self._next_lie = -1

    def _wants_lie(self, index: int, a: int, b: int) -> bool:
        return False

    def query(self, a: int, b: int) -> Answer:
        if a == b:
            raise InvalidQuery(f"cannot compare element {a} with itself")
        rank = self._rank
        answer = SMALLER if rank[a] < rank[b] else LARGER
        index = self.queries
        if index == self._next_lie and self.lies_told < self.k and self._wants_lie(index, a, b):
            self.lies_told += 1
            answer = answer.flipped()
        self.queries = index + 1
        if self.transcript is not None:
            self.transcript.append(a, b, answer)
        return answer


class TruthfulOracle(LyingOracle):
    """Always answers according to the hidden order."""

    def __init__(self, order: TotalOrder, record: bool = True) -> None:
        super().__init__(order, 0, record)


class RandomLiarOracle(LyingOracle):
    """Lies independently with probability ``p`` until the budget is spent.

    It consults every query index, one RNG draw each while budget remains.
    Deterministic for a fixed seed: two oracles with the same seed produce
    bit-identical transcripts over the same query sequence.
    """

    def __init__(self, order: TotalOrder, k: int, p: float, seed: int) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("lie probability must lie in [0, 1]")
        super().__init__(order, k)
        self.p = p
        self.seed = seed
        self._rng = random.Random(seed)
        self._next_lie = 0

    def _wants_lie(self, index: int, a: int, b: int) -> bool:
        self._next_lie = index + 1
        return self._rng.random() < self.p


class TriggeredLiarOracle(LyingOracle):
    """Lies exactly on the given global query indices, budget permitting.

    Useful for forcing a restart at a chosen moment, e.g. on the last
    verification query of a group.  The lie rule is consulted only at the
    triggers, which it pops in ascending order.
    """

    def __init__(self, order: TotalOrder, k: int, triggers: Iterable[int]) -> None:
        super().__init__(order, k)
        self.triggers = frozenset(triggers)
        if any(trigger < 0 for trigger in self.triggers):
            raise ValueError("trigger indices must be non-negative")
        # Descending, above the -1 that ends the schedule after the last trigger.
        self._pending = [-1, *sorted(self.triggers, reverse=True)]
        self._next_lie = self._pending.pop()

    def _wants_lie(self, index: int, a: int, b: int) -> bool:
        self._next_lie = self._pending.pop()
        return True


class AdaptiveAdversary:
    """Commits to no single order; answers to keep the explanation set large.

    The candidate set maps each still-viable ranking to the lies it would have
    to charge against the transcript so far.  The answer rule picks whichever
    answer keeps the larger surviving set, breaking ties toward FIRST_SMALLER.
    This is a heuristic; the harness's exhaustive verifier explores the full
    answer tree instead of trusting it.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        self.transcript = Transcript()
        self._candidates = _every_order(n, k)

    def query(self, a: int, b: int) -> Answer:
        if a == b:
            raise InvalidQuery(f"cannot compare element {a} with itself")
        smaller, larger = _split(self._candidates, a, b, self.k)
        # Every candidate survives the answer matching its own truth, so the
        # larger side is never empty.
        if len(smaller) >= len(larger):
            answer, self._candidates = SMALLER, smaller
        else:
            answer, self._candidates = LARGER, larger
        self.transcript.append(a, b, answer)
        return answer

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    def surviving_orders(self) -> list[TotalOrder]:
        return [TotalOrder(rank) for rank in sorted(self._candidates)]


class AnswersExhausted(Exception):
    """Raised by :class:`ScriptedOracle` when a script without ``extend`` runs out.

    ``a`` and ``b`` are the query the replayed run asked after its last
    scripted answer: the pair that a longer script would have to answer
    next.
    """

    def __init__(self, a: int, b: int) -> None:
        super().__init__(f"answer script exhausted at query ({a}, {b})")
        self.a = a
        self.b = b


class ScriptedOracle:
    """Replays a fixed answer sequence; the backbone of transcript replay
    and of the exhaustive game-tree verifier.  Past the end of the script,
    ``extend(a, b)`` supplies the next answer, which joins ``answers``.  It
    records nothing: the answer list already is the record."""

    def __init__(self, answers: Sequence[Answer], extend: Callable | None = None) -> None:
        self.answers = list(answers)
        self.extend = extend
        self.position = 0
        self.transcript = None

    def query(self, a: int, b: int) -> Answer:
        if a == b:
            raise InvalidQuery(f"cannot compare element {a} with itself")
        if self.position == len(self.answers):
            if self.extend is None:
                raise AnswersExhausted(a, b)
            self.answers.append(self.extend(a, b))
        answer = self.answers[self.position]
        self.position += 1
        return answer


def adversary_consistent_orders(transcript: Transcript, n: int, k: int) -> list[TotalOrder]:
    """Every order an honest-but-lying oracle could still be hiding.

    Narrows all n! permutations to the side of each recorded answer and keeps
    those the transcript contradicts at most ``k`` times, in permutation
    order; refuses when ``n`` exceeds :data:`EXHAUSTIVE_CAP`.
    """
    candidates = _every_order(n, k)
    for a, b, answer in transcript:
        candidates = _split(candidates, a, b, k)[answer is LARGER]
    return [TotalOrder(rank) for rank in candidates]
