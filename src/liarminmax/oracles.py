"""Comparison oracles that may lie, but never beyond their budget.

All oracles share one contract: ``query(a, b)`` returns an :class:`Answer`
for the ordered pair and never gives more than ``k`` false answers relative
to the hidden order.  A recording oracle also appends one transcript record
per query; the scripted replay keeps none, as its answer list is the record,
and asks its ``extend`` callback for every answer past its script.

The oracle types of :data:`BATCHED`, a plain :class:`TruthfulOracle`,
:class:`TriggeredLiarOracle` or :class:`RandomLiarOracle`, also answer a
stretch of queries at once.  The group driver asks them a group's checks in
one ``LyingOracle.ask_checks`` call, and the sorts and final selections
answer a stretch that no lie consult can reach from the hidden order's
ranks (``lie_free_ranks``), then count and record it in one ``answered``
call.  Every other oracle is asked one ``query`` per comparison.  A stretch
that may meet a scheduled lie always goes through ``query``, so the lie
rule lives in ``query`` alone, and a lie-free stretch records its answers
in one ``Transcript.extend``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from .core import LARGER, SMALLER, Answer, InvalidQuery, TotalOrder, Transcript

__all__ = [
    "BATCHED",
    "LyingOracle",
    "RandomLiarOracle",
    "ScriptedOracle",
    "TriggeredLiarOracle",
    "TruthfulOracle",
]


class LyingOracle:
    """Base class for oracles with a fixed hidden order and a lie budget.

    The base class handles budget enforcement, lie counting, and transcript
    recording; ``record=False`` skips transcript records for large truthful
    benchmark runs.  A subclass decides its lies through two members:
    ``_next_lie``, an instance attribute holding the next query index at
    which to consult the lie rule (-1: never), and ``_wants_lie(index)``,
    which ``query`` calls only at that index while budget remains.  The hook
    sees the index alone, not the pair: it says whether this query lies and
    sets ``_next_lie`` to the next index to consult.  Every other query skips
    the hook, so a truthful query costs one comparison of its index, and
    ``lie_free_ranks`` reads ``_next_lie`` to tell whether a stretch of
    queries may meet a consult.
    """

    def __init__(self, order: TotalOrder, k: int = 0, record: bool = True) -> None:
        if k < 0:
            raise ValueError("lie budget must be non-negative")
        self.k = k
        self.lies_told = 0
        self.queries = 0
        self.transcript: Transcript | None = Transcript() if record else None
        self._rank = order.rank
        self._next_lie = -1

    def _wants_lie(self, index: int) -> bool:
        return False

    def query(self, a: int, b: int) -> Answer:
        if a == b:
            raise InvalidQuery(f"cannot compare element {a} with itself")
        rank = self._rank
        answer = SMALLER if rank[a] < rank[b] else LARGER
        index = self.queries
        if index == self._next_lie and self.lies_told < self.k and self._wants_lie(index):
            self.lies_told += 1
            answer = answer.flipped()
        self.queries = index + 1
        if self.transcript is not None:
            self.transcript.append(a, b, answer)
        return answer

    def lie_free_ranks(self, count: int) -> tuple[int, ...] | None:
        """The hidden order's ranks when none of the next ``count`` queries
        can meet a lie consult, else None.  They are lie-free when the budget
        is spent or ``_next_lie`` falls outside them, and then each answers
        SMALLER exactly when its first element ranks lower.  A caller that
        answers such queries from the ranks charges them with ``answered``."""
        queries = self.queries
        if self.lies_told < self.k and queries <= self._next_lie < queries + count:
            return None
        return self._rank

    def answered(self, answers: dict[tuple[int, int], bool], copies: int = 1) -> None:
        """Count ``copies`` queries ``(a, b)`` for each pair of ``answers``,
        in its order, answered SMALLER where its value is true, and record
        them, as ``query`` would have, in one ``Transcript.extend``.  Only
        for answers read from ``lie_free_ranks`` within its window."""
        self.queries += len(answers) * copies
        transcript = self.transcript
        if transcript is not None:
            fields: list = []
            for (a, b), a_smaller in answers.items():
                fields += (a, b, SMALLER if a_smaller else LARGER) * copies
            transcript.extend(fields)

    def ask_checks(self, at: Sequence[int], checks: list) -> tuple[int, bool]:
        """Ask ``query(at[i], at[j])`` for each position pair ``(i, j)`` of
        ``checks`` in order, stopping after the first LARGER; return (asked,
        contradicted).  A batch whose index range holds a scheduled lie
        consult, budget permitting, asks through ``query``, so the lie rule
        stays there alone.  Any other batch is truthful: it answers from the
        ranks of ``at``, looked up once, and counts and records the queries
        as ``query`` does, the records in one ``Transcript.extend`` call.
        There a run of copies of one pair object (a completion's ``[pair] *
        m``, say) is compared once: its copies all get the first one's
        answer, and a recording oracle appends the first one's record for
        each.  A self-comparison raises :class:`InvalidQuery` with the checks
        before it counted and recorded."""
        rank = self.lie_free_ranks(len(checks))
        if rank is None:
            asked = 0
            query = self.query
            for i, j in checks:
                asked += 1
                if query(at[i], at[j]) is LARGER:
                    return asked, True
            return asked, False
        queries = self.queries
        ranks = list(map(rank.__getitem__, at))
        transcript = self.transcript
        previous = None
        # Two loops, so that a run without a transcript pays nothing per
        # check for recording, nor for counting: an earlier check equal to
        # the one that ends the batch would have had the same answer and
        # ended it there, so the first equal check is the one that ends it.
        if transcript is None:
            for pair in checks:
                if pair is not previous:
                    i, j = previous = pair
                    if ranks[i] >= ranks[j]:
                        asked = checks.index(pair)
                        if ranks[i] == ranks[j]:
                            self.queries = queries + asked
                            raise InvalidQuery(f"cannot compare element {at[i]} with itself")
                        self.queries = queries + asked + 1
                        return asked + 1, True
            self.queries = queries + len(checks)
            return len(checks), False
        fields: list = []
        try:
            for pair in checks:
                if pair is not previous:
                    i, j = previous = pair
                    if ranks[i] >= ranks[j]:
                        if ranks[i] == ranks[j]:
                            raise InvalidQuery(f"cannot compare element {at[i]} with itself")
                        fields += (at[i], at[j], LARGER)
                        return len(fields) // 3, True
                    record = (at[i], at[j], SMALLER)
                fields += record
            return len(fields) // 3, False
        finally:
            self.queries = queries + len(fields) // 3
            transcript.extend(fields)


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
        self._rng = random.Random(seed)
        self._next_lie = 0

    def _wants_lie(self, index: int) -> bool:
        self._next_lie = index + 1
        return self._rng.random() < self.p


class TriggeredLiarOracle(LyingOracle):
    """Lies exactly on the given global query indices, budget permitting.

    Useful for forcing a restart at a chosen moment, e.g. on the last
    verification query of a group.  ``triggers`` is read once, as a set: a
    repeated index lies once.  ``_wants_lie(index)`` runs only at the
    triggers, which it pops in ascending order, and says yes at each.
    """

    def __init__(self, order: TotalOrder, k: int, triggers: Iterable[int]) -> None:
        super().__init__(order, k)
        triggers = frozenset(triggers)
        if any(trigger < 0 for trigger in triggers):
            raise ValueError("trigger indices must be non-negative")
        # Descending, above the -1 that ends the schedule after the last trigger.
        self._pending = [-1, *sorted(triggers, reverse=True)]
        self._next_lie = self._pending.pop()

    def _wants_lie(self, index: int) -> bool:
        self._next_lie = self._pending.pop()
        return True


# The oracle types whose ``ask_checks``, ``lie_free_ranks`` and ``answered``
# answer as their ``query`` would: each inherits ``LyingOracle``'s members
# unchanged (tests/test_imports.py checks).  A subclass may override
# ``query``, so the callers test ``type(oracle) in BATCHED``.
BATCHED = (TruthfulOracle, TriggeredLiarOracle, RandomLiarOracle)


class ScriptedOracle:
    """Replays a fixed answer sequence; the backbone of transcript replay
    and of the exhaustive game-tree verifier.  Past the end of the script,
    ``extend(a, b)`` supplies the next answer, which joins ``answers``.  A
    caller that expects no query past the script passes an ``extend`` that
    fails.  It records nothing: the answer list already is the record."""

    def __init__(self, answers: Sequence[Answer], extend: Callable[[int, int], Answer]) -> None:
        self.answers = list(answers)
        self.extend = extend
        self.position = 0

    def query(self, a: int, b: int) -> Answer:
        if a == b:
            raise InvalidQuery(f"cannot compare element {a} with itself")
        position = self.position
        answers = self.answers
        if position == len(answers):
            answers.append(self.extend(a, b))
        self.position = position + 1
        return answers[position]
