"""Oracle-driven sorting with comparison memoization and graph extraction.

A sorter never queries the same unordered pair twice within one attempt, so
the comparison graph is simple and every degree is at most s-1; at a group
size of at most k+2 that keeps every degree within k+1, where the completed
graph has at most (k+1)(s-1) + thickness edges.
Memoization also bounds an attempt at s(s-1)/2 queries whatever the answers,
so no comparison cap is needed.  Lies are not hunted down here beyond the
partition-size check -- callers decide what an inconsistent attempt means.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SMALLER
from .graphs import OrderedMultigraph

__all__ = [
    "SortInconsistency",
    "SortOutcome",
    "balanced_quicksort",
    "mergesort",
]


class SortInconsistency(Exception):
    """Evidence of at least one lie inside a sort attempt."""

    def __init__(self, reason: str, comparisons: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.comparisons = comparisons


class _Session:
    """Memoized comparison channel for one sort attempt."""

    __slots__ = ("oracle", "memo")

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.memo: dict[tuple[int, int], bool] = {}

    def less(self, a: int, b: int) -> bool:
        """Whether the (memoized) answer puts ``a`` before ``b``."""
        if a < b:
            key, flip = (a, b), False
        else:
            key, flip = (b, a), True
        lo_smaller = self.memo.get(key)
        if lo_smaller is None:
            lo_smaller = self.oracle.query(key[0], key[1]) is SMALLER
            self.memo[key] = lo_smaller
        return lo_smaller != flip


@dataclass
class SortOutcome:
    """Result of one sort attempt.

    ``graph`` holds each compared pair once, in output coordinates; it is
    simple because of memoization.  ``consistent`` is True when every recorded
    answer agrees with the claimed output order.
    """

    output: list[int]
    graph: OrderedMultigraph
    comparisons: int
    consistent: bool


def _make_outcome(output: list[int], session: _Session) -> SortOutcome:
    # A loop, not a comprehension: on CPython 3.11 a comprehension runs in a
    # frame of its own, which costs more than the work for a group of two.
    position = {}
    for index, element in enumerate(output, 1):
        position[element] = index
    edges = {}
    consistent = True
    for (lo, hi), lo_smaller in session.memo.items():
        p, q = position[lo], position[hi]
        if (p < q) != lo_smaller:
            consistent = False
        edges[(p, q) if p < q else (q, p)] = 1
    graph = OrderedMultigraph(len(output), edges)
    return SortOutcome(output, graph, len(session.memo), consistent)


def mergesort(items, oracle) -> SortOutcome:
    """Plain top-down mergesort: at most s * ceil(log2 s) comparisons, never
    repeats a pair, and survives arbitrary answers (the output is then just
    some permutation)."""
    session = _Session(oracle)
    output = _msort(list(items), session)
    return _make_outcome(output, session)


def _msort(seq: list, session: _Session) -> list:
    if len(seq) <= 1:
        return seq
    mid = len(seq) // 2
    left = _msort(seq[:mid], session)
    right = _msort(seq[mid:], session)
    merged = []
    i = j = 0
    less = session.less
    while i < len(left) and j < len(right):
        if less(right[j], left[i]):
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def _insertion(seq, session: _Session) -> list:
    out: list = []
    for x in seq:
        i = len(out)
        while i > 0 and session.less(x, out[i - 1]):
            i -= 1
        out.insert(i, x)
    return out


def _select_kth(seq: list, rank: int, session: _Session):
    """Element of 1-based ``rank`` according to the answers seen so far.

    Median-of-medians with groups of five: deterministic, linear comparisons,
    and guaranteed to terminate even on adversarial answers because every
    descent strictly shrinks the working set.
    """
    while True:
        m = len(seq)
        if m <= 5:
            return _insertion(seq, session)[rank - 1]
        medians = []
        for i in range(0, m, 5):
            chunk = seq[i : i + 5]
            medians.append(_insertion(chunk, session)[(len(chunk) - 1) // 2])
        pivot = _select_kth(medians, (len(medians) + 1) // 2, session)
        smaller: list = []
        larger: list = []
        for x in seq:
            if x == pivot:
                continue
            (smaller if session.less(x, pivot) else larger).append(x)
        if rank <= len(smaller):
            seq = smaller
        elif rank == len(smaller) + 1:
            return pivot
        else:
            rank -= len(smaller) + 1
            seq = larger


def balanced_quicksort(items, oracle) -> SortOutcome:
    """Quicksort splitting at the exact median on every level.

    The even split keeps the comparison graph shallow over every position
    (each level's comparisons mostly stay inside one half).  Raises
    :class:`SortInconsistency` on a wrong partition size at any level, which
    a truthful oracle never causes.  Never asks a pair twice, so it spends
    at most s(s-1)/2 queries on any answers.
    """
    session = _Session(oracle)
    output = _bqsort(list(items), session)
    return _make_outcome(output, session)


def _bqsort(seq: list, session: _Session) -> list:
    m = len(seq)
    if m <= 1:
        return seq
    if m == 2:
        # The one answer the general case would ask, in insertion's order;
        # its partition then re-reads that answer from the memo, and a split
        # of two is never off-size.
        a, b = seq
        return [b, a] if session.less(b, a) else seq
    target = (m + 1) // 2
    median = _select_kth(seq, target, session)
    smaller: list = []
    larger: list = []
    for x in seq:
        if x == median:
            continue
        (smaller if session.less(x, median) else larger).append(x)
    if len(smaller) != target - 1:
        raise SortInconsistency(
            f"partition sizes off: {len(smaller)}/{len(larger)} around claimed median of {m}",
            len(session.memo),
        )
    return _bqsort(smaller, session) + [median] + _bqsort(larger, session)
