"""Oracle-driven sorting with degree profiles.

A sort returns its output, the answers it read and the degree profile of
their comparison graph over output positions: for each position, how many
compared elements sit to its left and how many to its right.  Completion
and thickness read nothing else, so no edge list is kept.  Quicksort counts
the degrees while it checks its answers against its output; mergesort's are
counted the first time they are read.
A sorter never queries the same unordered pair twice within one attempt, so
that graph is simple and every degree is at most s-1; at a group size of at
most k+2 that keeps every degree within k+1, where the completed graph has
at most (k+1)(s-1) + thickness edges.
Quicksort gets this from its memo (``_less``): median selection and the
partitions meet some pairs again, and then re-read the recorded answer.
Mergesort needs no memo: top-down, two elements are compared only in the one
merge where they sit in opposite runs, and from then on they share a run.
Either way an attempt asks at most s(s-1)/2 queries whatever the answers, so
no comparison cap is needed.  A sort either returns an outcome whose every
answer agrees with its output, or raises :class:`SortInconsistency`, its
proof of a lie; callers decide what a proven lie means.
"""

from __future__ import annotations

from .core import SMALLER
from .graphs import profile_thickness

__all__ = [
    "SortInconsistency",
    "SortOutcome",
    "balanced_quicksort",
    "mergesort",
]


# The profile of every two-item sort: one edge, (1, 2).  One pair of lists
# serves them all, since nothing writes a sort's profile, and fresh lists per
# pair would cost a pair attempt about as much again as its answers dict.
_PAIR_PROFILE = ([0, 0, 1], [0, 1, 0])


class SortInconsistency(Exception):
    """Evidence of at least one lie inside a sort attempt."""

    def __init__(self, reason: str, comparisons: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.comparisons = comparisons


class SortOutcome:
    """Result of one sort attempt: the claimed ascending ``output`` of ``s``
    items and the ``answers`` the sort read, mapping each asked pair (lo,
    hi), lo < hi, to whether ``lo`` was answered smaller; ``comparisons`` is
    their number.  Every answer agrees with ``output``.

    ``degree_profile()`` gives the comparison graph's (left, right) degree
    lists over output positions, 1-indexed: a position's left (right)
    degree counts its answered pairs whose other item sits at a smaller
    (larger) position.  With ``s``, that is all
    :func:`~liarminmax.graphs.complete_edges` reads.  A sort that counts the
    degrees while checking its answers hands them in; otherwise they are
    counted the first time they are read, and a group step without credit
    never reads them.  The lists are the outcome's own, so readers never
    write them.
    """

    __slots__ = ("output", "answers", "comparisons", "s", "_profile")

    def __init__(
        self,
        output: list[int],
        answers: dict[tuple[int, int], bool],
        profile: tuple[list[int], list[int]] | None = None,
    ) -> None:
        self.output = output
        self.answers = answers
        self.comparisons = len(answers)
        self.s = len(output)
        self._profile = profile

    def degree_profile(self) -> tuple[list[int], list[int]]:
        profile = self._profile
        if profile is None:
            profile = self._profile = _checked_profile(self.output, self.answers)
        return profile

    def thickness(self) -> int:
        return profile_thickness(*self.degree_profile())


def _checked_profile(
    output: list[int], answers: dict[tuple[int, int], bool]
) -> tuple[list[int], list[int]]:
    """The (left, right) degree lists of ``answers``' comparison graph over
    the positions of ``output``; raises :class:`SortInconsistency` on an
    answer against the output order."""
    # A loop, not a comprehension: on CPython 3.11 a comprehension runs in a
    # frame of its own, which costs more than the work for a small group.
    position = {}
    for index, element in enumerate(output, 1):
        position[element] = index
    left = [0] * (len(output) + 1)
    right = left.copy()
    # Branches, not ``(p < q) != lo_smaller`` and then a branch on the
    # answer: a tenth faster.
    for (lo, hi), lo_smaller in answers.items():
        p, q = position[lo], position[hi]
        if p < q:
            if lo_smaller:
                right[p] += 1
                left[q] += 1
                continue
        elif not lo_smaller:
            right[q] += 1
            left[p] += 1
            continue
        raise SortInconsistency("sort answers contradict the claimed order", len(answers))
    return left, right


def mergesort(items, oracle) -> SortOutcome:
    """Plain top-down mergesort: at most s * ceil(log2 s) comparisons, never
    repeats a pair, and survives arbitrary answers (the output is then just
    some permutation).

    Each query is asked as (smaller id, larger id), like every memoized
    query of quicksort, and its answer is recorded for the outcome.
    """
    answers: dict[tuple[int, int], bool] = {}
    return SortOutcome(_msort(list(items), oracle.query, answers), answers)


def _msort(seq: list, query, answers: dict) -> list:
    m = len(seq)
    if m == 2:
        # A run of two is settled by its one query, right[0] against left[0].
        a, b = seq
        if a < b:
            a_smaller = answers[(a, b)] = query(a, b) is SMALLER
            return seq if a_smaller else [b, a]
        b_smaller = answers[(b, a)] = query(b, a) is SMALLER
        return [b, a] if b_smaller else seq
    if m < 2:
        return seq
    mid = m // 2
    left = _msort(seq[:mid], query, answers)
    right = _msort(seq[mid:], query, answers)
    merged = []
    i = j = 0
    nl, nr = mid, m - mid
    while i < nl and j < nr:
        x, y = left[i], right[j]
        if y < x:
            y_first = answers[(y, x)] = query(y, x) is SMALLER
        else:
            x_smaller = answers[(x, y)] = query(x, y) is SMALLER
            y_first = not x_smaller
        if y_first:
            merged.append(y)
            j += 1
        else:
            merged.append(x)
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def _less(a: int, b: int, query, answers: dict) -> bool:
    """Whether the recorded answer puts ``a`` before ``b``; a pair with no
    answer yet is asked once, as (smaller id, larger id), and recorded."""
    # Two branches, not one key tuple chosen up front: the recorded-answer
    # path, which most calls take, runs about a tenth faster.
    if a < b:
        lo_smaller = answers.get((a, b))
        if lo_smaller is None:
            lo_smaller = answers[(a, b)] = query(a, b) is SMALLER
        return lo_smaller
    lo_smaller = answers.get((b, a))
    if lo_smaller is None:
        lo_smaller = answers[(b, a)] = query(b, a) is SMALLER
    return not lo_smaller


def _insertion(seq, query, answers: dict) -> list:
    out: list = []
    for x in seq:
        i = len(out)
        while i > 0 and _less(x, out[i - 1], query, answers):
            i -= 1
        out.insert(i, x)
    return out


def _partition(seq: list, pivot, query, answers: dict) -> tuple[list, list]:
    """``seq`` without ``pivot``, split by each item's answer against it."""
    smaller, larger = [], []
    for x in seq:
        if x != pivot:
            (smaller if _less(x, pivot, query, answers) else larger).append(x)
    return smaller, larger


def _select_kth(seq: list, rank: int, query, answers: dict):
    """Element of 1-based ``rank`` according to the answers seen so far.

    Median-of-medians with groups of five: deterministic, linear comparisons,
    and guaranteed to terminate even on adversarial answers because every
    descent strictly shrinks the working set.
    """
    while True:
        m = len(seq)
        if m <= 5:
            return _insertion(seq, query, answers)[rank - 1]
        medians = []
        for i in range(0, m, 5):
            chunk = seq[i : i + 5]
            medians.append(_insertion(chunk, query, answers)[(len(chunk) - 1) // 2])
        pivot = _select_kth(medians, (len(medians) + 1) // 2, query, answers)
        smaller, larger = _partition(seq, pivot, query, answers)
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
    :class:`SortInconsistency` on a wrong partition size at any level, or,
    after the last query, on an answer against the output order; a truthful
    oracle causes neither.  The degree profile is counted in that same last
    pass.  Never asks a pair twice, so it spends at most s(s-1)/2 queries on
    any answers.

    Two items cost one query, asked as (smaller id, larger id) like every
    query through ``_less``; the outcome then takes the shared one-edge
    profile, with no recursion and no check.
    """
    seq = list(items)
    if len(seq) == 2:
        a, b = seq
        lo, hi = (a, b) if a < b else (b, a)
        lo_smaller = oracle.query(lo, hi) is SMALLER
        output = [lo, hi] if lo_smaller else [hi, lo]
        return SortOutcome(output, {(lo, hi): lo_smaller}, _PAIR_PROFILE)
    answers: dict[tuple[int, int], bool] = {}
    output = _bqsort(seq, oracle.query, answers)
    return SortOutcome(output, answers, _checked_profile(output, answers))


def _bqsort(seq: list, query, answers: dict) -> list:
    m = len(seq)
    if m <= 1:
        return seq
    target = (m + 1) // 2
    median = _select_kth(seq, target, query, answers)
    smaller, larger = _partition(seq, median, query, answers)
    if len(smaller) != target - 1:
        raise SortInconsistency(
            f"partition sizes off: {len(smaller)}/{len(larger)} around claimed median of {m}",
            len(answers),
        )
    return _bqsort(smaller, query, answers) + [median] + _bqsort(larger, query, answers)
