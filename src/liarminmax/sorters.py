"""Oracle-driven sorting with degree profiles.

A sort returns its output, the answers it read and the degree profile of
their comparison graph over output positions: for each position, how many
compared elements sit to its left and how many to its right.  Completion
and thickness read nothing else, so no edge list is kept.  Quicksort counts
the degrees before it returns; mergesort's are counted the first time they
are read.
A sorter never queries the same unordered pair twice within one attempt, so
that graph is simple and every degree is at most s-1; at a group size of at
most k+2 that keeps every degree within k+1, where the completed graph has
at most (k+1)(s-1) + thickness edges.
A sort compares through one closure, ``less(a, b)``, which asks a pair only
when it has no answer yet.  Quicksort needs that memo: median selection and
the partitions meet some pairs again, and then re-read the recorded answer.
Mergesort never does: top-down, two elements are compared only in the one
merge where they sit in opposite runs, and from then on they share a run.
Either way an attempt asks at most s(s-1)/2 queries whatever the answers,
so no comparison cap is needed, and a batched oracle that can tell no lie
within that many answers the whole sort from its ranks.  Then quicksort
sorts the items' output positions, whose order the ranks already give, and
keeps each compared pair of positions once; mergesort keeps its answers
keyed by ids.  A sort either returns an outcome whose every answer agrees
with its output, or raises :class:`SortInconsistency`, its proof of a lie;
callers decide what a proven lie means.
"""

from __future__ import annotations

from .core import SMALLER
from .graphs import profile_thickness
from .oracles import BATCHED

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
    """Evidence of at least one lie inside a sort attempt, after
    ``comparisons`` queries; a sort body that raises it leaves the count to
    the sort, which knows its answers."""

    def __init__(self, reason: str, comparisons: int = 0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.comparisons = comparisons


class SortOutcome:
    """Result of one sort attempt: the claimed ascending ``output`` of ``s``
    items and the ``answers`` the sort read, mapping each asked pair (lo,
    hi), lo < hi, to whether ``lo`` was answered smaller, in the order they
    were asked; ``comparisons`` is their number.  Every answer agrees with
    ``output``.  A sort answered from ranks by position hands in its
    ``pairs`` of output positions (p, q), p < q, instead, and ``answers``
    is built from them the first time it is read.

    ``degree_profile()`` gives the comparison graph's (left, right) degree
    lists over output positions, 1-indexed: a position's left (right)
    degree counts its answered pairs whose other item sits at a smaller
    (larger) position.  With ``s``, that is all
    :func:`~liarminmax.graphs.complete_edges` reads.  A sort that counts the
    degrees before it returns hands them in; otherwise they are counted the
    first time they are read, and a group step without credit never reads
    them.  The lists are the outcome's own, so readers never write them.
    """

    __slots__ = ("output", "comparisons", "s", "_answers", "_pairs", "_profile")

    def __init__(
        self,
        output: list[int],
        answers: dict[tuple[int, int], bool] | None,
        profile: tuple[list[int], list[int]] | None = None,
        pairs: dict[tuple[int, int], None] | None = None,
    ) -> None:
        self.output = output
        self._answers = answers
        self._pairs = pairs
        self.comparisons = len(pairs if answers is None else answers)
        self.s = len(output)
        self._profile = profile

    @property
    def answers(self) -> dict[tuple[int, int], bool]:
        answers = self._answers
        if answers is None:
            answers = self._answers = _id_answers(self.output, self._pairs)
        return answers

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


def _position_profile(pairs: dict[tuple[int, int], None], s: int) -> tuple[list[int], list[int]]:
    """The (left, right) degree lists of ``s`` output positions compared in
    ``pairs``, each (p, q) with p < q."""
    left = [0] * (s + 1)
    right = left.copy()
    for p, q in pairs:
        right[p] += 1
        left[q] += 1
    return left, right


def _id_answers(
    output: list[int], pairs: dict[tuple[int, int], None]
) -> dict[tuple[int, int], bool]:
    """The answers of ``pairs`` of positions over ``output``, in their
    order, keyed by ids: (p, q), p < q, puts ``output[p-1]`` first."""
    answers = {}
    for p, q in pairs:
        x, y = output[p - 1], output[q - 1]
        if x < y:
            answers[x, y] = True
        else:
            answers[y, x] = False
    return answers


def _lie_free_ranks(seq: list, oracle) -> tuple[int, ...] | None:
    """The hidden order's ranks when ``oracle``'s type is one of
    :data:`~liarminmax.oracles.BATCHED`, the items of ``seq`` are distinct
    and its next s(s-1)/2 queries are lie-free, else None.  Repeated items
    take the per-query path, whose first self-comparison raises
    :class:`~liarminmax.core.InvalidQuery`."""
    m = len(seq)
    if type(oracle) in BATCHED and len(set(seq)) == m:
        return oracle.lie_free_ranks(m * (m - 1) // 2)
    return None


def _asked_answers(body, seq: list, oracle) -> tuple[list, dict[tuple[int, int], bool]]:
    """(output, answers) of ``body(seq, less)``, where ``less(a, b)`` says
    whether ``a`` comes before ``b``, asking the pair as (lo, hi), lo < hi,
    through ``oracle.query`` the first time it meets it, and keeping the
    answer in ``answers`` under (lo, hi)."""
    answers: dict[tuple[int, int], bool] = {}
    query = oracle.query

    def less(a: int, b: int) -> bool:
        # Two branches, not one key tuple chosen up front: the recorded-answer
        # path, which most of quicksort's calls take, runs about a tenth faster.
        if a < b:
            lo_smaller = answers.get((a, b))
            if lo_smaller is None:
                lo_smaller = answers[(a, b)] = query(a, b) is SMALLER
            return lo_smaller
        lo_smaller = answers.get((b, a))
        if lo_smaller is None:
            lo_smaller = answers[(b, a)] = query(b, a) is SMALLER
        return not lo_smaller

    try:
        return body(seq, less), answers
    except SortInconsistency as exc:
        exc.comparisons = len(answers)
        raise


def mergesort(items, oracle) -> SortOutcome:
    """Plain top-down mergesort: at most s * ceil(log2 s) comparisons, never
    repeats a pair, and survives arbitrary answers (the output is then just
    some permutation).

    Each query is asked as (smaller id, larger id), like every query of
    quicksort, and its answer is recorded for the outcome.  From lie-free
    ranks, ``less`` compares the items' ranks and keeps each answer under
    its ids, and the oracle is charged for them in one ``answered`` call.
    """
    seq = list(items)
    rank = _lie_free_ranks(seq, oracle)
    if rank is None:
        return SortOutcome(*_asked_answers(_msort, seq, oracle))
    answers: dict[tuple[int, int], bool] = {}

    def less(a: int, b: int) -> bool:
        a_smaller = rank[a] < rank[b]
        if a < b:
            answers[(a, b)] = a_smaller
        else:
            answers[(b, a)] = not a_smaller
        return a_smaller

    output = _msort(seq, less)
    oracle.answered(answers)
    return SortOutcome(output, answers)


def _msort(seq: list, less) -> list:
    m = len(seq)
    if m == 2:
        # A run of two is settled by its one comparison, right[0] against left[0].
        a, b = seq
        return [b, a] if less(b, a) else seq
    if m < 2:
        return seq
    mid = m // 2
    left = _msort(seq[:mid], less)
    right = _msort(seq[mid:], less)
    merged = []
    i = j = 0
    nl, nr = mid, m - mid
    while i < nl and j < nr:
        x, y = left[i], right[j]
        if less(y, x):
            merged.append(y)
            j += 1
        else:
            merged.append(x)
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def _insertion(seq, less) -> list:
    out: list = []
    for x in seq:
        i = len(out)
        while i > 0 and less(x, out[i - 1]):
            i -= 1
        out.insert(i, x)
    return out


def _partition(seq: list, pivot, less) -> tuple[list, list]:
    """``seq`` without ``pivot``, split by each item's answer against it."""
    smaller, larger = [], []
    for x in seq:
        if x != pivot:
            (smaller if less(x, pivot) else larger).append(x)
    return smaller, larger


def _select_kth(seq: list, rank: int, less):
    """Element of 1-based ``rank`` according to the answers seen so far.

    Median-of-medians with groups of five: deterministic, linear comparisons,
    and guaranteed to terminate even on adversarial answers because every
    descent strictly shrinks the working set.
    """
    while True:
        m = len(seq)
        if m <= 5:
            return _insertion(seq, less)[rank - 1]
        medians = []
        for i in range(0, m, 5):
            chunk = seq[i : i + 5]
            medians.append(_insertion(chunk, less)[(len(chunk) - 1) // 2])
        pivot = _select_kth(medians, (len(medians) + 1) // 2, less)
        smaller, larger = _partition(seq, pivot, less)
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
    any answers.  From lie-free ranks it sorts output positions instead, and
    counts the profile from the pairs of positions compared
    (:func:`_position_quicksort`).

    Two items cost one query, asked as (smaller id, larger id) like every
    other query of a sort; the outcome then takes the shared one-edge
    profile, with no recursion and no check.
    """
    seq = list(items)
    if len(seq) == 2:
        a, b = seq
        lo, hi = (a, b) if a < b else (b, a)
        lo_smaller = oracle.query(lo, hi) is SMALLER
        output = [lo, hi] if lo_smaller else [hi, lo]
        return SortOutcome(output, {(lo, hi): lo_smaller}, _PAIR_PROFILE)
    rank = _lie_free_ranks(seq, oracle)
    if rank is not None:
        return _position_quicksort(seq, rank, oracle)
    output, answers = _asked_answers(_bqsort, seq, oracle)
    return SortOutcome(output, answers, _checked_profile(output, answers))


def _position_quicksort(seq: list, rank, oracle) -> SortOutcome:
    """:func:`balanced_quicksort` of distinct ``seq`` answered from
    ``rank``, lie-free.  The output is ``seq`` sorted by rank, and the body
    sorts the output positions of ``seq``'s items, in ``seq``'s order, so it
    compares the pairs the per-query path would, in the same order.  Its
    ``less`` compares two positions and keeps their pair (p, q), p < q, in
    ``pairs``, whose first insertion of a pair is where that path would ask
    it: ``pairs`` lists the queries in their order.  Raises
    :class:`SortInconsistency` unless the body returns the positions in
    order.  The oracle is charged for the pairs in one ``answered`` call,
    with their id-keyed answers when it keeps a transcript."""
    output = sorted(seq, key=rank.__getitem__)
    m = len(output)
    position = dict(zip(output, range(1, m + 1)))
    pairs: dict[tuple[int, int], None] = {}

    def less(p: int, q: int) -> bool:
        if p < q:
            pairs[p, q] = None
            return True
        pairs[q, p] = None
        return False

    returned = _bqsort([position[x] for x in seq], less)
    answers = None if oracle.transcript is None else _id_answers(output, pairs)
    # Without a transcript, ``answered`` reads only how many pairs it gets.
    oracle.answered(pairs if answers is None else answers)
    if returned != list(range(1, m + 1)):
        raise SortInconsistency("sorted positions out of order", len(pairs))
    return SortOutcome(output, answers, _position_profile(pairs, m), pairs)


def _bqsort(seq: list, less) -> list:
    m = len(seq)
    if m <= 1:
        return seq
    target = (m + 1) // 2
    median = _select_kth(seq, target, less)
    smaller, larger = _partition(seq, median, less)
    if len(smaller) != target - 1:
        raise SortInconsistency(
            f"partition sizes off: {len(smaller)}/{len(larger)} around claimed median of {m}"
        )
    return _bqsort(smaller, less) + [median] + _bqsort(larger, less)
