"""Min/max selection against a bounded-lie comparison oracle.

Loss-counter minimum/maximum finding, and one group driver behind the three
min+max algorithms.  A group step is a sort, then the checks that complete
its output to k+1 certified neighbors per side, crediting the sort's own
answers or not: mergesort without credit re-asks each adjacent pair k+1
times (the simple algorithm); balanced quicksort with credit asks only the
edges the completion adds (the improved algorithm).  Pohl's pairing scheme
for a reliable oracle is the improved step at k = 0: a pair takes one sort
comparison and its completion adds none.  Restarts stay local to one group,
and every restart is evidence of at least one lie, so a contract-honoring
oracle can force at most k of them in a whole run; restart k+1 raises
:class:`~liarminmax.core.LieBudgetViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LARGER, SMALLER, Answer, LieBudgetViolation, RunStats
from .graphs import added_edge_pairs, complete_edges
from .oracles import BATCHED
from .sorters import SortInconsistency, balanced_quicksort, mergesort

__all__ = [
    "GroupReport",
    "MinMaxResult",
    "find_max_k_lies",
    "find_min_k_lies",
    "improved_minmax",
    "mergesort_comparison_cap",
    "pohl_minmax",
    "simple_comparison_bound",
    "simple_minmax",
]


@dataclass
class MinMaxResult:
    min: int | None
    max: int | None
    stats: RunStats


@dataclass(frozen=True)
class GroupReport:
    """One group step's attempt: its sort's comparisons, the checks asked
    after it (``added_comparisons``) and the sort graph's thickness."""

    group_index: int
    size: int
    sort_comparisons: int
    added_comparisons: int
    thickness: int | None
    completed: bool
    restart_reason: str | None = None


def _group_size(k: int) -> int:
    # s = k once groups are big enough to amortize; pairs for tiny budgets.
    # Either way sort degrees (<= s-1) stay within k+1, where the completed
    # graph has at most (k+1)(s-1) + thickness edges.
    return k if k >= 4 else 2


def mergesort_comparison_cap(m: int) -> int:
    """An upper bound on mergesort's comparisons for m elements: m times
    ceil(log2 m).  It is not tight (24 at m = 8, where top-down mergesort
    asks at most 17), but it feeds the CSV ``bound`` column as it stands."""
    return m * (m - 1).bit_length() if m > 1 else 0


def simple_comparison_bound(n: int, k: int, restarts: int) -> int:
    """Instrumented closed-form cap for the simple algorithm.

    Per-group worst case (mergesort cap plus (k+1)(s-1) verification), one
    extra per-group worst case per observed restart, plus the loss-counter
    bounds for the two final selections over the group extrema.
    """
    s = _group_size(k)
    full, rest = divmod(n, s)
    sizes = [s] * full + [rest] * (rest > 0)
    per_group = [mergesort_comparison_cap(m) + (k + 1) * (m - 1) for m in sizes]
    final = 2 * ((k + 1) * len(sizes) - 1)
    return sum(per_group) + restarts * max(per_group) + final


def _select_k_lies(items, k: int, oracle, eliminating: Answer) -> tuple[int, int]:
    """Loss-counter elimination: the answer ``eliminating`` to
    ``query(candidate, challenger)`` charges the challenger a loss, any other
    answer charges the candidate; k+1 lifetime losses knock an element out,
    and the survivor is the selected extremum.

    Correct whenever the oracle lies at most k times (eliminating the true
    extremum would take k+1 lies), and never uses more than (k+1)n - 1
    comparisons, since every comparison hands out exactly one loss and the
    survivor ends with at most k.  Reads ``items`` once, so any iterable
    serves.  Returns (winner, comparisons).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    challengers = iter(items)
    for candidate in challengers:
        break
    else:
        raise ValueError("cannot select from an empty set")
    out = k + 1
    candidate_losses = 0
    comparisons = 0
    query = oracle.query
    for challenger in challengers:
        challenger_losses = 0
        while True:
            comparisons += 1
            if query(candidate, challenger) is eliminating:
                challenger_losses += 1
                if challenger_losses == out:
                    break
            else:
                candidate_losses += 1
                if candidate_losses == out:
                    candidate, candidate_losses = challenger, challenger_losses
                    break
    return candidate, comparisons


def find_min_k_lies(items, k: int, oracle) -> tuple[int, int]:
    """Loss-counter minimum: k+1 'larger' verdicts knock an element out."""
    return _select_k_lies(items, k, oracle, SMALLER)


def find_max_k_lies(items, k: int, oracle) -> tuple[int, int]:
    """Loss-counter maximum: k+1 'smaller' verdicts knock an element out."""
    return _select_k_lies(items, k, oracle, LARGER)


def _reask_checks(m: int, k: int) -> list[tuple[int, int]]:
    """The completion of the empty graph on m positions in closed form: k+1
    copies of each adjacent pair, ascending."""
    checks = []
    for pair in zip(range(1, m), range(2, m + 1)):
        checks += [pair] * (k + 1)
    return checks


def _select_from_ranks(items: list, k: int, oracle, eliminating: Answer):
    """``_select_k_lies`` for a batched oracle whose next (k+1)(m-1) queries
    are lie-free, or None when they may meet a lie or ``items`` repeat.
    Against truthful answers every challenger costs exactly k+1 copies of
    one query, ``(candidate, challenger)``, each charging the same element,
    so one rank comparison settles it, and the oracle is charged for all
    (k+1)(m-1) copies in one ``answered`` call.  Returns (winner,
    comparisons), as ``_select_k_lies`` does."""
    comparisons = (k + 1) * (len(items) - 1)
    rank = oracle.lie_free_ranks(comparisons)
    if rank is None or len(set(items)) != len(items):
        return None
    candidate_kept = eliminating is SMALLER
    answers = {}
    candidate = items[0]
    for challenger in items[1:]:
        smaller = answers[(candidate, challenger)] = rank[candidate] < rank[challenger]
        if smaller is not candidate_kept:
            candidate = challenger
    oracle.answered(answers, k + 1)
    return candidate, comparisons


_CONTRADICTED = "verification contradicted the claimed order"


def _extrema(
    sort, credit: bool, items, k: int, oracle, size: int, group_log: list | None = None
) -> MinMaxResult:
    """Split ``items`` into blocks of ``size``; in each block of two or more,
    ``sort``, then ask the checks that give every output position k+1
    certified neighbors per side: with ``credit``, the completion of the
    sort's degree profile; without, of the empty graph (``_reask_checks``).
    The checks go in one ``ask_checks`` call when the oracle's type is one
    of :data:`~liarminmax.oracles.BATCHED`; a proven lie restarts the block.
    Then select the minimum among the group minima and the maximum among
    the group maxima, each with budget k, from a batched oracle's ranks
    when no lie can fall within the selection.  Every comparison is charged
    here, to its phase."""
    if k < 0:
        raise ValueError("k must be non-negative")
    items = list(items)
    if len(items) < 2:
        raise ValueError("need at least two elements")
    query = oracle.query
    # Any other oracle, a subclass that may override ``query``, a
    # ``ScriptedOracle`` or a proxy (the benchmark's tracing tap, say), is
    # asked one query per check and per selection comparison.
    batch = type(oracle) in BATCHED
    restarts = 0
    minima: list[int] = []
    maxima: list[int] = []
    # The phases are summed over the run and charged once, at its end.
    sorted_total = verified_total = 0
    for group_index, start in enumerate(range(0, len(items), size)):
        group = order = items[start : start + size]
        while len(group) > 1:
            outcome = reason = None
            asked = 0
            try:
                outcome = sort(group, oracle)
            except SortInconsistency as exc:
                reason, sort_comparisons = exc.reason, exc.comparisons
            else:
                order, sort_comparisons = outcome.output, outcome.comparisons
                if credit:
                    checks = added_edge_pairs(complete_edges(outcome, k))
                else:
                    checks = _reask_checks(len(order), k)
                # 1-based: position 0 repeats the first element; no check names it.
                at = [order[0], *order]
                if batch:
                    asked, contradicted = oracle.ask_checks(at, checks)
                    if contradicted:
                        reason = _CONTRADICTED
                else:
                    for i, j in checks:
                        asked += 1
                        if query(at[i], at[j]) is LARGER:
                            reason = _CONTRADICTED
                            break
            sorted_total += sort_comparisons
            verified_total += asked
            if group_log is not None:
                thickness = None if outcome is None else outcome.thickness()
                report = (sort_comparisons, asked, thickness, reason is None, reason)
                group_log.append(GroupReport(group_index, len(group), *report))
            if reason is None:
                break
            restarts += 1
            if restarts > k:
                raise LieBudgetViolation(restarts, k)
        minima.append(order[0])
        maxima.append(order[-1])
    low = _select_from_ranks(minima, k, oracle, SMALLER) if batch else None
    low, low_count = low or find_min_k_lies(minima, k, oracle)
    high = _select_from_ranks(maxima, k, oracle, LARGER) if batch else None
    high, high_count = high or find_max_k_lies(maxima, k, oracle)
    # Only the phases that asked a query get a key, in ``PHASES`` order; the
    # first group always sorts.
    phases = {"group-sort": sorted_total}
    if verified_total:
        phases["group-verify"] = verified_total
    if low_count:
        phases["final-min"] = low_count
    if high_count:
        phases["final-max"] = high_count
    return MinMaxResult(low, high, RunStats(restarts, phases))


def pohl_minmax(items, oracle) -> MinMaxResult:
    """Pair up the elements, then find the minimum among the pair losers and
    the maximum among the pair winners.

    Assumes a reliable oracle and uses exactly ceil(3n/2) - 2 comparisons;
    an odd leftover element joins both candidate pools for free.  This is
    :func:`improved_minmax` at k = 0: each pair is asked once, as (smaller
    id, larger id), and its completion adds no comparison.
    """
    return improved_minmax(items, 0, oracle)


def simple_minmax(items, k: int, oracle) -> MinMaxResult:
    """Per group: mergesort with no credit, so every adjacent pair is
    re-asked k+1 times, and any contrary answer restarts the group.  Group
    extrema then go through the loss-counter selections, each at budget k.

    Once a group passes verification, every non-extremal element has been
    found larger (and smaller) than a neighbor k+1 times, so it cannot be
    an extremum unless the oracle exceeded its budget.
    """
    return _extrema(mergesort, False, items, k, oracle, _group_size(k))


def improved_minmax(
    items,
    k: int,
    oracle,
    *,
    s: int | None = None,
    group_log: list[GroupReport] | None = None,
) -> MinMaxResult:
    """Group-based min+max where sort comparisons double as verification.

    Per group: balanced quicksort with credit (restart on inconsistency):
    complete the sort's comparison graph so every position has k+1 certified
    neighbors per side, and perform only the added comparisons.  An added comparison
    contradicting the claimed order restarts the group.  The sort counts as
    inconsistent when its answers contradict its own output, too -- such an
    answer would leave some position short of its k+1 certificates, and it
    is likewise proof of a lie.

    For k = 0 the group size can only be 2: each pair costs one sort
    comparison and needs no added ones, which is Pohl's pairing scheme
    (:func:`pohl_minmax`).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    size = _group_size(k) if s is None else s
    if size < 2:
        raise ValueError("group size must be at least 2")
    if size > k + 2:
        # Sort degrees reach at most size-1, so up to k+2 they stay within
        # k+1: the domain of the per-group bound (k+1)(s-1) + thickness.
        raise ValueError(f"group size {size} exceeds k+2={k + 2}")
    return _extrema(balanced_quicksort, True, items, k, oracle, size, group_log)
