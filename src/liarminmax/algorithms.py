"""Min/max selection against a bounded-lie comparison oracle.

Loss-counter minimum/maximum finding, and one group driver behind the three
min+max algorithms with two certifiers: mergesort plus k+1 re-asks per
adjacent pair (the simple algorithm), or balanced quicksort plus edge
completion (the improved algorithm).  Pohl's pairing scheme for a reliable
oracle is the completion certifier at k = 0: a pair takes one sort
comparison and its completion adds none.  Restarts stay local to one group,
and every restart is evidence of at least one lie, so a contract-honoring
oracle can force at most k of them in a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LARGER, SMALLER, Answer, RunStats
from .graphs import added_edge_pairs, complete_edges
from .sorters import SortInconsistency, balanced_quicksort, mergesort

__all__ = [
    "BudgetViolation",
    "GroupReport",
    "MinMaxResult",
    "find_max_k_lies",
    "find_min_k_lies",
    "improved_minmax",
    "pohl_minmax",
    "simple_minmax",
]


class BudgetViolation(RuntimeError):
    """More restarts than the lie budget allows: the oracle broke its contract."""


@dataclass(frozen=True)
class MinMaxResult:
    min: int
    max: int
    stats: RunStats


@dataclass(frozen=True)
class GroupReport:
    """Instrumentation for one group attempt of the improved algorithm."""

    group_index: int
    size: int
    sort_comparisons: int
    added_comparisons: int
    thickness: int | None
    completed: bool
    restart_reason: str | None = None


def _blocks(items: list, s: int) -> list[list]:
    return [items[i : i + s] for i in range(0, len(items), s)]


def _group_size(k: int) -> int:
    # s = k once groups are big enough to amortize; pairs for tiny budgets.
    # Either way sort degrees (<= s-1) stay within k+1, where the completed
    # graph has at most (k+1)(s-1) + thickness edges.
    return k if k >= 4 else 2


def _select_k_lies(items, k: int, oracle, eliminating: Answer) -> tuple[int, int]:
    """Loss-counter elimination: the answer ``eliminating`` to
    ``query(candidate, challenger)`` charges the challenger a loss, any other
    answer charges the candidate; k+1 lifetime losses knock an element out,
    and the survivor is the selected extremum.

    Correct whenever the oracle lies at most k times (eliminating the true
    extremum would take k+1 lies), and never uses more than (k+1)n - 1
    comparisons, since every comparison hands out exactly one loss and the
    survivor ends with at most k.  Returns (winner, comparisons).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    items = list(items)
    if not items:
        raise ValueError("cannot select from an empty set")
    out = k + 1
    candidate = items[0]
    candidate_losses = 0
    comparisons = 0
    query = oracle.query
    for challenger in items[1:]:
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


# A certifier sorts a group: certify(group, k, oracle) returns (order, reason,
# sort_comparisons, checks, graph) and charges nothing; the group driver does
# the accounting.  ``order`` is the claimed ascending order and ``checks`` the
# position pairs (i, j), i < j and 1-based in ``order``, whose answers
# certify it; ``reason`` names a lie the sort already proved, or is None.
# ``graph`` is the sort's comparison graph where there is one, for the
# thickness in a group report.


def _certify_by_reasking(group, k: int, oracle):
    """Mergesort, then re-ask every adjacent pair k+1 times."""
    outcome = mergesort(group, oracle)
    order = outcome.output
    m = len(order)
    checks = [pair for pair in zip(range(1, m), range(2, m + 1)) for _ in range(k + 1)]
    return order, None, outcome.comparisons, checks, None


def _certify_by_completion(group, k: int, oracle):
    """Balanced quicksort, then only the comparisons that complete the sort's
    graph to k+1 certified neighbors per side.  A sort inconsistency, or sort
    answers against the claimed order, prove a lie before any check."""
    try:
        outcome = balanced_quicksort(group, oracle)
    except SortInconsistency as exc:
        return None, exc.reason, exc.comparisons, (), None
    order = outcome.output
    if not outcome.consistent:
        return order, "sort answers contradict the claimed order", outcome.comparisons, (), None
    graph = outcome.graph
    checks = added_edge_pairs(graph, complete_edges(graph, k))
    return order, None, outcome.comparisons, checks, graph


def _extrema(
    certify, items, k: int, oracle, size: int, group_log: list | None = None
) -> MinMaxResult:
    """Split ``items`` into blocks of ``size``; sort each block of two or
    more with ``certify`` and ask its checks, restarting the block whenever
    a lie is proven; then select the minimum among the group minima and the
    maximum among the group maxima, each with budget k.  Every comparison is
    charged here, to its phase in ``RunStats``; a certifier charges none."""
    if k < 0:
        raise ValueError("k must be non-negative")
    items = list(items)
    if len(items) < 2:
        raise ValueError("need at least two elements")
    stats = RunStats()
    query = oracle.query
    minima: list[int] = []
    maxima: list[int] = []
    # The group phases are summed and charged once, after the last group.
    # ``phase_breakdown`` keeps its key order: the first group always sorts.
    sorted_total = verified_total = 0
    for group_index, group in enumerate(_blocks(items, size)):
        order = group
        while len(group) > 1:
            order, reason, sort_comparisons, checks, graph = certify(group, k, oracle)
            sorted_total += sort_comparisons
            asked = 0
            if reason is None:
                for i, j in checks:
                    asked += 1
                    if query(order[i - 1], order[j - 1]) is LARGER:
                        reason = "verification contradicted the claimed order"
                        break
                verified_total += asked
            if group_log is not None:
                thickness = None if graph is None else graph.thickness()
                report = (sort_comparisons, asked, thickness, reason is None, reason)
                group_log.append(GroupReport(group_index, len(group), *report))
            if reason is None:
                break
            stats.restarts += 1
            if stats.restarts > k:
                raise BudgetViolation(
                    f"{stats.restarts} group restarts already exceed the lie budget {k}"
                )
        minima.append(order[0])
        maxima.append(order[-1])
    stats.add("group-sort", sorted_total)
    stats.add("group-verify", verified_total)
    low, c = find_min_k_lies(minima, k, oracle)
    stats.add("final-min", c)
    high, c = find_max_k_lies(maxima, k, oracle)
    stats.add("final-max", c)
    return MinMaxResult(low, high, stats)


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
    """Per group: mergesort, then re-ask every adjacent pair k+1 times and
    restart the group from scratch on any contrary answer.  Group extrema
    then go through the loss-counter selections, each with the full budget.

    Once a group passes verification, every non-extremal element has been
    found larger (and smaller) than a neighbor k+1 times, so it cannot be
    an extremum unless the oracle exceeded its budget.
    """
    return _extrema(_certify_by_reasking, items, k, oracle, _group_size(k))


def improved_minmax(
    items,
    k: int,
    oracle,
    *,
    s: int | None = None,
    group_log: list[GroupReport] | None = None,
) -> MinMaxResult:
    """Group-based min+max where sort comparisons double as verification.

    Per group: balanced quicksort (restart on inconsistency), then complete
    the sort's comparison graph so every position has k+1 certified neighbors
    per side, and perform only the added comparisons.  An added comparison
    contradicting the claimed order restarts the group.  The sort answers are
    also checked against the claimed order -- a contradiction there would
    leave some position short of its k+1 certificates, so it forces a restart
    too (it costs no queries and is likewise proof of a lie).

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
    return _extrema(_certify_by_completion, items, k, oracle, size, group_log)
