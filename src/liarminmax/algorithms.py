"""Min/max selection against a bounded-lie comparison oracle.

Four routines: the classic pairing scheme for a reliable oracle, loss-counter
minimum/maximum finding, and two group-based min+max algorithms that sort and
verify each group before selecting among the group extrema.  Restarts stay
local to one group, and every restart is evidence of at least one lie, so a
contract-honoring oracle can force at most k of them in a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Answer, RunStats
from .graphs import added_edge_pairs, complete_edges
from .sorters import SortInconsistency, balanced_quicksort, mergesort

__all__ = [
    "BudgetViolation",
    "GroupPlan",
    "GroupReport",
    "MinMaxResult",
    "find_max_k_lies",
    "find_min_k_lies",
    "improved_minmax",
    "make_group_plan",
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


@dataclass
class GroupPlan:
    s: int
    groups: list[list[int]]


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
    # s = k once groups are big enough to amortize; pairs for tiny budgets,
    # which also keeps sort degrees (<= s-1) within the completion bound k+1.
    return k if k >= 4 else 2


def make_group_plan(n: int, k: int) -> GroupPlan:
    """Consecutive blocks of size s(k); the remainder forms a last short group."""
    if n < 1:
        raise ValueError("need at least one element")
    if k < 0:
        raise ValueError("lie budget must be non-negative")
    s = _group_size(k)
    return GroupPlan(s, _blocks(list(range(n)), s))


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
    items = list(items)
    if not items:
        raise ValueError("cannot select from an empty set")
    out = k + 1
    candidate = items[0]
    candidate_losses = 0
    comparisons = 0
    for challenger in items[1:]:
        challenger_losses = 0
        while True:
            comparisons += 1
            if oracle.query(candidate, challenger) is eliminating:
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
    return _select_k_lies(items, k, oracle, Answer.FIRST_SMALLER)


def find_max_k_lies(items, k: int, oracle) -> tuple[int, int]:
    """Loss-counter maximum: k+1 'smaller' verdicts knock an element out."""
    return _select_k_lies(items, k, oracle, Answer.FIRST_LARGER)


def pohl_minmax(items, oracle) -> MinMaxResult:
    """Pair up the elements, then find the minimum among the pair losers and
    the maximum among the pair winners.

    Assumes a reliable oracle and uses exactly ceil(3n/2) - 2 comparisons;
    an odd leftover element joins both candidate pools for free.
    """
    items = list(items)
    n = len(items)
    if n < 2:
        raise ValueError("need at least two elements")
    stats = RunStats()
    losers: list[int] = []
    winners: list[int] = []
    pair_comparisons = 0
    for i in range(0, n - 1, 2):
        a, b = items[i], items[i + 1]
        pair_comparisons += 1
        if oracle.query(a, b) is Answer.FIRST_SMALLER:
            losers.append(a)
            winners.append(b)
        else:
            losers.append(b)
            winners.append(a)
    if n % 2:
        losers.append(items[-1])
        winners.append(items[-1])
    stats.add("group-sort", pair_comparisons)
    low, c = find_min_k_lies(losers, 0, oracle)
    stats.add("final-min", c)
    high, c = find_max_k_lies(winners, 0, oracle)
    stats.add("final-max", c)
    return MinMaxResult(low, high, stats)


def simple_minmax(items, k: int, oracle) -> MinMaxResult:
    """Per group: mergesort, then re-ask every adjacent pair k+1 times and
    restart the group from scratch on any contrary answer.  Group extrema
    then go through the loss-counter selections, each with the full budget.

    Once a group passes verification, every non-extremal element has been
    declared larger (and smaller) than a neighbor k+1 times, so it cannot be
    an extremum unless the oracle exceeded its budget.
    """
    items = list(items)
    n = len(items)
    if n < 2:
        raise ValueError("need at least two elements")
    s = _group_size(k)
    stats = RunStats()
    restarts = 0
    minima: list[int] = []
    maxima: list[int] = []
    for group in _blocks(items, s):
        if len(group) == 1:
            minima.append(group[0])
            maxima.append(group[0])
            continue
        while True:
            outcome = mergesort(group, oracle)
            stats.add("group-sort", outcome.comparisons)
            order = outcome.output
            contradicted = False
            verify = 0
            for j in range(1, len(order)):
                lo, hi = order[j - 1], order[j]
                for _ in range(k + 1):
                    verify += 1
                    if oracle.query(lo, hi) is Answer.FIRST_LARGER:
                        contradicted = True
                        break
                if contradicted:
                    break
            stats.add("group-verify", verify)
            if not contradicted:
                minima.append(order[0])
                maxima.append(order[-1])
                break
            restarts += 1
            if restarts > k:
                raise BudgetViolation(
                    f"{restarts} group restarts already exceed the lie budget {k}"
                )
    stats.restarts = restarts
    low, c = find_min_k_lies(minima, k, oracle)
    stats.add("final-min", c)
    high, c = find_max_k_lies(maxima, k, oracle)
    stats.add("final-max", c)
    return MinMaxResult(low, high, stats)


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

    For k = 0 this dispatches to :func:`pohl_minmax`, which is the same
    scheme with groups of two.
    """
    items = list(items)
    n = len(items)
    if n < 2:
        raise ValueError("need at least two elements")
    if k == 0:
        return pohl_minmax(items, oracle)
    size = _group_size(k) if s is None else s
    if size < 2:
        raise ValueError("group size must be at least 2")
    if size > k + 2:
        # Sort degrees can reach size-1; beyond k+1 the completion has no room.
        raise ValueError(f"group size {size} exceeds k+2={k + 2}; completion would be infeasible")
    stats = RunStats()
    restarts = 0
    minima: list[int] = []
    maxima: list[int] = []
    for group_index, group in enumerate(_blocks(items, size)):
        m = len(group)
        if m == 1:
            minima.append(group[0])
            maxima.append(group[0])
            continue
        while True:
            reason = None
            outcome = None
            try:
                outcome = balanced_quicksort(group, oracle)
                stats.add("group-sort", outcome.comparisons)
            except SortInconsistency as exc:
                stats.add("group-sort", exc.comparisons)
                reason = exc.reason
            if outcome is not None and not outcome.is_order_consistent():
                reason = "sort answers contradict the claimed order"
            added_done = 0
            graph = None
            if reason is None:
                graph = outcome.graph
                completed = complete_edges(graph, k)
                order = outcome.output
                for i, j in added_edge_pairs(graph, completed):
                    added_done += 1
                    if oracle.query(order[i - 1], order[j - 1]) is Answer.FIRST_LARGER:
                        reason = "verification contradicted the claimed order"
                        break
                stats.add("group-verify", added_done)
            if group_log is not None:
                group_log.append(
                    GroupReport(
                        group_index,
                        m,
                        outcome.comparisons if outcome is not None else 0,
                        added_done,
                        graph.thickness() if graph is not None else None,
                        reason is None,
                        reason,
                    )
                )
            if reason is None:
                minima.append(order[0])
                maxima.append(order[-1])
                break
            restarts += 1
            if restarts > k:
                raise BudgetViolation(
                    f"{restarts} group restarts already exceed the lie budget {k}"
                )
    stats.restarts = restarts
    low, c = find_min_k_lies(minima, k, oracle)
    stats.add("final-min", c)
    high, c = find_max_k_lies(maxima, k, oracle)
    stats.add("final-max", c)
    return MinMaxResult(low, high, stats)
