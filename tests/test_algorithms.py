import random
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_reference import OrderedMultigraph
from liarminmax import algorithms
from liarminmax.algorithms import (
    _extrema,
    _group_size,
    _reask_checks,
    find_max_k_lies,
    find_min_k_lies,
    improved_minmax,
    pohl_minmax,
    simple_minmax,
)
from liarminmax.core import (
    PHASES,
    Answer,
    InvalidQuery,
    LieBudgetViolation,
    TotalOrder,
    Transcript,
    count_lies,
)
from liarminmax.graphs import complete_edges
from liarminmax.oracles import (
    LyingOracle,
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
)
from liarminmax.sorters import mergesort

# The benchmark's tracing proxy, imported read-only as tests/test_golden.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import TappedOracle  # noqa: E402


def pohl_count(n):
    return (3 * n + 1) // 2 - 2


def unexpected_query(a, b):
    """``extend`` for a script that must not run out: fails the test."""
    pytest.fail(f"unexpected query ({a}, {b}) past the script")


class FlipFlopOracle:
    """Contract-breaking oracle: unbounded lies on every second query.

    An oracle that always lies is merely a consistent description of the
    reversed order, so nothing can catch it; alternating answers make every
    verification pass contradict the preceding sort and force restart after
    restart, which is what the budget check must flag.
    """

    def __init__(self, order):
        self.order = order
        self.transcript = Transcript()
        self.lies_told = 0
        self.queries = 0

    def query(self, a, b):
        rank = self.order.rank
        truth = Answer.FIRST_SMALLER if rank[a] < rank[b] else Answer.FIRST_LARGER
        if self.queries % 2:
            answer = truth.flipped()
            self.lies_told += 1
        else:
            answer = truth
        self.queries += 1
        self.transcript.append(a, b, answer)
        return answer


liar_runs = st.tuples(
    st.integers(2, 24),  # n
    st.integers(1, 4),  # k
    st.integers(0, 2**31),  # seed
    st.sampled_from(["random", "triggered"]),
)


def build_liar(kind, order, k, rng):
    if kind == "random":
        return RandomLiarOracle(order, k, p=rng.uniform(0.05, 0.6), seed=rng.randrange(2**31))
    horizon = max(1, (k + 1) * order.n * 2)
    triggers = rng.sample(range(horizon), min(k, horizon))
    return TriggeredLiarOracle(order, k, triggers)


class TestFindMin:
    def test_single_item(self):
        el, comparisons = find_min_k_lies([7], 3, TruthfulOracle(TotalOrder(tuple(range(8)))))
        assert (el, comparisons) == (7, 0)

    def test_three_items_one_lie_budget(self):
        for ranks in permutations(range(3)):
            order = TotalOrder(ranks)
            el, comparisons = find_min_k_lies([0, 1, 2], 1, TruthfulOracle(order))
            assert el == order.min_element()
            assert comparisons <= (1 + 1) * 3 - 1

    @settings(max_examples=80, deadline=None)
    @given(liar_runs)
    def test_correct_under_lying_oracles(self, run):
        n, k, seed, kind = run
        rng = random.Random(seed)
        order = TotalOrder.shuffled(n, rng)
        oracle = build_liar(kind, order, k, rng)
        el, comparisons = find_min_k_lies(list(range(n)), k, oracle)
        assert el == order.min_element()
        assert comparisons <= (k + 1) * n - 1
        assert count_lies(oracle.transcript, order) <= k


class TestFindMax:
    def test_single_item(self):
        el, comparisons = find_max_k_lies([2], 1, TruthfulOracle(TotalOrder(tuple(range(3)))))
        assert (el, comparisons) == (2, 0)

    def test_three_items_one_lie_budget(self):
        for ranks in permutations(range(3)):
            order = TotalOrder(ranks)
            el, comparisons = find_max_k_lies([0, 1, 2], 1, TruthfulOracle(order))
            assert el == order.max_element()
            assert comparisons <= 5

    def test_truthful_ascending(self):
        order = TotalOrder((0, 1, 2))
        el, comparisons = find_max_k_lies([0, 1, 2], 0, TruthfulOracle(order))
        assert el == 2
        assert comparisons <= 2

    @settings(max_examples=40, deadline=None)
    @given(liar_runs)
    def test_correct_under_lying_oracles(self, run):
        n, k, seed, kind = run
        rng = random.Random(seed)
        order = TotalOrder.shuffled(n, rng)
        oracle = build_liar(kind, order, k, rng)
        el, comparisons = find_max_k_lies(list(range(n)), k, oracle)
        assert el == order.max_element()
        assert comparisons <= (k + 1) * n - 1


@pytest.mark.parametrize(
    "run",
    [
        lambda oracle: find_min_k_lies([0, 1, 2], -1, oracle),
        lambda oracle: find_max_k_lies([0, 1, 2], -1, oracle),
        lambda oracle: simple_minmax([0, 1, 2, 3], -1, oracle),
        lambda oracle: improved_minmax([0, 1, 2, 3], -1, oracle),
    ],
    ids=["find-min", "find-max", "simple", "improved"],
)
def test_negative_k_rejected_before_any_query(run):
    # An empty script fails the test on the first query.
    with pytest.raises(ValueError, match="k must be non-negative"):
        run(ScriptedOracle([], unexpected_query))


def test_selection_from_an_empty_set_rejected():
    with pytest.raises(ValueError, match="cannot select from an empty set"):
        find_min_k_lies([], 1, ScriptedOracle([], unexpected_query))


def as_generator(items):
    return (item for item in items)


@pytest.mark.parametrize("select", [find_min_k_lies, find_max_k_lies])
def test_selection_reads_any_iterable_once(select):
    # A list, a tuple and a generator give the same winner, count and
    # queries; empty or with k < 0, each is rejected before any query.
    items = [5, 1, 7, 0, 8, 2, 6, 3, 4]
    order = TotalOrder.shuffled(len(items), random.Random(4))
    seen = []
    for make in (list, tuple, as_generator):
        oracle = TriggeredLiarOracle(order, 2, triggers={2, 5})
        seen.append((select(make(items), 2, oracle), list(oracle.transcript)))
        with pytest.raises(ValueError, match="cannot select from an empty set"):
            select(make([]), 2, ScriptedOracle([], unexpected_query))
        with pytest.raises(ValueError, match="k must be non-negative"):
            select(make(items), -1, ScriptedOracle([], unexpected_query))
    assert seen[0] == seen[1] == seen[2]
    (winner, _), _ = seen[0]
    extreme = order.min_element() if select is find_min_k_lies else order.max_element()
    assert winner == extreme


@pytest.mark.parametrize("name", ["pohl", "simple", "improved"])
def test_phase_breakdown_keys_the_phases_that_asked(name):
    # Keys in PHASES order, none for a phase without a query, and the counts
    # add up to every query the oracle answered, restarts included.
    drivers = {
        "pohl": lambda items, k, oracle: pohl_minmax(items, oracle),
        "simple": simple_minmax,
        "improved": improved_minmax,
    }
    sort_only, no_verify = ("group-sort",), ("group-sort", "final-min", "final-max")
    # n = 2 is one group, whose run selects nothing; pohl and improved at
    # k = 0 certify a pair by its sort alone.
    expected = {
        "pohl": {sort_only, no_verify},
        "simple": {("group-sort", "group-verify"), PHASES},
        "improved": {sort_only, no_verify, ("group-sort", "group-verify"), PHASES},
    }
    seen = set()
    for n in range(2, 10):
        for k in [0] if name == "pohl" else [0, 1, 2]:
            order = TotalOrder.shuffled(n, random.Random(10 * n + k))
            for oracle in (TruthfulOracle(order), TriggeredLiarOracle(order, k, {1, 4})):
                stats = drivers[name](list(range(n)), k, oracle).stats
                phases = stats.phase_breakdown
                assert list(phases) == [phase for phase in PHASES if phase in phases]
                assert all(phases.values())
                assert sum(phases.values()) == stats.comparisons == oracle.queries
                seen.add(tuple(phases))
    assert seen == expected[name]


class TestPohl:
    @pytest.mark.parametrize("n, expected", [(2, 1), (4, 4), (5, 6)])
    def test_exact_counts(self, n, expected):
        order = TotalOrder.shuffled(n, random.Random(n))
        result = pohl_minmax(list(range(n)), TruthfulOracle(order))
        assert result.stats.comparisons == expected == pohl_count(n)

    def test_range_of_sizes(self):
        for n in range(2, 31):
            order = TotalOrder.shuffled(n, random.Random(n))
            oracle = TruthfulOracle(order)
            result = pohl_minmax(list(range(n)), oracle)
            assert result.min == order.min_element()
            assert result.max == order.max_element()
            assert result.stats.comparisons == pohl_count(n)
            assert oracle.queries == result.stats.comparisons

    def test_shuffled_ids(self):
        # Ids out of order: each pair is asked as (smaller id, larger id),
        # and neither the count nor the extrema depend on the listing order.
        rng = random.Random(60)
        for n in range(2, 61):
            items = list(range(n))
            rng.shuffle(items)
            order = TotalOrder.shuffled(n, rng)
            oracle = TruthfulOracle(order)
            result = pohl_minmax(items, oracle)
            assert (result.min, result.max) == (order.min_element(), order.max_element())
            assert result.stats.comparisons == oracle.queries == pohl_count(n)
            pairs = [tuple(sorted(items[i : i + 2])) for i in range(0, n - 1, 2)]
            assert [(a, b) for a, b, _ in list(oracle.transcript)[: n // 2]] == pairs

    @pytest.mark.parametrize(
        "run",
        [
            lambda items, oracle: pohl_minmax(items, oracle),
            lambda items, oracle: simple_minmax(items, 1, oracle),
            lambda items, oracle: improved_minmax(items, 1, oracle),
        ],
        ids=["pohl", "simple", "improved"],
    )
    def test_needs_two_elements(self, run):
        with pytest.raises(ValueError, match="need at least two elements"):
            run([0], TruthfulOracle(TotalOrder(tuple(range(1)))))


def group_plan(n, k):
    """The groups the group driver splits 0..n-1 into at lie budget k: the
    blocks a truthful run hands its sort, then the elements it passes
    through uncertified."""
    certified = []

    def recording(group, oracle):
        certified.append(group)
        return mergesort(group, oracle)

    oracle = TruthfulOracle(TotalOrder(tuple(range(n))), record=False)
    _extrema(recording, False, range(n), k, oracle, _group_size(k))
    seen = {e for group in certified for e in group}
    return certified + [[e] for e in range(n) if e not in seen]


class TestGroupPlan:
    def test_even_split(self):
        assert _group_size(5) == 5
        assert [len(g) for g in group_plan(10, 5)] == [5, 5]

    def test_remainder_group(self):
        assert [len(g) for g in group_plan(11, 5)] == [5, 5, 1]

    def test_small_k_uses_pairs(self):
        assert _group_size(2) == 2
        assert [len(g) for g in group_plan(7, 2)] == [2, 2, 2, 1]

    def test_groups_partition_everything(self):
        flat = [e for g in group_plan(23, 6) for e in g]
        assert sorted(flat) == list(range(23))


class TestSimple:
    def test_two_elements_one_lie_budget(self):
        order = TotalOrder((1, 0))
        oracle = TruthfulOracle(order)
        result = simple_minmax([0, 1], 1, oracle)
        assert (result.min, result.max) == (1, 0)
        # one sort comparison, two verification queries, empty final scans
        assert result.stats.phase_breakdown == {"group-sort": 1, "group-verify": 2}
        assert result.stats.comparisons == 3

    def test_triggered_lie_restarts_exactly_one_group(self):
        k = 2
        n = 8  # groups of two: four groups
        order = TotalOrder(tuple(range(n)))
        items = list(range(n))
        truthful = TruthfulOracle(order)
        baseline = simple_minmax(items, k, truthful)
        assert baseline.stats.restarts == 0
        # first group: 1 sort comparison, then k+1 verification queries;
        # lying on the first verification query (global index 1) aborts the
        # attempt immediately, so the extra cost is exactly 1 + 1 queries.
        oracle = TriggeredLiarOracle(order, k, triggers={1})
        result = simple_minmax(items, k, oracle)
        assert (result.min, result.max) == (baseline.min, baseline.max)
        assert result.stats.restarts == 1
        assert oracle.lies_told == 1
        assert result.stats.comparisons == baseline.stats.comparisons + 2

    def test_checks_reask_each_adjacent_pair_in_position_order(self):
        # After each group's sort come its adjacent output pairs, in position
        # order, each asked k+1 times in a row and answered truthfully.
        k, n = 4, 21  # groups of four, then a lone element that asks nothing
        order = TotalOrder.shuffled(n, random.Random(3))
        oracle = TruthfulOracle(order)
        simple_minmax(list(range(n)), k, oracle)
        records = list(oracle.transcript)
        start = 0
        for group in group_plan(n, k):
            sort = mergesort(group, TruthfulOracle(order))
            start += sort.comparisons
            out = sort.output
            reasks = [
                (a, b, Answer.FIRST_SMALLER) for a, b in zip(out, out[1:]) for _ in range(k + 1)
            ]
            assert records[start : start + len(reasks)] == reasks
            start += len(reasks)
        assert start < len(records)  # the final selections follow

    def test_checks_are_the_completion_of_the_empty_graph(self):
        # Re-asking is completing a graph with no edges: the k+1 copies of
        # each adjacent pair, in the same order.  A group step without credit
        # asks the closed form, so the simple algorithm never calls the
        # completion.
        for m in range(2, 40):
            for k in range(12):
                completion = list(complete_edges(OrderedMultigraph(m), k).items())
                assert list(_reask_checks(m, k).items()) == completion, (m, k)

    # Into the second group's 15 checks: the first re-ask, the last of the
    # first pair, one in the middle and the group's last.
    @pytest.mark.parametrize("offset", [0, 4, 7, 14])
    def test_lie_on_a_reask_restarts_the_group_at_that_query(self, offset):
        k, n = 4, 12
        order = TotalOrder.shuffled(n, random.Random(8))
        items = list(range(n))
        truthful = TruthfulOracle(order)
        baseline = simple_minmax(items, k, truthful)
        pairs = [(a, b) for a, b, _ in truthful.transcript]
        first_group, second_group = group_plan(n, k)[:2]
        first_sort = mergesort(first_group, TruthfulOracle(order)).comparisons
        group_start = first_sort + (k + 1) * (len(first_group) - 1)
        sort_cost = mergesort(second_group, TruthfulOracle(order)).comparisons
        trigger = group_start + sort_cost + offset
        oracle = TriggeredLiarOracle(order, k, triggers={trigger})
        result = simple_minmax(items, k, oracle)
        assert result.stats.restarts == oracle.lies_told == 1
        assert list(oracle.transcript)[trigger][2] is Answer.FIRST_LARGER
        # The failed attempt asks nothing after the lie; the group restarts
        # with the same sort and checks.
        asked = [(a, b) for a, b, _ in oracle.transcript]
        assert asked == pairs[: trigger + 1] + pairs[group_start:]
        breakdown, before = result.stats.phase_breakdown, baseline.stats.phase_breakdown
        assert breakdown["group-sort"] == before["group-sort"] + sort_cost
        assert breakdown["group-verify"] == before["group-verify"] + offset + 1

    def test_accounting_identity_on_identity_order(self):
        k, n = 4, 40
        order = TotalOrder(tuple(range(n)))
        oracle = TruthfulOracle(order)
        result = simple_minmax(list(range(n)), k, oracle)
        groups = n // k
        block_oracle = TruthfulOracle(TotalOrder(tuple(range(k))))
        sort_cost = mergesort(list(range(k)), block_oracle).comparisons
        breakdown = result.stats.phase_breakdown
        assert breakdown["group-sort"] == groups * sort_cost
        assert breakdown["group-verify"] == groups * (k + 1) * (k - 1)
        assert result.stats.comparisons == (
            breakdown["group-sort"]
            + breakdown["group-verify"]
            + breakdown["final-min"]
            + breakdown["final-max"]
        )

    @settings(max_examples=60, deadline=None)
    @given(liar_runs)
    def test_correct_under_lying_oracles(self, run):
        n, k, seed, kind = run
        rng = random.Random(seed)
        order = TotalOrder.shuffled(n, rng)
        oracle = build_liar(kind, order, k, rng)
        result = simple_minmax(list(range(n)), k, oracle)
        assert result.min == order.min_element()
        assert result.max == order.max_element()
        assert result.stats.restarts <= oracle.lies_told <= k

    def test_contract_breaking_oracle_raises(self):
        # Restart k + 1 raises, each restart the proof of one lie.
        order = TotalOrder(tuple(range(6)))
        with pytest.raises(LieBudgetViolation) as exc:
            simple_minmax(list(range(6)), 1, FlipFlopOracle(order))
        assert (exc.value.lies, exc.value.budget) == (2, 1)

    def test_records_every_query_through_the_patch_point(self, monkeypatch):
        # The benchmark's tracer wraps ``core.Transcript.append`` and hands
        # out oracles behind a proxy, which the driver asks one query per
        # check; an oracle that recorded those answers some other way would
        # leave the core layer dark.
        recorded = []
        append = Transcript.append

        def counting(transcript, a, b, answer):
            recorded.append((a, b, answer))
            append(transcript, a, b, answer)

        monkeypatch.setattr(Transcript, "append", counting)
        order = TotalOrder.shuffled(64, random.Random(11))
        oracle = TriggeredLiarOracle(order, 3, [0, 40, 41, 500])
        result = simple_minmax(list(range(64)), 3, QueryOnly(oracle))
        assert result.stats.restarts >= 1
        assert len(recorded) == oracle.queries == len(oracle.transcript)
        assert recorded == list(oracle.transcript)

    def test_a_batched_transcript_equals_the_proxied_one(self):
        # Unproxied, the same liar answers most checks in batches and
        # records them with ``Transcript.extend``: record for record, the
        # transcript the per-query path keeps.
        order = TotalOrder.shuffled(64, random.Random(11))
        batched = TriggeredLiarOracle(order, 3, [0, 40, 41, 500])
        proxied = TriggeredLiarOracle(order, 3, [0, 40, 41, 500])
        result = simple_minmax(list(range(64)), 3, batched)
        assert result == simple_minmax(list(range(64)), 3, QueryOnly(proxied))
        assert result.stats.restarts >= 1
        assert list(batched.transcript) == list(proxied.transcript)
        assert batched.queries == proxied.queries == len(batched.transcript)
        assert batched.lies_told == proxied.lies_told


class TestImproved:
    def test_k0_spends_pohl_count(self):
        for n in (2, 5, 9, 16):
            order = TotalOrder.shuffled(n, random.Random(n))
            result = improved_minmax(list(range(n)), 0, TruthfulOracle(order))
            assert result.stats.comparisons == pohl_count(n)
            assert result.min == order.min_element()
            assert result.max == order.max_element()

    def test_k0_logs_one_completed_report_per_pair(self):
        # At k = 0 the credited group step runs on pairs: one sort comparison
        # each, and the sort graph already meets the one-neighbor demand.
        n = 7
        order = TotalOrder.shuffled(n, random.Random(3))
        log = []
        result = improved_minmax(list(range(n)), 0, TruthfulOracle(order), group_log=log)
        assert (result.min, result.max) == (order.min_element(), order.max_element())
        assert [(g.group_index, g.size) for g in log] == [(0, 2), (1, 2), (2, 2)]
        for report in log:
            assert report.completed and report.restart_reason is None
            assert (report.sort_comparisons, report.added_comparisons) == (1, 0)

    @staticmethod
    def patch_layers(monkeypatch) -> Counter:
        """Count the calls of the three names the benchmark's tracer wraps."""
        calls = Counter()
        for name in ("balanced_quicksort", "complete_edges", "added_edge_pairs"):

            def counting(*args, name=name, inner=getattr(algorithms, name)):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(algorithms, name, counting)
        return calls

    def test_every_pair_attempt_calls_the_patched_layers(self, monkeypatch):
        # The tracer wraps these three names and taps the oracle through a
        # proxy that forwards ``query`` alone, so the driver asks it one query
        # per check; a pair certified without them would leave the sort and
        # graph layers dark.
        calls = self.patch_layers(monkeypatch)
        n = 9
        order = TotalOrder.shuffled(n, random.Random(5))
        result = pohl_minmax(list(range(n)), QueryOnly(TruthfulOracle(order)))
        assert result.stats.restarts == 0
        # One attempt per pair: a truthful run never restarts.
        assert set(calls.values()) == {n // 2} and len(calls) == 3
        calls.clear()
        log = []
        # Query 1 is the first added comparison of group 0: a lie there restarts it.
        oracle = TriggeredLiarOracle(order, 2, triggers={1})
        result = improved_minmax(list(range(n)), 2, QueryOnly(oracle), group_log=log)
        assert result.stats.restarts == 1
        assert set(calls.values()) == {len(log)} and len(calls) == 3

    def test_every_batched_pair_attempt_skips_the_check_expansion(self, monkeypatch):
        # A batched oracle takes the completion's dict as it is: the sort
        # and the completion run once per attempt, the expansion never.
        calls = self.patch_layers(monkeypatch)
        n = 9
        order = TotalOrder.shuffled(n, random.Random(5))
        result = pohl_minmax(list(range(n)), TruthfulOracle(order))
        assert result.stats.restarts == 0
        assert calls == {"balanced_quicksort": n // 2, "complete_edges": n // 2}
        calls.clear()
        log = []
        oracle = TriggeredLiarOracle(order, 2, triggers={1})
        result = improved_minmax(list(range(n)), 2, oracle, group_log=log)
        assert result.stats.restarts == 1
        assert calls == {"balanced_quicksort": len(log), "complete_edges": len(log)}

    def test_every_simple_attempt_calls_the_patched_mergesort_alone(self, monkeypatch):
        # The benchmark's restart-recorded workload runs the simple algorithm
        # and pins that the graph layer never runs: a group step without
        # credit reads its checks from the closed form, not the completion.
        calls = Counter()
        for name in ("mergesort", "balanced_quicksort", "complete_edges", "added_edge_pairs"):

            def counting(*args, name=name, inner=getattr(algorithms, name)):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(algorithms, name, counting)
        n, k = 14, 4
        order = TotalOrder.shuffled(n, random.Random(5))
        # Mergesort of a group of 4 asks at most 5 queries, so query 6 is a
        # re-ask of group 0's first attempt; each lie restarts its group.
        oracle = TriggeredLiarOracle(order, k, triggers={6, 30})
        result = simple_minmax(list(range(n)), k, oracle)
        assert (result.min, result.max) == (order.min_element(), order.max_element())
        assert result.stats.restarts == 2
        attempts = len([g for g in group_plan(n, k) if len(g) > 1]) + result.stats.restarts
        assert calls == {"mergesort": attempts}

    def test_two_elements_spend_k_plus_one(self):
        k = 3
        order = TotalOrder((1, 0))
        oracle = TruthfulOracle(order)
        result = improved_minmax([0, 1], k, oracle)
        assert (result.min, result.max) == (1, 0)
        # the sort comparison plus k added copies certify the pair
        assert result.stats.comparisons == k + 1

    def test_group_reports_respect_completion_bound(self):
        k, n = 4, 40
        for seed in range(5):
            rng = random.Random(seed)
            order = TotalOrder.shuffled(n, rng)
            oracle = RandomLiarOracle(order, k, p=0.2, seed=seed)
            log = []
            result = improved_minmax(list(range(n)), k, oracle, group_log=log)
            assert result.min == order.min_element()
            assert result.max == order.max_element()
            completed = [g for g in log if g.completed]
            assert len(completed) == len([g for g in group_plan(n, k) if len(g) > 1])
            for report in completed:
                bound = (k + 1) * (report.size - 1) + report.thickness
                assert report.sort_comparisons + report.added_comparisons <= bound

    @settings(max_examples=60, deadline=None)
    @given(liar_runs)
    def test_correct_under_lying_oracles(self, run):
        n, k, seed, kind = run
        rng = random.Random(seed)
        order = TotalOrder.shuffled(n, rng)
        oracle = build_liar(kind, order, k, rng)
        result = improved_minmax(list(range(n)), k, oracle)
        assert result.min == order.min_element()
        assert result.max == order.max_element()
        assert result.stats.restarts <= oracle.lies_told <= k

    def test_oversized_group_rejected(self):
        order = TotalOrder(tuple(range(12)))
        with pytest.raises(ValueError):
            improved_minmax(list(range(12)), 4, TruthfulOracle(order), s=7)

    def test_group_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="group size must be at least 2"):
            improved_minmax(list(range(4)), 1, ScriptedOracle([], unexpected_query), s=1)

    def test_contract_breaking_oracle_raises(self):
        order = TotalOrder(tuple(range(8)))
        with pytest.raises(LieBudgetViolation) as exc:
            improved_minmax(list(range(8)), 2, FlipFlopOracle(order))
        assert (exc.value.lies, exc.value.budget) == (3, 2)

    def test_phase_accounting_matches_transcript(self):
        k, n = 5, 23
        order = TotalOrder.shuffled(n, random.Random(1))
        oracle = RandomLiarOracle(order, k, p=0.3, seed=10)
        result = improved_minmax(list(range(n)), k, oracle)
        assert result.stats.comparisons == len(oracle.transcript)

    @pytest.mark.parametrize("kind", ["random", "triggered"])
    def test_group_log_sums_to_phase_totals(self, kind):
        # Attempts that end in a sort inconsistency are charged too.
        k, n = 5, 40
        for seed in range(20):
            rng = random.Random(seed)
            order = TotalOrder.shuffled(n, rng)
            log = []
            result = improved_minmax(
                list(range(n)), k, build_liar(kind, order, k, rng), group_log=log
            )
            phases = result.stats.phase_breakdown
            assert sum(g.sort_comparisons for g in log) == phases["group-sort"]
            assert sum(g.added_comparisons for g in log) == phases["group-verify"]

    def test_truthful_total_bound_from_group_reports(self):
        # no restarts under truth, so the total is the per-group completion
        # bounds plus the two loss-counter scans over the group extrema
        k, n = 5, 23
        order = TotalOrder.shuffled(n, random.Random(8))
        log = []
        result = improved_minmax(list(range(n)), k, TruthfulOracle(order), group_log=log)
        assert result.stats.restarts == 0
        group_cap = sum(
            (k + 1) * (g.size - 1) + g.thickness for g in log
        )
        final_cap = 2 * ((k + 1) * len(group_plan(n, k)) - 1)
        assert result.stats.comparisons <= group_cap + final_cap


class QueryOnly:
    """Forwards ``query`` alone: not one of the oracle types the driver
    batches, so it asks this one query per check."""

    def __init__(self, oracle):
        self.query = oracle.query


class CountingTruthfulOracle(TruthfulOracle):
    """A truthful oracle that counts its ``query`` calls.  Being a subclass,
    it is asked one query per check, so every check reaches the override."""

    def __init__(self, order, record=True):
        super().__init__(order, record)
        self.calls = 0

    def query(self, a, b):
        self.calls += 1
        return super().query(a, b)


def run_improved(items, k, oracle, s, log):
    return improved_minmax(items, k, oracle, s=s, group_log=log)


def run_simple(items, k, oracle, s, log):
    # ``simple_minmax`` is this call without the group log.
    return _extrema(mergesort, False, items, k, oracle, _group_size(k), log)


def run_pohl(items, k, oracle, s, log):
    return pohl_minmax(items, oracle)


def equivalence_cases():
    """(run, n, k, s, seed): seeded runs at n <= 300 and k <= 64, pohl at
    k = 0, and the benchmark's certify-truthful configuration."""
    cases = [(run_improved, 2048, 32, None, 0), (run_pohl, 301, 0, None, 1)]
    for seed in range(16):
        rng = random.Random(seed)
        n, k = rng.randint(2, 300), rng.randint(0, 64)
        s = rng.choice([None, rng.randint(2, k + 2)])
        cases += [(run_improved, n, k, s, seed), (run_simple, n, k, None, seed)]
        cases.append((run_pohl, rng.randint(2, 300), 0, None, seed))
    return cases


def both_paths(run, n, k, s, seed, build, edit=None):
    """Run ``run`` on a fresh ``build(order)`` oracle as it is and behind
    ``QueryOnly``; for each, (outcome, group log, queries, lies told,
    transcript), where the outcome is the extrema and stats, the raised
    budget violation or the raised invalid query.  ``edit``, if given, maps
    the shuffled item list to the one both runs get."""
    order = TotalOrder.shuffled(n, random.Random(seed))
    items = random.Random(seed + 1).sample(range(n), n)
    if edit is not None:
        items = edit(items)
    sides = []
    for wrap in (lambda oracle: oracle, QueryOnly):
        oracle, log = build(order), []
        try:
            result = run(list(items), k, wrap(oracle), s, log)
            outcome = (result.min, result.max, result.stats)
        except LieBudgetViolation as exc:
            outcome = (LieBudgetViolation, exc.lies, exc.budget)
        except InvalidQuery as exc:
            outcome = (InvalidQuery, str(exc))
        sides.append((outcome, log, oracle.queries, oracle.lies_told, list(oracle.transcript)))
    return order, sides


def query_spans(run, n, k, s, seed):
    """The (first index, count) of each stretch of queries in the truthful
    run that ``both_paths`` makes with these arguments: one list of spans
    per group for ``"sort"`` and ``"checks"``, one span for ``"final-min"``
    and ``"final-max"``.  A lie scheduled in one of them, the first lie of a
    run, falls on that query."""
    spans, index = {"sort": [], "checks": []}, 0
    _, sides = both_paths(run, n, k, s, seed, TruthfulOracle)
    outcome, log = sides[0][:2]
    for report in log:
        counts = (("sort", report.sort_comparisons), ("checks", report.added_comparisons))
        for name, count in counts:
            spans[name].append((index, count))
            index += count
    for phase in ("final-min", "final-max"):
        count = outcome[2].phase_breakdown[phase]
        spans[phase] = (index, count)
        index += count
    return spans


class TestCheckFastPath:
    """An oracle whose type is exactly ``TruthfulOracle``,
    ``TriggeredLiarOracle`` or ``RandomLiarOracle`` answers a group's checks
    in one ``ask_checks`` call, and a sort or final selection that no lie
    can reach from its ranks; every other oracle is asked one query per
    comparison.  Each case here compares that path with the per-query one
    behind ``QueryOnly``."""

    @pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
    @pytest.mark.parametrize(
        "run, n, k, s, seed",
        equivalence_cases(),
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_batch_path_matches_the_per_query_path(self, run, n, k, s, seed, record):
        order = TotalOrder.shuffled(n, random.Random(seed))
        items = random.Random(seed + 1).sample(range(n), n)
        batch = TruthfulOracle(order, record)
        single = TruthfulOracle(order, record)
        batch_log, single_log = [], []
        fast = run(list(items), k, batch, s, batch_log)
        slow = run(list(items), k, QueryOnly(single), s, single_log)
        assert (fast.min, fast.max) == (slow.min, slow.max)
        assert (fast.min, fast.max) == (order.min_element(), order.max_element())
        assert fast.stats == slow.stats
        assert batch_log == single_log
        assert batch.queries == single.queries == fast.stats.comparisons
        if record:
            assert list(batch.transcript) == list(single.transcript)
        else:
            assert batch.transcript is single.transcript is None

    # A trigger on the first, middle or last of the second group's checks:
    # 15 in a simple run of 60 at k = 4, (4 - 1) * 5 re-asks, and 11 in an
    # improved one.
    @pytest.mark.parametrize("run", [run_simple, run_improved], ids=["simple", "improved"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_lie_inside_a_batch_matches_the_per_query_path(self, run, where):
        n, k, seed = 60, 4, 3
        start, count = query_spans(run, n, k, None, seed)["checks"][1]
        assert count >= 3
        trigger = start + {"first": 0, "middle": count // 2, "last": count - 1}[where]
        order, (batch, single) = both_paths(
            run, n, k, None, seed, lambda order: TriggeredLiarOracle(order, k, [trigger])
        )
        assert batch == single
        outcome, log, queries, lies, transcript = batch
        assert (outcome[:2], lies) == ((order.min_element(), order.max_element()), 1)
        assert outcome[2].restarts == 1
        assert not log[1].completed and log[1].added_comparisons == trigger - start + 1
        assert transcript[trigger][2] is Answer.FIRST_LARGER
        assert queries == len(transcript) == outcome[2].comparisons

    # A trigger on the first, middle or last query of the second group's
    # sort, or on the first or last query of a final selection, in the same
    # runs: the stretch that holds it goes through ``query``, and the ones
    # around it, which end right before it or start right after it, do not.
    @pytest.mark.parametrize("run", [run_simple, run_improved], ids=["simple", "improved"])
    @pytest.mark.parametrize(
        "stretch, where",
        [
            ("sort", "first"),
            ("sort", "middle"),
            ("sort", "last"),
            ("final-min", "first"),
            ("final-min", "last"),
            ("final-max", "first"),
            ("final-max", "last"),
        ],
    )
    def test_a_lie_inside_a_sort_or_selection_matches_the_per_query_path(
        self, run, stretch, where
    ):
        n, k, seed = 60, 4, 3
        spans = query_spans(run, n, k, None, seed)
        start, count = spans[stretch] if stretch.startswith("final") else spans[stretch][1]
        assert count >= 3
        trigger = start + {"first": 0, "middle": count // 2, "last": count - 1}[where]
        order, (batch, single) = both_paths(
            run, n, k, None, seed, lambda order: TriggeredLiarOracle(order, k, [trigger])
        )
        assert batch == single
        outcome, _, queries, lies, transcript = batch
        assert (outcome[:2], lies) == ((order.min_element(), order.max_element()), 1)
        assert count_lies(transcript, order) == 1
        assert queries == len(transcript) == outcome[2].comparisons

    # Items 5 and 6 are equal, so the first group holds a repeated item:
    # its sort's first self-comparison raises on both paths.  Then the same
    # element is made the minimum of two groups, so only the final minimum
    # compares it with itself.
    @pytest.mark.parametrize("run", [run_simple, run_improved], ids=["simple", "improved"])
    @pytest.mark.parametrize("where", ["sort", "selection"])
    def test_a_repeated_item_raises_alike_on_both_paths(self, run, where):
        n, k, seed = 40, 8, 2
        low = TotalOrder.shuffled(n, random.Random(seed)).min_element()

        def edit(items):
            if where == "sort":
                return items[:6] + [items[5]] + items[7:]
            # Another group's first item becomes the minimum as well.
            other = (items.index(low) + _group_size(k)) % n
            return [low if i == other else x for i, x in enumerate(items)]

        _, (batch, single) = both_paths(run, n, k, None, seed, TruthfulOracle, edit)
        assert batch == single
        outcome, _, queries, _, transcript = batch
        assert outcome[0] is InvalidQuery
        assert queries == len(transcript) > 0

    @pytest.mark.parametrize("run", [run_simple, run_improved], ids=["simple", "improved"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_triggers_past_a_spent_budget_match_the_per_query_path(self, run, k):
        # Every query index is a trigger: the first k sort queries lie, and
        # every later batch holds triggers that the spent budget ignores.
        n = 50
        order, (batch, single) = both_paths(
            run, n, k, None, 4, lambda order: TriggeredLiarOracle(order, k, range(4000))
        )
        assert batch == single
        outcome, _, queries, lies, transcript = batch
        assert outcome[:2] == (order.min_element(), order.max_element())
        assert lies == k and count_lies(transcript, order) == k
        assert queries == len(transcript) == outcome[2].comparisons

    @pytest.mark.parametrize("run", [run_simple, run_improved], ids=["simple", "improved"])
    @pytest.mark.parametrize("p", [0.2, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_a_random_liar_matches_the_per_query_path(self, run, p, seed):
        rng = random.Random(seed)
        n, k = rng.randint(2, 200), rng.randint(1, 10)
        order, (batch, single) = both_paths(
            run, n, k, None, seed, lambda order: RandomLiarOracle(order, k, p, seed + 50)
        )
        assert batch == single
        outcome, _, queries, lies, transcript = batch
        assert outcome[:2] == (order.min_element(), order.max_element())
        assert outcome[2].restarts <= lies <= k
        assert queries == len(transcript) == outcome[2].comparisons

    def test_a_tapped_oracle_sends_every_query_through_its_proxy(self):
        # The benchmark's tracer hands out oracles behind ``TappedOracle``;
        # its golden query digest needs every check to reach the tap.
        n, k = 2048, 32
        inner = TruthfulOracle(TotalOrder.shuffled(n, random.Random(5)), record=False)
        tapped = []

        def query(a, b):
            tapped.append((a, b))
            return inner.query(a, b)

        result = improved_minmax(list(range(n)), k, TappedOracle(inner, query))
        assert result.stats.phase_breakdown["group-verify"] > 0
        assert len(tapped) == inner.queries == result.stats.comparisons

    # Only a stretch that may meet a lie goes through ``query``.  A truthful
    # oracle and a triggered liar whose one trigger lies past the run have
    # none; the random liar consults every index while budget remains, so its
    # first group's first sort goes through ``query``, spends the budget on
    # its first k queries, and leaves every later stretch lie-free.
    @pytest.mark.parametrize("run", [run_simple, run_improved], ids=["simple", "improved"])
    @pytest.mark.parametrize(
        "build, lies",
        [
            (lambda order: TruthfulOracle(order, record=False), 0),
            (lambda order: TruthfulOracle(order), 0),
            (lambda order: TriggeredLiarOracle(order, 32, [10**9]), 0),
            (lambda order: RandomLiarOracle(order, 32, 1.0, seed=5), 32),
        ],
        ids=["truthful-unrecorded", "truthful-recorded", "triggered-liar", "random-liar"],
    )
    def test_an_untapped_run_calls_query_only_where_a_lie_may_fall(
        self, monkeypatch, run, build, lies
    ):
        n, k = 2048, 32
        oracle = build(TotalOrder.shuffled(n, random.Random(5)))
        calls = []
        query = LyingOracle.query

        def counted(self, a, b):
            calls.append((a, b))
            return query(self, a, b)

        monkeypatch.setattr(LyingOracle, "query", counted)
        log = []
        result = run(list(range(n)), k, oracle, None, log)
        phases = result.stats.phase_breakdown
        assert phases["group-verify"] > 0 and phases["final-min"] > 0
        assert oracle.lies_told == lies
        assert len(calls) == (log[0].sort_comparisons if lies else 0)
        assert oracle.queries == result.stats.comparisons

    def test_a_subclass_that_overrides_query_is_asked_every_check(self):
        n, k = 300, 4
        oracle = CountingTruthfulOracle(TotalOrder.shuffled(n, random.Random(6)), record=False)
        result = improved_minmax(list(range(n)), k, oracle)
        assert result.stats.phase_breakdown["group-verify"] > 0
        assert oracle.calls == oracle.queries == result.stats.comparisons
