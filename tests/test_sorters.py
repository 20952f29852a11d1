import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarminmax.core import Answer, TotalOrder
from liarminmax.oracles import (
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
)
from liarminmax.sorters import SortInconsistency, balanced_quicksort, mergesort
from test_acceptance import THICKNESS_CT


def mergesort_cap(s):
    return s * (s - 1).bit_length() if s > 1 else 0


class TestMergesort:
    def test_single_item(self):
        out = mergesort([3], TruthfulOracle(TotalOrder.identity(4)))
        assert out.output == [3]
        assert out.comparisons == 0

    def test_pair(self):
        order = TotalOrder((1, 0))
        out = mergesort([0, 1], TruthfulOracle(order))
        assert out.output == [1, 0]
        assert out.comparisons == 1

    def test_all_permutations_of_four(self):
        order = TotalOrder.identity(4)
        for perm in permutations(range(4)):
            out = mergesort(list(perm), TruthfulOracle(order))
            assert out.output == [0, 1, 2, 3]
            assert out.comparisons <= 5

    @settings(max_examples=60)
    @given(st.integers(1, 64), st.integers(0, 2**31))
    def test_truthful_sorts_within_cap(self, s, seed):
        rng = random.Random(seed)
        order = TotalOrder.shuffled(s, rng)
        items = list(range(s))
        rng.shuffle(items)
        out = mergesort(items, TruthfulOracle(order))
        assert out.output == order.ascending()
        assert out.comparisons <= mergesort_cap(s)
        assert out.consistent

    def test_no_pair_queried_twice(self):
        rng = random.Random(11)
        order = TotalOrder.shuffled(20, rng)
        oracle = TruthfulOracle(order)
        out = mergesort(list(range(20)), oracle)
        pairs = [(min(a, b), max(a, b)) for a, b, _ in oracle.transcript]
        assert len(pairs) == len(set(pairs)) == out.comparisons
        assert all(m == 1 for m in out.graph.edges.values())

    def test_lying_oracle_still_outputs_a_permutation(self):
        order = TotalOrder.identity(9)
        oracle = RandomLiarOracle(order, k=3, p=0.8, seed=2)
        out = mergesort(list(range(9)), oracle)
        assert sorted(out.output) == list(range(9))

    def test_truthful_determinism(self):
        order = TotalOrder.shuffled(12, random.Random(5))
        items = list(range(12))
        a = mergesort(items, TruthfulOracle(order))
        b = mergesort(items, TruthfulOracle(order))
        assert a.output == b.output
        assert a.comparisons == b.comparisons
        assert a.graph.edges == b.graph.edges


class TestMedianSelect:
    """The median split at each level of balanced quicksort."""

    def test_single_item(self):
        oracle = TruthfulOracle(TotalOrder.identity(1))
        out = balanced_quicksort([0], oracle)
        assert out.output == [0]
        assert oracle.queries == 0

    def test_five_items_truthful(self):
        order = TotalOrder((3, 1, 4, 0, 2))
        out = balanced_quicksort([0, 1, 2, 3, 4], TruthfulOracle(order))
        assert [order.rank[x] for x in out.output] == [0, 1, 2, 3, 4]
        assert out.consistent

    def test_partition_lie_detected(self):
        # A lie on some query must eventually produce wrong side sizes for m=4.
        order = TotalOrder.identity(4)
        items = [2, 0, 3, 1]
        truthful = TruthfulOracle(order)
        balanced_quicksort(items, truthful)
        total = truthful.queries
        failures = []
        for trigger in range(total):
            oracle = TriggeredLiarOracle(order, k=1, triggers={trigger})
            try:
                balanced_quicksort(items, oracle)
            except SortInconsistency as exc:
                failures.append((trigger, exc.reason))
        assert failures, "no single lie produced an inconsistent partition"
        assert any("partition" in reason for _, reason in failures)


class TestBalancedQuicksort:
    def test_single_item(self):
        out = balanced_quicksort([5], TruthfulOracle(TotalOrder.identity(6)))
        assert out.output == [5]
        assert out.comparisons == 0
        assert out.graph.thickness() == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 48), st.integers(0, 2**31))
    def test_truthful_sorts_and_never_inconsistent(self, s, seed):
        rng = random.Random(seed)
        order = TotalOrder.shuffled(s, rng)
        items = list(range(s))
        rng.shuffle(items)
        out = balanced_quicksort(items, TruthfulOracle(order))
        assert out.output == order.ascending()
        assert out.consistent
        assert out.comparisons <= s * (s - 1) // 2

    def test_eight_items_thickness_within_threshold(self):
        order = TotalOrder.shuffled(8, random.Random(3))
        out = balanced_quicksort(list(range(8)), TruthfulOracle(order))
        assert out.output == order.ascending()
        assert out.graph.thickness() <= THICKNESS_CT * 8

    def test_single_lie_can_force_inconsistency(self):
        order = TotalOrder.identity(16)
        items = list(range(16))
        random.Random(0).shuffle(items)
        truthful = TruthfulOracle(order)
        balanced_quicksort(items, truthful)
        total = truthful.queries
        seen_inconsistency = False
        for trigger in range(total):
            oracle = TriggeredLiarOracle(order, k=1, triggers={trigger})
            try:
                balanced_quicksort(items, oracle)
            except SortInconsistency:
                seen_inconsistency = True
                break
        assert seen_inconsistency, "no single lie triggered the partition checks"

    def test_memoization_keeps_graph_simple(self):
        order = TotalOrder.shuffled(20, random.Random(7))
        oracle = RandomLiarOracle(order, k=2, p=0.3, seed=9)
        try:
            out = balanced_quicksort(list(range(20)), oracle)
        except SortInconsistency:
            return
        pairs = [(min(a, b), max(a, b)) for a, b, _ in oracle.transcript]
        assert len(pairs) == len(set(pairs)) == out.comparisons
        assert all(m == 1 for m in out.graph.edges.values())

    def test_replay_reproduces_identical_outcome(self):
        order = TotalOrder.shuffled(15, random.Random(21))
        oracle = RandomLiarOracle(order, k=3, p=0.4, seed=4)
        items = list(range(15))
        try:
            original = balanced_quicksort(items, oracle)
        except SortInconsistency:
            pytest.skip("this seed trips the size checks before finishing")
        replay = ScriptedOracle([answer for _, _, answer in oracle.transcript])
        repeated = balanced_quicksort(items, replay)
        assert repeated.output == original.output
        assert repeated.comparisons == original.comparisons
        assert repeated.graph.edges == original.graph.edges
        assert repeated.consistent == original.consistent


def test_mergesort_replay_reproduces_identical_outcome():
    order = TotalOrder.shuffled(13, random.Random(2))
    oracle = RandomLiarOracle(order, k=2, p=0.5, seed=8)
    items = list(range(13))
    original = mergesort(items, oracle)
    replay = ScriptedOracle([answer for _, _, answer in oracle.transcript])
    repeated = mergesort(items, replay)
    assert repeated.output == original.output
    assert repeated.graph.edges == original.graph.edges


def test_graph_covers_every_compared_pair_in_output_coordinates():
    order = TotalOrder.shuffled(10, random.Random(6))
    oracle = TruthfulOracle(order)
    out = mergesort(list(range(10)), oracle)
    position = {e: i + 1 for i, e in enumerate(out.output)}
    expected = set()
    for a, b, _ in oracle.transcript:
        pa, pb = position[a], position[b]
        expected.add((min(pa, pb), max(pa, pb)))
    assert set(out.graph.edges) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([mergesort, balanced_quicksort]),
    st.integers(1, 24),
    st.integers(0, 4),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
)
def test_outcome_matches_its_transcript(sort, s, k, p, seed):
    # The outcome is rebuilt from the recorded answers alone: the verdict
    # against the output order, and each compared pair once in output
    # coordinates.
    rng = random.Random(seed)
    order = TotalOrder.shuffled(s, rng)
    items = list(range(s))
    rng.shuffle(items)
    oracle = RandomLiarOracle(order, k, p, seed)
    try:
        out = sort(items, oracle)
    except SortInconsistency:
        return
    position = {e: i + 1 for i, e in enumerate(out.output)}
    consistent = True
    pairs = []
    for a, b, answer in oracle.transcript:
        pa, pb = position[a], position[b]
        consistent = consistent and (pa < pb) == (answer is Answer.FIRST_SMALLER)
        pairs.append((min(pa, pb), max(pa, pb)))
    assert out.consistent == consistent
    assert out.graph.edges == dict.fromkeys(pairs, 1)
    assert len(set(pairs)) == out.comparisons == len(oracle.transcript)


def test_quicksort_can_return_an_inconsistent_order():
    # Two lies that the partition sizes do not catch: the sort returns, and
    # the answer "0 larger than 1" contradicts 0 coming first.
    order = TotalOrder.shuffled(5, random.Random(45))
    oracle = RandomLiarOracle(order, k=2, p=0.3, seed=45)
    out = balanced_quicksort(list(range(5)), oracle)
    assert oracle.lies_told == 2
    assert out.output == [0, 4, 3, 2, 1] != order.ascending()
    assert out.comparisons == 9
    assert not out.consistent


class ConstantOracle:
    """Gives the same answer to every query, whatever the pair."""

    def __init__(self, answer):
        self.answer = answer

    def query(self, a, b):
        return self.answer


class PairLog:
    """Passes queries through and keeps every unordered pair asked."""

    def __init__(self, inner):
        self.inner = inner
        self.pairs = []

    def query(self, a, b):
        self.pairs.append((min(a, b), max(a, b)))
        return self.inner.query(a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from(["random-liar", "first-smaller", "first-larger"]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
    st.sampled_from([balanced_quicksort, mergesort]),
)
def test_any_answers_stay_within_all_pairs(s, kind, p, seed, sorter):
    """On any answers a sort attempt returns or raises SortInconsistency,
    never asks a pair twice, and so spends at most s(s-1)/2 queries."""
    rng = random.Random(seed)
    if kind == "random-liar":
        inner = RandomLiarOracle(TotalOrder.shuffled(s, rng), s * s, p, seed=seed)
    elif kind == "first-smaller":
        inner = ConstantOracle(Answer.FIRST_SMALLER)
    else:
        inner = ConstantOracle(Answer.FIRST_LARGER)
    oracle = PairLog(inner)
    items = list(range(s))
    rng.shuffle(items)
    try:
        sorter(items, oracle)
    except SortInconsistency as exc:
        assert exc.comparisons == len(oracle.pairs)
    assert len(oracle.pairs) == len(set(oracle.pairs))
    assert len(oracle.pairs) <= s * (s - 1) // 2


# --- the balanced quicksort as it stood before its two-element base case -----


class ReferenceQuicksort:
    """Balanced quicksort with a general case at every size: the reference
    for ``balanced_quicksort``'s queries, outcome and inconsistency."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.memo = {}

    def less(self, a, b):
        key = (min(a, b), max(a, b))
        if key not in self.memo:
            self.memo[key] = self.oracle.query(*key) is Answer.FIRST_SMALLER
        return self.memo[key] != (a > b)

    def insertion(self, seq):
        out = []
        for x in seq:
            i = len(out)
            while i > 0 and self.less(x, out[i - 1]):
                i -= 1
            out.insert(i, x)
        return out

    def partition(self, seq, pivot):
        smaller, larger = [], []
        for x in seq:
            if x != pivot:
                (smaller if self.less(x, pivot) else larger).append(x)
        return smaller, larger

    def select_kth(self, seq, rank):
        while True:
            if len(seq) <= 5:
                return self.insertion(seq)[rank - 1]
            medians = []
            for i in range(0, len(seq), 5):
                chunk = seq[i : i + 5]
                medians.append(self.insertion(chunk)[(len(chunk) - 1) // 2])
            pivot = self.select_kth(medians, (len(medians) + 1) // 2)
            smaller, larger = self.partition(seq, pivot)
            if rank <= len(smaller):
                seq = smaller
            elif rank == len(smaller) + 1:
                return pivot
            else:
                rank -= len(smaller) + 1
                seq = larger

    def sort(self, seq):
        m = len(seq)
        if m <= 1:
            return seq
        target = (m + 1) // 2
        median = self.select_kth(seq, target)
        smaller, larger = self.partition(seq, median)
        if len(smaller) != target - 1:
            raise SortInconsistency(
                f"partition sizes off: {len(smaller)}/{len(larger)} around claimed median of {m}",
                len(self.memo),
            )
        return self.sort(smaller) + [median] + self.sort(larger)

    def outcome(self, items):
        """(output, edges, comparisons, consistent), or the inconsistency's
        (reason, comparisons)."""
        try:
            output = self.sort(list(items))
        except SortInconsistency as exc:
            return exc.reason, exc.comparisons
        position = {element: index + 1 for index, element in enumerate(output)}
        edges = {}
        consistent = True
        for (lo, hi), lo_smaller in self.memo.items():
            p, q = position[lo], position[hi]
            consistent = consistent and (p < q) == lo_smaller
            edges[(min(p, q), max(p, q))] = 1
        return output, edges, len(self.memo), consistent


def assert_quicksort_asks_like_the_reference(items, make_oracle):
    """Same transcript, and the same outcome or the same inconsistency;
    returns whether the sort raised."""
    oracle = make_oracle()
    try:
        out = balanced_quicksort(items, oracle)
        got = out.output, out.graph.edges, out.comparisons, out.consistent
    except SortInconsistency as exc:
        got = exc.reason, exc.comparisons
    reference_oracle = make_oracle()
    expected = ReferenceQuicksort(reference_oracle).outcome(items)
    assert oracle.transcript.records == reference_oracle.transcript.records, items
    assert got == expected, items
    return len(got) == 2


def test_quicksort_asks_like_the_reference_on_every_small_order():
    for s in range(1, 7):
        items = list(range(s))
        for index, rank in enumerate(permutations(range(s))):
            order = TotalOrder(rank)
            assert_quicksort_asks_like_the_reference(items, lambda: TruthfulOracle(order))
            assert_quicksort_asks_like_the_reference(
                items, lambda: RandomLiarOracle(order, 2, 0.3, seed=index)
            )


@pytest.mark.parametrize("s", [2, 3, 32, 33, 64])
def test_quicksort_asks_like_the_reference_on_seeded_orders(s):
    inconsistent = 0
    for seed in range(20):
        rng = random.Random(seed)
        order = TotalOrder.shuffled(s, rng)
        items = list(range(s))
        rng.shuffle(items)
        assert_quicksort_asks_like_the_reference(items, lambda: TruthfulOracle(order))
        for k, p in ((1, 0.5), (4, 0.2)):
            inconsistent += assert_quicksort_asks_like_the_reference(
                items, lambda: RandomLiarOracle(order, k, p, seed=seed)
            )
    # The larger sizes raise on some seeds, so the inconsistency path is compared too.
    assert s < 32 or inconsistent > 0
