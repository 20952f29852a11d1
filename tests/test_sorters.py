import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarminmax import algorithms, sorters
from liarminmax.algorithms import (
    improved_minmax,
    mergesort_comparison_cap,
    pohl_minmax,
    simple_minmax,
)
from liarminmax.core import Answer, TotalOrder
from liarminmax.oracles import (
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
)
from liarminmax.sorters import SortInconsistency, balanced_quicksort, mergesort
from flow_reference import sort_graph
from test_acceptance import THICKNESS_CT
from test_algorithms import QueryOnly


def ascending(order):
    """Element ids from smallest to largest under the hidden order."""
    return sorted(range(order.n), key=order.rank.__getitem__)


def quicksort_result(items, oracle):
    """(output, graph edges, comparisons) of a returned quicksort, or its
    inconsistency's (reason, comparisons)."""
    try:
        out = balanced_quicksort(items, oracle)
    except SortInconsistency as exc:
        return exc.reason, exc.comparisons
    return out.output, sort_graph(out).edges, out.comparisons


def replaying(oracle):
    """A scripted oracle that replays ``oracle``'s transcript and fails the
    test on any query past its end."""

    def past_the_end(a, b):
        pytest.fail(f"the replay asked ({a}, {b}) past the recorded transcript")

    return ScriptedOracle([answer for _, _, answer in oracle.transcript], past_the_end)


def answers_agree(out):
    """Whether every answer a returned sort read agrees with its output."""
    position = {element: index for index, element in enumerate(out.output)}
    return all(
        (position[lo] < position[hi]) == lo_smaller for (lo, hi), lo_smaller in out.answers.items()
    )


class TestMergesort:
    def test_single_item(self):
        out = mergesort([3], TruthfulOracle(TotalOrder(tuple(range(4)))))
        assert out.output == [3]
        assert out.comparisons == 0

    def test_pair(self):
        order = TotalOrder((1, 0))
        out = mergesort([0, 1], TruthfulOracle(order))
        assert out.output == [1, 0]
        assert out.comparisons == 1

    def test_all_permutations_of_four(self):
        order = TotalOrder(tuple(range(4)))
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
        assert out.output == ascending(order)
        assert out.comparisons <= mergesort_comparison_cap(s)
        assert answers_agree(out)

    def test_no_pair_queried_twice(self):
        rng = random.Random(11)
        order = TotalOrder.shuffled(20, rng)
        oracle = TruthfulOracle(order)
        out = mergesort(list(range(20)), oracle)
        pairs = [(min(a, b), max(a, b)) for a, b, _ in oracle.transcript]
        assert len(pairs) == len(set(pairs)) == out.comparisons
        assert all(m == 1 for m in sort_graph(out).edges.values())

    def test_lying_oracle_still_outputs_a_permutation(self):
        order = TotalOrder(tuple(range(9)))
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
        assert a.degree_profile() == b.degree_profile()
        assert sort_graph(a).edges == sort_graph(b).edges


class TestQuicksortMedianSplit:
    """The median split at each level of balanced quicksort."""

    def test_single_item(self):
        oracle = TruthfulOracle(TotalOrder(tuple(range(1))))
        out = balanced_quicksort([0], oracle)
        assert out.output == [0]
        assert oracle.queries == 0

    def test_five_items_truthful(self):
        order = TotalOrder((3, 1, 4, 0, 2))
        out = balanced_quicksort([0, 1, 2, 3, 4], TruthfulOracle(order))
        assert [order.rank[x] for x in out.output] == [0, 1, 2, 3, 4]
        assert answers_agree(out)

    def test_partition_lie_detected(self):
        # A lie on some query must eventually produce wrong side sizes for m=4.
        order = TotalOrder(tuple(range(4)))
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
        out = balanced_quicksort([5], TruthfulOracle(TotalOrder(tuple(range(6)))))
        assert out.output == [5]
        assert out.comparisons == 0
        assert out.thickness() == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 48), st.integers(0, 2**31))
    def test_truthful_sorts_and_never_inconsistent(self, s, seed):
        rng = random.Random(seed)
        order = TotalOrder.shuffled(s, rng)
        items = list(range(s))
        rng.shuffle(items)
        out = balanced_quicksort(items, TruthfulOracle(order))
        assert out.output == ascending(order)
        assert answers_agree(out)
        assert out.comparisons <= s * (s - 1) // 2

    def test_eight_items_thickness_within_threshold(self):
        order = TotalOrder.shuffled(8, random.Random(3))
        out = balanced_quicksort(list(range(8)), TruthfulOracle(order))
        assert out.output == ascending(order)
        assert out.thickness() <= THICKNESS_CT * 8

    def test_single_lie_can_force_inconsistency(self):
        order = TotalOrder(tuple(range(16)))
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
        assert all(m == 1 for m in sort_graph(out).edges.values())

    def test_replay_reproduces_identical_outcome(self):
        # A replay of the answers returns the same outcome, or raises the
        # same inconsistency: p=0.4 contradicts the output, and p=0.02 tells
        # one lie that the sort returns on.
        order = TotalOrder.shuffled(15, random.Random(21))
        items = list(range(15))
        results = []
        for p, seed in ((0.4, 4), (0.02, 8)):
            oracle = RandomLiarOracle(order, k=3, p=p, seed=seed)
            original = quicksort_result(items, oracle)
            replay = replaying(oracle)
            assert quicksort_result(items, replay) == original
            results.append(original if len(original) == 2 else oracle.lies_told)
        assert results == [("sort answers contradict the claimed order", 63), 1]


def test_mergesort_replay_reproduces_identical_outcome():
    order = TotalOrder.shuffled(13, random.Random(2))
    oracle = RandomLiarOracle(order, k=2, p=0.5, seed=8)
    items = list(range(13))
    original = mergesort(items, oracle)
    replay = replaying(oracle)
    repeated = mergesort(items, replay)
    assert repeated.output == original.output
    assert repeated.degree_profile() == original.degree_profile()
    assert sort_graph(repeated).edges == sort_graph(original).edges


def test_graph_covers_every_compared_pair_in_output_coordinates():
    order = TotalOrder.shuffled(10, random.Random(6))
    oracle = TruthfulOracle(order)
    out = mergesort(list(range(10)), oracle)
    position = {e: i + 1 for i, e in enumerate(out.output)}
    expected = set()
    for a, b, _ in oracle.transcript:
        pa, pb = position[a], position[b]
        expected.add((min(pa, pb), max(pa, pb)))
    assert set(sort_graph(out).edges) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([mergesort, balanced_quicksort]),
    st.integers(1, 24),
    st.integers(0, 4),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
)
def test_outcome_matches_its_transcript(sort, s, k, p, seed):
    # The outcome is rebuilt from the recorded answers alone: the answers by
    # pair, their agreement with the output order, and each compared pair
    # once in output coordinates.
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
    answers = {}
    for a, b, answer in oracle.transcript:
        pa, pb = position[a], position[b]
        consistent = consistent and (pa < pb) == (answer is Answer.FIRST_SMALLER)
        pairs.append((min(pa, pb), max(pa, pb)))
        answers[min(a, b), max(a, b)] = (answer is Answer.FIRST_SMALLER) == (a < b)
    assert out.answers == answers
    assert consistent
    assert sort_graph(out).edges == dict.fromkeys(pairs, 1)
    assert len(set(pairs)) == out.comparisons == len(oracle.transcript)


def test_quicksort_raises_on_answers_against_its_output():
    # Two lies that the partition sizes do not catch: the sort would output
    # [0, 4, 3, 2, 1], and the answer "0 larger than 1" contradicts 0 coming
    # first, so it raises after its ninth and last query.
    order = TotalOrder.shuffled(5, random.Random(45))
    oracle = RandomLiarOracle(order, k=2, p=0.3, seed=45)
    with pytest.raises(SortInconsistency) as exc:
        balanced_quicksort(list(range(5)), oracle)
    assert oracle.lies_told == 2
    assert (exc.value.reason, exc.value.comparisons) == (
        "sort answers contradict the claimed order",
        9,
    )
    replay = ReferenceQuicksort(replaying(oracle))
    assert replay.sort(list(range(5))) == [0, 4, 3, 2, 1] != ascending(order)
    assert (replay.memo[(0, 1)], len(replay.memo)) == (False, 9)


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
        """(output, edges, comparisons), or the inconsistency's (reason,
        comparisons), where answers against the output are one too."""
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
        if not consistent:
            return "sort answers contradict the claimed order", len(self.memo)
        return output, edges, len(self.memo)


def assert_quicksort_asks_like_the_reference(items, make_oracle):
    """Same transcript, and the same outcome or the same inconsistency;
    returns whether the sort raised."""
    oracle = make_oracle()
    got = quicksort_result(items, oracle)
    reference_oracle = make_oracle()
    expected = ReferenceQuicksort(reference_oracle).outcome(items)
    assert list(oracle.transcript) == list(reference_oracle.transcript), items
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


# --- mergesort as it stood with a memoized comparison session ----------------


class ReferenceMergesort(ReferenceQuicksort):
    """Top-down mergesort through the memo and outcome of
    ``ReferenceQuicksort``: the reference for ``mergesort``'s queries and
    outcome, which asks each pair directly and keeps no memo."""

    def sort(self, seq):
        if len(seq) <= 1:
            return seq
        mid = len(seq) // 2
        left, right = self.sort(seq[:mid]), self.sort(seq[mid:])
        merged = []
        i = j = 0
        while i < len(left) and j < len(right):
            if self.less(right[j], left[i]):
                merged.append(right[j])
                j += 1
            else:
                merged.append(left[i])
                i += 1
        return merged + left[i:] + right[j:]


def assert_mergesort_asks_like_the_reference(items, make_oracle):
    """Same transcript, output, graph edges and comparisons; the reference's
    answers agree with its output too."""
    oracle = make_oracle()
    out = mergesort(items, oracle)
    reference_oracle = make_oracle()
    expected = ReferenceMergesort(reference_oracle).outcome(items)
    assert list(oracle.transcript) == list(reference_oracle.transcript), items
    assert (out.output, sort_graph(out).edges, out.comparisons) == expected, items


def test_mergesort_asks_like_the_reference_on_every_small_order():
    for s in range(1, 7):
        items = list(range(s))
        for index, rank in enumerate(permutations(range(s))):
            order = TotalOrder(rank)
            assert_mergesort_asks_like_the_reference(items, lambda: TruthfulOracle(order))
            assert_mergesort_asks_like_the_reference(
                items, lambda: RandomLiarOracle(order, 2, 0.3, seed=index)
            )


@pytest.mark.parametrize("s", [2, 3, 7, 8, 9, 33, 64])
def test_mergesort_asks_like_the_reference_on_seeded_orders(s):
    for seed in range(20):
        rng = random.Random(seed)
        order = TotalOrder.shuffled(s, rng)
        items = list(range(s))
        rng.shuffle(items)
        assert_mergesort_asks_like_the_reference(items, lambda: TruthfulOracle(order))
        for k, p in ((1, 0.5), (4, 0.2)):
            assert_mergesort_asks_like_the_reference(
                items, lambda: RandomLiarOracle(order, k, p, seed=seed)
            )


# --- quicksort counts its profile before it returns, mergesort on first read -


@pytest.fixture
def profile_counts(monkeypatch):
    """The sizes of the degree profiles that ``sorters`` counts, one entry
    per profile returned: from a sort's id-keyed answers, or from the
    position pairs of a quicksort answered from ranks."""
    counted = []
    check = sorters._checked_profile
    count = sorters._position_profile

    def checking(output, answers):
        profile = check(output, answers)
        counted.append(len(output))
        return profile

    def counting(pairs, s):
        profile = count(pairs, s)
        counted.append(s)
        return profile

    monkeypatch.setattr(sorters, "_checked_profile", checking)
    monkeypatch.setattr(sorters, "_position_profile", counting)
    return counted


def test_simple_counts_no_sort_profile_through_restarts(profile_counts):
    order = TotalOrder.shuffled(64, random.Random(3))
    oracle = TriggeredLiarOracle(order, 3, [5, 60, 140])
    result = simple_minmax(list(range(64)), 3, oracle)
    assert (result.min, result.max) == (order.min_element(), order.max_element())
    assert result.stats.restarts == 3
    assert profile_counts == []


def test_improved_counts_once_per_returned_sort(profile_counts, monkeypatch):
    returned, raised = [], []

    def counting_quicksort(items, oracle):
        try:
            outcome = balanced_quicksort(items, oracle)
        except SortInconsistency as exc:
            raised.append(exc)
            raise
        returned.append(outcome)
        return outcome

    monkeypatch.setattr(algorithms, "balanced_quicksort", counting_quicksort)
    order = TotalOrder.shuffled(100, random.Random(6))
    oracle = RandomLiarOracle(order, 8, 0.05, seed=6)
    result = improved_minmax(list(range(100)), 8, oracle)
    assert (result.min, result.max) == (order.min_element(), order.max_element())
    # 13 groups: some attempts restart after their sort returned, some
    # inside it.
    assert (result.stats.restarts, len(returned), len(raised)) == (7, 18, 2)
    assert len(profile_counts) == len(returned)


def test_two_item_quicksort_counts_no_profile(profile_counts):
    # Every pair outcome shares one prebuilt one-edge profile; a fresh graph
    # per pair made the exhaustive walk of improved at n = 4 about 6 % slower.
    oracle = TruthfulOracle(TotalOrder(tuple(range(6))))
    out = balanced_quicksort([5, 2], oracle)
    assert [(a, b) for a, b, _ in oracle.transcript] == [(2, 5)]
    assert (out.output, sort_graph(out).edges) == ([2, 5], {(1, 2): 1})
    assert out.degree_profile() == sort_graph(out).degree_profile() == ([0, 0, 1], [0, 1, 0])
    order = TotalOrder.shuffled(9, random.Random(4))
    result = pohl_minmax(list(range(9)), TruthfulOracle(order))
    assert (result.min, result.max) == (order.min_element(), order.max_element())
    assert profile_counts == []


@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
def test_quicksort_counts_profile_before_return_mergesort_on_first_read(profile_counts, sort):
    # Quicksort counts its profile in the pass that checks its answers,
    # before it returns; mergesort counts its profile when it is first read.
    order = TotalOrder.shuffled(9, random.Random(6))
    out = sort(list(range(9)), TruthfulOracle(order))
    assert len(profile_counts) == (sort is balanced_quicksort)
    assert answers_agree(out)
    profile = out.degree_profile()
    assert out.degree_profile() is profile
    assert out.thickness() == sort_graph(out).thickness()
    assert profile_counts == [9]


def every_run(sort, items):
    """(outcome, answers) for every answer script ``sort`` can meet on
    ``items``: a depth-first walk that tries both answers at each query.  An
    attempt that raises yields its :class:`SortInconsistency` as the
    outcome."""
    scripts = [[]]
    while scripts:

        def extend(a, b):
            scripts.append([*oracle.answers, Answer.FIRST_LARGER])
            return Answer.FIRST_SMALLER

        oracle = ScriptedOracle(scripts.pop(), extend)
        try:
            out = sort(items, oracle)
        except SortInconsistency as exc:
            out = exc
        yield out, oracle.answers


@pytest.mark.parametrize("s", range(1, 6))
def test_mergesort_is_consistent_under_any_answers(s):
    # Mergesort never raises, and the uncredited group step checks none of its
    # answers: this is why.  Two runs part at an answer on one pair and order
    # it both ways, so the walk has exactly one leaf per permutation.
    outputs = set()
    for out, answers in every_run(mergesort, list(range(s))):
        assert answers_agree(out)
        assert sorted(out.output) == list(range(s))
        assert out.comparisons == len(answers) <= mergesort_comparison_cap(s)
        outputs.add(tuple(out.output))
    assert outputs == set(permutations(range(s)))


def assert_profile_matches_the_edge_graph(out):
    """The outcome's degree profile and thickness are those of its
    comparison graph, derived edge by edge from its answers."""
    graph = sort_graph(out)
    assert out.degree_profile() == graph.degree_profile(), out.output
    assert out.thickness() == graph.thickness(), out.output


@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
@pytest.mark.parametrize("s", range(1, 6))
def test_profile_matches_the_edge_graph_under_any_answers(sort, s):
    # Every answer script, each replayed through the reference sort: the
    # same inconsistency with the same comparisons, or the same output,
    # edges and comparisons, with the profile and thickness of those edges.
    reference = ReferenceQuicksort if sort is balanced_quicksort else ReferenceMergesort
    items = list(range(s))
    raised = 0
    for out, answers in every_run(sort, items):
        expected = reference(ScriptedOracle(answers, past_the_script)).outcome(items)
        if isinstance(out, SortInconsistency):
            assert (out.reason, out.comparisons) == expected, answers
            raised += 1
            continue
        assert (out.output, sort_graph(out).edges, out.comparisons) == expected, answers
        assert_profile_matches_the_edge_graph(out)
    # Quicksort raises on 8 scripts at s = 4 (partition sizes) and on 104 at
    # s = 5, 24 of them in the pass that counts the profile.
    assert raised == {4: 8, 5: 104}.get(s, 0) * (sort is balanced_quicksort)


def past_the_script(a, b):
    pytest.fail(f"the reference asked ({a}, {b}) past the answer script")


@pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
@pytest.mark.parametrize(
    "sizes", [[64] * 20, range(1, 71), [256, 411, 600]], ids=["64x20", "1-70", "256-600"]
)
@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
def test_profile_matches_the_edge_graph_on_random_orders(sort, sizes, record):
    # A truthful oracle answers the sort from its ranks: quicksort by output
    # positions, mergesort by ids.  Each outcome matches the per-query path
    # behind ``QueryOnly`` answer for answer, in the order asked, and its
    # profile and thickness are those of its edge graph.
    rng = random.Random(64)
    for s in sizes:
        order = TotalOrder.shuffled(s, rng)
        items = list(range(s))
        rng.shuffle(items)
        ranked, asked = TruthfulOracle(order, record), TruthfulOracle(order, record)
        out = sort(items, ranked)
        expected = sort(items, QueryOnly(asked))
        assert (out.output, out.comparisons) == (expected.output, expected.comparisons), s
        assert list(out.answers.items()) == list(expected.answers.items()), s
        assert out.degree_profile() == expected.degree_profile(), s
        assert out.thickness() == expected.thickness(), s
        assert ranked.queries == asked.queries == out.comparisons, s
        if record:
            assert list(ranked.transcript) == list(asked.transcript), s
        assert_profile_matches_the_edge_graph(out)
