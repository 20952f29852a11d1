import pytest
from hypothesis import given
from hypothesis import strategies as st

from liarminmax.core import (
    Answer,
    InvalidQuery,
    LieBudgetViolation,
    RunStats,
    TotalOrder,
    Transcript,
    assert_lie_budget,
    count_lies,
)
from liarminmax.oracles import TruthfulOracle


def true_answer(order, a, b):
    """The answer the hidden order gives to (a, b): the reference for the audit."""
    return Answer.FIRST_SMALLER if order.rank[a] < order.rank[b] else Answer.FIRST_LARGER


def make_transcript(entries):
    t = Transcript()
    for a, b, answer in entries:
        t.append(a, b, answer)
    return t


class TestTruthCompare:
    """A truthful oracle answers from the hidden order alone."""

    def test_self_comparison_rejected(self):
        oracle = TruthfulOracle(TotalOrder((0, 1)))
        with pytest.raises(InvalidQuery):
            oracle.query(1, 1)
        assert oracle.queries == 0

    @given(st.permutations(list(range(6))), st.integers(0, 5), st.integers(0, 5))
    def test_antisymmetry(self, ranks, a, b):
        if a == b:
            return
        oracle = TruthfulOracle(TotalOrder(tuple(ranks)))
        assert oracle.query(a, b) is oracle.query(b, a).flipped()


class TestTotalOrder:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            TotalOrder((0, 0, 2))

    def test_identity_extrema(self):
        order = TotalOrder(tuple(range(4)))
        assert order.min_element() == 0
        assert order.max_element() == 3


class TestCountLies:
    def test_empty_transcript(self):
        assert count_lies(make_transcript([]), TotalOrder((0, 1))) == 0

    def test_single_agreeing_record(self):
        t = make_transcript([(0, 1, Answer.FIRST_SMALLER)])
        assert count_lies(t, TotalOrder((0, 1))) == 0

    def test_one_lie_among_three(self):
        order = TotalOrder((0, 1, 2))
        t = make_transcript(
            [
                (0, 1, Answer.FIRST_SMALLER),
                (1, 2, Answer.FIRST_LARGER),  # contradicts the order
                (0, 2, Answer.FIRST_SMALLER),
            ]
        )
        assert count_lies(t, order) == 1

    @given(
        st.permutations(list(range(5))),
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(list(Answer))),
            max_size=30,
        ),
    )
    def test_matches_per_record_recount(self, ranks, raw_entries):
        order = TotalOrder(tuple(ranks))
        entries = [(a, b, ans) for a, b, ans in raw_entries if a != b]
        t = make_transcript(entries)
        naive = sum(1 for a, b, ans in entries if true_answer(order, a, b) is not ans)
        assert count_lies(t, order) == naive


class TestLieBudget:
    def test_truthful_within_zero_budget(self):
        t = make_transcript([(0, 1, Answer.FIRST_SMALLER)])
        assert assert_lie_budget(t, TotalOrder((0, 1)), 0) == 0

    def test_violation_carries_count(self):
        order = TotalOrder((0, 1, 2))
        t = make_transcript(
            [(0, 1, Answer.FIRST_LARGER), (1, 2, Answer.FIRST_LARGER), (0, 2, Answer.FIRST_SMALLER)]
        )
        with pytest.raises(LieBudgetViolation) as exc:
            assert_lie_budget(t, order, 1)
        assert exc.value.lies == 2

    def test_boundary_equality_is_ok(self):
        order = TotalOrder((0, 1, 2))
        t = make_transcript([(0, 1, Answer.FIRST_LARGER), (1, 2, Answer.FIRST_LARGER)])
        assert assert_lie_budget(t, order, 2) == 2


def test_transcript_indices_are_dense():
    t = make_transcript([(0, 1, Answer.FIRST_SMALLER)] * 5)
    assert len(t) == 5


def test_runstats_comparisons_equal_phase_sum():
    assert RunStats().comparisons == 0
    stats = RunStats(2, {"group-sort": 10, "group-verify": 5})
    assert stats.comparisons == 15
    assert stats.restarts == 2


def test_answer_flipped_is_involution():
    for answer in Answer:
        assert answer.flipped().flipped() is answer
