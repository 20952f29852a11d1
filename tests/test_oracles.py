import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarminmax.core import Answer, InvalidQuery, TotalOrder, count_lies
from liarminmax.oracles import (
    RandomLiarOracle,
    ScriptedOracle,
    TriggeredLiarOracle,
    TruthfulOracle,
)


def true_answer(order, a, b):
    """The answer the hidden order gives to (a, b): the reference for every oracle."""
    return Answer.FIRST_SMALLER if order.rank[a] < order.rank[b] else Answer.FIRST_LARGER


def random_query_stream(rng, n, length):
    pairs = []
    while len(pairs) < length:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.append((a, b))
    return pairs


def test_truthful_answers_match_ground_truth():
    order = TotalOrder((1, 0))
    oracle = TruthfulOracle(order)
    assert oracle.query(0, 1) is Answer.FIRST_LARGER
    assert oracle.lies_told == 0


def test_zero_probability_liar_is_truthful():
    rng = random.Random(0)
    order = TotalOrder.shuffled(8, rng)
    liar = RandomLiarOracle(order, k=3, p=0.0, seed=5)
    honest = TruthfulOracle(order)
    for a, b in random_query_stream(rng, 8, 60):
        assert liar.query(a, b) is honest.query(a, b)
    assert liar.lies_told == 0


def test_triggered_liar_lies_exactly_on_trigger():
    order = TotalOrder(tuple(range(5)))
    oracle = TriggeredLiarOracle(order, k=1, triggers={0})
    stream = random_query_stream(random.Random(3), 5, 30)
    for index, (a, b) in enumerate(stream):
        answer = oracle.query(a, b)
        truth = true_answer(order, a, b)
        if index == 0:
            assert answer is truth.flipped()
        else:
            assert answer is truth
    assert oracle.lies_told == 1


def test_triggered_liar_respects_budget():
    order = TotalOrder(tuple(range(4)))
    oracle = TriggeredLiarOracle(order, k=1, triggers={0, 1, 2})
    stream = random_query_stream(random.Random(4), 4, 10)
    lies = sum(
        oracle.query(a, b) is not true_answer(order, a, b) for a, b in stream
    )
    assert lies == 1


def test_triggered_liar_reads_its_triggers_once_as_a_set():
    # A repeated trigger names one query index, so it tells one lie; a
    # one-shot generator of triggers tells the lies its list tells.
    order = TotalOrder.shuffled(7, random.Random(8))
    stream = random_query_stream(random.Random(9), 7, 40)
    repeated = oracle_run(TriggeredLiarOracle(order, 2, [3, 3]), stream)
    assert repeated == per_query_run(order, 2, {3}.__contains__, stream)
    assert repeated[1] == 1
    listed = [17, 0, 5]
    once = oracle_run(TriggeredLiarOracle(order, 3, (t for t in listed)), stream)
    assert once == oracle_run(TriggeredLiarOracle(order, 3, listed), stream)
    assert once[1] == 3


def test_triggered_liar_rejects_negative_trigger():
    with pytest.raises(ValueError, match="trigger indices must be non-negative"):
        TriggeredLiarOracle(TotalOrder(tuple(range(3))), 1, [-1, 0])


def test_random_liar_rejects_probability_above_one():
    with pytest.raises(ValueError, match=r"lie probability must lie in \[0, 1\]"):
        RandomLiarOracle(TotalOrder(tuple(range(3))), 1, 1.5, seed=1)


def test_random_liar_same_seed_identical_transcript():
    rng = random.Random(9)
    order = TotalOrder.shuffled(10, rng)
    stream = random_query_stream(rng, 10, 120)
    first = RandomLiarOracle(order, k=4, p=0.5, seed=77)
    second = RandomLiarOracle(order, k=4, p=0.5, seed=77)
    answers_a = [first.query(a, b) for a, b in stream]
    answers_b = [second.query(a, b) for a, b in stream]
    assert answers_a == answers_b
    assert list(first.transcript) == list(second.transcript)


def test_always_lying_oracle_stops_at_budget():
    order = TotalOrder(tuple(range(6)))
    oracle = RandomLiarOracle(order, k=2, p=1.0, seed=0)
    stream = random_query_stream(random.Random(1), 6, 40)
    for a, b in stream:
        oracle.query(a, b)
    assert oracle.lies_told == 2
    assert count_lies(oracle.transcript, order) == 2


@settings(max_examples=40)
@given(
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
    st.integers(10, 80),
)
def test_lies_told_matches_transcript_accounting(k, p, seed, length):
    rng = random.Random(seed)
    order = TotalOrder.shuffled(6, rng)
    oracle = RandomLiarOracle(order, k, p, seed=seed)
    for a, b in random_query_stream(rng, 6, length):
        oracle.query(a, b)
    assert oracle.lies_told == count_lies(oracle.transcript, order)
    assert oracle.lies_told <= k


def test_query_rejects_self_comparison():
    oracle = TruthfulOracle(TotalOrder(tuple(range(3))))
    with pytest.raises(InvalidQuery):
        oracle.query(2, 2)


def test_recording_can_be_disabled():
    oracle = TruthfulOracle(TotalOrder(tuple(range(3))), record=False)
    oracle.query(0, 1)
    assert oracle.transcript is None
    assert oracle.queries == 1


def per_query_run(order, k, wants_lie, stream):
    """The reference lie rule: consult ``wants_lie(index)`` on every query
    while budget remains.  Returns (transcript, lies told, queries)."""
    transcript, lies = [], 0
    for index, (a, b) in enumerate(stream):
        answer = true_answer(order, a, b)
        if lies < k and wants_lie(index):
            lies += 1
            answer = answer.flipped()
        transcript.append((a, b, answer))
    return transcript, lies, len(stream)


def oracle_run(oracle, stream):
    for a, b in stream:
        oracle.query(a, b)
    return list(oracle.transcript), oracle.lies_told, oracle.queries


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("length", [0, 1, 17, 200])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_scheduled_lie_consults_match_per_query_rules(k, length, seed):
    # The oracles consult their lie rule only at ``_next_lie``; that must tell
    # the very lies that asking on every query tells.
    rng = random.Random(seed)
    order = TotalOrder.shuffled(7, rng)
    stream = random_query_stream(rng, 7, length)
    trigger_sets = [
        set(),
        {0},
        {0, 1, 2, 3, 4},  # more triggers than budget
        {length, length + 9},  # past the last query
        set(rng.sample(range(length + 20), 6)),
    ]
    for triggers in trigger_sets:
        reference = per_query_run(order, k, triggers.__contains__, stream)
        assert oracle_run(TriggeredLiarOracle(order, k, triggers), stream) == reference
    for p in (0.0, 0.3, 1.0):
        draws = random.Random(seed + 100)
        reference = per_query_run(order, k, lambda index: draws.random() < p, stream)
        assert oracle_run(RandomLiarOracle(order, k, p, seed + 100), stream) == reference


def test_recording_keeps_no_tracked_object_per_query():
    # A transcript record made of GC-tracked objects would count towards the
    # next collection; 10,000 of them trigger about 14 gen-0 passes.
    order = TotalOrder.shuffled(50, random.Random(6))
    stream = random_query_stream(random.Random(7), 50, 10_000)
    oracle = TriggeredLiarOracle(order, 2, [3, 9_000])
    # A batch of 10,000 checks that all hold, past its oracle's one trigger:
    # ``ask_checks`` answers and records them in one call.
    batched = TriggeredLiarOracle(order, 1, [10_000])
    at = sorted(range(50), key=order.rank.__getitem__)
    checks = [tuple(sorted(pair)) for pair in random_query_stream(random.Random(8), 50, 10_000)]
    gc.disable()
    try:
        before = gc.get_count()[0]
        answers = [oracle.query(a, b) for a, b in stream]
        grown = gc.get_count()[0] - before
        before = gc.get_count()[0]
        outcome = batched.ask_checks(at, checks)
        grown_batched = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert grown < 100
    assert grown_batched < 100
    assert outcome == (10_000, False)
    assert list(batched.transcript) == [(at[i], at[j], Answer.FIRST_SMALLER) for i, j in checks]
    expected = [(a, b, answer) for (a, b), answer in zip(stream, answers)]
    assert list(oracle.transcript) == expected
    assert len(oracle.transcript) == oracle.queries == 10_000
    assert all(isinstance(answer, Answer) for _, _, answer in oracle.transcript)
    assert oracle.lies_told == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: RandomLiarOracle(TotalOrder(tuple(range(3))), -1, 0.5, seed=1),
    ],
    ids=["lying-oracle"],
)
def test_negative_lie_budget_rejected(build):
    with pytest.raises(ValueError, match="lie budget must be non-negative"):
        build()


def test_scripted_oracle_extends_past_its_script():
    script = [Answer.FIRST_SMALLER]
    asked = []

    def extend(a, b):
        asked.append((a, b))
        return Answer.FIRST_LARGER

    oracle = ScriptedOracle(script, extend)
    assert oracle.query(0, 1) is Answer.FIRST_SMALLER
    assert asked == []
    assert oracle.query(1, 2) is Answer.FIRST_LARGER
    assert asked == [(1, 2)]
    assert oracle.answers == [Answer.FIRST_SMALLER, Answer.FIRST_LARGER]
    assert oracle.position == 2
    assert script == [Answer.FIRST_SMALLER]
    # A self-comparison is refused before the script can grow.
    with pytest.raises(InvalidQuery):
        oracle.query(2, 2)
    assert asked == [(1, 2)]
    assert len(oracle.answers) == oracle.position == 2


def checks_per_query(oracle, at, checks):
    """The group driver's one-query-per-check loop: the reference for
    ``ask_checks``."""
    asked = 0
    for i, j in checks:
        asked += 1
        if oracle.query(at[i], at[j]) is Answer.FIRST_LARGER:
            return asked, True
    return asked, False


def spent(oracle):
    """``oracle`` after one query, on which a liar at p = 1 spends a budget
    of one."""
    oracle.query(0, 1)
    return oracle


# Each builds a fresh oracle for a batch of ``checks`` asked first (after
# ``spent``'s query, if any); the flag says whether the batch meets no lie.
ORACLES = {
    "truthful-unrecorded": (lambda order, checks: TruthfulOracle(order, record=False), True),
    "truthful-recorded": (lambda order, checks: TruthfulOracle(order), True),
    "trigger-inside": (
        lambda order, checks: TriggeredLiarOracle(order, 1, [len(checks) // 2]),
        False,
    ),
    "trigger-last": (
        lambda order, checks: TriggeredLiarOracle(order, 1, [max(len(checks) - 1, 0)]),
        False,
    ),
    "trigger-past-end": (lambda order, checks: TriggeredLiarOracle(order, 1, [len(checks)]), True),
    "random-budget-left": (lambda order, checks: RandomLiarOracle(order, 2, 0.5, seed=3), False),
    "random-budget-spent": (
        lambda order, checks: spent(RandomLiarOracle(order, 1, 1.0, seed=3)),
        True,
    ),
}


def asked_both_ways(build, order, at, checks):
    """(outcome, queries, records, lies told) of ``ask_checks`` and of the
    reference loop, each on a fresh ``build(order, checks)`` oracle and
    counting only the batch; an outcome is the returned pair or the raised
    exception's type."""
    sides = []
    for batched in (True, False):
        oracle = build(order, checks)
        before, lies = oracle.queries, oracle.lies_told
        try:
            if batched:
                outcome = oracle.ask_checks(at, checks)
            else:
                outcome = checks_per_query(oracle, at, checks)
        except InvalidQuery:
            outcome = InvalidQuery
        records = None if oracle.transcript is None else list(oracle.transcript)[before:]
        sides.append((outcome, oracle.queries - before, records, oracle.lies_told - lies))
    return sides


# Position 0 repeats the first element and no check names it, as in the driver.
ASCENDING_AT = [0, 0, 1, 2, 3]


def copies(*pairs):
    """A new tuple object per pair: equal checks that are not one object,
    so that no two of them make a run."""
    return [tuple(list(pair)) for pair in pairs]


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize(
    "checks, outcome",
    [
        ([], (0, False)),
        ([(1, 2), (1, 3), (2, 4), (1, 2)], (4, False)),
        ([(2, 1), (1, 2)], (1, True)),
        ([(1, 2), (2, 3), (4, 3)], (3, True)),
        ([(1, 2)] * 3 + [(2, 4)] * 2 + [(1, 2)] * 4, (9, False)),
        ([(1, 2)] * 3 + [(3, 2)] * 4 + [(1, 2)] * 2, (4, True)),
        ([(1, 3)] * 2 + [(4, 3)] * 3, (3, True)),
        (copies((1, 2), (1, 2), (2, 3), (2, 3)), (4, False)),
        (copies((1, 2), (1, 2), (4, 3), (4, 3)), (3, True)),
        ([(1, 2)] * 2 + copies((1, 2)) * 2 + copies((4, 1)) * 3, (5, True)),
    ],
    ids=[
        "empty",
        "all-hold",
        "first-contradicts",
        "last-contradicts",
        "runs-hold",
        "later-run-contradicts",
        "last-run-contradicts",
        "equal-objects-hold",
        "equal-objects-contradict",
        "equal-runs-contradict",
    ],
)
def test_ask_checks_matches_the_per_query_loop(kind, checks, outcome):
    # A run is copies of one pair object, as ``[pair] * m`` makes them;
    # equal pairs that are distinct objects are separate runs.
    build, truthful = ORACLES[kind]
    batch, reference = asked_both_ways(build, TotalOrder(tuple(range(4))), ASCENDING_AT, checks)
    assert batch == reference
    assert batch[1] == batch[0][0]
    if truthful:
        assert batch[0] == outcome
        assert batch[3] == 0
    if kind == "truthful-unrecorded":
        assert batch[2] is None
    else:
        assert len(batch[2]) == batch[1]


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize(
    "checks, asked_before",
    [
        ([(1, 2), (2, 2), (2, 3)], 1),
        ([(0, 1)], 0),
        ([(1, 2)] * 3 + [(2, 2)] * 2 + [(2, 3)], 3),
        ([(2, 4)] * 2 + [(0, 1)] * 3, 2),
    ],
    ids=["same-position", "same-element", "same-position-run", "same-element-run"],
)
def test_ask_checks_refuses_a_self_comparison_where_query_does(kind, checks, asked_before):
    # The checks before the self-comparison stay asked, counted and
    # recorded; a lie on one of them ends the batch before it.
    build = ORACLES[kind][0]
    batch, reference = asked_both_ways(build, TotalOrder(tuple(range(4))), ASCENDING_AT, checks)
    assert batch == reference
    if batch[3] == 0:
        assert batch[:2] == (InvalidQuery, asked_before)


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("seed", range(20))
def test_ask_checks_matches_the_per_query_loop_on_random_checks(kind, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    order = TotalOrder.shuffled(n, rng)
    block = rng.sample(range(n), rng.randint(2, n))
    at = [block[0], *block]
    length = rng.randint(0, 60)
    checks = [tuple(sorted(rng.sample(range(1, len(block) + 1), 2))) for _ in range(length)]
    batch, reference = asked_both_ways(ORACLES[kind][0], order, at, checks)
    assert batch == reference


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("seed", range(20))
def test_ask_checks_matches_the_per_query_loop_on_random_runs(kind, seed):
    # Runs of one to six copies of a pair object over a block in ascending
    # order, as the driver asks them: a pair may repeat an earlier one as the
    # same object or as an equal one, and one pair in ten is reversed, so
    # that most batches hold for a few runs before one contradicts.
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    order = TotalOrder.shuffled(n, rng)
    block = sorted(rng.sample(range(n), rng.randint(2, n)), key=order.rank.__getitem__)
    at = [block[0], *block]
    pairs = []
    checks = []
    for _ in range(rng.randint(0, 20)):
        if pairs and rng.random() < 0.3:
            pair = rng.choice(pairs)
            if rng.random() < 0.5:
                pair = tuple(list(pair))
        else:
            pair = tuple(sorted(rng.sample(range(1, len(block) + 1), 2)))
            if rng.random() < 0.1:
                pair = pair[::-1]
            pairs.append(pair)
        checks += [pair] * rng.randint(1, 6)
    batch, reference = asked_both_ways(ORACLES[kind][0], order, at, checks)
    assert batch == reference
