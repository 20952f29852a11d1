import importlib.util
import json
import random
import subprocess
import sys
import tarfile
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarminmax import cli, harness
from liarminmax.cli import main
from liarminmax.core import Answer, RunStats, TotalOrder, Transcript, count_lies
from liarminmax.harness import (
    CSV_HEADER,
    REGISTRY,
    Counterexample,
    ExperimentConfig,
    measure_thickness,
    rows_to_csv,
    run_experiments,
    _split,
    verify_exhaustive,
)
from liarminmax.oracles import ScriptedOracle, TruthfulOracle
from liarminmax.algorithms import (
    MinMaxResult,
    _extrema,
    balanced_quicksort,
    find_min_k_lies,
    improved_minmax,
    mergesort_comparison_cap,
    simple_comparison_bound,
    simple_minmax,
)


class TestRunExperiments:
    def test_pohl_row(self):
        rows = run_experiments(ExperimentConfig("pohl", n=4, k=0, trials=3, seed=1))
        assert len(rows) == 3
        for row in rows:
            assert row.comparisons == 4
            assert row.bound == 4
            assert row.within_bound
            assert row.restarts == 0

    def test_find_min_with_random_liar(self):
        cfg = ExperimentConfig(
            "find-min", n=100, k=2, oracle="random-liar", p=0.3, trials=5, seed=3
        )
        for row in run_experiments(cfg):
            assert row.comparisons <= 299
            assert row.bound == 299
            assert row.within_bound
            assert row.oracle == "random-liar(p=0.3)"

    def test_improved_bound_formula(self):
        rows = run_experiments(ExperimentConfig("improved", n=60, k=5, trials=2, seed=9))
        for row in rows:
            assert row.bound == (5 + 1 + 10) * 60 + 1000 * 125
            assert row.within_bound

    def test_simple_bound_uses_observed_restarts(self):
        cfg = ExperimentConfig(
            "simple", n=30, k=3, oracle="triggered-liar", trials=4, seed=11
        )
        for row in run_experiments(cfg):
            assert row.bound == simple_comparison_bound(30, 3, row.restarts)
            assert row.within_bound

    def test_csv_byte_stability(self):
        cfg = ExperimentConfig(
            "simple", n=24, k=2, oracle="random-liar", p=0.4, trials=6, seed=21
        )
        first = rows_to_csv(run_experiments(cfg))
        second = rows_to_csv(run_experiments(cfg))
        assert first == second
        assert first.splitlines()[0] == CSV_HEADER

    def test_pohl_rejects_lying_oracles(self):
        cfg = ExperimentConfig("pohl", n=4, k=0, oracle="random-liar", p=0.5)
        with pytest.raises(ValueError):
            run_experiments(cfg)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(ExperimentConfig("quickselect", n=4, k=0))

    def test_repeated_triggers_rejected(self):
        # The oracle keeps its triggers as a set, so a repeat would lie fewer
        # times than the row's label lists.
        cfg = ExperimentConfig("simple", n=3, k=5, oracle="triggered-liar", triggers=(17, 3, 3))
        with pytest.raises(ValueError, match="trigger indices must be distinct"):
            run_experiments(cfg)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle 'psychic'"):
            run_experiments(ExperimentConfig("simple", n=4, k=1, oracle="psychic"))

    def test_wrong_extrema_rejected(self, monkeypatch):
        def swapped(items, k, oracle, **_):
            result = improved_minmax(items, k, oracle)
            return replace(result, min=result.max, max=result.min)

        monkeypatch.setattr(harness, "improved_minmax", swapped)
        cfg = ExperimentConfig("improved", n=16, k=4)
        with pytest.raises(RuntimeError, match=r"^improved returned wrong extrema \(seed \d+\)$"):
            run_experiments(cfg)

    def test_wrong_element_rejected(self, monkeypatch):
        def off_by_one(items, k, oracle):
            low, comparisons = find_min_k_lies(items, k, oracle)
            return (low + 1) % len(items), comparisons

        monkeypatch.setattr(harness, "find_min_k_lies", off_by_one)
        cfg = ExperimentConfig("find-min", n=8, k=1)
        with pytest.raises(RuntimeError, match=r"^find-min returned a wrong element \(seed \d+\)$"):
            run_experiments(cfg)

    def test_restarts_audited_without_transcripts(self, monkeypatch):
        # A truthful run proves no lie, so any reported restart is a bug,
        # whether or not the oracle keeps a transcript.
        def phantom_restart(items, k, oracle, **_):
            result = improved_minmax(items, k, oracle)
            result.stats.restarts = 1
            return result

        monkeypatch.setattr(harness, "improved_minmax", phantom_restart)
        cfg = ExperimentConfig("improved", n=16, k=4, record_transcripts=False)
        with pytest.raises(RuntimeError, match="more restarts than lies told"):
            run_experiments(cfg)

    def test_explicit_triggers_respected(self):
        cfg = ExperimentConfig(
            "find-min", n=10, k=1, oracle="triggered-liar", triggers=(3,), trials=2, seed=0
        )
        for row in run_experiments(cfg):
            assert row.oracle == "triggered-liar(3)"


class TestSimpleBound:
    def test_covers_truthful_run(self):
        for k, n in [(2, 17), (4, 40), (5, 23)]:
            order = TotalOrder.shuffled(n, random.Random(n))
            result = simple_minmax(list(range(n)), k, TruthfulOracle(order))
            assert result.stats.comparisons <= simple_comparison_bound(n, k, 0)

    def test_mergesort_cap_values(self):
        assert mergesort_comparison_cap(1) == 0
        assert mergesort_comparison_cap(2) == 2
        assert mergesort_comparison_cap(4) == 8


# (nodes, leaves) of each walk in test_every_registered_algorithm_passes.
# A change that keeps every algorithm's queries and the verifier's pruning
# keeps every pair.
WALK_SHAPES = {
    ("pohl", 2, 0): (3, 2),
    ("pohl", 3, 0): (13, 6),
    ("pohl", 4, 0): (31, 16),
    ("simple", 2, 0): (5, 2),
    ("simple", 3, 0): (15, 6),
    ("simple", 4, 0): (37, 16),
    ("simple", 2, 1): (29, 8),
    ("simple", 3, 1): (167, 48),
    ("simple", 4, 1): (593, 176),
    ("simple", 5, 1): (2769, 720),
    ("simple", 4, 2): (9173, 2144),
    ("improved", 2, 0): (3, 2),
    ("improved", 3, 0): (13, 6),
    ("improved", 4, 0): (31, 16),
    ("improved", 2, 1): (15, 6),
    ("improved", 3, 1): (133, 42),
    ("improved", 4, 1): (435, 144),
    ("improved", 5, 1): (2291, 624),
    ("improved", 4, 2): (6211, 1584),
    ("find-min", 1, 0): (1, 1),
    ("find-min", 2, 0): (3, 2),
    ("find-min", 3, 0): (7, 4),
    ("find-min", 4, 0): (15, 8),
    ("find-min", 1, 1): (1, 1),
    ("find-min", 2, 1): (11, 6),
    ("find-min", 3, 1): (43, 20),
    ("find-min", 4, 1): (135, 56),
    ("find-max", 1, 0): (1, 1),
    ("find-max", 2, 0): (3, 2),
    ("find-max", 3, 0): (7, 4),
    ("find-max", 4, 0): (15, 8),
    ("find-max", 1, 1): (1, 1),
    ("find-max", 2, 1): (11, 6),
    ("find-max", 3, 1): (43, 20),
    ("find-max", 4, 1): (135, 56),
    ("find-min", 2, 2): (39, 20),
    ("find-min", 3, 2): (253, 106),
    ("find-min", 4, 2): (1143, 410),
    ("find-min", 5, 0): (31, 16),
    ("find-min", 5, 1): (379, 144),
    ("find-min", 5, 2): (4261, 1354),
    ("find-max", 2, 2): (39, 20),
    ("find-max", 3, 2): (253, 106),
    ("find-max", 4, 2): (1143, 410),
    ("find-max", 5, 0): (31, 16),
    ("find-max", 5, 1): (379, 144),
    ("find-max", 5, 2): (4261, 1354),
    ("pohl", 6, 0): (255, 128),
    ("improved", 6, 0): (255, 128),
    ("improved", 6, 1): (6275, 1920),
    ("improved", 6, 2): (145507, 33536),
    ("simple", 6, 1): (7913, 2304),
    ("simple", 6, 2): (199741, 43904),
    ("find-min", 6, 1): (991, 352),
    ("find-min", 6, 2): (14031, 4058),
}


# Each algorithm's exact worst case at its default group size: the longest
# answer sequence at any leaf, i.e. the most queries any oracle with at most
# k lies can force.
WORST_COMPARISONS = {
    ("pohl", 4, 0): 4,
    ("pohl", 5, 0): 6,
    ("improved", 4, 0): 4,
    ("improved", 5, 0): 6,
    ("improved", 3, 1): 8,
    ("improved", 4, 1): 10,
    ("improved", 5, 1): 14,
    ("improved", 4, 2): 18,
    ("improved", 5, 2): 24,
    ("simple", 3, 1): 10,
    ("simple", 4, 1): 13,
    ("simple", 5, 1): 17,
    ("pohl", 6, 0): 7,
    ("improved", 6, 0): 7,
    ("improved", 6, 1): 16,
    ("improved", 6, 2): 27,
    ("simple", 6, 1): 20,
    ("simple", 6, 2): 32,
    ("find-min", 6, 1): 11,
    ("find-min", 6, 2): 17,
}

# An n = 6 walk takes up to about 4.5 s, so each is walked once, in
# test_every_registered_algorithm_passes, which checks its worst case too.
SIX_ELEMENT_WALKS = [key for key in WALK_SHAPES if key[1] == 6]


def assert_worst_case(report, algorithm, n, k):
    assert report.worst_comparisons == WORST_COMPARISONS[(algorithm, n, k)]
    if k == 0:
        # Pohl's ceil(3n/2) - 2, which no algorithm can beat.
        assert report.worst_comparisons == (3 * n + 1) // 2 - 2


# (nodes, leaves, worst_comparisons) of the credited group step's walks at
# group sizes s > k+2, where sort degrees may exceed k+1, keyed by (n, k, s).
BEYOND_K_PLUS_2 = {
    (4, 0, 3): (41, 18, 5),
    (4, 0, 4): (55, 24, 6),
    (5, 0, 5): (319, 120, 10),
    (4, 1, 4): (1149, 182, 16),
    (5, 1, 4): (3665, 834, 20),
    (5, 1, 5): (8971, 1110, 24),
}


class TestVerifyExhaustive:
    def test_find_min_two_elements(self):
        report = verify_exhaustive(2, 0, "find-min")
        assert report.passed
        assert report.leaves == 2

    def test_find_min_with_one_lie(self):
        report = verify_exhaustive(3, 1, "find-min")
        assert report.passed

    def test_improved_pairs_with_one_lie(self):
        report = verify_exhaustive(3, 1, "improved", s_override=2)
        assert report.passed

    def test_broken_algorithm_yields_counterexample(self):
        def first_element_is_min(items, k, oracle):
            return items[0], None

        report = verify_exhaustive(2, 0, first_element_is_min)
        assert not report.passed
        ce = report.counterexample
        assert ce.reported_min == 0
        assert any(order.min_element() != 0 for order in ce.surviving)

    @pytest.mark.parametrize("reported", [-1, 2])
    def test_out_of_range_extremum_yields_counterexample(self, reported):
        # Reported only where element 1 is the minimum, which -1 would name
        # if it were read as an index.
        def out_of_range(items, k, oracle):
            return (0 if oracle.query(0, 1) is Answer.FIRST_SMALLER else reported), None

        report = verify_exhaustive(2, 0, out_of_range)
        assert not report.passed
        assert report.counterexample.reported_min == reported

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="needs n <= 6, got 7"):
            verify_exhaustive(7, 0, "find-min")

    def test_custom_algorithm_negative_budget_rejected(self):
        def first_element_is_min(items, k, oracle):
            return items[0], None

        with pytest.raises(ValueError, match="k must be non-negative"):
            verify_exhaustive(3, -1, first_element_is_min)

    def test_custom_algorithm_takes_no_group_size(self):
        def first_element_is_min(items, k, oracle):
            return items[0], None

        with pytest.raises(ValueError, match="no group size to override"):
            verify_exhaustive(2, 0, first_element_is_min, s_override=2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_custom_algorithm_needs_an_element(self, n):
        # Run on an empty item list, this one would end in an IndexError.
        with pytest.raises(ValueError, match="n must be at least 1"):
            verify_exhaustive(n, 0, lambda items, k, oracle: (items[0], items[-1]))

    @pytest.mark.parametrize(
        "algorithm, n, k",
        [
            (name, n, k)
            for name, entry in REGISTRY.items()
            for k in ((0,) if name == "pohl" else (0, 1))
            for n in range(entry.min_n, 5)
        ]
        + [("simple", 5, 1), ("simple", 4, 2), ("improved", 5, 1), ("improved", 4, 2)]
        + [
            (name, n, k)
            for name in ("find-min", "find-max")
            for n, k in ((2, 2), (3, 2), (4, 2), (5, 0), (5, 1), (5, 2))
        ]
        + SIX_ELEMENT_WALKS,
    )
    def test_every_registered_algorithm_passes(self, algorithm, n, k):
        report = verify_exhaustive(n, k, algorithm)
        assert report.passed, report.counterexample
        assert (report.nodes, report.leaves) == WALK_SHAPES[(algorithm, n, k)]
        # The registry's cap, with a restart for every lie, holds at every leaf.
        assert report.worst_comparisons <= REGISTRY[algorithm].bound(n, k, k)
        if n == 6:
            assert_worst_case(report, algorithm, n, k)

    @pytest.mark.parametrize(
        "algorithm, n, k", [key for key in WORST_COMPARISONS if key not in SIX_ELEMENT_WALKS]
    )
    def test_exact_worst_case(self, algorithm, n, k):
        report = verify_exhaustive(n, k, algorithm)
        assert report.passed, report.counterexample
        assert_worst_case(report, algorithm, n, k)

    def test_walk_builds_every_oracle_through_the_patch_point(self, monkeypatch):
        # The benchmark's tracer taps ``harness.ScriptedOracle``; a walk that
        # built its oracles some other way would leave the oracle layer dark.
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return ScriptedOracle(*args, **kwargs)

        monkeypatch.setattr(harness, "ScriptedOracle", counting)
        report = verify_exhaustive(4, 2, "improved", s_override=2)
        assert (report.nodes, report.leaves) == (6211, 1584)
        assert len(built) == report.leaves

    def test_walk_reads_no_comparison_count(self, monkeypatch):
        # The walk needs each leaf's extrema only; summing a leaf run's phase
        # counts would cost one call per leaf for a value it drops.
        reads = []
        counted = RunStats.comparisons

        def counting(stats):
            reads.append(stats)
            return counted.fget(stats)

        monkeypatch.setattr(RunStats, "comparisons", property(counting))
        report = verify_exhaustive(4, 2, "improved", s_override=2)
        assert report.leaves == 1584
        assert reads == []

    @pytest.mark.parametrize("n, k, s", BEYOND_K_PLUS_2)
    def test_completion_certifies_groups_beyond_k_plus_2(self, n, k, s):
        # Sort degrees may exceed k+1 here; the completion still gives every
        # position k+1 answers per side, and that floor is all the
        # certificate needs.
        def completion_groups_of_s(items, k, oracle):
            result = _extrema(balanced_quicksort, True, items, k, oracle, s)
            return result.min, result.max

        report = verify_exhaustive(n, k, completion_groups_of_s)
        assert report.passed, report.counterexample
        shape = (report.nodes, report.leaves, report.worst_comparisons)
        assert shape == BEYOND_K_PLUS_2[(n, k, s)]


def _narrow(candidates, a, b, said_smaller, k):
    """One side of an answer, narrowed on its own: the reference for ``_split``."""
    survivors = {}
    for rank, lies in candidates.items():
        if (rank[a] < rank[b]) == said_smaller:
            survivors[rank] = lies
        elif lies < k:
            survivors[rank] = lies + 1
    return survivors


def test_split_matches_one_sided_reference():
    rng = random.Random(2024)
    for n in range(2, 5):
        ranks = list(permutations(range(n)))
        for k in range(3):
            for _ in range(20):
                chosen = rng.sample(ranks, rng.randint(0, len(ranks)))
                candidates = {rank: rng.randint(0, k) for rank in chosen}
                for a, b in permutations(range(n), 2):
                    sides = _split(candidates, a, b, k)
                    reference = [_narrow(candidates, a, b, said, k) for said in (True, False)]
                    # Items, not dicts, so the order of each side is compared too.
                    assert [list(side.items()) for side in sides] == [
                        list(side.items()) for side in reference
                    ]


class TestConsistentOrders:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_filter(self, data):
        # The verifier's explanation set: every order at zero lies, narrowed
        # by one split per answer, keeps exactly the orders that the answers
        # contradict at most k times.
        n = data.draw(st.integers(2, 5))
        k = data.draw(st.integers(0, 2))
        t = Transcript()
        element = st.integers(0, n - 1)
        for _ in range(data.draw(st.integers(0, 12))):
            a = data.draw(element)
            b = data.draw(element.filter(lambda x: x != a))
            t.append(a, b, data.draw(st.sampled_from(Answer)))
        candidates = dict.fromkeys(permutations(range(n)), 0)
        for a, b, answer in t:
            candidates = _split(candidates, a, b, k)[answer is Answer.FIRST_LARGER]
        every_order = (TotalOrder(rank) for rank in permutations(range(n)))
        expected = [order for order in every_order if count_lies(t, order) <= k]
        assert [TotalOrder(rank) for rank in candidates] == expected


def one_query_then_guess(items, k, oracle):
    oracle.query(0, 1)
    return 0, 1


def _majority_switches(oracle, held, challenger, k, wanted) -> bool:
    # The bug: k+1 votes are too few, as k lies can tie or outvote the truth.
    votes = sum(oracle.query(held, challenger) is wanted for _ in range(k + 1))
    return 2 * votes > k + 1


def min_by_short_majority(items, k, oracle):
    low = items[0]
    for x in items[1:]:
        if _majority_switches(oracle, low, x, k, Answer.FIRST_LARGER):
            low = x
    return low, None


def extrema_by_short_majority(items, k, oracle):
    low = high = items[0]
    for x in items[1:]:
        if _majority_switches(oracle, low, x, k, Answer.FIRST_LARGER):
            low = x
        if _majority_switches(oracle, high, x, k, Answer.FIRST_SMALLER):
            high = x
    return low, high


def _counterexample(answers: str, low, high, *ranks) -> Counterexample:
    """``answers`` spells the answer sequence, S for FIRST_SMALLER, L for FIRST_LARGER."""
    spelled = {"S": Answer.FIRST_SMALLER, "L": Answer.FIRST_LARGER}
    return Counterexample(
        tuple(spelled[c] for c in answers), low, high, tuple(TotalOrder(r) for r in ranks)
    )


# The first counterexample of a broken algorithm and the (nodes, leaves) the
# walk took to reach it.  The walk explores FIRST_SMALLER before FIRST_LARGER,
# depth first, so these pin its visiting order as well as its pruning.
COUNTEREXAMPLES = [
    (
        one_query_then_guess, 3, 1, (2, 1),
        _counterexample(
            "S", 0, 1, (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
        ),
    ),
    (
        min_by_short_majority, 3, 1, (6, 2),
        _counterexample("SSSL", 0, None, (0, 1, 2), (0, 2, 1), (1, 2, 0)),
    ),
    (
        min_by_short_majority, 4, 2, (11, 2),
        _counterexample(
            "SSSSSSSSL", 0, None,
            (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1),
            (0, 3, 1, 2), (0, 3, 2, 1), (1, 2, 3, 0), (1, 3, 2, 0),
        ),
    ),
    (
        extrema_by_short_majority, 5, 1, (18, 2),
        _counterexample(
            "S" * 15 + "L", 0, 3,
            (0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 1, 3, 4, 2), (0, 2, 3, 4, 1),
        ),
    ),
]


@pytest.mark.parametrize(
    "algorithm, n, k, shape, expected",
    COUNTEREXAMPLES,
    ids=[f"{algorithm.__name__}-{n}-{k}" for algorithm, n, k, _, _ in COUNTEREXAMPLES],
)
def test_first_counterexample_is_pinned(algorithm, n, k, shape, expected):
    report = verify_exhaustive(n, k, algorithm)
    assert report.counterexample == expected
    assert (report.nodes, report.leaves) == shape


class TestMeasureThickness:
    def test_pairs_are_flat(self):
        rows = measure_thickness("balanced-quicksort", [2], trials=5, seed=0)
        assert rows[0].min_thickness == rows[0].max_thickness == 0

    def test_deterministic_given_seed(self):
        a = measure_thickness("mergesort", [32], trials=10, seed=5)
        b = measure_thickness("mergesort", [32], trials=10, seed=5)
        assert a == b

    def test_mergesort_spreads_wide(self):
        rows = measure_thickness("mergesort", [64], trials=20, seed=7)
        assert rows[0].min_thickness >= 8

    def test_csv_shape(self):
        rows = measure_thickness("mergesort", [16, 32], trials=3, seed=1)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("sorter,s,")
        assert len(lines) == 3

    def test_no_rows_is_no_csv(self):
        # With no row there is no dataclass to take the header from.
        with pytest.raises(ValueError, match="no rows to write"):
            rows_to_csv(measure_thickness("mergesort", [], trials=1, seed=0))

    def test_unknown_sorter(self):
        with pytest.raises(ValueError):
            measure_thickness("bogosort", [4], trials=1, seed=0)

    def test_every_size_checked_before_the_first_trial(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return TruthfulOracle(*args, **kwargs)

        monkeypatch.setattr(harness, "TruthfulOracle", counting)
        with pytest.raises(ValueError, match="s must be at least 1"):
            measure_thickness("mergesort", [8, 0], trials=5, seed=0)
        assert built == []


class TestCli:
    def test_run_to_stdout(self, capsys):
        code = main(
            ["run", "--algorithm", "pohl", "--n", "6", "--trials", "2", "--seed", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.strip().splitlines()) == 3

    def test_run_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        code = main(
            [
                "run",
                "--algorithm",
                "find-min",
                "--n",
                "20",
                "--k",
                "1",
                "--oracle",
                "triggered-liar",
                "--trigger",
                "2",
                "--trials",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.read_text().splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize(
        "argv, runner, out",
        [
            (["run", "--algorithm", "pohl", "--n", "4"], "run_experiments", "missing/x.csv"),
            (
                ["thickness", "--sorter", "mergesort", "--s", "4"],
                "measure_thickness",
                "missing/x.csv",
            ),
            (["run", "--algorithm", "pohl", "--n", "4"], "run_experiments", ""),
            (["thickness", "--sorter", "mergesort", "--s", "4"], "measure_thickness", ""),
        ],
        ids=["run", "thickness", "run-empty", "thickness-empty"],
    )
    def test_unwritable_out_is_a_usage_error(
        self, argv, runner, out, tmp_path, monkeypatch, capsys
    ):
        # An empty path names no file, though its directory reads as ".".
        out_file = tmp_path / out if out else ""
        ran = []
        monkeypatch.setattr(cli, runner, lambda *args: ran.append(args))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out_file)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(f"error: argument --out: cannot write {out_file}")
        assert ran == []

    def test_verify_pass(self, capsys):
        code = main(["verify", "--algorithm", "find-min", "--n", "3", "--k", "1"])
        assert code == 0
        assert capsys.readouterr().out == (
            "pass: find-min n=3 k=1 (20 leaves, 43 nodes, worst_comparisons=5)\n"
        )

    def test_verify_counterexample(self, monkeypatch, capsys):
        # A find-min that asks one pair and reports its first item whatever
        # the answer: the walk's second leaf proves it wrong.
        def first_item(items, k, oracle, s):
            oracle.query(items[0], items[1])
            return MinMaxResult(items[0], None, RunStats(0, {"final-min": 1}))

        entry = REGISTRY["find-min"]._replace(run=first_item)
        monkeypatch.setitem(harness.REGISTRY, "find-min", entry)
        assert main(["verify", "--algorithm", "find-min", "--n", "2"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "COUNTEREXAMPLE: find-min n=2 k=0",
            "  answers: ['first-larger']",
            "  reported min=0 max=None",
            "  consistent order: rank=(1, 0)",
        ]

    def test_thickness(self, capsys):
        code = main(
            ["thickness", "--sorter", "mergesort", "--s", "16", "--trials", "3", "--seed", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "sorter,s,trials,min_thickness,mean_thickness,max_thickness\n"
            "mergesort,16,3,9,10.333,12\n"
        )

    def test_thickness_bytes_are_pinned(self, capsys):
        code = main(
            ["thickness", "--sorter", "balanced-quicksort", "--s", "8", "--s", "16"]
            + ["--trials", "3", "--seed", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "sorter,s,trials,min_thickness,mean_thickness,max_thickness\n"
            "balanced-quicksort,8,3,7,8.000,9\n"
            "balanced-quicksort,16,3,17,18.000,20\n"
        )

    def test_s_override_flows_through(self, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                "improved",
                "--n",
                "6",
                "--k",
                "2",
                "--s-override",
                "3",
                "--trials",
                "1",
            ]
        )
        assert code == 0
        assert "improved,6,2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--algorithm", "improved", "--n", "1"], "improved needs at least two elements"),
            (["run", "--algorithm", "find-min", "--n", "0"], "n must be at least 1"),
            (
                ["run", "--algorithm", "find-min", "--n", "4", "--trials", "0"],
                "trials must be at least 1",
            ),
            (
                ["run", "--algorithm", "find-min", "--n", "4", "--k", "1"]
                + ["--oracle", "random-liar", "--p", "1.5"],
                "p must lie in [0, 1]",
            ),
            (
                ["verify", "--algorithm", "pohl", "--n", "3", "--k", "1"],
                "the pairing algorithm is a k=0 algorithm",
            ),
            (
                ["run", "--algorithm", "pohl", "--n", "10", "--k", "3"],
                "the pairing algorithm is a k=0 algorithm",
            ),
            (
                ["verify", "--algorithm", "find-min", "--n", "7"],
                "exhaustive order enumeration needs n <= 6, got 7",
            ),
            (["calibrate"], None),
            (
                ["thickness", "--sorter", "mergesort", "--s", "4", "--trials", "0"],
                "trials must be at least 1",
            ),
            (["thickness", "--sorter", "mergesort", "--s", "0"], "s must be at least 1"),
            (
                ["run", "--algorithm", "simple", "--n", "10", "--k", "2", "--s-override", "5"],
                "simple has no group size to override",
            ),
            (
                ["run", "--algorithm", "pohl", "--n", "10", "--s-override", "9"],
                "pohl has no group size to override",
            ),
            (
                ["verify", "--algorithm", "find-min", "--n", "3", "--s-override", "2"],
                "find-min has no group size to override",
            ),
            (
                ["run", "--algorithm", "improved", "--n", "10", "--k", "0", "--s-override", "5"],
                "group size 5 exceeds k+2=2",
            ),
            (
                ["verify", "--algorithm", "improved", "--n", "4", "--k", "0", "--s-override", "3"],
                "group size 3 exceeds k+2=2",
            ),
            (
                ["verify", "--algorithm", "find-min", "--n", "3", "--k", "-1"],
                "k must be non-negative",
            ),
            (["verify", "--algorithm", "find-min", "--n", "0"], "n must be at least 1"),
            (
                ["verify", "--algorithm", "improved", "--n", "1"],
                "improved needs at least two elements",
            ),
            (
                ["run", "--algorithm", "simple", "--n", "10", "--k", "1", "--p", "0.5"],
                "p applies only to the random-liar oracle",
            ),
            (
                ["run", "--algorithm", "simple", "--n", "10", "--k", "1"]
                + ["--oracle", "random-liar", "--trigger", "3"],
                "triggers apply only to the triggered-liar oracle",
            ),
            (
                ["run", "--algorithm", "simple", "--n", "10", "--k", "1"]
                + ["--oracle", "triggered-liar", "--no-transcripts"],
                "a lying oracle always records its transcript",
            ),
            (
                ["run", "--algorithm", "simple", "--n", "10", "--k", "1"]
                + ["--oracle", "triggered-liar", "--trigger", "-5"],
                "trigger indices must be non-negative",
            ),
            (
                ["run", "--algorithm", "simple", "--n", "3", "--k", "5"]
                + ["--oracle", "triggered-liar"]
                + ["--trigger", "17", "--trigger", "3", "--trigger", "3"],
                "trigger indices must be distinct",
            ),
        ],
        ids=[
            "run-n-1",
            "run-n-0",
            "run-trials-0",
            "run-p-above-1",
            "verify-pohl-k-1",
            "run-pohl-k-3",
            "verify-n-7",
            "calibrate",
            "thickness-trials-0",
            "thickness-s-0",
            "run-simple-s-override",
            "run-pohl-s-override",
            "verify-find-min-s-override",
            "run-improved-k-0-s-override",
            "verify-improved-k-0-s-override",
            "verify-k-negative",
            "verify-find-min-n-0",
            "verify-improved-n-1",
            "run-p-truthful",
            "run-trigger-random-liar",
            "run-no-transcripts-liar",
            "run-trigger-negative",
            "run-trigger-repeated",
        ],
    )
    def test_invalid_arguments_are_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is not None:
            assert err.splitlines()[-1] == f"liarminmax: error: {message}"


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bounds_sweep_stays_within_every_bound():
    rows = load_script("run_bounds_sweep").sweep(0)
    assert len(rows) == 981
    assert {row.algorithm for row in rows} >= {"pohl", "simple", "improved"}
    assert [row for row in rows if not row.within_bound] == []


def test_bounds_sweep_writes_only_csv_to_stdout(monkeypatch, capsys):
    script = load_script("run_bounds_sweep")
    rows = run_experiments(ExperimentConfig("pohl", n=6, k=0, trials=3, seed=2))
    monkeypatch.setattr(script, "sweep", lambda seed: rows)
    monkeypatch.setattr(sys, "argv", ["run_bounds_sweep.py"])
    assert script.main() == 0
    captured = capsys.readouterr()
    assert captured.out == rows_to_csv(rows)
    assert "all within bounds" in captured.err


def test_bounds_sweep_fails_on_a_row_beyond_its_bound(monkeypatch, capsys):
    script = load_script("run_bounds_sweep")
    rows = run_experiments(ExperimentConfig("pohl", n=6, k=0, trials=2, seed=2))
    rows[1] = replace(rows[1], comparisons=rows[1].bound + 1, within_bound=False)
    monkeypatch.setattr(script, "sweep", lambda seed: rows)
    monkeypatch.setattr(sys, "argv", ["run_bounds_sweep.py"])
    assert script.main() == 1
    captured = capsys.readouterr()
    assert captured.out == rows_to_csv(rows)
    assert captured.err.splitlines() == [
        "1 rows exceeded their bound:",
        CSV_HEADER,
        f"pohl,6,0,truthful,{rows[1].seed},8,0,7,false",
    ]


def canned_run(trial_ms, elements_per_s, verdict="match", failed=0):
    """The stdout of one ``perfbench/run.py --trace 0`` run, cut down."""
    metrics = {
        "trial_ms_p50": {"value": trial_ms, "unit": "ms"},
        "elements_per_s": {"value": elements_per_s, "unit": "1/s"},
    }
    return "\n".join([
        f"workload restart-recorded  seed 1  trace 0  seconds 30  attempted 9  failed {failed}",
        f"  trial_ms_p50                         {trial_ms:>16.6f} ms           9 trials",
        f"  fingerprint {'csv_sha256':<24} {verdict}",
        f"  fingerprint {'comparisons':<24} match",
        json.dumps({"correct": not failed, "attempted": 9, "failed": failed, "metrics": metrics}),
    ])


def test_bench_pairs_reads_a_run():
    script = load_script("bench_pairs")
    values, problems = script.read_run(canned_run(24.5, 80000.0), 0)
    assert values == {"trial_ms_p50": 24.5, "elements_per_s": 80000.0}
    assert problems == []
    mismatch = "MISMATCH (golden 1f, got 2e)"
    _, problems = script.read_run(canned_run(24.5, 80000.0, mismatch, failed=2), 1)
    assert problems == [
        f"fingerprint csv_sha256 {mismatch}",
        "exit status 1",
        "2 of 9 trials failed",
    ]
    assert script.read_run("Traceback (most recent call last):", 1) == (
        {},
        ["exit status 1", "no result line"],
    )


def test_bench_pairs_summary():
    script = load_script("bench_pairs")
    run = [
        {side: script.read_run(canned_run(*numbers), 0)[0] for side, numbers in pair.items()}
        for pair in [
            {"parent": (24.0, 80.0), "change": (22.0, 90.0)},
            {"parent": (25.0, 81.0), "change": (25.0, 80.0)},
            {"parent": (23.0, 79.0), "change": (21.0, 85.0)},
        ]
    ]
    metrics = [
        {"name": "trial_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "elements_per_s", "unit": "1/s", "better": "higher"},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
    # Quartiles as perfbench/sweep.py takes them (exclusive, so two values
    # spread past their range); the tie on the second pair counts for
    # neither side; a metric no run reports is left out, and one with no
    # bound gets no verdict.
    assert script.summary(run[:2], [(562, run[2])], metrics) == (
        [
            "trial_ms_p50             ms           parent 24.5 [23.75, 25.25] change 23.5 [21.25, 25.75]"
            "  won 1/2  seed 562: 23 -> 21  better",
            "elements_per_s           1/s          parent 80.5 [79.75, 81.25] change 85 [77.5, 92.5]"
            "  won 1/2  seed 562: 79 -> 85",
        ],
        [],
    )


@pytest.mark.parametrize(
    "better, parent, change, verdict, problem",
    [
        ("lower", (100, 100, 100), (95, 96, 97), "better", None),
        ("lower", (100, 100, 100), (99, 100, 101), "same", None),
        ("lower", (100, 100, 100), (104, 105, 106), "worse by 5.0% (bound 10%)", None),
        ("lower", (100, 100, 100), (119, 120, 121), "worse by 20.0% (bound 10%)", 20),
        ("higher", (100, 100, 100), (79, 80, 81), "worse by 20.0% (bound 10%)", 20),
        ("higher", (100, 100, 100), (104, 105, 106), "better", None),
        # The parent's quartiles span 40% of its median, past the bound, so
        # the verdict is open; a median beyond the bound is still a problem...
        ("lower", (80, 100, 120), (95, 96, 97), "unresolved", None),
        ("lower", (80, 100, 120), (119, 120, 121), "unresolved", 20),
        # ...and every change run reading better than every parent run settles it.
        ("lower", (80, 100, 120), (50, 60, 70), "better", None),
        ("higher", (80, 100, 120), (130, 140, 150), "better", None),
    ],
)
def test_bench_pairs_summary_verdict(better, parent, change, verdict, problem):
    script = load_script("bench_pairs")
    pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
    metric = {"name": "m", "unit": "ms", "better": better, "bound": 0.1}
    (line,), problems = script.summary(pairs, [], [metric])
    assert line.endswith(f"/3  {verdict}")
    assert problems == ([] if problem is None else [f"m median worse by {problem}.0% (bound 10%)"])


def test_bench_pairs_lists_every_pair():
    script = load_script("bench_pairs")
    runs = [
        (seed, {side: script.read_run(canned_run(*pair[side]), 0)[0] for side in pair})
        for seed, pair in [
            (1, {"parent": (24.0, 80.0), "change": (22.5, 90.0)}),
            (2, {"parent": (25.0, 81.0), "change": (25.0, 80.0)}),
            (562, {"parent": (23.0, 79.0), "change": (21.0, 85.0)}),
        ]
    ]
    metrics = [
        {"name": "trial_ms_p50", "unit": "ms", "better": "lower"},
        {"name": "elements_per_s", "unit": "1/s", "better": "higher"},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
    ]
    # Every seed in run order, held-out seeds included; a metric no run
    # reports is left out, as in the summary.
    assert script.pair_lines(runs, metrics) == [
        "trial_ms_p50             seed 1: 24 -> 22.5  seed 2: 25 -> 25  seed 562: 23 -> 21",
        "elements_per_s           seed 1: 80 -> 90  seed 2: 81 -> 80  seed 562: 79 -> 85",
    ]


def test_bench_pairs_rejects_an_unknown_workload_before_running(monkeypatch, capsys):
    script = load_script("bench_pairs")
    ran = []
    monkeypatch.setattr(script.subprocess, "run", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setattr(script, "run_once", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as raised:
        script.main(["--parent", "HEAD~1", "--workload", "nope", "--seeds", "1-2"])
    assert raised.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert ran == []


def test_bench_pairs_rejects_a_parent_git_cannot_archive(monkeypatch, capsys):
    script = load_script("bench_pairs")
    ran = []
    failed = subprocess.CompletedProcess(
        ["git"], 128, b"", b"fatal: not a valid object name: nope\n"
    )
    monkeypatch.setattr(script.subprocess, "run", lambda *args, **kwargs: failed)
    monkeypatch.setattr(script, "run_once", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as raised:
        script.main(["--parent", "nope", "--workload", "restart-recorded", "--seeds", "1"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "cannot archive --parent 'nope': fatal: not a valid object name: nope" in err
    assert ran == []


def test_bench_pairs_alternates_and_fails_on_a_mismatch(monkeypatch, capsys, tmp_path):
    script = load_script("bench_pairs")
    empty = tmp_path / "empty.tar"
    with tarfile.open(empty, "w"):
        pass
    archived = SimpleNamespace(returncode=0, stdout=empty.read_bytes())
    monkeypatch.setattr(script.subprocess, "run", lambda *args, **kwargs: archived)
    order = []

    def fake_run(tree, workload, seed, seconds):
        side = "change" if tree == script.ROOT else "parent"
        order.append((side, seed))
        verdict = "MISMATCH (golden 1f, got 2e)" if (side, seed) == ("change", 562) else "match"
        return script.read_run(canned_run(20.0 + seed % 7, 80.0, verdict), 0)

    monkeypatch.setattr(script, "run_once", fake_run)
    argv = ["--parent", "HEAD~1", "--workload", "restart-recorded", "--seeds", "1-2"]
    assert script.main(argv) == 0
    assert order == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    order.clear()
    assert script.main([*argv, "--held-out", "562"]) == 1
    assert order[4:] == [("parent", 562), ("change", 562)]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "PROBLEM change seed 562: fingerprint csv_sha256 MISMATCH (golden 1f, got 2e)"
    )
    # A change median beyond its bound fails the run, with no run problem.
    def slow_change(tree, workload, seed, seconds):
        slow = 1.5 if tree == script.ROOT else 1.0
        return script.read_run(canned_run(20.0 * slow, 80.0), 0)

    monkeypatch.setattr(script, "run_once", slow_change)
    assert script.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "PROBLEM trial_ms_p50 median worse by 50.0% (bound 25%)"
    )
