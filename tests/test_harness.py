import importlib.util
import random
import sys
from pathlib import Path

import pytest

from liarminmax import harness
from liarminmax.cli import main
from liarminmax.core import Answer, TotalOrder
from liarminmax.harness import (
    CSV_HEADER,
    REGISTRY,
    Counterexample,
    ExperimentConfig,
    measure_thickness,
    mergesort_comparison_cap,
    rows_to_csv,
    run_experiments,
    simple_comparison_bound,
    thickness_rows_to_csv,
    verify_exhaustive,
)
from liarminmax.oracles import ScriptedOracle, TruthfulOracle
from liarminmax.algorithms import (
    _certify_by_completion,
    _extrema,
    improved_minmax,
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


# (nodes, leaves, worst_comparisons) of the completion certifier's walks at
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

        with pytest.raises(ValueError, match="lie budget must be non-negative"):
            verify_exhaustive(3, -1, first_element_is_min)

    def test_custom_algorithm_takes_no_group_size(self):
        def first_element_is_min(items, k, oracle):
            return items[0], None

        with pytest.raises(ValueError, match="no group size to override"):
            verify_exhaustive(2, 0, first_element_is_min, s_override=2)

    @pytest.mark.parametrize(
        "algorithm, n, k",
        [
            (name, n, k)
            for name, entry in REGISTRY.items()
            for k in ((0,) if name == "pohl" else (0, 1))
            for n in range(entry.min_n, 5)
        ]
        + [("simple", 5, 1), ("simple", 4, 2), ("improved", 5, 1), ("improved", 4, 2)]
        + SIX_ELEMENT_WALKS,
    )
    def test_every_registered_algorithm_passes(self, algorithm, n, k):
        report = verify_exhaustive(n, k, algorithm)
        assert report.passed, report.counterexample
        assert (report.nodes, report.leaves) == WALK_SHAPES[(algorithm, n, k)]
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

    @pytest.mark.parametrize("n, k, s", BEYOND_K_PLUS_2)
    def test_completion_certifies_groups_beyond_k_plus_2(self, n, k, s):
        # Sort degrees may exceed k+1 here; the completion still gives every
        # position k+1 answers per side, and that floor is all the
        # certificate needs.
        def completion_groups_of_s(items, k, oracle):
            result = _extrema(_certify_by_completion, items, k, oracle, s)
            return result.min, result.max

        report = verify_exhaustive(n, k, completion_groups_of_s)
        assert report.passed, report.counterexample
        shape = (report.nodes, report.leaves, report.worst_comparisons)
        assert shape == BEYOND_K_PLUS_2[(n, k, s)]


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
        text = thickness_rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("sorter,s,")
        assert len(lines) == 3

    def test_unknown_sorter(self):
        with pytest.raises(ValueError):
            measure_thickness("bogosort", [4], trials=1, seed=0)


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

    def test_verify_pass(self, capsys):
        code = main(["verify", "--algorithm", "find-min", "--n", "3", "--k", "1"])
        assert code == 0
        assert capsys.readouterr().out == (
            "pass: find-min n=3 k=1 (20 leaves, 43 nodes, worst_comparisons=5)\n"
        )

    def test_thickness(self, capsys):
        code = main(
            ["thickness", "--sorter", "mergesort", "--s", "16", "--trials", "3", "--seed", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("sorter,")

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
        ],
        ids=[
            "run-n-1",
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
            "run-p-truthful",
            "run-trigger-random-liar",
            "run-no-transcripts-liar",
            "run-trigger-negative",
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


def test_bounds_sweep_writes_only_csv_to_stdout(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_bounds_sweep.py"
    spec = importlib.util.spec_from_file_location("run_bounds_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = run_experiments(ExperimentConfig("pohl", n=6, k=0, trials=3, seed=2))
    monkeypatch.setattr(script, "sweep", lambda seed: rows)
    monkeypatch.setattr(sys, "argv", ["run_bounds_sweep.py"])
    assert script.main() == 0
    captured = capsys.readouterr()
    assert captured.out == rows_to_csv(rows)
    assert "all within bounds" in captured.err
