"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one pass line (visible with ``pytest -s``); a failure of any
assertion is the corresponding criterion failing.  Thresholds are fixed here,
not computed from the run being checked.
"""

import math
import random
import zlib

from flow_reference import flow_selftest
from liarminmax.algorithms import (
    find_min_k_lies,
    improved_minmax,
    pohl_minmax,
    simple_minmax,
)
from liarminmax.core import TotalOrder, assert_lie_budget
from liarminmax.harness import (
    ExperimentConfig,
    measure_thickness,
    run_experiments,
    verify_exhaustive,
)
from liarminmax.oracles import RandomLiarOracle, TriggeredLiarOracle, TruthfulOracle
from liarminmax.sorters import mergesort

# Criterion 7's ceiling on balanced-quicksort thickness, as a multiple of s.
# Observed ratios peak near 3.6 for s in 64..4096; 5 leaves headroom.
THICKNESS_CT = 5


def test_criterion_1_pairing_exactness():
    # truthful oracle, n = 2..100: exactly ceil(3n/2) - 2 comparisons
    for n in range(2, 101):
        order = TotalOrder.shuffled(n, random.Random(1000 + n))
        oracle = TruthfulOracle(order, record=False)
        result = pohl_minmax(list(range(n)), oracle)
        expected = (3 * n + 1) // 2 - 2
        assert result.stats.comparisons == expected, (n, result.stats.comparisons, expected)
        assert result.min == order.min_element()
        assert result.max == order.max_element()
    print("PASS criterion 1: pairing min+max uses exactly ceil(3n/2)-2 comparisons, n=2..100")


def test_criterion_2_minimum_against_k_lies():
    oracle_variants = [
        {"oracle": "truthful"},
        {"oracle": "random-liar", "p": 0.1},
        {"oracle": "random-liar", "p": 0.5},
        {"oracle": "triggered-liar"},
    ]
    runs = 0
    for n in (10, 50, 200):
        for k in range(0, 6):
            for variant in oracle_variants:
                cfg = ExperimentConfig(
                    "find-min", n=n, k=k, trials=100, seed=7_000 + 97 * n + k, **variant
                )
                rows = run_experiments(cfg)  # raises on any wrong minimum
                for row in rows:
                    assert row.comparisons <= (k + 1) * n - 1, row
                runs += len(rows)
    print(f"PASS criterion 2: find-min correct and within (k+1)n-1 over {runs} trials")


def test_criterion_3_exhaustive_worst_case():
    leaves = 0
    for n in range(2, 6):
        for k in range(0, 3):
            report = verify_exhaustive(n, k, "find-min")
            assert report.passed, report.counterexample
            leaves += report.leaves
    for n in range(2, 5):
        for k in range(0, 2):
            report = verify_exhaustive(n, k, "improved", s_override=2)
            assert report.passed, report.counterexample
            leaves += report.leaves
    print(f"PASS criterion 3: exhaustive adversary game tree, {leaves} leaves, 0 counterexamples")


def test_criterion_4_completion_selftest():
    report = flow_selftest(max_s=8, max_k=3, random_instances=10_000, seed=20_260_401)
    assert report.passed, report.failures[:3]
    assert report.exhaustive_checked > 5_000
    assert report.random_checked == 10_000
    print(
        "PASS criterion 4: completion guarantees on "
        f"{report.exhaustive_checked} exhaustive + {report.random_checked} random instances"
    )


def test_criterion_5_total_count_regression():
    for k in (8, 16, 32):
        n = 1000 * k
        order = TotalOrder.shuffled(n, random.Random(50_000 + k))
        oracle = TruthfulOracle(order, record=False)
        result = improved_minmax(list(range(n)), k, oracle)
        bound = (k + 1 + 10) * n + 1000 * k**3
        assert result.stats.comparisons <= bound, (k, result.stats.comparisons, bound)
        assert result.stats.restarts == 0
        assert result.min == order.min_element()
        assert result.max == order.max_element()
    print("PASS criterion 5: improved total count under (k+1+10)n + 1000k^3 for k in {8,16,32}")


def test_criterion_6_per_group_bound():
    checked = 0
    for k, n in ((4, 120), (8, 240)):
        for seed, make_oracle in enumerate(
            (
                lambda o, s: TruthfulOracle(o),
                lambda o, s: RandomLiarOracle(o, k, p=0.2, seed=s),
                lambda o, s: TriggeredLiarOracle(o, k, triggers=range(s % 7, 120, 17)),
            )
        ):
            order = TotalOrder.shuffled(n, random.Random(60_000 + k + seed))
            oracle = make_oracle(order, seed + 1)
            log = []
            result = improved_minmax(list(range(n)), k, oracle, group_log=log)
            assert result.min == order.min_element()
            assert result.max == order.max_element()
            for report in log:
                if not report.completed:
                    continue
                bound = (k + 1) * (report.size - 1) + report.thickness
                total = report.sort_comparisons + report.added_comparisons
                assert total <= bound, (k, report)
                checked += 1
    assert checked > 50
    print(f"PASS criterion 6: sort+verify <= (k+1)(s-1)+t(H) in all {checked} completed groups")


def test_criterion_7_thickness_properties():
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    for row in measure_thickness("balanced-quicksort", sizes, trials=100, seed=7):
        assert row.max_thickness <= THICKNESS_CT * row.s, row
    for row in measure_thickness("mergesort", [64, 256, 1024], trials=100, seed=7):
        assert row.min_thickness >= row.s // 8, row
    print(
        f"PASS criterion 7: quicksort thickness <= {THICKNESS_CT}*s for s in 64..4096; "
        "mergesort thickness >= s/8 on 100/100 inputs"
    )


def test_criterion_8_lie_accounting():
    audited = 0
    for algorithm in ("find-min", "simple", "improved"):
        for n, k in ((20, 2), (40, 4), (60, 5)):
            variants = [("random-liar", 0.1), ("random-liar", 0.5), ("triggered-liar", None)]
            for oracle_kind, p in variants:
                for trial in range(20):
                    # crc32, unlike hash(), gives the same seed in every process.
                    key = repr((algorithm, n, k, oracle_kind, p, trial)).encode()
                    rng = random.Random(80_000 + zlib.crc32(key) % 10**6)
                    order = TotalOrder.shuffled(n, rng)
                    if oracle_kind == "random-liar":
                        oracle = RandomLiarOracle(order, k, p, seed=rng.randrange(2**31))
                    else:
                        triggers = rng.sample(range((k + 1) * n), k)
                        oracle = TriggeredLiarOracle(order, k, triggers)
                    restarts = 0
                    if algorithm == "find-min":
                        el, _ = find_min_k_lies(list(range(n)), k, oracle)
                        assert el == order.min_element()
                    elif algorithm == "simple":
                        result = simple_minmax(list(range(n)), k, oracle)
                        restarts = result.stats.restarts
                        assert (result.min, result.max) == (
                            order.min_element(),
                            order.max_element(),
                        )
                    else:
                        result = improved_minmax(list(range(n)), k, oracle)
                        restarts = result.stats.restarts
                        assert (result.min, result.max) == (
                            order.min_element(),
                            order.max_element(),
                        )
                    assert_lie_budget(oracle.transcript, order, k)
                    assert restarts <= oracle.lies_told
                    audited += 1
    print(f"PASS criterion 8: lie budget and restarts<=lies held in all {audited} lying runs")


def test_criterion_9_simple_accounting_identity():
    for k in (4, 8):
        s, n = k, 100 * k
        order = TotalOrder(tuple(range(n)))
        oracle = TruthfulOracle(order, record=False)
        result = simple_minmax(list(range(n)), k, oracle)
        assert result.min == 0 and result.max == n - 1
        assert result.stats.restarts == 0
        groups = n // s
        # every group is an identity-ordered block, so the per-group sort cost
        # is the mergesort cost of one sorted block
        sort_cost = mergesort(
            list(range(s)), TruthfulOracle(TotalOrder(tuple(range(s))), record=False)
        ).comparisons
        breakdown = result.stats.phase_breakdown
        assert breakdown["group-sort"] == groups * sort_cost
        assert breakdown["group-verify"] == groups * (k + 1) * (s - 1)
        final = breakdown["final-min"] + breakdown["final-max"]
        assert result.stats.comparisons == groups * (sort_cost + (k + 1) * (s - 1)) + final
        ratio_cap = k + 1 + 2 * math.ceil(math.log2(k)) + 4
        assert result.stats.comparisons / n <= ratio_cap, (k, result.stats.comparisons / n)
    print("PASS criterion 9: simple-algorithm accounting identity and per-element ratio cap")
