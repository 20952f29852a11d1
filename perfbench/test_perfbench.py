"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, GameTreeWorkload, RunWorkload, TrialFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TINY = {
    "certify-truthful": RunWorkload("certify-truthful", "improved", n=96, k=8,
                                    oracle="truthful", record_transcripts=False),
    "restart-recorded": RunWorkload("restart-recorded", "simple", n=96, k=4,
                                    oracle="triggered-liar", record_transcripts=True),
    "gametree-verify": GameTreeWorkload("gametree-verify", n=3, k=1, s=2),
}


def test_tiny_workloads_mirror_the_registered_ones():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name):
    setup = ([0.2, 0.3, 0.25], [run.REFERENCE_SETUP_S] * 3)
    measured = run.end_to_end(TINY[name], seed=3, seconds=0.05, setup=setup)
    got = {metric: unit for metric, (_, unit, _) in measured.metrics.items()}
    assert got == END_TO_END
    assert measured.extras["error_rate"][0] == 0
    assert measured.metrics["success_rate"][0] == 100.0
    assert measured.metrics["setup_s"][0] == 0.25
    assert all(value > 0 for metric, (value, _, _) in measured.metrics.items() if metric != "c_k")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_metrics_and_span_tree(name):
    measured = run.per_layer(TINY[name], seed=3, seconds=0.05)
    got = {metric: unit for metric, (_, unit, _) in measured.metrics.items()}
    assert got == PER_LAYER
    assert not measured.loop.failures
    tracer = measured.tracer
    assert tracer.trials >= 1
    assert tracer.nests()
    duration, own = tracer.self_times()
    assert np.all(own >= 0) and np.all(own <= duration)
    for metric, (value, _, _) in measured.metrics.items():
        if metric.endswith("self_ms") or metric.endswith(".ms"):
            assert value >= 0, metric
    shares = [measured.metrics[f"layer.{layer}.self_share"][0] for layer in LAYERS]
    assert 0 < sum(shares) <= 100


def test_layer_shares_point_at_the_expected_layers():
    certify = run.per_layer(TINY["certify-truthful"], seed=5, seconds=0.2).metrics
    assert certify["graphs.complete_edges.calls"][0] > 0
    restart = run.per_layer(TINY["restart-recorded"], seed=5, seconds=0.2).metrics
    assert restart["graphs.complete_edges.calls"][0] == 0
    assert restart["sorters.sort.calls"][0] > 0
    assert restart["oracles.lies_told"][0] == 4
    assert restart["core.transcript.records"][0] == restart["oracles.query.calls"][0]
    tree = run.per_layer(TINY["gametree-verify"], seed=5, seconds=0.2).metrics
    assert tree["harness.verify.replays_per_leaf"][0] > 1
    assert tree["harness.verify.replay_share"][0] > 50


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.names[:] = ["bench.trial", "child"]
    tracer._ids.update({"bench.trial": 0, "child": 1})
    # A root span over [0, 100] with two children over [10, 30] and [40, 50].
    for name, start, end, parent in ((0, 0, 100, -1), (1, 10, 30, 0), (1, 40, 50, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.trial.append(0)
    duration, own = tracer.self_times()
    assert list(duration) == [100, 20, 10]
    assert list(own) == [70, 20, 10]
    assert tracer.nests()


def test_instrument_restores_the_package():
    from liarminmax import algorithms, core, harness

    before = (harness.run_experiments, algorithms.complete_edges, core.Transcript.append)
    with instrument(Tracer()):
        assert harness.run_experiments is not before[0]
    assert (harness.run_experiments, algorithms.complete_edges, core.Transcript.append) == before


def test_golden_fingerprints_match():
    golden = json.loads(run.GOLDEN.read_text())
    for name, workload in WORKLOADS.items():
        assert workload.lock().fingerprint == golden[name], name


def test_improved_trial_fails_beyond_the_paper_constant(monkeypatch):
    from liarminmax import harness

    workload = TINY["certify-truthful"]
    real = harness.run_experiments

    def costly(cfg):
        return [
            dataclasses.replace(row, comparisons=(workload.k + 1 + 10) * workload.n + 1)
            for row in real(cfg)
        ]

    monkeypatch.setattr(harness, "run_experiments", costly)
    with pytest.raises(TrialFailed, match="k\\+1\\+C"):
        workload.trial(7)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = run.tail(values)
    assert value == 90 and percentile == 90.0
    assert sum(v > value for v in values) == 10


def _checkout(tmp_path: Path, with_source: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=checkout, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_contract_line(tmp_path, trace):
    checkout = _checkout(tmp_path, with_source=True)
    done = _run(checkout, "--workload", "restart-recorded", "--seed", "4",
                "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "MISMATCH" not in done.stdout
    record = json.loads((checkout / "perfbench/out/results.jsonl").read_text().splitlines()[-1])
    assert record["seed"] == 4 and record["workload"] == "restart-recorded"


def test_command_fails_without_the_source(tmp_path):
    checkout = _checkout(tmp_path, with_source=False)
    done = _run(checkout, "--workload", "certify-truthful", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
