"""Behaviour lock: the benchmark's golden fingerprints hold in the test suite.

Every benchmark workload replays a fixed configuration and fingerprints it:
the CSV rows and the full query sequence of ``run_experiments``, or the node
and leaf counts of the game-tree walk.  A change that keeps behaviour keeps
them equal to ``perfbench/golden.json``; this test reads that file and the
workloads and edits neither.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_matches_golden(name):
    assert WORKLOADS[name].lock().fingerprint == GOLDEN[name]
