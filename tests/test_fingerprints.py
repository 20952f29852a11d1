"""Behaviour lock for the configurations the benchmark's golden set leaves out.

Each case runs ``run_experiments`` on a small fixed configuration and pins
the SHA-256 of its CSV and of its full query sequence.  A change that keeps
behaviour keeps every hash; a change that alters the comparisons made
updates them and says why.
"""

import hashlib
import random

import pytest

from liarminmax import harness
from liarminmax.algorithms import improved_minmax
from liarminmax.core import Answer, TotalOrder
from liarminmax.harness import ExperimentConfig, rows_to_csv, run_experiments
from liarminmax.oracles import RandomLiarOracle

CASES = {
    "pohl": ExperimentConfig("pohl", n=13, k=0, trials=3, seed=5),
    "improved-k0": ExperimentConfig("improved", n=11, k=0, trials=3, seed=6),
    "improved-s3": ExperimentConfig(
        "improved", n=20, k=2, oracle="random-liar", p=0.3, s_override=3, trials=4, seed=7
    ),
    "improved-triggered": ExperimentConfig(
        "improved", n=30, k=4, oracle="triggered-liar", trials=3, seed=8
    ),
    "find-min": ExperimentConfig(
        "find-min", n=25, k=2, oracle="random-liar", p=0.3, trials=3, seed=9
    ),
    "find-max": ExperimentConfig(
        "find-max", n=25, k=2, oracle="random-liar", p=0.3, trials=3, seed=10
    ),
    "simple": ExperimentConfig(
        "simple", n=24, k=2, oracle="random-liar", p=0.4, trials=4, seed=11
    ),
}

GOLDEN = {
    "find-max": (
        "b157d2bb506d86e7542c584c267d923bbc678d630a4bb6fd51cb23cb712ba2e0",
        "1c0873dd31460c332d54a62d124bd3acbdae12c8e1b490c686dffba087ada3d3",
    ),
    "find-min": (
        "8b87cf58e3b22db684fdcf4bf0e480808d52bea6f8f581e62560c737b2287caf",
        "ca88d376b2a61fe4a95c94e21df180936a6c2baf994e17e72e49a2387457dd61",
    ),
    "improved-k0": (
        "ecb36a7c05643675ce97a541af680a92a15a722124c34eb36f86ffaaa8fb2fb1",
        "9217616a9c596e41d3ab47c143547337b03fd0e2c5cbc2679975033cefe3b0ed",
    ),
    "improved-s3": (
        "05f8b225f533a866a981ae2ba601d5bebf61085f8955262fbbebdebe117d6cd3",
        "6447510b0519db135fe42fd9b7e9198e5ef276f1ef21070265648afac3fb899a",
    ),
    "improved-triggered": (
        "f0910c88d8dc6a234f6ce053004c18d448d53978c17cecb60ea562b76279fb43",
        "f377f16722160f890978495e403a776a4af8eb1f24b6e7ca2dc305136f76209f",
    ),
    "pohl": (
        "87364aa922500b12417274e70dca3b16bd324cec08b9feba889d853267ab10c2",
        "b3eae09a9ad90201191fa2863cc2e39a28745bccf7557171f2d77fd76a525074",
    ),
    "simple": (
        "fd2cf8bb28eb94931a68f1f820a4912037c7f8f515d9088025e75975389698e4",
        "e12f6b4e8ca09fc257806d246bb9547fc1e65764e4b496dfa7c1040f0bf5da03",
    ),
}
# Seeds 10 and 29 between them restart on all three kinds of proven lie:
# a partition-size contradiction, sort answers against the claimed order,
# and a failed verification query.
GOLDEN_GROUP_LOG = "b7a117d93aa8963e89c311493822b501fd5d60950a2edbc1f3d1848179f797e3"


def _hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_fingerprint(name, monkeypatch):
    # Every case records, and the harness audits each trial's transcript:
    # the logger reads the queries there, however the oracle answered them.
    queries = []
    audit = harness.assert_lie_budget

    def logged(transcript, order, k):
        for a, b, answer in transcript:
            queries.append(f"{a},{b},{int(answer is Answer.FIRST_SMALLER)}")
        return audit(transcript, order, k)

    monkeypatch.setattr(harness, "assert_lie_budget", logged)
    csv = rows_to_csv(run_experiments(CASES[name]))
    assert (_hex(csv), _hex("\n".join(queries))) == GOLDEN[name]


def test_group_log_fingerprint():
    log = []
    for seed in (10, 29):
        order = TotalOrder.shuffled(40, random.Random(seed))
        oracle = RandomLiarOracle(order, 5, p=0.3, seed=seed)
        improved_minmax(list(range(40)), 5, oracle, group_log=log)
    assert _hex(repr(log)) == GOLDEN_GROUP_LOG
