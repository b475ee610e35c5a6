"""ROADMAP item 3's wide-domain probe: what agreed still agrees.

The probe draws 300 configs per seed (1 and 2): log-uniform L in
[10 um, 10 cm], r_p in [3, 1000] um, w in [1, 10] um and mu in
[1, 1000], walk-offs uniform in [0, 0.2].
``tests/data/oracle_probe_agree.json`` holds, per seed, the indices
whose ``eta_numeric`` agreed with the closed form within ``AGREE`` at
the commit before each depth integral got its own range.  Each of them
must still agree, and no config may end in an exception type the probe
did not meet there: ``ConvergenceError`` and the ``ZeroDivisionError``
of a transverse grid that steps over the narrower Gaussian (item 15).
Regenerate the file, only where a change is meant to move it, with

    PYTHONPATH=src python tests/test_oracle_probe.py \
        > tests/data/oracle_probe_agree.json
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

from spdcfc import ExperimentConfig, WalkOffSet, efficiency, eta_numeric

AGREED = Path(__file__).parent / "data" / "oracle_probe_agree.json"
SEEDS = (1, 2)
N_CONFIGS = 300
AGREE = 1e-9  # relative deviation from the closed form
MET_TYPES = {"ConvergenceError", "ZeroDivisionError"}


def probe_configs(seed: int) -> list:
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    configs = []
    for _ in range(N_CONFIGS):
        length, rp = log_uniform(10.0, 1e5), log_uniform(3.0, 1000.0)
        w, mu = log_uniform(1.0, 10.0), log_uniform(1.0, 1000.0)
        walkoffs = WalkOffSet(*(rng.uniform(0.0, 0.2) for _ in range(3)))
        configs.append(ExperimentConfig(length, rp, w, mu, walkoffs))
    return configs


def outcome(cfg) -> str:
    """"agree", "disagree" or the type of the exception raised."""
    closed = efficiency(cfg).eta
    try:
        numeric = eta_numeric(cfg).eta_numeric
    except Exception as exc:  # each type is an outcome
        return type(exc).__name__
    return "agree" if abs(numeric - closed) <= AGREE * closed else "disagree"


@pytest.fixture(scope="module")
def agreed() -> dict:
    return json.loads(AGREED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_configs_that_agreed_still_agree(seed, agreed):
    assert agreed["agree"] == AGREE and agreed["n_configs"] == N_CONFIGS
    outcomes = [outcome(cfg) for cfg in probe_configs(seed)]
    lost = [k for k in agreed["seeds"][str(seed)] if outcomes[k] != "agree"]
    assert lost == []
    assert set(outcomes) <= {"agree"} | MET_TYPES


if __name__ == "__main__":
    json.dump({"agree": AGREE, "n_configs": N_CONFIGS, "seeds": {
        str(seed): [k for k, cfg in enumerate(probe_configs(seed))
                    if outcome(cfg) == "agree"] for seed in SEEDS}},
              sys.stdout)
    sys.stdout.write("\n")
