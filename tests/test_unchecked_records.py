"""Records the library builds without their checked constructors.

`efficiency` builds its `AlphaBeta`, `ShapeParams` and `EfficiencyResult`
from values the xi step and the length step have just checked, and
`eta_numeric` builds its `OracleResult` once its values pass the
record's own tests.  Each such record must be the record the checked
constructor gives for its values: equal, with the same hash and repr,
and with float fields.  Where a value fails a test, the refusal keeps
the checked constructor's text.  The levels are reached through the
module attribute `oracle._eta_on_grid`, which the benchmark's per-level
probe and trace binding name.
"""

import dataclasses
import math
import random

import pytest

from spdcfc import (AlphaBeta, EfficiencyResult, ExperimentConfig,
                    OracleResult, QuadratureSpec, ShapeParams, WalkOffSet,
                    efficiency, eta_numeric, oracle)
from spdcfc.core import EROS_SERIES_CUTOFF
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS, reference_config


def _configs(seed: int, count: int):
    # lengths from 1e-9 um, where every sigma is below the series cutoff,
    # to 10 cm; waists, fibers and magnifications over the design ranges
    # and beyond; walk-offs in [0, 0.2], with zeros
    rng = random.Random(seed)

    def walkoff():
        return 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.2)

    for _ in range(count):
        yield ExperimentConfig(
            crystal_length=10.0 ** rng.uniform(-9.0, 5.0),
            pump_waist=10.0 ** rng.uniform(0.0, 3.0),
            fiber_mode_radius=10.0 ** rng.uniform(0.0, 1.0),
            inverse_magnification=10.0 ** rng.uniform(0.0, 3.0),
            walkoffs=WalkOffSet(walkoff(), walkoff(), walkoff()))


def _checked(res: EfficiencyResult) -> EfficiencyResult:
    sp, ab = res.shape, res.shape.alpha_beta
    return EfficiencyResult(res.eta, ShapeParams(
        sp.xi, sp.sigma_c, sp.sigma1, sp.sigma2,
        AlphaBeta(ab.alpha1, ab.alpha2, ab.beta)))


@pytest.mark.parametrize("seed", [1, 2])
def test_efficiency_records_are_the_checked_records(seed):
    series = 0
    for cfg in _configs(seed, 1000):
        res = efficiency(cfg)
        want = _checked(res)
        assert res == want and res.shape == want.shape
        assert res.shape.alpha_beta == want.shape.alpha_beta
        assert hash(res) == hash(want)
        assert repr(res) == repr(want)
        assert dataclasses.asdict(res) == dataclasses.asdict(want)
        sp, ab = res.shape, res.shape.alpha_beta
        values = (res.eta, sp.xi, sp.sigma_c, sp.sigma1, sp.sigma2,
                  ab.alpha1, ab.alpha2, ab.beta)
        assert all(type(v) is float for v in values), values
        series += max(sp.sigma_c, sp.sigma1, sp.sigma2) < EROS_SERIES_CUTOFF
    # configs with every sigma on the Taylor series are among them
    assert 50 < series < 950


def test_efficiency_records_stay_frozen():
    res = efficiency(reference_config(3000.0))
    for record, name in ((res, "eta"), (res.shape, "xi"),
                         (res.shape.alpha_beta, "beta")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0.5)


def _fake_level(monkeypatch, values):
    # every level returns values: the first doubling agrees with the
    # requested grid, so eta_numeric builds its result from them
    monkeypatch.setattr(oracle, "_eta_on_grid", lambda *args: values)


def _refusal(call) -> str:
    with pytest.raises(DomainError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("values", [
    (1.0 + 1e-9 + 1e-15, 1.0, 1.0, 1.0),
    (1.5, 0.25, 0.5, 0.5),
    (0.5, 0.25, 0.0, 0.5),
    (0.5, 0.0, 0.5, 0.5),
    (0.5, 0.25, 0.5, math.inf),
    (0.5, 0.25, math.nan, 0.5),
    (0.5, -0.25, 0.5, 0.5),
], ids=["eta-past-slack", "eta-1.5", "piece-0", "pair-piece-0",
        "piece-inf", "piece-nan", "piece-negative"])
def test_eta_numeric_keeps_oracle_results_refusals(values, monkeypatch):
    eta, p12, p1, p2 = values
    want = _refusal(lambda: OracleResult(eta, 0.0, (p12, p1, p2)))
    _fake_level(monkeypatch, values)
    assert _refusal(lambda: eta_numeric(reference_config(3000.0))) == want


@pytest.mark.parametrize("values", [
    (1.0 + 1e-9, 1.0, 1.0, 1.0),  # at the bound's slack
    (0.5, 0.25, 0.5, 0.5),
    (5e-324, 5e-324, 1e300, 1e300),
], ids=["eta-at-slack", "design", "extremes"])
def test_eta_numeric_results_are_the_checked_records(values, monkeypatch):
    eta, p12, p1, p2 = values
    _fake_level(monkeypatch, values)
    res = eta_numeric(reference_config(3000.0))
    want = OracleResult(eta, 0.0, (p12, p1, p2))
    assert res == want and hash(res) == hash(want)
    assert repr(res) == repr(want)
    assert all(type(v) is float
               for v in (res.eta_numeric, res.est_rel_err, *res.pieces))
    assert type(res.pieces) is tuple


def _recorded_levels(monkeypatch):
    calls = []
    level = oracle._eta_on_grid

    def recorder(*args):
        result = level(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(oracle, "_eta_on_grid", recorder)
    return calls


@pytest.mark.parametrize("spec, grids", [
    (QuadratureSpec(), [(14, 96), (28, 192)]),
    # the first doubling misses target_rel_err, the second meets it
    (QuadratureSpec(n_tau=8, n_trans=16), [(8, 16), (16, 32), (32, 64)]),
], ids=["reference", "coarse"])
def test_eta_numeric_reaches_each_level_through_the_module(spec, grids,
                                                          monkeypatch):
    cfg = reference_config(3000.0)
    calls = _recorded_levels(monkeypatch)
    res = eta_numeric(cfg, spec)
    assert [args for args, _ in calls] == [
        (cfg, n_tau, n_trans, spec.extent_factor) for n_tau, n_trans in grids]
    for _, result in calls:
        assert len(result) == 4 and all(type(v) is float for v in result)
    etas = [result[0] for _, result in calls]
    est = [abs(b - a) / abs(b) for a, b in zip(etas, etas[1:])]
    assert [e <= spec.target_rel_err for e in est] == [False] * (
        len(est) - 1) + [True]
    eta, *pieces = calls[-1][1]
    assert res == OracleResult(eta, est[-1], tuple(pieces))
