"""Numbers that are not floats are computed with as the floats the number
rule reads them as.

A `Decimal`, a `Fraction`, a numpy scalar or an int passes the rule;
each call below must then give what the call with its float gives, and
the frozen types store that float.  A config file's integer is still
echoed as it was written: the command line echoes the values it was
given, not the stored floats.
"""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spdcfc import (AlphaBeta, EfficiencyResult, ExperimentConfig,
                    PhaseMatchGeometry, ShapeParams, TemporalParams,
                    WalkOffSet, ceiling_scan, efficiency, erf_over_sigma,
                    eta_closed_form, eta_numeric, maximize_eta, q_over_kbar,
                    sigma_over_erf)
from spdcfc.cli import main
from spdcfc.errors import DomainError
from spdcfc.oracle import QuadratureSpec

from conftest import REFERENCE_WALKOFFS

AB = AlphaBeta(0.01, 0.001, 0.02)
GEOMETRY = PhaseMatchGeometry(0.415, 0.75, 0.06)


def config(num) -> ExperimentConfig:
    return ExperimentConfig(num("3000"), 53.0, 1.48, 49.0, REFERENCE_WALKOFFS)


# each call takes num, which reads a number from its text
CALLS = {
    "efficiency": lambda num: efficiency(config(num)),
    "eta_numeric": lambda num: eta_numeric(config(num)),
    "maximize_eta": lambda num: maximize_eta(config(num), "xi", (0.1, 10)),
    "ceiling_scan": lambda num: ceiling_scan(num("1.5"), REFERENCE_WALKOFFS,
                                             [1000.0, 2000.0]),
    "geometry": lambda num: PhaseMatchGeometry(num("0.415"), 0.75, 0.06),
    "q_over_kbar": lambda num: q_over_kbar(GEOMETRY, num("1.5")),
    "erf_over_sigma": lambda num: erf_over_sigma(num("1.5")),
    "sigma_over_erf": lambda num: sigma_over_erf(num("1.5")),
    "eta_closed_form": lambda num: eta_closed_form(
        ShapeParams(num("1"), 1.0, 1.0, 1.0, AB)),
    "extent_factor": lambda num: eta_numeric(
        config(float), QuadratureSpec(extent_factor=num("6"))),
}

KINDS = {"decimal": Decimal, "fraction": Fraction, "float64": np.float64,
         "float32": np.float32}


def outcome(call, num):
    try:
        return call(num)
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_other_numbers_give_the_float_result(call, kind):
    # any other exception fails the test by propagating
    assert outcome(call, kind) == outcome(call,
                                          lambda text: float(kind(text)))


@pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
def test_frozen_types_store_floats(kind):
    num = kind("0.5")
    shape = ShapeParams(num, num, num, num, AB)
    cfg = ExperimentConfig(num, num, num, num, REFERENCE_WALKOFFS)
    stored = [
        *vars(WalkOffSet(num, num, num)).values(),
        *vars(AlphaBeta(num, num, num)).values(),
        cfg.crystal_length, cfg.pump_waist, cfg.fiber_mode_radius,
        cfg.inverse_magnification,
        shape.xi, shape.sigma_c, shape.sigma1, shape.sigma2,
        EfficiencyResult(num, shape).eta,
        *vars(PhaseMatchGeometry(num, num, num)).values(),
        *vars(TemporalParams(num, num)).values(),
        QuadratureSpec(extent_factor=kind("6")).extent_factor,
        QuadratureSpec(target_rel_err=num).target_rel_err,
    ]
    assert all(type(v) is float for v in stored)


def test_ints_keep_their_value():
    # as the float of the same value
    cfg = ExperimentConfig(3000, 53, 1.48, 49, REFERENCE_WALKOFFS)
    assert (cfg.crystal_length, cfg.pump_waist) == (3000, 53)
    assert (type(cfg.crystal_length), type(cfg.pump_waist)) == (float, float)
    assert efficiency(cfg) == efficiency(
        ExperimentConfig(3000.0, 53.0, 1.48, 49.0, REFERENCE_WALKOFFS))


def test_config_file_integers_are_echoed_as_written(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1, "L_um": 3000, "rp_um": 53, "w_um": 1.48,
        "mu": 49, "walkoffs": {"Mp": 0.07631, "M": 0.07243, "QK": 0.036215}}))
    assert main(["eval", "--config", str(path), "--format", "json"]) == 0
    echoed = json.loads(capsys.readouterr().out)["config"]
    assert (echoed["L_um"], echoed["rp_um"], echoed["mu"]) == (3000, 53, 49)
    assert '"rp_um": 53,' in json.dumps(echoed)
