"""The closed form's length step on both sides of its series cutoff.

The length step computes erf(sigma)/sigma inline and hands a sigma below
``EROS_SERIES_CUTOFF`` to the Taylor series.  These tests put each of
sigma_c, sigma1 and sigma2 exactly at the cutoff and one step of L to
either side of it, and check that every sweep gives the bits of
``efficiency()`` and of ``eta_closed_form(shape_params())`` there.
"""

import math
from dataclasses import replace

import pytest

from spdcfc import (
    AlphaBeta,
    ExperimentConfig,
    ShapeParams,
    SweepSpec,
    WalkOffSet,
    ceiling_scan,
    efficiency,
    efficiency_curve,
    eta_closed_form,
    maximize_eta,
    shape_params,
)
from spdcfc.core import EROS_SERIES_CUTOFF
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS, _with_variable

PUMP_WAISTS = (53.0, 41.7, 88.5, 17.3, 211.0)
XI_LO = 0.1  # ceiling_scan's lower xi bound
SIGMAS = ("sigma_c", "sigma1", "sigma2")


def template(length: float, pump_waist: float) -> ExperimentConfig:
    # ceiling_scan's w = mu = 1 template, moved to its lower xi bound,
    # where eta is largest at these short lengths
    cfg = ExperimentConfig(length, pump_waist, 1.0, 1.0, REFERENCE_WALKOFFS)
    return _with_variable(cfg, "xi", XI_LO)


def sigma_at(name: str, cfg: ExperimentConfig) -> float:
    return getattr(shape_params(cfg), name)


def configs_around_cutoff(name: str) -> dict[str, ExperimentConfig]:
    # the templates whose sigma is the last below, exactly at and the
    # first above the cutoff as L grows one rounding step at a time; at
    # some pump waists sigma steps over the cutoff, so try a few
    for pump_waist in PUMP_WAISTS:
        def sigma(length):
            return sigma_at(name, template(length, pump_waist))

        length = EROS_SERIES_CUTOFF / sigma(1.0)
        while sigma(length) >= EROS_SERIES_CUTOFF:
            length = math.nextafter(length, 0.0)
        while sigma(math.nextafter(length, math.inf)) < EROS_SERIES_CUTOFF:
            length = math.nextafter(length, math.inf)
        at = math.nextafter(length, math.inf)
        if sigma(at) == EROS_SERIES_CUTOFF:
            above = at
            while sigma(above) == EROS_SERIES_CUTOFF:
                above = math.nextafter(above, math.inf)
            return {side: template(x, pump_waist) for side, x in
                    (("below", length), ("at", at), ("above", above))}
    raise AssertionError(f"no length puts {name} exactly at the cutoff")


CASES = [(name, side) for name in SIGMAS for side in ("below", "at", "above")]


@pytest.fixture(scope="module")
def cutoff_configs():
    return {name: configs_around_cutoff(name) for name in SIGMAS}


def test_cutoff_configs_straddle_the_cutoff(cutoff_configs):
    for name, sides in cutoff_configs.items():
        assert sigma_at(name, sides["below"]) < EROS_SERIES_CUTOFF
        assert sigma_at(name, sides["at"]) == EROS_SERIES_CUTOFF
        assert sigma_at(name, sides["above"]) > EROS_SERIES_CUTOFF
        # the three sigmas differ, so each case puts one at the cutoff
        for other in SIGMAS:
            if other != name:
                assert sigma_at(other, sides["at"]) != EROS_SERIES_CUTOFF


@pytest.mark.parametrize("name, side", CASES)
def test_curve_rows_equal_efficiency_at_the_cutoff(name, side,
                                                   cutoff_configs):
    cfg = cutoff_configs[name][side]
    expected = efficiency(cfg).eta
    assert eta_closed_form(shape_params(cfg)).eta == expected
    spec = SweepSpec(l_grid=(cfg.crystal_length,),
                     mu_values=(cfg.inverse_magnification,), fixed=cfg)
    (row,) = efficiency_curve(spec).rows
    assert row.eta == expected


@pytest.mark.parametrize("name, side", CASES)
@pytest.mark.parametrize("variable", ["mu", "rp", "xi"])
def test_maximize_eta_equals_efficiency_at_the_cutoff(variable, name, side,
                                                      cutoff_configs):
    # eta falls with xi and rises with r_p at these lengths, so each
    # maximum sits on the bound that is the template itself
    cfg = cutoff_configs[name][side]
    value = {"mu": cfg.inverse_magnification, "rp": cfg.pump_waist,
             "xi": XI_LO}[variable]
    bounds = (value / 2.0, value) if variable == "rp" else (value, 2.0 * value)
    res = maximize_eta(cfg, variable, bounds)
    assert res.boundary
    assert res.argmax == value
    probe = _with_variable(cfg, variable, res.argmax)
    assert sigma_at(name, probe) == sigma_at(name, cfg)
    assert res.eta_max == efficiency(probe).eta
    assert res.eta_max == eta_closed_form(shape_params(probe)).eta


@pytest.mark.parametrize("name, side", CASES)
def test_ceiling_scan_equals_efficiency_at_the_cutoff(name, side,
                                                      cutoff_configs):
    cfg = cutoff_configs[name][side]
    ((length, eta_max),) = ceiling_scan(cfg.pump_waist, REFERENCE_WALKOFFS,
                                        [cfg.crystal_length])
    assert length == cfg.crystal_length
    assert eta_max == efficiency(cfg).eta
    assert eta_max == eta_closed_form(shape_params(cfg)).eta


# ---------------------------------------------------------------------------
# the length step's error texts
# ---------------------------------------------------------------------------

def test_infinite_sigma_error_text():
    # L/r_p overflows to inf at xi = 1
    cfg = ExperimentConfig(1e308, 1e-300, 1e-300, 1.0, REFERENCE_WALKOFFS)
    message = "sigmas must be finite, got sigma_c=inf, sigma1=inf, sigma2=inf"
    with pytest.raises(DomainError) as exc:
        efficiency(cfg)
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        shape_params(cfg)
    assert str(exc.value) == message
    spec = SweepSpec(l_grid=(1e308,), mu_values=(1.0,), fixed=cfg)
    with pytest.raises(DomainError) as exc:
        efficiency_curve(spec)
    assert str(exc.value) == f"row L=1e+308 um, mu=1.0: {message}"


def test_nan_sigma_error_text():
    # zero walk-offs make every rate 0, and inf * 0 is NaN
    cfg = ExperimentConfig(1e308, 1e-300, 1e-300, 1.0,
                           WalkOffSet(0.0, 0.0, 0.0))
    with pytest.raises(DomainError) as exc:
        efficiency(cfg)
    assert str(exc.value) == (
        "sigmas must be finite, got sigma_c=nan, sigma1=nan, sigma2=nan")


def test_zero_arms_error_text():
    # erf(s)/s is 1/s out here, and 1e-200 * 1e-200 underflows to 0
    message = "sigma1=1e+200, sigma2=1e+200 too extreme to evaluate"
    sp = ShapeParams(1.0, 1.0, 1e200, 1e200, AlphaBeta(0.01, 0.01, 0.01))
    with pytest.raises(DomainError) as exc:
        eta_closed_form(sp)
    assert str(exc.value) == message
    sp = replace(sp, sigma_c=0.0)  # the series branch for sigma_c
    with pytest.raises(DomainError) as exc:
        eta_closed_form(sp)
    assert str(exc.value) == message
