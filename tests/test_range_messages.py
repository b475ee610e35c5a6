"""The exact message of each range check in `core`.

Every check refuses a non-number or a non-finite value first, with the
number rule's message, and then a finite value outside its range with
`<name> must be <range>, got <value as a float>`.  One table per check:
in-range and out-of-range floats, an int, a bool, nan, +-inf, text and
None.
"""

import math

import pytest

from spdcfc import (AlphaBeta, EfficiencyResult, ExperimentConfig, ShapeParams,
                    WalkOffSet, effective_to_raw, mode_field_radius,
                    raw_to_effective)
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS

# what every check refuses before its range, as "<name> must be ..." ends
NOT_FINITE = [
    (math.nan, "finite, got nan"),
    (math.inf, "finite, got inf"),
    (-math.inf, "finite, got -inf"),
    (10 ** 400, "finite, got a number past the float range"),
    ("0.5", "a number, got '0.5'"),
    (None, "a number, got None"),
]

AB = AlphaBeta(0.01, 0.001, 0.02)
SHAPE = ShapeParams(1.0, 0.5, 0.5, 0.5, AB)


def check(build, name, value, message):
    if message is None:
        build(value)
    else:
        with pytest.raises(DomainError) as info:
            build(value)
        assert str(info.value) == f"{name} must be {message}"


def with_field(cls, base, name):
    def build(value):
        return cls(**{**base, name: value})
    return build


WALKOFF_FIELDS = {"m_p": 0.07, "m": 0.07, "q_over_k": 0.03}


@pytest.mark.parametrize("value, message", [
    (0.5, None), (0.0, None), (0, None), (False, None),
    (1.0, "in [0, 1), got 1.0"), (-1e-300, "in [0, 1), got -1e-300"),
    (1, "in [0, 1), got 1.0"), (True, "in [0, 1), got 1.0"),
    *NOT_FINITE])
@pytest.mark.parametrize("name", WALKOFF_FIELDS)
def test_walkoff_set(name, value, message):
    check(with_field(WalkOffSet, WALKOFF_FIELDS, name), name, value, message)


AB_FIELDS = {"alpha1": 0.01, "alpha2": 0.001, "beta": 0.02}


@pytest.mark.parametrize("value, message", [
    (0.5, None), (0.0, None), (3, None), (True, None), (False, None),
    (-0.5, ">= 0, got -0.5"), (-5e-324, ">= 0, got -5e-324"),
    (-2, ">= 0, got -2.0"), *NOT_FINITE])
@pytest.mark.parametrize("name", AB_FIELDS)
def test_alpha_beta(name, value, message):
    check(with_field(AlphaBeta, AB_FIELDS, name), name, value, message)


CONFIG_FIELDS = {"crystal_length": 3000.0, "pump_waist": 53.0,
                 "fiber_mode_radius": 1.48, "inverse_magnification": 49.0,
                 "walkoffs": REFERENCE_WALKOFFS}


@pytest.mark.parametrize("value, message", [
    (2.5, None), (5e-324, None), (7, None), (True, None),
    (0.0, "> 0, got 0.0"), (-0.0, "> 0, got -0.0"), (-1.5, "> 0, got -1.5"),
    (0, "> 0, got 0.0"), (False, "> 0, got 0.0"), *NOT_FINITE])
@pytest.mark.parametrize("name", [n for n in CONFIG_FIELDS if n != "walkoffs"])
def test_experiment_config(name, value, message):
    check(with_field(ExperimentConfig, CONFIG_FIELDS, name), name, value,
          message)


SHAPE_FIELDS = {"xi": 1.0, "sigma_c": 0.5, "sigma1": 0.5, "sigma2": 0.5,
                "alpha_beta": AB}


@pytest.mark.parametrize("value, message", [
    (2.5, None), (5e-324, None), (7, None), (True, None),
    (0.0, "> 0, got 0.0"), (-0.0, "> 0, got -0.0"), (-1.5, "> 0, got -1.5"),
    (0, "> 0, got 0.0"), (False, "> 0, got 0.0"), *NOT_FINITE])
def test_shape_params_xi(value, message):
    check(with_field(ShapeParams, SHAPE_FIELDS, "xi"), "xi", value, message)


@pytest.mark.parametrize("value, message", [
    (2.5, None), (0.0, None), (-0.0, None), (7, None), (False, None),
    (True, None), (-1.5, ">= 0, got -1.5"), (-1, ">= 0, got -1.0"),
    *NOT_FINITE])
@pytest.mark.parametrize("name", ["sigma_c", "sigma1", "sigma2"])
def test_shape_params_sigmas(name, value, message):
    check(with_field(ShapeParams, SHAPE_FIELDS, name), name, value, message)


@pytest.mark.parametrize("value, message", [
    (0.5, None), (1.0, None), (5e-324, None), (1, None), (True, None),
    (0.0, "in (0, 1], got 0.0"), (1.0000000000000002,
                                  "in (0, 1], got 1.0000000000000002"),
    (-0.5, "in (0, 1], got -0.5"), (0, "in (0, 1], got 0.0"),
    (2, "in (0, 1], got 2.0"), (False, "in (0, 1], got 0.0"), *NOT_FINITE])
def test_efficiency_result(value, message):
    check(lambda v: EfficiencyResult(v, SHAPE), "eta", value, message)


@pytest.mark.parametrize("value, message", [
    (4.2, None), (5e-324, None), (4, None), (True, None),
    (0.0, "> 0, got 0.0"), (-4.2, "> 0, got -4.2"), (0, "> 0, got 0.0"),
    (False, "> 0, got 0.0"), *NOT_FINITE])
def test_mode_field_radius(value, message):
    check(mode_field_radius, "mfd", value, message)


UNIT_INTERVAL_ARGS = [
    (effective_to_raw, ("eta_fc", "eta_det", "t_filter")),
    (raw_to_effective, ("eta_raw", "eta_det", "t_filter")),
]


@pytest.mark.parametrize("value, message", [
    (0.5, None), (1.0, None), (1, None), (True, None),
    (0.0, "in (0, 1], got 0.0"), (-0.5, "in (0, 1], got -0.5"),
    (1.5, "in (0, 1], got 1.5"), (0, "in (0, 1], got 0.0"),
    (2, "in (0, 1], got 2.0"), (False, "in (0, 1], got 0.0"), *NOT_FINITE])
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("function, names", UNIT_INTERVAL_ARGS,
                         ids=["effective_to_raw", "raw_to_effective"])
def test_loss_chain(function, names, position, value, message):
    def build(v):
        # an implied coupling <= 1 for every in-range value tried
        args = [0.25, 1.0, 1.0]
        args[position] = v
        return function(*args)
    check(build, names[position], value, message)
