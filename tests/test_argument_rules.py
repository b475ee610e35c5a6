"""One rule per kind of argument: a count, an ordered pair and the
design variable are each checked by one function, so every caller
accepts the same values and refuses the rest with the same words.

A count is an int or what operator.index reads as one (a numpy
integer), stored as an int; a bool, Python's or numpy's, is not a
count.  An ordered pair is checked against one order of core's
_ORDERS, each order here at its edge and one float past it, through
the public function that uses it.
"""

import math

import numpy as np
import pytest

from spdcfc import (ExperimentConfig, OptResult, QuadratureSpec, bundled_bbo,
                    maximize_eta, phase_match_angle)
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS, reference_config

NUMPY_INTS = (np.int64, np.int32, np.uint8)


def refusal(call) -> str:
    with pytest.raises(DomainError) as exc:
        call()
    return str(exc.value)


def opt_result(iterations=20, bracket=(0.5, 2.0), variable="mu"):
    return OptResult(variable, 1.0, 0.5, bracket, iterations, False)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", NUMPY_INTS, ids=lambda k: k.__name__)
def test_a_numpy_integer_is_a_count_stored_as_an_int(kind):
    spec = QuadratureSpec(n_tau=kind(64), n_trans=kind(96))
    assert spec == QuadratureSpec()
    assert type(spec.n_tau) is int and type(spec.n_trans) is int
    res = opt_result(iterations=kind(3))
    assert res.iterations == 3 and type(res.iterations) is int


@pytest.mark.parametrize("value", [True, np.True_, 20.0, "96", None],
                         ids=["bool", "numpy-bool", "float", "text", "none"])
@pytest.mark.parametrize("field, build", [
    ("n_tau", lambda v: QuadratureSpec(n_tau=v)),
    ("n_trans", lambda v: QuadratureSpec(n_trans=v)),
    ("iterations", lambda v: opt_result(iterations=v)),
], ids=["n_tau", "n_trans", "iterations"])
def test_what_is_not_a_count_is_refused_alike(field, build, value):
    assert refusal(lambda: build(value)) == (
        f"{field} must be an integer, got {value!r}")


@pytest.mark.parametrize("field, build, least", [
    ("n_tau", lambda v: QuadratureSpec(n_tau=v), 8),
    ("n_trans", lambda v: QuadratureSpec(n_trans=v), 16),
    ("iterations", lambda v: opt_result(iterations=v), 0),
], ids=["n_tau", "n_trans", "iterations"])
def test_a_count_below_its_least_is_refused_with_its_value(field, build,
                                                           least):
    build(np.int64(least))
    assert refusal(lambda: build(np.int64(least - 1))) == (
        f"{field} must be >= {least}, got {least - 1}")


def test_a_quadrature_spec_checks_n_tau_fully_before_n_trans():
    assert refusal(lambda: QuadratureSpec(n_tau=7, n_trans=16.5)) == (
        "n_tau must be >= 8, got 7")


# ---------------------------------------------------------------------------
# ordered pairs, one test per order of _ORDERS
# ---------------------------------------------------------------------------

# w*mu = 1e-20 um^2 keeps xi = w*mu/r_p normal for r_p down to 5e-324
TINY_CFG = ExperimentConfig(1e-320, 1.0, 1e-300, 1e-20, REFERENCE_WALKOFFS)


@pytest.mark.parametrize("cfg, variable, refused, taken", [
    (reference_config(), "mu", (500.0, 500.0),
     (500.0, math.nextafter(500.0, 600.0))),
    (TINY_CFG, "rp", (0.0, 1e-300), (5e-324, 1e-300)),
], ids=["lo-below-hi", "lo-above-0"])
def test_maximize_eta_bounds_satisfy_0_lt_lo_lt_hi(cfg, variable, refused,
                                                   taken):
    assert refusal(lambda: maximize_eta(cfg, variable, refused)) == (
        f"bounds must satisfy 0 < lo < hi, got {refused}")
    assert maximize_eta(cfg, variable, taken).variable == variable


@pytest.mark.parametrize("refused, taken", [
    ((1.0, math.nextafter(1.0, 0.0)), (1.0, 1.0)),
    ((0.0, 1.0), (5e-324, 1.0)),
], ids=["lo-not-above-hi", "lo-above-0"])
def test_an_opt_result_bracket_satisfies_0_lt_lo_le_hi(refused, taken):
    assert refusal(lambda: opt_result(bracket=refused)) == (
        f"bracket must satisfy 0 < lo <= hi, got {refused}")
    assert opt_result(bracket=taken).bracket == taken


@pytest.mark.parametrize("refused, taken", [
    ((30.0, 90.0), (30.0, math.nextafter(90.0, 0.0))),
    ((0.0, 60.0), (5e-324, 60.0)),
], ids=["hi-below-90", "lo-above-0"])
def test_a_phase_match_bracket_satisfies_0_lt_lo_lt_hi_lt_90(refused, taken):
    model = bundled_bbo()
    assert refusal(lambda: phase_match_angle(model, 0.415, refused)) == (
        f"bracket_deg must satisfy 0 < lo < hi < 90, got {refused}")
    assert phase_match_angle(model, 0.415, taken) == pytest.approx(
        phase_match_angle(model, 0.415), abs=1e-6)


# ---------------------------------------------------------------------------
# the design variable
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variable", ["L", "MU", None, ("mu",)])
def test_maximize_eta_and_opt_result_refuse_a_variable_alike(variable):
    message = refusal(
        lambda: maximize_eta(reference_config(), variable, (1.0, 2.0)))
    assert message == (
        f"variable must be one of ('mu', 'rp', 'xi'), got {variable!r}")
    assert refusal(lambda: opt_result(variable=variable)) == message
