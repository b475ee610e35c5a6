"""One rule per kind of argument: a count, an ordered pair and the
design variable are each checked by one function, so every caller
accepts the same values and refuses the rest with the same words.

A count is an int or what operator.index reads as one (a numpy
integer), stored as an int; a bool, Python's or numpy's, is not a
count.  An ordered pair is checked against one order of core's
_ORDERS, each order here at its edge and one float past it, through
the public function that uses it; the CLI's --bounds takes the same
order and reports its refusal as a usage error.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from spdcfc import (ExperimentConfig, OptResult, QuadratureSpec, bundled_bbo,
                    maximize_eta, phase_match_angle)
from spdcfc.cli import main
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
    assert spec == QuadratureSpec(n_tau=64, n_trans=96)
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


@pytest.mark.parametrize("refused, taken", [
    ((2.0, 0.2), (0.2, 2.0)),
    ((0.3, 0.3), (0.3, math.nextafter(0.3, 1.0))),
    ((0.0, 1.0), (0.3, 1.0)),
], ids=["reversed", "lo-below-hi", "lo-above-0"])
def test_an_index_model_range_satisfies_0_lt_lo_lt_hi(refused, taken):
    model = bundled_bbo()
    assert refusal(lambda: replace(model, range_um=refused)) == (
        f"range_um must satisfy 0 < lo < hi, got {refused}")
    if taken[0] > model.range_um[0]:  # no Sellmeier pole inside
        assert replace(model, range_um=taken).range_um == taken


@pytest.mark.parametrize("values, message", [
    ((0.2, math.nan), "range_um[1] must be finite, got nan"),
    ((0.2,), "range_um must be a list of 2 numbers, got (0.2,)"),
], ids=["nan", "one-item"])
def test_an_index_model_range_keeps_its_per_item_messages(values, message):
    assert refusal(lambda: replace(bundled_bbo(), range_um=values)) == message


@pytest.mark.parametrize("bounds, shown", [
    ("0:10", "(0.0, 10.0)"), ("5:1", "(5.0, 1.0)"), ("2:2", "(2.0, 2.0)")])
def test_cli_bounds_take_the_pair_rule_as_a_usage_error(bounds, shown,
                                                        capsys):
    code = main(["optimize", "--var", "xi", "--bounds", bounds, "--L-mm",
                 "2", "--rp-um", "53", "--Mp", "0.07631", "--M", "0.07243",
                 "--QK", "0.036215"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (
        f"usage error: --bounds must satisfy 0 < lo < hi, got {shown}\n")


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
