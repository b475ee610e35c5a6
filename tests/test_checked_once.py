"""Each value of a design study is checked once, and every refusal keeps
its text.

The length step tests only eta's range on its common path: an infinite
sigma makes its erf(sigma)/sigma 0 and a NaN one NaN, so eta then falls
outside (0, 1] or its division by the arms fails, and only there are the
sigmas and the arms tested.  These tests put each failure there, one
sigma at a time, and check the text it had when every point ran all
three tests.  The sweeps' pre-scan takes the first of tied maxima.  The
optimizer refuses a template that is not a configuration, the result
records refuse what their docstrings exclude (an optimum's variable,
count, flag and bracket order included), and a thin lens whose mu
overflows is refused as one whose image distance does.
"""

import math

import pytest

from spdcfc import (ExperimentConfig, OptResult, SweepRow, efficiency,
                    magnification, maximize_eta)
from spdcfc.core import _eta
from spdcfc.errors import DomainError
from spdcfc.sweep import _N_PRESCAN, _refine

from conftest import REFERENCE_WALKOFFS, reference_config

ULP_ABOVE_1 = 2.0 ** -52


def refusal(call) -> str:
    with pytest.raises(DomainError) as exc:
        call()
    return str(exc.value)


# ---------------------------------------------------------------------------
# the length step's failure path: _eta(terms, L/r_p), with terms
# (xi, prefactor, kc, k1, k2) and sigma_x = (L/r_p) k_x
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rates, ratio, message", [
    ((1e300, 1.0, 1.0), 1e10, "sigmas must be finite, got sigma_c=inf, "
     "sigma1=10000000000.0, sigma2=10000000000.0"),
    ((1.0, 1e300, 1.0), 1e10, "sigmas must be finite, got "
     "sigma_c=10000000000.0, sigma1=inf, sigma2=10000000000.0"),
    ((1.0, 1.0, 1e300), 1e10, "sigmas must be finite, got "
     "sigma_c=10000000000.0, sigma1=10000000000.0, sigma2=inf"),
    ((1e300, 1e300, 1.0), 1e10, "sigmas must be finite, got sigma_c=inf, "
     "sigma1=inf, sigma2=10000000000.0"),
    ((math.nan, 1.0, 1.0), 2.0,
     "sigmas must be finite, got sigma_c=nan, sigma1=2.0, sigma2=2.0"),
    ((1.0, 1.0, math.nan), 2.0,
     "sigmas must be finite, got sigma_c=2.0, sigma1=2.0, sigma2=nan"),
    ((1.0, 1.0, 1.0), 1e200,
     "sigma1=1e+200, sigma2=1e+200 too extreme to evaluate"),
], ids=["inf-sigma_c", "inf-sigma1", "inf-sigma2", "inf-sigma_c-and-arms",
        "nan-sigma_c", "nan-sigma2", "arms-underflow"])
def test_a_failing_length_step_keeps_its_message(rates, ratio, message):
    assert refusal(lambda: _eta((1.0, 0.5, *rates), ratio)) == message


def test_an_infinite_sigma_c_alone_keeps_its_message():
    # xi = 1e-150 makes kc ~ 1e149 while k1 and k2 stay below 0.1, so at
    # L/r_p = 1e160 only sigma_c overflows, and the arms do not underflow
    cfg = ExperimentConfig(1e160, 1.0, 1e-150, 1.0, REFERENCE_WALKOFFS)
    assert refusal(lambda: efficiency(cfg)) == (
        "sigmas must be finite, got sigma_c=inf, "
        "sigma1=8.446740392009217e+158, sigma2=3.6422254529339615e+158")


@pytest.mark.parametrize("ratio", [0.0, 1e-3], ids=["series", "inline"])
def test_an_eta_within_8_ulps_past_1_reads_1(ratio):
    # erf(sigma)/sigma over the arms is exactly 1 at equal sigmas here, so
    # eta is the prefactor
    for k in range(5):
        terms = (1.0, 1.0 + k * ULP_ABOVE_1, 1.0, 1.0, 1.0)
        assert _eta(terms, ratio) == 1.0


@pytest.mark.parametrize("ratio", [0.0, 1e-3], ids=["series", "inline"])
def test_an_eta_further_past_1_is_refused(ratio):
    terms = (1.0, 1.0 + 5 * ULP_ABOVE_1, 1.0, 1.0, 1.0)
    assert refusal(lambda: _eta(terms, ratio)) == (
        "eta must be in (0, 1], got 1.000000000000001")


# ---------------------------------------------------------------------------
# the pre-scan's best point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tied", [(10, 40), (0, 63), tuple(range(64))])
def test_refine_starts_from_the_first_of_tied_maxima(tied):
    grid = [float(k + 1) for k in range(_N_PRESCAN)]
    grid_etas = [0.5 if k in tied else 0.25 for k in range(_N_PRESCAN)]
    first = tied[0]
    argmax, eta_max, bracket, _ = _refine(lambda value: 0.125, grid,
                                          grid_etas)
    assert (argmax, eta_max) == (grid[first], 0.5)
    assert bracket == (grid[max(first - 1, 0)],
                       grid[min(first + 1, _N_PRESCAN - 1)])


# ---------------------------------------------------------------------------
# what the optimizer and the result records refuse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [None, object(), REFERENCE_WALKOFFS])
@pytest.mark.parametrize("variable", ["mu", "rp", "xi"])
def test_maximize_eta_refuses_a_template_that_is_not_a_config(cfg, variable):
    assert refusal(lambda: maximize_eta(cfg, variable, (1.0, 2.0))) == (
        "cfg must be an ExperimentConfig")


@pytest.mark.parametrize("cfg, bounds, message", [
    (ExperimentConfig(3000.0, 1.0, 4.0, 1.0, REFERENCE_WALKOFFS),
     (5e-324, 1.0), "inverse_magnification must be > 0, got 0.0"),
    (reference_config(), (1.0, 1e307),
     "inverse_magnification must be finite, got inf"),
], ids=["mu-underflows", "mu-overflows"])
def test_an_xi_bracket_end_is_checked_through_its_mu(cfg, bounds, message):
    # mu = xi*r_p/w: r_p/w is 1/4 in the first and about 36 in the second
    assert refusal(lambda: maximize_eta(cfg, "xi", bounds)) == message


@pytest.mark.parametrize("fields, message", [
    ((math.nan,) * 4, "length must be finite, got nan"),
    ((0.0, 49.0, 1.37, 0.4), "length must be > 0, got 0.0"),
    ((3000.0, -49.0, 1.37, 0.4), "mu must be > 0, got -49.0"),
    ((3000.0, 49.0, math.inf, 0.4), "xi must be finite, got inf"),
    ((3000.0, 49.0, 1.37, 0.0), "eta must be in (0, 1], got 0.0"),
    ((3000.0, 49.0, 1.37, "0.4"), "eta must be a number, got '0.4'"),
])
def test_a_sweep_row_refuses_what_its_docstring_excludes(fields, message):
    assert refusal(lambda: SweepRow(*fields)) == message


def test_a_sweep_row_stores_floats():
    row = SweepRow(3000, 49, 1, 1)
    assert [type(v) for v in vars(row).values()] == [float] * 4


@pytest.mark.parametrize("argmax, bracket, message", [
    (0.0, (0.1, 10.0), "argmax must be > 0, got 0.0"),
    (math.nan, (0.1, 10.0), "argmax must be finite, got nan"),
    (1.0, (math.nan, 10.0), "bracket must be finite, got nan"),
    (1.0, (0.0, 10.0),
     "bracket must satisfy 0 < lo <= hi, got (0.0, 10.0)"),
    (1.0, 5, "bracket must be a pair (lo, hi), got 5"),
])
def test_an_opt_result_refuses_what_its_docstring_excludes(argmax, bracket,
                                                           message):
    assert refusal(lambda: OptResult("xi", argmax, 0.5, bracket, 20,
                                     False)) == message


@pytest.mark.parametrize("args, message", [
    (("mu", 1.0, 0.5, (2.0, 1.0), 20, False),
     "bracket must satisfy 0 < lo <= hi, got (2.0, 1.0)"),
    (("L", 1.0, 0.5, (0.5, 2.0), 20, False),
     "variable must be one of ('mu', 'rp', 'xi'), got 'L'"),
    (("mu", 1.0, 0.5, (0.5, 2.0), -1, False),
     "iterations must be >= 0, got -1"),
    (("mu", 1.0, 0.5, (0.5, 2.0), 20.0, False),
     "iterations must be an integer, got 20.0"),
    (("mu", 1.0, 0.5, (0.5, 2.0), True, False),
     "iterations must be an integer, got True"),
    (("mu", 1.0, 0.5, (0.5, 2.0), 20, "yes"),
     "boundary must be a bool, got 'yes'"),
    (("mu", 1.0, 0.5, (0.5, 2.0), 20, 1), "boundary must be a bool, got 1"),
    # the float checks speak first
    (("L", math.nan, 0.5, (2.0, 1.0), -1, "yes"),
     "argmax must be finite, got nan"),
    (("L", 1.0, 0.5, (2.0, 1.0), -1, "yes"),
     "bracket must satisfy 0 < lo <= hi, got (2.0, 1.0)"),
])
def test_an_opt_result_refuses_a_bad_variable_count_flag_or_order(args,
                                                                  message):
    assert refusal(lambda: OptResult(*args)) == message


def test_an_opt_result_takes_a_bracket_whose_ends_are_equal():
    # the pre-scan grid is monotone, so the refined cell has lo <= hi,
    # and its two ends meet where the bounds are a float apart
    res = maximize_eta(reference_config(), "mu",
                       (500.0, math.nextafter(500.0, 600.0)))
    assert res.bracket == (500.0, 500.0)


# ---------------------------------------------------------------------------
# thin lens
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, d_bl, what", [
    (5e-324, 1.0, "mu = d_bl/f - 1"),
    (1e-300, 1e10, "mu = d_bl/f - 1"),
    (1e-310, 1e-300, "image distance 1/(1/f - 1/d_bl)"),
], ids=["mu-and-inverse-f-overflow", "mu-overflows", "inverse-f-overflows"])
def test_a_lens_with_an_infinite_mu_or_a_zero_image_distance_is_refused(
        f, d_bl, what):
    assert refusal(lambda: magnification(f, d_bl)) == (
        f"{what} is not a finite float for f={f}, d_bl={d_bl}")
