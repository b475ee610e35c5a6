"""Accuracy and continuity checks for the error-function machinery."""

import math
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, strategies as st

from spdcfc import erf, erf_over_sigma, sigma_over_erf
from spdcfc.core import EROS_SERIES_CUTOFF, TWO_OVER_SQRT_PI
from spdcfc.errors import DomainError

# 2/sqrt(pi) to 40 digits, for the high-precision reference below.
_C = Decimal("1.1283791670955125738961589031215451716881")


def reference_erf(x: float) -> float:
    """Maclaurin reference: erf(x) = 2/sqrt(pi) sum (-1)^n x^(2n+1)/(n!(2n+1)).

    At least 30 terms, evaluated in 60-digit decimal arithmetic so the
    alternating-series cancellation (severe at x ~ 6 in doubles) cannot
    bite.  Fully independent of the implementation's region switching.
    """
    getcontext().prec = 60
    xd = Decimal(x)
    x2 = xd * xd
    term = xd
    total = xd
    n = 0
    while True:
        n += 1
        term *= -x2 / n
        contrib = term / (2 * n + 1)
        total += contrib
        if n >= 30 and abs(contrib) < Decimal("1e-45"):
            return float(_C * total)


def test_erf_accuracy_1000_points():
    worst = max(abs(erf(k * 6.0 / 999) - reference_erf(k * 6.0 / 999))
                for k in range(1000))
    assert worst <= 1e-12


def test_erf_matches_stdlib():
    for k in range(0, 601, 7):
        x = k / 100.0
        assert erf(x) == pytest.approx(math.erf(x), abs=1e-13)


def test_erf_odd_and_limits():
    assert erf(0.0) == 0.0
    assert erf(-1.25) == -erf(1.25)
    assert erf(math.inf) == 1.0
    assert erf(37.0) == 1.0


def test_erf_rejects_nan():
    with pytest.raises(DomainError):
        erf(float("nan"))


@given(st.floats(min_value=0.0, max_value=5.5))
def test_erf_monotone(x):
    # strictly increasing while erfc is still resolvable in doubles
    assert erf(x + 0.05) > erf(x)


@given(st.floats(min_value=0.0, max_value=6.0))
def test_erf_bounds(x):
    assert 0.0 <= erf(x) <= 1.0


def test_erf_over_sigma_values():
    # frozen against the decimal reference series
    assert erf_over_sigma(0.0) == pytest.approx(1.1283791670955126, abs=1e-15)
    assert erf_over_sigma(1.0) == pytest.approx(0.8427007929497149, abs=1e-13)
    assert erf_over_sigma(3.0) == pytest.approx(0.3333259698343338, abs=1e-13)


def test_erf_over_sigma_switchover_continuity():
    s = EROS_SERIES_CUTOFF
    for eps in (1e-9, 1e-10):
        assert abs(erf_over_sigma(s - eps) - erf_over_sigma(s + eps)) <= 1e-12


def test_erf_over_sigma_series_matches_reference_below_cutoff():
    for sigma in (1e-8, 1e-6, 5e-5, 9.9e-5):
        assert erf_over_sigma(sigma) == pytest.approx(
            reference_erf(sigma) / sigma, abs=1e-12)


def test_erf_over_sigma_rejects_bad_input():
    with pytest.raises(DomainError):
        erf_over_sigma(-1e-9)
    with pytest.raises(DomainError):
        erf_over_sigma(float("nan"))


@given(st.floats(min_value=0.0, max_value=50.0))
def test_erf_over_sigma_range_and_monotone(sigma):
    value = erf_over_sigma(sigma)
    assert 0.0 < value <= TWO_OVER_SQRT_PI
    assert erf_over_sigma(sigma + 0.1) < value


def test_sigma_over_erf_is_reciprocal():
    for sigma in (0.0, 1e-5, 0.3, 1.0, 4.0):
        assert sigma_over_erf(sigma) == pytest.approx(
            1.0 / erf_over_sigma(sigma), rel=1e-15)
