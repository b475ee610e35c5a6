"""The optimum over the pump waist r_p against the root of d eta / d r_p.

At fixed L, w and mu the pump waist moves both xi = w mu / r_p and the
length ratio L / r_p that scales every sigma, so the total derivative

    d ln(eta) / d r_p = -(xi d/dxi + (L/r_p) d/d(L/r_p)) ln(eta) / r_p

has a term through the sigmas beside the xi term.  The xi term is the
hand-written one of ``test_optimum``; the sigma term is written out
here from the formula, with each sigma proportional to L / r_p.  Over
r_p in [3, 1000] um each curve has one interior maximum at most
(measured on 4000-point log grids), so bisection finds the root.
"""

import math
import random

import pytest

from spdcfc import ExperimentConfig, WalkOffSet, compute_alpha_beta, efficiency
from spdcfc import maximize_eta

from conftest import _with_variable
from test_optimum import derivative_root, dlog_erf_over_sigma, dlog_eta_dxi

REL_TOL = 1e-6  # maximize_eta's tolerance
BOUNDS = (3.0, 1000.0)
EPS = 2.0 ** -52


def dlog_eta_dlog_ratio(xi: float, ratio: float, alpha1: float,
                        alpha2: float, beta: float) -> float:
    """(L/r_p) d ln(eta) / d(L/r_p) at fixed xi.

    Each sigma is (L/r_p) times a function of xi, so d sigma / d ln ratio
    is sigma itself: the term is g(s_c) s_c - (g(s_1) s_1 + g(s_2) s_2)/2
    with g(s) = d/ds ln(erf(s)/s).
    """
    t = xi * xi
    s_c = ratio * math.sqrt(((alpha1 + alpha2) * t + beta) / (t * (2.0 + t)))
    dlog = dlog_erf_over_sigma(s_c) * s_c
    for alpha in (alpha1, alpha2):
        s = ratio * math.sqrt(alpha / (1.0 + t))
        dlog -= 0.5 * dlog_erf_over_sigma(s) * s
    return dlog


def rp_slope_of(cfg: ExperimentConfig):
    ab = compute_alpha_beta(cfg.walkoffs)
    w_mu = cfg.fiber_mode_radius * cfg.inverse_magnification

    def slope(rp):
        xi, ratio = w_mu / rp, cfg.crystal_length / rp
        terms = (ratio, ab.alpha1, ab.alpha2, ab.beta)
        return -(xi * dlog_eta_dxi(xi, *terms)
                 + dlog_eta_dlog_ratio(xi, *terms)) / rp
    return slope


def flat_half_width(slope, root: float) -> float:
    """Relative distance from the root over which ln(eta) changes by less
    than four roundings.

    ln eta ~ ln eta* + c/2 (ln r_p - ln r_p*)^2 with c = r_p*^2 slope'(r_p*);
    golden section cannot tell points inside that band apart.  Small-xi,
    short-crystal optima are flat enough (|c| ~ 1e-5) to make the band
    wider than REL_TOL.
    """
    h = 1e-4 * root
    c = root * root * (slope(root + h) - slope(root - h)) / (2.0 * h)
    return math.sqrt(8.0 * EPS / abs(c))


def seeded_configs(seed: int, count: int):
    # log-uniform L in [10 um, 10 cm], w in [1, 10] um and mu in [1, 100],
    # walk-offs uniform in [0, 0.2]; the pump waist is the variable
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(count):
        walkoffs = WalkOffSet(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2),
                              rng.uniform(0.0, 0.2))
        yield ExperimentConfig(log_uniform(10.0, 1e5), log_uniform(3.0, 1e3),
                               log_uniform(1.0, 10.0), log_uniform(1.0, 100.0),
                               walkoffs)


def test_rp_derivative_matches_finite_differences():
    # the total derivative, sigma term included, is the slope of ln eta
    # as maximize_eta evaluates it over r_p
    for cfg in seeded_configs(21, 40):
        slope = rp_slope_of(cfg)
        for rp in (3.5, 20.0, 150.0, 900.0):
            h = 1e-5 * rp
            up = efficiency(_with_variable(cfg, "rp", rp + h)).eta
            down = efficiency(_with_variable(cfg, "rp", rp - h)).eta
            numeric = (math.log(up) - math.log(down)) / (2.0 * h)
            assert slope(rp) == pytest.approx(numeric, rel=1e-5, abs=1e-9 / rp)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rp_argmax_is_the_root_of_the_total_derivative(seed):
    interior = 0
    for cfg in seeded_configs(seed, 60):
        slope = rp_slope_of(cfg)
        root = derivative_root(slope, *BOUNDS)
        if root is None:
            continue
        interior += 1
        res = maximize_eta(cfg, "rp", BOUNDS)
        tol = REL_TOL + flat_half_width(slope, root)
        assert abs(res.argmax - root) <= tol * root
    assert interior >= 20  # the seeds reach the case under test


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rp_boundary_is_set_exactly_when_the_root_is_outside(seed):
    lo, hi = BOUNDS
    outside = 0
    for cfg in seeded_configs(seed, 60):
        slope = rp_slope_of(cfg)
        root = derivative_root(slope, lo, hi)
        edge = 1e-4 * (hi - lo)  # maximize_eta's boundary band
        if root is not None and not lo + edge <= root <= hi - edge:
            continue  # inside, yet close enough to an end to count as it
        res = maximize_eta(cfg, "rp", BOUNDS)
        assert res.boundary == (root is None)
        if root is None:
            outside += 1
            # a falling slope at lo puts the maximum below the bounds
            end = lo if slope(lo) <= 0.0 else hi
            assert abs(res.argmax - end) < edge
    assert outside >= 5  # the seeds reach the case under test
