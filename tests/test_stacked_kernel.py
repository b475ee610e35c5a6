"""The oracle's stacked level kernel against separate single-block kernels.

A level of the quadrature stacks its three Gaussian blocks (pair, arm 1,
arm 2) into one array per kernel pass.  Each entry is the same exact
difference, square, product and exponential as in a separate kernel per
block, and each block's row sums are their own matrix-vector product, so
the level must match three single-block `_gauss_sums` calls bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spdcfc import ExperimentConfig, WalkOffSet
from spdcfc.oracle import (_depth_ranges, _drift_rates, _eta_on_grid,
                           _exponent_coefs, _gauss_legendre, _gauss_sums,
                           _transverse_grid)

from conftest import REFERENCE_WALKOFFS, reference_config


def xi_config(xi: float) -> ExperimentConfig:
    # the 3 mm reference design with the back-imaged mode xi pump waists wide
    return ExperimentConfig(
        crystal_length=3000.0, pump_waist=53.0, fiber_mode_radius=1.48,
        inverse_magnification=xi * 53.0 / 1.48, walkoffs=REFERENCE_WALKOFFS)


CONFIGS = {
    "design": reference_config(3000.0),
    "xi=0.05": xi_config(0.05),
    "xi=20": xi_config(20.0),
    "wide": ExperimentConfig(
        crystal_length=2e4, pump_waist=300.0, fiber_mode_radius=4.0,
        inverse_magnification=20.0, walkoffs=WalkOffSet(0.05, 0.12, 0.03)),
}

# the three levels of n_tau = 64 (three blocks per kernel pass, then one),
# a level of two blocks per pass, row counts that are not multiples of 4,
# where a taller matrix-vector product can round a row differently, and
# the default spec's three levels (three blocks per pass)
LEVEL_SHAPES = [(64, 96), (128, 192), (256, 384), (128, 384), (13, 33),
                (37, 50), (14, 96), (28, 192), (56, 384)]


def unstacked_level(cfg, n_tau, n_trans, extent_factor):
    """One level as three separate kernels on np.linspace's grid."""
    pair_sep, pump_off2, arm1, arm2 = _drift_rates(cfg.walkoffs)
    a, b, norm_sq = _exponent_coefs(cfg)
    half_width = extent_factor * max(
        cfg.fiber_mode_radius * cfg.inverse_magnification, cfg.pump_waist)
    x = np.linspace(-half_width, half_width, n_trans)
    tw = np.full(n_trans, x[1] - x[0])
    tw[0] *= 0.5
    tw[-1] *= 0.5
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_tau)
    # each integral takes the rule on its own depth range: pair, arm 1, arm 2
    (taus, tau_w), *arm_rules = [
        (0.5 * t * (nodes + 1.0), 0.5 * t * gl_weights)
        for t in _depth_ranges(cfg)]

    coef = a + b
    rate = (a * pair_sep + 0.5 * b * (pair_sep + pump_off2)) / coef
    decay = a * b * (0.5 * (pair_sep - pump_off2)) ** 2 / coef
    mode_w = norm_sq * np.exp(-a * (x * x)) * tw
    pair = (np.exp(-decay * (taus * taus))
            * _gauss_sums(taus, x, (coef,), (rate,), mode_w[None])[0]
            * float((mode_w * np.exp(-coef * (x * x))).sum()))
    p12 = float((tau_w * pair ** 2).sum())

    mode_sq_w = norm_sq * np.exp(-2.0 * a * (x * x)) * tw
    idle = float((mode_sq_w * np.exp(-2.0 * b * (x * x))).sum())
    p1, p2 = (float((tau_w * _gauss_sums(taus, x, (2.0 * b,), (arm,),
                                         mode_sq_w[None])[0] * idle).sum())
              for arm, (taus, tau_w) in zip((arm1, arm2), arm_rules))
    return p12 / math.sqrt(p1 * p2), p12, p1, p2


@pytest.mark.parametrize("n_tau, n_trans", LEVEL_SHAPES)
@pytest.mark.parametrize("name", CONFIGS)
def test_level_equals_separate_kernels_bit_for_bit(name, n_tau, n_trans):
    cfg = CONFIGS[name]
    got = _eta_on_grid(cfg, n_tau, n_trans, 6.0)
    want = unstacked_level(cfg, n_tau, n_trans, 6.0)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert all(type(v) is float for v in got)


def kernel_args(cfg, n_tau, n_trans, extent_factor):
    """(taus, x, coefs, rates) of a level's kernel call, as _densities
    builds them: each block's depths on its own range."""
    pair_sep, pump_off2, arm1, arm2 = _drift_rates(cfg.walkoffs)
    a, b, _ = _exponent_coefs(cfg)
    x, _ = _transverse_grid(cfg, n_trans, extent_factor)
    nodes = _gauss_legendre(n_tau)[0]
    taus = np.array([0.5 * t * (nodes + 1.0) for t in _depth_ranges(cfg)])
    rate = (a * pair_sep + 0.5 * b * (pair_sep + pump_off2)) / (a + b)
    return taus, x, (a + b, 2.0 * b, 2.0 * b), (rate, arm1, arm2)


def lowest_kernel_exponent(cfg, n_tau, n_trans, extent_factor):
    # the level's lowest -coef * (x - rate * tau)**2 over its three blocks
    taus, x, coefs, rates = kernel_args(cfg, n_tau, n_trans, extent_factor)
    return min(float((-coef * (x - r * t[:, None]) ** 2).min())
               for coef, r, t in zip(coefs, rates, taus))


@pytest.mark.parametrize("name, level_underflows", [
    pytest.param("xi=0.05", True, id="xi=0.05"),
    pytest.param("xi=20", True, id="xi=20"),
    # its blocks' depth ranges keep every lane above ln(DBL_MIN)
    pytest.param("wide", False, id="wide"),
])
def test_off_design_levels_reach_underflowing_lanes(name, level_underflows):
    # the identity above covers kernel exponents below ln(DBL_MIN) ~ -708.4,
    # whose exp is subnormal or 0 and takes numpy's per-lane path
    tiny = math.log(2.0 ** -1022)
    cfg = CONFIGS[name]
    assert (lowest_kernel_exponent(cfg, 64, 96, 6.0) < tiny) is level_underflows
    assert lowest_kernel_exponent(CONFIGS["design"], 64, 96, 6.0) > tiny
    # with unit weights only an exp lane can underflow
    taus, x, coefs, rates = kernel_args(cfg, 64, 96, 6.0)
    with np.errstate(under="raise"):
        if level_underflows:
            with pytest.raises(FloatingPointError):
                _gauss_sums(taus, x, coefs, rates, np.ones((3, x.size)))
            with pytest.raises(FloatingPointError):
                _eta_on_grid(cfg, 64, 96, 6.0)
        else:
            _gauss_sums(taus, x, coefs, rates, np.ones((3, x.size)))
        _eta_on_grid(CONFIGS["design"], 64, 96, 6.0)


@pytest.mark.parametrize("n_trans", [16, 17, 96, 385])
@pytest.mark.parametrize("pump_waist", [53.0, 1e-300, 1e-320, 1e300, 2e307],
                         ids=["normal", "tiny", "subnormal", "huge",
                              "width-overflows"])
def test_transverse_grid_is_numpys_linspace(pump_waist, n_trans):
    cfg = ExperimentConfig(
        crystal_length=3000.0, pump_waist=pump_waist,
        fiber_mode_radius=pump_waist / 4.0, inverse_magnification=1.0,
        walkoffs=REFERENCE_WALKOFFS)
    half_width = 6.0 * pump_waist
    with np.errstate(over="ignore", invalid="ignore"):  # 2 * 1.2e308 = inf
        x, weights = _transverse_grid(cfg, n_trans, 6.0)
        want = np.linspace(-half_width, half_width, n_trans)
    assert x.tobytes() == want.tobytes()
    assert x[0] == -half_width or not math.isfinite(2.0 * half_width)
    assert x[-1] == half_width
    assert weights.tobytes() == np.concatenate(
        ([0.5 * (x[1] - x[0])], np.full(n_trans - 2, x[1] - x[0]),
         [0.5 * (x[1] - x[0])])).tobytes()


@pytest.mark.parametrize("n_tau, n_trans, blocks_per_pass", [
    (64, 96, 3),     # n_tau = 64's first level: one 144 KiB stack
    (128, 384, 2),   # 384 KiB blocks: two fit in a 1 MiB pass
    (256, 2048, 1),  # the last refinement of n_tau=64, n_trans=512
])
def test_level_peak_allocation_is_one_pass(n_tau, n_trans, blocks_per_pass):
    # the level's numpy peak is one kernel pass of stacked blocks; what
    # else it allocates is O(n_tau + n_trans) floats
    block = 8 * n_tau * n_trans
    cfg = reference_config(3000.0)
    _gauss_legendre(n_tau)  # the rule's own build is not the level's
    tracemalloc.start()
    try:
        _eta_on_grid(cfg, n_tau, n_trans, 6.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pass_bytes = blocks_per_pass * block
    assert pass_bytes <= peak <= pass_bytes + 8 * 24 * (n_tau + n_trans)
