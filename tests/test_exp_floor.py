"""The oracle kernel is plain numpy: a level keeps numpy's bits.

Each kernel pass is the exact difference, square, product, numpy's exp
and a BLAS matrix-vector product per block, with no floor on the
exponents and no scale on the weights.  So each level below must equal
a plain-numpy level bit for bit, and lanes whose exponent falls below
ln(DBL_MIN) ~ -708.4 keep numpy's subnormal results.  The configurations
are far from xi = 1 at the 3 mm reference design, a wide domain point,
and the ends of the xi range of the design region.
"""

import math

import numpy as np
import pytest

from spdcfc import ExperimentConfig, WalkOffSet
from spdcfc.oracle import (_TINY, _depth_ranges, _drift_rates, _eta_on_grid,
                           _exponent_coefs, _gauss_sums)

from conftest import REFERENCE_WALKOFFS


def design_config(length: float, xi: float, pump_waist: float):
    # reference walk-offs and fiber, the mode xi pump waists wide
    return ExperimentConfig(
        crystal_length=length, pump_waist=pump_waist, fiber_mode_radius=1.48,
        inverse_magnification=xi * pump_waist / 1.48,
        walkoffs=REFERENCE_WALKOFFS)


CONFIGS = {
    "xi=0.05": design_config(3000.0, 0.05, 53.0),
    "xi=20": design_config(3000.0, 20.0, 53.0),
    "wide": ExperimentConfig(
        crystal_length=2e4, pump_waist=300.0, fiber_mode_radius=4.0,
        inverse_magnification=20.0, walkoffs=WalkOffSet(0.05, 0.12, 0.03)),
    "L=4.8mm,xi=0.21": design_config(4800.0, 0.21, 40.0),
    "L=4.8mm,xi=4.7": design_config(4800.0, 4.7, 110.0),
    "L=1.7mm,xi=0.23": design_config(1700.0, 0.23, 40.0),
    "L=1.7mm,xi=0.23,rp=110": design_config(1700.0, 0.23, 110.0),
}

# the three levels of n_tau = 64, then the default spec's three
LEVELS = [(64, 96), (128, 192), (256, 384), (14, 96), (28, 192), (56, 384)]


def plain_sums(taus, x, coef, rate, vec):
    """Row sums of vec * exp(-coef * (x - rate * tau)**2), one block."""
    lanes = x - (rate * taus)[:, None]
    lanes *= lanes
    lanes *= -coef
    np.exp(lanes, out=lanes)
    return lanes @ vec


def plain_level(cfg, n_tau, n_trans, extent_factor):
    """One level on np.linspace's grid, one block per kernel."""
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
            * plain_sums(taus, x, coef, rate, mode_w)
            * float((mode_w * np.exp(-coef * (x * x))).sum()))
    p12 = float((tau_w * pair ** 2).sum())

    mode_sq_w = norm_sq * np.exp(-2.0 * a * (x * x)) * tw
    idle = float((mode_sq_w * np.exp(-2.0 * b * (x * x))).sum())
    p1, p2 = (float((tau_w * plain_sums(taus, x, 2.0 * b, arm, mode_sq_w)
                     * idle).sum())
              for arm, (taus, tau_w) in zip((arm1, arm2), arm_rules))
    return p12 / math.sqrt(p1 * p2), p12, p1, p2


@pytest.mark.parametrize("n_tau, n_trans", LEVELS)
@pytest.mark.parametrize("name", CONFIGS)
def test_level_equals_plain_numpy_bit_for_bit(name, n_tau, n_trans):
    cfg = CONFIGS[name]
    got = _eta_on_grid(cfg, n_tau, n_trans, 6.0)
    want = plain_level(cfg, n_tau, n_trans, 6.0)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_lanes_below_ln_dbl_min_keep_numpys_subnormal_bits():
    # exponents in [-740, -718], where exp is subnormal or 0: the row sums
    # to a subnormal number, not to 0
    x = np.linspace(-0.2, 0.2, 16)
    ones = np.ones(x.size)
    dead = np.array([27.0])
    assert -(27.0 + 0.2) ** 2 <= -(27.0 - 0.2) ** 2 < math.log(_TINY)
    want = plain_sums(dead, x, 1.0, 1.0, ones)[0]
    assert 0.0 < want < _TINY
    # a dead block stacked in a pass with a live one, and a dead row after
    # a live one in a block
    live = plain_sums(dead, x, 1.0, 0.0, ones)[0]
    got = _gauss_sums(dead, x, (1.0, 1.0), (0.0, 1.0), np.ones((2, x.size)))
    assert [v.hex() for v in got.ravel()] == [live.hex(), want.hex()]
    taus = np.array([0.0, 27.0])
    got = _gauss_sums(taus, x, (1.0,), (1.0,), ones[None])[0]
    assert [v.hex() for v in got] == [
        v.hex() for v in plain_sums(taus, x, 1.0, 1.0, ones)]
    assert got[1] == want
