"""The oracle kernel's exp floor and weight scale keep a level's bits.

A block that can reach an exponent below the floor (-707) has the rows
that can reach it raised to the floor and exp(floor) subtracted after
exp, so those lanes come out exactly 0 instead of subnormal or 0 through
numpy's slow path; the rows before them keep numpy's exp bits.
The weights carry an exact power of two, so that products which were
subnormal are normal, and the row sums are scaled back.  Neither may move
a returned value: each level below must equal a plain-numpy level, with
no floor and unscaled weights, bit for bit.  The configurations are the
ones where both act: far from xi = 1 at the 3 mm reference design, a wide
domain point, and the ends of the xi range of the design region.
"""

import math
import random

import numpy as np
import pytest

from spdcfc import ExperimentConfig, WalkOffSet
from spdcfc.oracle import (_EXP_FLOOR, _TINY, _depth_ranges, _drift_rates,
                           _eta_on_grid, _exp_at_floor, _exponent_coefs,
                           _gauss_legendre, _gauss_sums, _transverse_grid)

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
    # the scale acts here, the floor does not
    "L=1.7mm,xi=0.23,rp=110": design_config(1700.0, 0.23, 110.0),
}

# the three levels of n_tau = 64, then the default spec's three
LEVELS = [(64, 96), (128, 192), (256, 384), (14, 96), (28, 192), (56, 384)]


def plain_sums(taus, x, coef, rate, vec):
    """Row sums of vec * exp(-coef * (x - rate * tau)**2): no floor."""
    lanes = x - (rate * taus)[:, None]
    lanes *= lanes
    lanes *= -coef
    np.exp(lanes, out=lanes)
    return lanes @ vec


def plain_level(cfg, n_tau, n_trans, extent_factor):
    """One level on np.linspace's grid with unscaled weights."""
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


def test_lanes_below_the_floor_sum_to_exactly_zero():
    # exponents in [-740, -718], where exp is subnormal: without the floor
    # this row sums to a tiny number, not to 0
    x = np.linspace(-0.2, 0.2, 16)
    ones = np.ones(x.size)
    dead = np.array([27.0])
    assert -(27.0 + 0.2) ** 2 <= -(27.0 - 0.2) ** 2 < _EXP_FLOOR
    assert 0.0 < plain_sums(dead, x, 1.0, 1.0, ones)[0] < 1e-300
    # a dead block stacked in a pass with a live one, and a dead row after
    # a live one in a block: the live row sums keep their bits
    live = plain_sums(dead, x, 1.0, 0.0, ones)[0]
    assert _gauss_sums(dead, x, (1.0, 1.0), (0.0, 1.0),
                       np.ones((2, x.size))).tolist() == [[live], [0.0]]
    taus = np.array([0.0, 27.0])
    live = plain_sums(taus, x, 1.0, 1.0, ones)[0]
    assert _gauss_sums(taus, x, (1.0,), (1.0,),
                       ones[None]).tolist() == [[live, 0.0]]


def test_floor_covers_only_the_rows_that_can_reach_it():
    # one block drifts at rate 1 into the floor, one stays at rate 0
    x = np.linspace(-0.01, 0.01, 16)
    ones = np.ones(x.size)
    taus = np.array([0.0, 26.50, 26.55, 26.60, 27.0])
    assert -(26.50 + 0.01) ** 2 > _EXP_FLOOR  # ~ -702.8, above the floor
    assert -(26.60 - 0.01) ** 2 < _EXP_FLOOR  # every lane below it
    got = _gauss_sums(taus, x, (1.0, 1.0), (1.0, 0.0), np.ones((2, x.size)))
    plain = plain_sums(taus, x, 1.0, 1.0, ones)
    # the rows before the floor keep numpy's bits: a floor over the whole
    # block would shift row 26.50 by 16 exp(-707), 1.7523e-304 -> 1.7379e-304
    assert got[0, :2].tolist() == plain[:2].tolist()
    # the row floored one early against rounding moves by at most that
    assert abs(got[0, 2] - plain[2]) <= x.size * _exp_at_floor()
    assert got[0, 3:].tolist() == [0.0, 0.0]
    assert got[1].tolist() == plain_sums(taus, x, 1.0, 0.0, ones).tolist()


def kernel_args(cfg, n_tau, n_trans):
    """(taus, x, coefs, rates) of a level's kernel call, as _densities
    builds them: one row of depths per block."""
    pair_sep, pump_off2, arm1, arm2 = _drift_rates(cfg.walkoffs)
    a, b, _ = _exponent_coefs(cfg)
    x, _ = _transverse_grid(cfg, n_trans, 6.0)
    nodes = _gauss_legendre(n_tau)[0]
    taus = np.array([0.5 * t * (nodes + 1.0) for t in _depth_ranges(cfg)])
    coef = a + b
    rate = (a * pair_sep + 0.5 * b * (pair_sep + pump_off2)) / coef
    return taus, x, (coef, 2.0 * b, 2.0 * b), (rate, arm1, arm2)


def test_rows_left_unfloored_never_underflow():
    # a row left unfloored with a lane below ln(DBL_MIN) would underflow
    # in exp; unit weights, so the row sums cannot underflow on their own
    rng = random.Random(20)
    configs = list(CONFIGS.values()) + [
        design_config(rng.uniform(100.0, 5000.0),
                      math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
                      rng.uniform(30.0, 120.0))
        for _ in range(40)]
    reaching = 0
    for cfg in configs:
        for n_tau, n_trans in LEVELS:
            taus, x, coefs, rates = kernel_args(cfg, n_tau, n_trans)
            reaching += min(-c * (x[-1] + r * t[-1]) ** 2 for c, r, t
                            in zip(coefs, rates, taus)) < math.log(_TINY)
            with np.errstate(under="raise"):
                _gauss_sums(taus, x, coefs, rates, np.ones((3, x.size)))
    # the premise: many of these levels have lanes that would underflow
    assert reaching >= 30
