"""xi = w*mu/r_p where the product w*mu leaves the normal float range.

Scaling L, r_p and w by a power of two is exact while they stay normal
floats, and it leaves xi and L/r_p, and so every result, as they are.
So a configuration and its copy scaled until w*mu overflows, is
subnormal or underflows to 0 must give bit-identical results: the
check needs no reference arithmetic.  mu is dimensionless and is not
scaled.

Each family draws xi on the side of 1 that its scale allows: with w*mu
past the float range, r_p = w*mu/xi is finite only for xi > 1, and with
w*mu below it, r_p is normal only for xi < 1.  Past the range xi is
above 2000, so that the r_p bracket's pre-scan, which multiplies the
bracket's width by up to 63, stays finite too.  The base magnification
keeps the scaled L and w normal.  The inverse map of the ``xi``
variable, mu = value*r_p/w, is not covered: where value*r_p leaves the
float range that maximize_eta is refused.
"""

import math
import random

import pytest

from spdcfc import (ExperimentConfig, SweepSpec, efficiency, efficiency_curve,
                    maximize_eta)

from conftest import REFERENCE_WALKOFFS

_MAX = 1.7976931348623157e308
_NORMAL_MIN = 2.0 ** -1022

# family: (mu range, xi range, L/r_p range, the binade [2^(e-1), 2^e) the
# scaled product w*mu lands in)
FAMILIES = {
    "overflow": ((1e6, 1e12), (2e3, 1e5), (1e-4, 1e-1), 1025),
    "subnormal": ((1e-200, 1e-20), (1e-12, 1e-2), (1.0, 1e4), -1023),
    "zero": ((1e-200, 1e-40), (1e-30, 1e-25), (1.0, 1e4), -1090),
}


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def scaled(cfg: ExperimentConfig, k: int) -> ExperimentConfig:
    return ExperimentConfig(math.ldexp(cfg.crystal_length, k),
                            math.ldexp(cfg.pump_waist, k),
                            math.ldexp(cfg.fiber_mode_radius, k),
                            cfg.inverse_magnification, cfg.walkoffs)


def product_exponent(cfg: ExperimentConfig) -> int:
    return math.frexp(cfg.fiber_mode_radius * cfg.inverse_magnification)[1]


def family_pairs(family: str, count: int = 12):
    # (base, k): a base with w*mu normal, and the power of two that moves
    # that product into the family's binade
    (mu_lo, mu_hi), (xi_lo, xi_hi), (r_lo, r_hi), target = FAMILIES[family]
    rng = random.Random(f"xi-range:{family}")
    pairs = []
    for _ in range(count):
        w = rng.uniform(1.0, 10.0)
        mu = log_uniform(rng, mu_lo, mu_hi)
        rp = w * mu / log_uniform(rng, xi_lo, xi_hi)
        base = ExperimentConfig(rp * log_uniform(rng, r_lo, r_hi), rp, w, mu,
                                REFERENCE_WALKOFFS)
        pairs.append((base, target - product_exponent(base)))
    return pairs


# the two configurations named where this range was found, each against a
# copy of itself scaled so that w*mu is normal
FOUND = ExperimentConfig(3000.0, 1e305, 1e300, 1e9, REFERENCE_WALKOFFS)
SUBNORMAL = ExperimentConfig(3e-297, 1e-300, 1e-160, 1e-150,
                             REFERENCE_WALKOFFS)
PAIRS = ([(scaled(FOUND, -8), 8), (scaled(SUBNORMAL, 600), -600)]
         + [pair for family in FAMILIES for pair in family_pairs(family)])
IDS = (["found-overflow", "found-subnormal"]
       + [f"{family}-{n}" for family in FAMILIES for n in range(12)])


@pytest.mark.parametrize("base, k", PAIRS, ids=IDS)
def test_the_copy_keeps_its_fields_normal_and_its_product_out_of_range(base,
                                                                       k):
    copy = scaled(base, k)
    for cfg in (base, copy):
        for value in (cfg.crystal_length, cfg.pump_waist,
                      cfg.fiber_mode_radius):
            assert _NORMAL_MIN <= value <= _MAX
    assert _NORMAL_MIN <= base.fiber_mode_radius * base.inverse_magnification
    product = copy.fiber_mode_radius * copy.inverse_magnification
    assert product == math.inf or product < _NORMAL_MIN


@pytest.mark.parametrize("base, k", PAIRS, ids=IDS)
def test_efficiency_of_the_copy_has_the_bits_of_the_base(base, k):
    assert efficiency(scaled(base, k)) == efficiency(base)


@pytest.mark.parametrize("base, k", PAIRS, ids=IDS)
def test_curve_rows_of_the_copy_have_the_bits_of_the_base(base, k):
    mu = base.inverse_magnification
    mu_values = (mu / 4.0, mu, 2.0 * mu)
    lengths = (base.crystal_length / 2.0, base.crystal_length)
    rows = efficiency_curve(SweepSpec(lengths, mu_values, base)).rows
    copy_rows = efficiency_curve(SweepSpec(
        tuple(math.ldexp(v, k) for v in lengths), mu_values,
        scaled(base, k))).rows
    assert ([(r.mu, r.xi, r.eta) for r in copy_rows]
            == [(r.mu, r.xi, r.eta) for r in rows])


@pytest.mark.parametrize("variable", ["mu", "rp"])
@pytest.mark.parametrize("base, k", PAIRS, ids=IDS)
def test_maximize_on_the_copy_has_the_bits_of_the_base(base, k, variable):
    if variable == "mu":
        mu = base.inverse_magnification
        bounds = copy_bounds = (mu / 4.0, 4.0 * mu)
    else:
        rp = base.pump_waist
        bounds = (rp / 4.0, 4.0 * rp)
        copy_bounds = tuple(math.ldexp(v, k) for v in bounds)
    res = maximize_eta(base, variable, bounds)
    copy = maximize_eta(scaled(base, k), variable, copy_bounds)
    assert (copy.eta_max, copy.iterations) == (res.eta_max, res.iterations)
