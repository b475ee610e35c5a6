"""maximize_eta on brackets so wide that its search arithmetic overflows.

The pre-scan steps by (hi - lo) * k / 63 and the golden section halves
a + b; on a bracket near the top of the float range either product or
sum can pass it while every point of the search is a float.  Scaling L,
r_p and w (for the ``rp`` variable) or L and r_p (for ``mu``) and the
bracket by a power of two leaves xi and L/r_p, and so every eta, as they
are, and it is exact while they stay normal.  So a wide bracket must
give the bits of its copy scaled into the middle of the range: the same
eta_max, iterations and boundary flag, and the argmax and bracket
scaled back.
"""

import math
import random

import pytest

from spdcfc import ExperimentConfig, maximize_eta

from conftest import REFERENCE_WALKOFFS

K = 1000  # the copies are scaled by 2^-K
MAX = 1.7976931348623157e308

FOUND = ExperimentConfig(1e305, 1e306, 1e300, 1e9, REFERENCE_WALKOFFS)


def scaled(cfg: ExperimentConfig, variable: str, k: int) -> ExperimentConfig:
    # rp: xi = w*mu/r_p keeps its mu; mu: it keeps its w
    w = cfg.fiber_mode_radius
    mu = cfg.inverse_magnification
    if variable == "rp":
        w = math.ldexp(w, k)
    else:
        mu = math.ldexp(mu, k)
    return ExperimentConfig(math.ldexp(cfg.crystal_length, k),
                            math.ldexp(cfg.pump_waist, k), w, mu,
                            cfg.walkoffs)


def seeded_cases(count: int = 8):
    # brackets whose top lies in [6e306, 1.7e308] and whose foot is at most
    # half of it, so that (hi - lo) * 63 overflows, with xi at the foot
    # drawn so that most optima lie inside: xi falls along an r_p bracket
    # and rises along a mu one
    rng = random.Random("wide-brackets")
    cases = []
    for index in range(count):
        variable = ("rp", "mu")[index % 2]
        hi = rng.uniform(6e306, 1.7e308)
        lo = hi * rng.uniform(0.001, 0.5)
        xi = rng.uniform(2.0, 20.0) if variable == "rp" else rng.uniform(
            0.02, 0.5)
        if variable == "rp":
            w = 1e300 * rng.uniform(1.0, 10.0)
            cfg = ExperimentConfig(lo * rng.uniform(0.01, 1.0), lo, w,
                                   xi * (lo / w), REFERENCE_WALKOFFS)
        else:
            rp = 1e300 * rng.uniform(1.0, 10.0)
            cfg = ExperimentConfig(rp * rng.uniform(0.01, 100.0), rp,
                                   xi * rp / lo, lo, REFERENCE_WALKOFFS)
        cases.append((cfg, variable, (lo, hi)))
    return cases


# the reference design scaled by 2^990, with w set so that its optimum
# xi = 1.09... lies at mu = 1.6e308: a + b overflows around an interior
# optimum
TOP = ExperimentConfig(math.ldexp(3000.0, 990), math.ldexp(53.0, 990),
                       1.0900350735397648 * math.ldexp(53.0, 990) / 1.6e308,
                       1.0, REFERENCE_WALKOFFS)

CASES = [(FOUND, "rp", (1e306, 1e307)), (FOUND, "rp", (1e307, 1.5e308)),
         (TOP, "mu", (1e307, 1.7e308)), *seeded_cases()]


def test_the_cases_cover_both_overflows_and_interior_optima():
    assert all((hi - lo) * 63 == math.inf for _, _, (lo, hi) in CASES)
    results = [maximize_eta(*case) for case in CASES]
    # the golden section's a + b overflows where its first bracket's does
    overflows = [r.bracket[0] + r.bracket[1] == math.inf for r in results]
    assert any(overflows) and not all(overflows)
    assert any(o and not r.boundary for o, r in zip(overflows, results))
    assert sum(not r.boundary for r in results) >= 3


@pytest.mark.parametrize("cfg, variable, bounds", CASES,
                         ids=[f"{v}-{lo:.3g}-{hi:.3g}"
                              for _, v, (lo, hi) in CASES])
def test_a_wide_bracket_gives_the_bits_of_its_scaled_copy(cfg, variable,
                                                          bounds):
    wide = maximize_eta(cfg, variable, bounds)
    copy = maximize_eta(scaled(cfg, variable, -K), variable,
                        tuple(math.ldexp(b, -K) for b in bounds))
    assert (wide.eta_max, wide.iterations, wide.boundary) == (
        copy.eta_max, copy.iterations, copy.boundary)
    assert wide.argmax == math.ldexp(copy.argmax, K)
    assert wide.bracket == tuple(math.ldexp(b, K) for b in copy.bracket)


def test_the_found_brackets_read_their_values():
    assert maximize_eta(FOUND, "rp", (1e306, 1e307)).eta_max == (
        0.000399880031986363)
    result = maximize_eta(FOUND, "rp", (1e307, 1.5e308))
    assert (result.eta_max, result.argmax) == (0.08427004876144424, 1.5e308)
