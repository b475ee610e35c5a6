"""The paper's xi optimum as the quadrature oracle sees it.

``maximize_eta`` finds the best mode-size ratio xi* = w mu / r_p on the
closed form.  The oracle integrates the overlaps without that algebra,
so it must put the maximum in the same place: at design-region configs
with an interior optimum, ``eta_numeric`` at xi* exceeds its values at
xi* (1 +- delta).  The smallest such margin at delta = 1e-2 is ~1e-5
relative, near the default ``target_rel_err``, so the oracle runs at a
target of 1e-9 here and each margin must exceed the estimated errors.
"""

import math
import random

import pytest

from spdcfc import ExperimentConfig, QuadratureSpec, eta_numeric, maximize_eta

from conftest import REFERENCE_WALKOFFS, _with_variable

DELTA = 1e-2
SPEC = QuadratureSpec(target_rel_err=1e-9)


def design_configs(seed: int, count: int):
    # the reference crystal, L in 0.1-5 mm and r_p in 30-120 um; xi is
    # what the optimizer sets, so mu starts at a placeholder
    rng = random.Random(seed)
    for _ in range(count):
        yield ExperimentConfig(rng.uniform(100.0, 5000.0),
                               rng.uniform(30.0, 120.0), 1.48, 1.0,
                               REFERENCE_WALKOFFS)


def oracle_around(cfg: ExperimentConfig, xi: float):
    """The oracle's results at xi (1 - DELTA), xi and xi (1 + DELTA)."""
    return [eta_numeric(_with_variable(cfg, "xi", v), SPEC)
            for v in (xi * (1.0 - DELTA), xi, xi * (1.0 + DELTA))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_peaks_at_the_closed_form_optimum(seed):
    for cfg in design_configs(seed, 30):
        res = maximize_eta(cfg, "xi", (0.1, 10.0))
        assert not res.boundary  # the design region's optimum is interior
        below, at, above = oracle_around(cfg, res.argmax)
        for side in (below, above):
            margin = (at.eta_numeric - side.eta_numeric) / at.eta_numeric
            assert margin > 3.0 * (at.est_rel_err + side.est_rel_err)
            assert margin > 1e-6


@pytest.mark.parametrize("seed", [4, 5])
def test_oracle_parabola_vertex_lies_at_the_optimum(seed):
    # the vertex of the parabola through the three oracle values sits
    # within 5% of delta of xi*; the cubic term of ln eta alone moves it
    # by ~0.5% of delta on these configs
    for cfg in design_configs(seed, 20):
        xi_star = maximize_eta(cfg, "xi", (0.1, 10.0)).argmax
        below, at, above = (r.eta_numeric for r in oracle_around(cfg, xi_star))
        curvature = 2.0 * at - above - below
        assert curvature > 0.0
        offset = 0.5 * DELTA * (above - below) / curvature
        assert math.isfinite(offset)
        assert abs(offset) < 0.05 * DELTA
