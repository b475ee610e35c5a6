"""The oracle refuses what its quadrature cannot represent before any grid.

`_gaussians` checks each configuration once: the widths, then the grid's
reach (half-width + rate * L, which the kernel squares), then the
crystal length (whose square a nonzero pair decay multiplies), and only
then is an array built.  At the 3 mm reference design an extent factor
of 2e306 gives a finite half-width whose double overflows, and 1e307 an
infinite one: both used to build their grid first, where numpy warned
twice before the reach refusal.
"""

import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from spdcfc import (ExperimentConfig, QuadratureSpec, WalkOffSet,
                    eta_numeric, pair_overlap_density)
from spdcfc import oracle
from spdcfc.errors import DomainError

from conftest import reference_config
from test_cli import REFERENCE_FLAGS

REFERENCE = reference_config(3000.0)
WIDTH = 1.48 * 49.0  # w*mu, wider than r_p = 53
HUGE_EXTENTS = [2e306, 1e307]
REACH = r"^grid reach half-width \+ rate \* L = \S+ um is outside the range " \
        r"the quadrature can represent$"
# a crystal whose length squares past the float range, with a nonzero
# pair decay and drift rates small enough that its reach passes
LONG = ExperimentConfig(1e160, 0.01, 0.01, 1.0, WalkOffSet(1e-8, 0.0, 0.0))
NARROW = replace(REFERENCE, pump_waist=1e-170)  # r_p^2 underflows
WIDTHS = r"^widths w\*mu = "
LENGTH = "^crystal length L = "


def calls(cfg, spec):
    return {"eta_numeric": lambda: eta_numeric(cfg, spec),
            "pair_overlap_density": lambda: pair_overlap_density(cfg, 0.0,
                                                                 spec)}


def test_the_huge_extent_factors_overflow_the_grid():
    # the premise: 2e306's half-width is finite, its double is not
    assert math.isfinite(2e306 * WIDTH) and 2.0 * (2e306 * WIDTH) == math.inf
    assert 1e307 * WIDTH == math.inf


@pytest.mark.parametrize("call", ["eta_numeric", "pair_overlap_density"])
@pytest.mark.parametrize("extent", HUGE_EXTENTS)
def test_a_grid_whose_width_overflows_is_refused_without_a_warning(extent,
                                                                   call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=REACH):
            calls(REFERENCE, QuadratureSpec(extent_factor=extent))[call]()


@pytest.mark.parametrize("call", ["eta_numeric", "pair_overlap_density"])
@pytest.mark.parametrize("cfg, extent, message", [
    pytest.param(NARROW, 6.0, WIDTHS, id="widths"),
    pytest.param(REFERENCE, 1e307, REACH, id="reach"),
    pytest.param(LONG, 6.0, LENGTH, id="length"),
    # each earlier check speaks first
    pytest.param(replace(LONG, pump_waist=1e-170), 1e307, WIDTHS,
                 id="widths-before-reach-and-length"),
    pytest.param(LONG, 1e307, REACH, id="reach-before-length"),
])
def test_each_refusal_comes_before_any_grid(cfg, extent, message, call,
                                            monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracle, "_transverse_grid", no_grid)
    with pytest.raises(DomainError, match=message):
        calls(cfg, QuadratureSpec(extent_factor=extent))[call]()


@pytest.mark.parametrize("extent", HUGE_EXTENTS)
def test_cli_ends_in_one_error_line(extent):
    with pytest.raises(DomainError) as exc:
        eta_numeric(REFERENCE, QuadratureSpec(extent_factor=extent))
    proc = subprocess.run(
        [sys.executable, "-m", "spdcfc", "oracle", "--L-mm", "3",
         *REFERENCE_FLAGS, "--extent-factor", repr(extent)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {exc.value}"]
    assert re.match(REACH, str(exc.value))
