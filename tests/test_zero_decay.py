"""The oracle past the float range of its squares, and sigma_over_erf(inf).

The pair's decay is 0 when its separation and pump offset have the same
magnitude (all walk-offs 0, or q/K = 0 with M_p = M).  Its depth factor
exp(-0 * tau^2) is then exactly 1, but was computed as NaN once tau^2
overflowed: the oracle returned NaN and the CLI printed a numpy warning.
Both configurations below end in one refusal, with no warning; which
error the library raises is left open, for the oracle's long-crystal
work to settle.  A grid whose shifted coordinates x - rate tau square
past the float range is refused with a DomainError.
"""

import math
import subprocess
import sys
import warnings

import pytest

from spdcfc import ExperimentConfig, WalkOffSet, sigma_over_erf
from spdcfc.errors import ConvergenceError, DomainError
from spdcfc.oracle import QuadratureSpec, eta_numeric

L_MM = 1e160
ZERO_DECAY = [  # (M_p, M, q/K)
    (0.0, 0.0, 0.0),
    (0.05, 0.05, 0.0),
]


@pytest.mark.parametrize("walkoffs", ZERO_DECAY)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_ends_in_one_error_line(walkoffs, fmt):
    mp, m, qk = walkoffs
    proc = subprocess.run(
        [sys.executable, "-m", "spdcfc", "oracle", "--L-mm", str(L_MM),
         "--rp-um", "53", "--w-um", "1.48", "--mu", "49", "--Mp", str(mp),
         "--M", str(m), "--QK", str(qk), "--format", fmt],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("walkoffs", ZERO_DECAY)
def test_eta_numeric_refuses_without_a_warning(walkoffs):
    cfg = ExperimentConfig(L_MM * 1e3, 53.0, 1.48, 49.0,
                           WalkOffSet(*walkoffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ArithmeticError, ValueError, ConvergenceError)):
            eta_numeric(cfg)


def test_a_grid_too_wide_to_square_is_refused_without_a_warning():
    # the kernel squares x - rate tau; at this half-width the square of x
    # alone leaves the float range
    cfg = ExperimentConfig(3000.0, 53.0, 1.48, 49.0,
                           WalkOffSet(0.07631, 0.07243, 0.036215))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^grid reach half-width"):
            eta_numeric(cfg, QuadratureSpec(extent_factor=1e200))


def test_sigma_over_erf_at_inf_is_its_limit():
    assert sigma_over_erf(math.inf) == math.inf
