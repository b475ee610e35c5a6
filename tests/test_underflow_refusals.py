"""Inputs whose arithmetic leaves the float range end in a DomainError.

The oracle refuses widths whose Gaussian coefficients are not normal
floats (where it used to divide by zero, warn, or return a wrong value
with a tiny error estimate), and raw_to_effective refuses a loss chain
whose product underflows to 0.
"""

import subprocess
import sys
import warnings

import pytest

from spdcfc import ExperimentConfig, efficiency, raw_to_effective
from spdcfc.errors import DomainError
from spdcfc.oracle import eta_numeric

from conftest import REFERENCE_WALKOFFS
from test_cli import WALKOFF_FLAGS


def scaled_reference(k: int) -> ExperimentConfig:
    # the 3 mm reference design with L, r_p and w all scaled by 10**k: the
    # same xi and L/r_p, so the same closed-form eta
    s = 10.0 ** k
    return ExperimentConfig(3000.0 * s, 53.0 * s, 1.48 * s, 49.0,
                            REFERENCE_WALKOFFS)


def oracle_outcome(k: int):
    cfg = scaled_reference(k)
    closed = efficiency(cfg).eta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = eta_numeric(cfg)
        except DomainError as exc:
            assert "outside the range the quadrature can represent" in str(exc)
            return "refused"
    deviation = abs(res.eta_numeric - closed) / closed
    return "agree" if deviation <= max(1e-9, 3.0 * res.est_rel_err) else res


@pytest.mark.parametrize("k", range(-70, 71))
def test_scaled_design_agrees(k):
    assert oracle_outcome(k) == "agree"


@pytest.mark.parametrize("k", [*range(-200, -70), *range(71, 201)])
def test_extreme_scales_agree_or_are_refused(k):
    assert oracle_outcome(k) in ("agree", "refused")


@pytest.mark.parametrize("k", [-164, -162, 76, 77, 100, 150])
def test_widths_out_of_range_are_refused(k):
    # unchecked, -164 divided by a width squared of 0, -162 warned of
    # inf * 0, and 77 to 150 gave a wrong eta; 76 has a subnormal a*b
    assert oracle_outcome(k) == "refused"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_refuses_tiny_widths_with_one_error_line(fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "spdcfc", "oracle", "--L-mm", "1e-160",
         "--rp-um", "1e-160", "--w-um", "1e-160", "--mu", "1",
         *WALKOFF_FLAGS, "--format", fmt], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: widths w*mu = 1e-160 um and r_p = 1e-160 um are outside "
        "the range the quadrature can represent\n")


@pytest.mark.parametrize("args, shown", [
    ((0.5, 5e-324, 0.5), "5e-324 * 0.5"),
    ((1e-300, 1e-200, 1e-200), "1e-200 * 1e-200"),
])
def test_raw_to_effective_refuses_an_underflowing_loss_chain(args, shown):
    with pytest.raises(DomainError) as info:
        raw_to_effective(*args)
    assert str(info.value) == (
        f"eta_det * t_filter underflows to 0, got {shown}")


def test_raw_to_effective_still_refuses_a_coupling_above_1():
    # a subnormal loss chain is no underflow: the implied coupling is huge
    with pytest.raises(DomainError, match="exceeds 1"):
        raw_to_effective(1e-300, 1e-160, 1e-160)
