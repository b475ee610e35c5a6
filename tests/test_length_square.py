"""The oracle refuses a crystal whose length squares past the float range.

With a nonzero pair decay the pair's depth factor is exp(-decay tau^2)
for tau up to L.  Past L ~ 1.3e154 um that square overflows: numpy
warned and the quadrature ended in a ZeroDivisionError.  Drift rates
small enough that the grid's reach check passes leave this case to its
own refusal, a DomainError before the square is taken.  A zero decay
skips the factor; tests/test_zero_decay.py covers it.
"""

import re
import subprocess
import sys
import warnings

import pytest

from spdcfc import ExperimentConfig, WalkOffSet, pair_overlap_density
from spdcfc.errors import DomainError
from spdcfc.oracle import eta_numeric

CONFIG = ExperimentConfig(1e160, 0.01, 0.01, 1.0, WalkOffSet(1e-8, 0.0, 0.0))
MESSAGE = ("crystal length L = 1e+160 um is outside the range the "
           "quadrature can represent")


@pytest.mark.parametrize("call", [
    lambda: eta_numeric(CONFIG),
    lambda: pair_overlap_density(CONFIG, 0.0),
], ids=["eta_numeric", "pair_overlap_density"])
def test_library_refuses_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{re.escape(MESSAGE)}$"):
            call()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_ends_in_one_error_line(fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "spdcfc", "oracle", "--L-mm", "1e157",
         "--rp-um", "0.01", "--w-um", "0.01", "--mu", "1", "--Mp", "1e-8",
         "--M", "0", "--QK", "0", "--format", fmt],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {MESSAGE}"]
