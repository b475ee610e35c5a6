"""`spdcfc oracle` where the quadrature's integrals underflow to zero.

The library still raises ZeroDivisionError there (the benchmark counts
it as a raw exception at one such config); the command ends in one
error line, exit 1 and nothing on stdout, in both output formats.  An
exponent that overflows on the way (tiny mu, huge L) prints no numpy
warning.
"""

import pytest

from test_cli import REFERENCE_FLAGS, run_cli


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("extra", [
    ["--mu", "1e-7"],
    ["--mu", "1e-150"],
    ["--mu", "1e-150", "--L-mm", "1e150"],
], ids=["mu-1e-7", "mu-1e-150", "exponent-overflows"])
def test_oracle_underflow_is_one_error_line(extra, fmt, capsys):
    # the last of a repeated flag counts
    code, out, err = run_cli(["oracle", "--L-mm", "3", *REFERENCE_FLAGS,
                              *extra, "--format", fmt], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: the quadrature underflows to 0 at this "
                   "configuration, so the oracle cannot check it\n")
