"""Sweep grids and --L-range are refused in core's grammar.

A grid item outside its range reads "<name> must be > 0, got <value>",
and a pair out of order reads "<name> must satisfy <order>, got (<lo>,
<hi>)": for each grid, a neighbour pair in the order 0 < lo < hi.  The
command line reports both as one usage error line (exit 2).
"""

import pytest

from spdcfc import SweepSpec, ceiling_scan
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS, reference_config
from test_cli import WALKOFF_FLAGS, run_cli

CFG = reference_config(3000.0)

GRIDS = {
    "zero-item": ((1000.0, 0.0), "must be > 0, got 0.0"),
    "negative-item": ((-1.0,), "must be > 0, got -1.0"),
    "int-item": ((1000, -2), "must be > 0, got -2.0"),
    "equal-neighbours": ((1000.0, 2000.0, 2000.0),
                         "must satisfy 0 < lo < hi, got (2000.0, 2000.0)"),
    "decreasing": ((3000.0, 1000.0, 2000.0),
                   "must satisfy 0 < lo < hi, got (3000.0, 1000.0)"),
}


def refusal(call) -> str:
    with pytest.raises(DomainError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("grid, rule", GRIDS.values(), ids=GRIDS)
def test_library_grids_refuse_an_item_or_a_neighbour_pair(grid, rule):
    assert refusal(lambda: SweepSpec(grid, (49.0,), CFG)) == f"l_grid {rule}"
    assert refusal(lambda: SweepSpec((3000.0,), grid, CFG)) == (
        f"mu_values {rule}")
    assert refusal(lambda: ceiling_scan(53.0, REFERENCE_WALKOFFS, grid)) == (
        f"l_grid {rule}")


SWEEP = ["sweep", "--rp-um", "53", "--w-um", "1.48", *WALKOFF_FLAGS]

BAD_ARGS = {
    "mu-zero": (["--L-range", "1:2:1", "--mu", "0"],
                "--mu must be > 0, got 0.0"),
    "mu-decreasing": (["--L-range", "1:2:1", "--mu", "49,25"],
                      "--mu must satisfy 0 < lo < hi, got (49.0, 25.0)"),
    "mu-repeated": (["--L-range", "1:2:1", "--mu", "25,49,49"],
                    "--mu must satisfy 0 < lo < hi, got (49.0, 49.0)"),
    "range-reversed": (["--L-range", "5:1:1", "--mu", "49"],
                       "--L-range must satisfy 0 < lo <= hi, got (5.0, 1.0)"),
    "range-zero-start": (["--L-range", "0:1:1", "--mu", "49"],
                         "--L-range must satisfy 0 < lo <= hi, "
                         "got (0.0, 1.0)"),
    "range-zero-step": (["--L-range", "1:5:0", "--mu", "49"],
                        "--L-range step must be > 0, got 0.0"),
    "range-negative-step": (["--L-range", "1:5:-1", "--mu", "49"],
                            "--L-range step must be > 0, got -1.0"),
}


@pytest.mark.parametrize("args, message", BAD_ARGS.values(), ids=BAD_ARGS)
def test_sweep_refuses_mu_and_l_range_as_one_usage_error(args, message,
                                                         capsys):
    assert run_cli(SWEEP + args, capsys) == (
        2, "", f"usage error: {message}\n")
