"""Index models whose arithmetic reaches past the float range end in a
result or a DomainError, never in a raw OverflowError.

- n^2 past the float range on the range is refused when the model is
  built, so ``params --sellmeier`` on such a file is a usage error.
- An index whose cube overflows, which the group index needs, is a
  DomainError from ``group_delay_params``; its walk-offs stay values.
- A pole far below the range, where (lambda^2 - c2)^2 overflows, leaves
  a c1 term below the float range's resolution: the model gets the group
  delays of the same model without that term.
"""

import json

import pytest

from spdcfc import (IndexModel, PhaseMatchGeometry, build_walkoff_set,
                    bundled_bbo, group_delay_params)
from spdcfc.errors import DomainError

from test_cli import run_cli

GEOMETRY = PhaseMatchGeometry.degenerate(0.4, 0.75, 0.06)
MAX = 1.7976931348623157e308

# ordinary n^2 = 1e308 (1 + 1/lambda^2 + lambda^2): inf on the whole range
OVERFLOWING = ("overflowing", (1e308, 1e308, 0.0, -1e308),
               (1e308, 0.0, 0.0, 0.0), (0.3, 1.0))
# n ~ 1e103: n^2 is finite, n^3 is not
HUGE = ("huge", (1e206, 0.0, 0.0, 0.0), (0.99e206, 0.0, 0.0, 0.0), (0.3, 1.2))


def far_pole(polarizations):
    # the bundled coefficients with c2 = -1e160 in the named polarizations,
    # and the same model with c1 = c2 = 0 there
    bbo = bundled_bbo()
    coeffs = {"ordinary": bbo.ordinary, "extraordinary": bbo.extraordinary}
    far, bare = dict(coeffs), dict(coeffs)
    for name in polarizations:
        c0, c1, _, c3 = coeffs[name]
        far[name] = (c0, c1, -1e160, c3)
        bare[name] = (c0, 0.0, 0.0, c3)
    return (IndexModel("far pole", range_um=bbo.range_um, **far),
            IndexModel("far pole", range_um=bbo.range_um, **bare))


def test_n_squared_past_the_float_range_is_refused_at_construction():
    with pytest.raises(DomainError) as info:
        IndexModel(*OVERFLOWING)
    assert str(info.value) == ("overflowing: ordinary n^2 is not finite on "
                               "the range [0.3, 1.0]")


@pytest.mark.parametrize("c3, hi", [(0.0, 1e200), (-1e10, 1e150)])
def test_a_c3_term_past_the_float_range_is_refused(c3, hi):
    # c3 lambda^2 at the upper end is 0 * inf, which evaluates to nan, or
    # overflows
    coeffs = (2.0, 0.0, 0.0, c3)
    with pytest.raises(DomainError) as info:
        IndexModel("wide", coeffs, coeffs, (0.3, hi))
    assert str(info.value) == (f"wide: ordinary n^2 is not finite on the "
                               f"range [0.3, {hi}]")


def test_params_with_an_overflowing_file_exits_2_with_one_line(tmp_path,
                                                                capsys):
    material, ordinary, extraordinary, range_um = OVERFLOWING
    doc = {"material": material,
           "ordinary": {"coeffs": list(ordinary), "range_um": list(range_um)},
           "extraordinary": {"coeffs": list(extraordinary),
                             "range_um": list(range_um)}}
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["params", "--sellmeier", str(path),
                              "--pump-nm", "400"], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"usage error: bad Sellmeier file: {path}: overflowing: "
                   "ordinary n^2 is not finite on the range [0.3, 1.0]\n")


def test_an_index_whose_cube_overflows_gives_walkoffs_but_no_group_delays():
    model = IndexModel(*HUGE)
    walkoffs = build_walkoff_set(model, GEOMETRY)
    assert 0.0 < walkoffs.m_p < 1.0
    with pytest.raises(DomainError) as info:
        group_delay_params(model, GEOMETRY)
    assert str(info.value) == ("huge: index 1e+103 at 0.8 um: n^3 is past "
                               "the float range")


@pytest.mark.parametrize("theta", [0.1, 0.75, 1.5])
def test_an_index_whose_square_rounds_past_the_float_range_is_refused(theta):
    # n_o^2 = n_e^2 = the largest float, which the angled index's square
    # passes by rounding
    model = IndexModel("edge", (MAX, 0.0, 0.0, 0.0), (MAX, 0.0, 0.0, 0.0),
                       (0.2, 1.1))
    geometry = PhaseMatchGeometry.degenerate(0.4, theta, 0.06)
    with pytest.raises(DomainError, match=r"^edge: index .* at 0\.4 um: n\^2 "
                                          "is past the float range$"):
        build_walkoff_set(model, geometry)


@pytest.mark.parametrize("polarizations", [("extraordinary",),
                                           ("ordinary", "extraordinary")])
def test_a_pole_far_below_the_range_gets_its_group_delays(polarizations):
    far, bare = far_pole(polarizations)
    assert group_delay_params(far, GEOMETRY) == group_delay_params(bare,
                                                                   GEOMETRY)
    assert build_walkoff_set(far, GEOMETRY) == build_walkoff_set(bare,
                                                                 GEOMETRY)
