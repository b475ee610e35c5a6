"""Three library calls at the ends of the float range end in a result or a
DomainError, and keep their bits everywhere else.

- ``magnification``: where 1/f - 1/d_bl rounds to 0, both reciprocals
  overflow, or the image distance is past the float range, the call is
  refused; every other lens keeps d_al = 1/(1/f - 1/d_bl).
- ``walk_off_tangent``: where 2 theta overflows, sin(2 theta) is taken
  as 2 sin(theta) cos(theta); smaller angles keep sin(2 theta).
- ``IndexModel``: where the n_o >= n_e cubic's coefficients leave the
  float range (both poles far below the range), its sign is decided on
  the same cubic computed exactly and scaled to a largest coefficient of
  1; every model whose float coefficients are finite keeps its decision.

The command line shows the lens case as one ``error:`` line, and a
``--mu`` list that is not numeric as a usage error worded as the other
lists are.
"""

import math
import random
from fractions import Fraction

import pytest

from spdcfc import (IndexModel, bundled_bbo, extraordinary_index,
                    magnification, walk_off_tangent)
from spdcfc.dispersion import _cubic, _sellmeier1
from spdcfc.errors import DomainError

from test_cli import run_cli

BIGGEST = 1.7976931348623157e308
LENS = ("--f-mm", "0.0018241151702338225", "--dbl-mm", "0.0018241151702338228")
EVAL = ["eval", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48", "--Mp",
        "0.07631", "--M", "0.07243", "--QK", "0.036215"]


# ---------------------------------------------------------------------------
# thin lens
# ---------------------------------------------------------------------------

def adjacent_lenses(count: int = 400):
    # f in [1, 100] and d_bl one to four floats past it
    rng = random.Random("adjacent-lenses")
    out = []
    for _ in range(count):
        f = rng.uniform(1.0, 100.0)
        out.append((f, f + rng.randint(1, 4) * math.ulp(f)))
    return out


def test_a_lens_ends_in_a_finite_result_or_a_domain_error():
    refused = 0
    for f, d_bl in adjacent_lenses():
        try:
            mu, d_al = magnification(f, d_bl)
        except DomainError as exc:
            refused += 1
            assert str(exc).startswith("image distance 1/(1/f - 1/d_bl) is "
                                       "not a finite float for f=")
        else:
            assert math.isfinite(mu) and math.isfinite(d_al)
    assert refused  # the rounding that used to divide by zero happens


@pytest.mark.parametrize("f, d_bl", [
    (5e-324, 1e-323), (1e-310, 3e-310), (0.0018241151702338225,
                                         0.0018241151702338228)],
    ids=["both-overflow-least", "both-overflow", "alike"])
def test_a_lens_without_a_float_image_distance_is_refused(f, d_bl):
    with pytest.raises(DomainError, match="image distance"):
        magnification(f, d_bl)


def test_a_lens_keeps_the_bits_of_its_image_distance():
    rng = random.Random("lens-bits")
    for _ in range(2000):
        f = 10.0 ** rng.uniform(-300, 290)
        d_bl = f * (1.0 + 10.0 ** rng.uniform(-12, 6))
        assert magnification(f, d_bl) == (d_bl / f - 1.0,
                                          1.0 / (1.0 / f - 1.0 / d_bl))


def test_the_lens_case_is_one_error_line(capsys):
    code, out, err = run_cli([*EVAL, *LENS], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: image distance") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# walk-off angle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [BIGGEST, -BIGGEST, 1e308, 8.99e307])
def test_an_angle_whose_double_overflows_has_a_walk_off(theta):
    bbo = bundled_bbo()
    assert 2.0 * theta in (math.inf, -math.inf)
    # the walk-off has the period pi of sin(2 theta) only up to rounding:
    # compare with the same formula taken at the angle's own sine and cosine
    s, c = math.sin(theta), math.cos(theta)
    expected = walk_off_tangent(bbo, 0.5, math.atan2(s, c))
    assert walk_off_tangent(bbo, 0.5, theta) == pytest.approx(expected,
                                                              rel=1e-12)


def test_a_smaller_angle_keeps_sin_of_its_double():
    bbo = bundled_bbo()
    rng = random.Random("walk-off-bits")
    lam = 0.5
    n_o2, n_e2 = (_sellmeier1(c, lam) for c in (bbo.ordinary,
                                                bbo.extraordinary))
    for _ in range(200):
        theta = 10.0 ** rng.uniform(-3, 307.9) * rng.choice((1.0, -1.0))
        n = extraordinary_index(bbo, lam, theta)
        assert walk_off_tangent(bbo, lam, theta) == abs(
            0.5 * n ** 2 * math.sin(2.0 * theta) * (1.0 / n_e2 - 1.0 / n_o2))


# ---------------------------------------------------------------------------
# far poles
# ---------------------------------------------------------------------------

def with_poles(coeffs, c2):
    c0, c1, _, c3 = coeffs
    return (c0, c1, c2, c3)


@pytest.mark.parametrize("c2", [-1e150, -1e160, -1e300, -BIGGEST])
def test_an_isotropic_model_with_far_poles_builds(c2):
    bbo = bundled_bbo()
    coeffs = with_poles(bbo.ordinary, c2)
    IndexModel("iso", coeffs, coeffs, bbo.range_um)


def scaled_models(count: int = 200):
    # the bundled coefficients each scaled by U[0.3, 3]
    rng = random.Random("far-poles")
    bbo = bundled_bbo()
    return [tuple(tuple(c * rng.uniform(0.3, 3.0) for c in coeffs)
                  for coeffs in (bbo.ordinary, bbo.extraordinary))
            for _ in range(count)]


def decision(ordinary, extraordinary) -> str:
    try:
        IndexModel("m", ordinary, extraordinary, bundled_bbo().range_um)
    except DomainError as exc:
        return str(exc).split(" at ")[0]
    return "built"


def test_far_poles_decide_as_a_nearer_far_pole_does():
    # with both poles far below the range the c1 terms vanish, so a pole
    # at -1e150 (float cubic) and at -1e160 or -1e300 (exact cubic) decide
    # alike
    decisions = set()
    for o, e in scaled_models():
        found = {decision(with_poles(o, c2), with_poles(e, c2))
                 for c2 in (-1e150, -1e160, -1e300)}
        assert len(found) == 1, (o, e, found)
        decisions |= found
    assert {"built", "m: n_o < n_e"} <= decisions


def test_a_model_with_finite_cubic_coefficients_keeps_the_float_cubic():
    # the exact cubic is computed only where a float coefficient is not
    # finite; the scaled bundled models of the A/B dump never get there
    for o, e in scaled_models():
        assert all(map(math.isfinite, _cubic(*o, *e)))
    bbo = bundled_bbo()
    far = _cubic(*with_poles(bbo.ordinary, -1e160),
                 *with_poles(bbo.ordinary, -1e160))
    assert not all(map(math.isfinite, far))
    exact = _cubic(*map(Fraction, with_poles(bbo.ordinary, -1e160)
                        + with_poles(bbo.ordinary, -1e160)))
    assert exact == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# --mu on the command line
# ---------------------------------------------------------------------------

SWEEP = ["sweep", "--L-range", "1:3:1", "--rp-um", "53", "--w-um", "1.48",
         "--Mp", "0.07631", "--M", "0.07243", "--QK", "0.036215"]


@pytest.mark.parametrize("mu, message", [
    ("abc", "--mu must be numeric, got 'abc'"),
    ("25,x", "--mu must be numeric, got '25,x'"),
    ("1,inf", "--mu must be finite, got inf"),
    ("1,nan", "--mu must be finite, got nan"),
], ids=["text", "text-item", "inf", "nan"])
def test_mu_list_reads_numbers_as_the_other_lists_do(mu, message, capsys):
    code, out, err = run_cli([*SWEEP, "--mu", mu], capsys)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_mu_list_skips_empty_items(capsys):
    code, out, _ = run_cli([*SWEEP, "--mu", "25,,49,"], capsys)
    assert code == 0
    assert out == run_cli([*SWEEP, "--mu", "25,49"], capsys)[1]
