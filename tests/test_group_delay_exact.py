"""Group delays from the Sellmeier form's exact derivative.

Each group index n - lambda dn/dlambda at the bundled BBO default
geometry is checked against a 50-digit `decimal` evaluation of the same
formula, and against a Richardson-extrapolated central difference of
the index itself.  Only the pump and pair wavelengths must lie in the
model's range, so pumps up to each end of bundled BBO's pump range,
[0.205, 0.53] um, give their rates, and a pump just outside is refused.
"""

import json
import math
from decimal import Decimal, localcontext

import pytest

from spdcfc import (PhaseMatchGeometry, TemporalParams, bundled_bbo,
                    extraordinary_index, group_delay_params)
from spdcfc.cli import main
from spdcfc.dispersion import IndexModel, _group_index
from spdcfc.errors import WavelengthRangeError

CUT = math.radians(42.9)
CONE = math.radians(3.5)

# (wavelength in um, angle): the ordinary and extraordinary pair photons
# and the extraordinary pump, at the default 415 nm pump
RAYS = {"ordinary": (0.83, 0.0), "extraordinary": (0.83, CUT),
        "pump": (0.415, CUT)}

# worst measured: 2.7e-16 against decimal, 5.0e-10 against Richardson
# (the pump; steps of 4 and 2 nm)
DECIMAL_REL = 5e-16
RICHARDSON_REL = 1e-9


def decimal_cos_sin(x: float) -> tuple[Decimal, Decimal]:
    # Taylor series of cos and sin at the float x, to the context's digits
    x = Decimal(x)
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0  # x^k / k!
    while abs(term) > Decimal("1e-60"):
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return cos, sin


def decimal_group_index(model: IndexModel, lam: float,
                        theta: float) -> Decimal:
    # n + u n^3 (cos^2 S_o/n_o^4 + sin^2 S_e/n_e^4), u = lambda^2 and
    # S = -d(n^2)/du = c1/(u - c2)^2 + c3, at 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(lam) ** 2

        def index_sq(coeffs):
            c0, c1, c2, c3 = map(Decimal, coeffs)
            return c0 + c1 / (u - c2) - c3 * u

        def slope(coeffs):
            _, c1, c2, c3 = map(Decimal, coeffs)
            return c1 / (u - c2) ** 2 + c3

        n_o2, n_e2 = index_sq(model.ordinary), index_sq(model.extraordinary)
        cos, sin = decimal_cos_sin(theta)
        cos2, sin2 = cos * cos, sin * sin
        n = 1 / (cos2 / n_o2 + sin2 / n_e2).sqrt()
        return n + u * n ** 3 * (cos2 * slope(model.ordinary) / n_o2 ** 2
                                 + sin2 * slope(model.extraordinary)
                                 / n_e2 ** 2)


def richardson_group_index(model: IndexModel, lam: float, theta: float,
                           step: float = 4e-3) -> float:
    def index(at):
        return extraordinary_index(model, at, theta)

    def slope(h):
        return (index(lam + h) - index(lam - h)) / (2.0 * h)

    return index(lam) - lam * (4.0 * slope(step / 2.0) - slope(step)) / 3.0


@pytest.mark.parametrize("lam, theta", RAYS.values(), ids=RAYS.keys())
def test_group_index_matches_decimal_evaluation(lam, theta):
    model = bundled_bbo()
    exact = decimal_group_index(model, lam, theta)
    got = _group_index(model, lam, theta)
    assert abs((Decimal(got) - exact) / exact) < DECIMAL_REL


@pytest.mark.parametrize("lam, theta", RAYS.values(), ids=RAYS.keys())
def test_group_index_matches_richardson_difference(lam, theta):
    model = bundled_bbo()
    got = _group_index(model, lam, theta)
    assert abs(richardson_group_index(model, lam, theta) - got) < (
        RICHARDSON_REL * got)


@pytest.mark.parametrize("pump", [0.205, 0.2055, 0.5295, 0.53])
def test_pumps_up_to_the_range_ends_give_rates(pump):
    # the 1 nm difference step used to refuse these
    geometry = PhaseMatchGeometry.degenerate(pump, CUT, CONE)
    temporal = group_delay_params(bundled_bbo(), geometry)
    assert isinstance(temporal, TemporalParams)
    assert temporal.d > 0.0


@pytest.mark.parametrize("pump", [0.2049, 0.5301])
def test_pump_just_outside_the_range_is_refused(pump):
    geometry = PhaseMatchGeometry.degenerate(pump, CUT, CONE)
    with pytest.raises(WavelengthRangeError,
                       match="um outside validity range"):
        group_delay_params(bundled_bbo(), geometry)


def test_wavelength_outside_a_model_range_is_refused():
    # a dispersionless model on [0.2, 2.0] um, pumped just below it
    model = IndexModel("const", (1.7 ** 2, 0.0, 0.0, 0.0),
                       (1.6 ** 2, 0.0, 0.0, 0.0), (0.2, 2.0))
    geometry = PhaseMatchGeometry.degenerate(0.1999, 0.7, 0.06)
    with pytest.raises(WavelengthRangeError):
        group_delay_params(model, geometry)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_params_at_a_530_nm_pump_exits_0(capsys):
    code, out, err = run_cli(["params", "--sellmeier", "--pump-nm", "530"],
                             capsys)
    assert (code, err) == (0, "")
    assert "D_fs_per_um" in out and "Lambda_fs_per_um" in out
    code, out, err = run_cli(["params", "--sellmeier", "--pump-nm", "530",
                              "--format", "json"], capsys)
    assert (code, err) == (0, "")
    temporal = json.loads(out)["temporal"]
    assert all(math.isfinite(v) and v > 0.0 for v in temporal.values())


@pytest.mark.parametrize("pump_nm", ["204.9", "530.1"])
def test_params_at_a_pump_just_outside_the_range_exits_1(pump_nm, capsys):
    code, out, err = run_cli(["params", "--sellmeier", "--pump-nm", pump_nm],
                             capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "outside validity range" in err
    assert err.count("\n") == 1
