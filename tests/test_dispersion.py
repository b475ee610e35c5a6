"""Index model, walk-off derivation and group-delay parameters."""

import json
import math
from dataclasses import replace

import pytest

from spdcfc import (
    IndexModel,
    PhaseMatchGeometry,
    build_walkoff_set,
    bundled_bbo,
    extraordinary_index,
    group_delay_params,
    load_index_model,
    ordinary_index,
    phase_match_angle,
    principal_extraordinary_index,
    q_over_kbar,
    walk_off_tangent,
)
from spdcfc.dispersion import DEFAULT_CUT_ANGLE_DEG
from spdcfc.errors import DomainError, WavelengthRangeError

PUMP_UM = 0.415
DEGEN_UM = 0.830


def reference_geometry() -> PhaseMatchGeometry:
    return PhaseMatchGeometry.degenerate(
        pump_wavelength=PUMP_UM,
        cut_angle=math.radians(DEFAULT_CUT_ANGLE_DEG),
        external_cone_angle=math.radians(3.5))


def constant_model(n_o: float, n_e: float, material="const") -> IndexModel:
    return IndexModel(material=material,
                      ordinary=(n_o ** 2, 0.0, 0.0, 0.0),
                      extraordinary=(n_e ** 2, 0.0, 0.0, 0.0),
                      range_um=(0.2, 2.0))


# ---------------------------------------------------------------------------
# index model
# ---------------------------------------------------------------------------

def test_bundled_bbo_loads_with_citation():
    model = bundled_bbo()
    assert model.material
    assert model.citation
    lo, hi = model.range_um
    assert lo <= PUMP_UM and DEGEN_UM <= hi
    assert ordinary_index(model, DEGEN_UM) > principal_extraordinary_index(
        model, DEGEN_UM) > 1.0


def test_extraordinary_index_endpoints():
    model = bundled_bbo()
    for lam in (PUMP_UM, DEGEN_UM):
        assert extraordinary_index(model, lam, 0.0) == pytest.approx(
            ordinary_index(model, lam), rel=1e-14)
        assert extraordinary_index(model, lam, math.pi / 2.0) == pytest.approx(
            principal_extraordinary_index(model, lam), rel=1e-14)


def test_extraordinary_index_bracketed_and_monotone():
    model = bundled_bbo()
    theta_pm = phase_match_angle(model, PUMP_UM)
    n = extraordinary_index(model, PUMP_UM, theta_pm)
    assert principal_extraordinary_index(model, PUMP_UM) < n < ordinary_index(
        model, PUMP_UM)
    thetas = [math.pi / 2.0 * k / 64 for k in range(65)]
    values = [extraordinary_index(model, PUMP_UM, t) for t in thetas]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_wavelength_range_enforced():
    model = bundled_bbo()
    with pytest.raises(WavelengthRangeError):
        ordinary_index(model, 0.15)
    with pytest.raises(WavelengthRangeError):
        extraordinary_index(model, 3.0, 0.5)
    with pytest.raises(WavelengthRangeError):
        walk_off_tangent(model, 1.5, 0.5)


def test_index_model_rejects_bad_data():
    with pytest.raises(DomainError):  # n < 1
        IndexModel("bad", (0.5, 0.0, 0.0, 0.0), (0.4, 0.0, 0.0, 0.0),
                   (0.2, 2.0))
    with pytest.raises(DomainError):  # positive uniaxial
        constant_model(1.5, 1.6)
    with pytest.raises(DomainError):  # inverted range
        IndexModel("bad", (2.9, 0.0, 0.0, 0.0), (2.5, 0.0, 0.0, 0.0),
                   (2.0, 0.2))


def test_positive_uniaxial_between_samples_is_refused():
    # n_o < n_e only on [0.2059, 0.2180] um, a sliver of the range next
    # to the ordinary pole at 0.2048 um
    with pytest.raises(DomainError, match=r"^x: n_o < n_e at 0\.2120 um; "
                                          "only negative uniaxial"):
        IndexModel("x", [7.433889, 0.008311, 0.041928, 0.027003],
                   [4.261654, 0.030622, 0.040955, 0.008877], (0.205, 1.06))


def test_isotropic_model_allowed():
    model = constant_model(1.7, 1.7)
    assert ordinary_index(model, 0.8) == principal_extraordinary_index(model, 0.8)


# ---------------------------------------------------------------------------
# walk-off
# ---------------------------------------------------------------------------

def test_walk_off_zero_along_axes():
    model = bundled_bbo()
    assert walk_off_tangent(model, PUMP_UM, 0.0) == 0.0
    # float pi/2 is not exactly pi/2; the tangent is zero to rounding
    assert walk_off_tangent(model, PUMP_UM, math.pi / 2.0) < 5e-16


def test_walk_off_single_interior_maximum():
    model = bundled_bbo()
    values = [walk_off_tangent(model, DEGEN_UM, math.pi / 2.0 * k / 200)
              for k in range(201)]
    assert all(v >= 0.0 for v in values)
    rises = [b > a for a, b in zip(values, values[1:])]
    # one contiguous rising stretch followed by one falling stretch
    switches = sum(1 for a, b in zip(rises, rises[1:]) if a != b)
    assert switches == 1


def test_walk_off_matches_index_derivative():
    # independent oracle: tan(rho) = -(1/n) dn/dtheta by central difference
    model = bundled_bbo()
    h = 1e-6
    for lam in (PUMP_UM, DEGEN_UM):
        for theta_deg in (20.0, 42.9, 60.0, 80.0):
            theta = math.radians(theta_deg)
            dn = (extraordinary_index(model, lam, theta + h)
                  - extraordinary_index(model, lam, theta - h)) / (2.0 * h)
            expected = abs(dn) / extraordinary_index(model, lam, theta)
            assert walk_off_tangent(model, lam, theta) == pytest.approx(
                expected, rel=1e-6)


def test_walk_off_reproduces_reference_pump_value():
    model = bundled_bbo()
    value = walk_off_tangent(model, PUMP_UM,
                             math.radians(DEFAULT_CUT_ANGLE_DEG))
    assert value == pytest.approx(0.07631, rel=0.10)


# ---------------------------------------------------------------------------
# phase-matching geometry
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(DomainError):
        PhaseMatchGeometry.degenerate(0.415, 0.0, 0.06)
    with pytest.raises(DomainError):
        PhaseMatchGeometry.degenerate(0.415, 2.0, 0.06)


def test_replaced_pump_moves_the_pair_wavelength():
    # the pair wavelength is derived, so a replaced pump keeps it consistent
    geometry = replace(reference_geometry(), pump_wavelength=0.4)
    assert geometry.degenerate_wavelength == 0.8
    assert reference_geometry().degenerate_wavelength == 2.0 * PUMP_UM


def test_q_over_kbar_values():
    geometry = reference_geometry()
    assert q_over_kbar(geometry, 1.66) == pytest.approx(
        math.sin(math.radians(3.5)) / 1.66, rel=1e-14)
    assert q_over_kbar(geometry, 1.66) == pytest.approx(0.036215, rel=0.05)
    # vacuum limit: no refraction
    assert q_over_kbar(geometry, 1.0) == pytest.approx(
        math.sin(math.radians(3.5)), rel=1e-14)
    assert q_over_kbar(geometry, 1.0) == pytest.approx(0.0610, abs=5e-4)
    collinear = PhaseMatchGeometry.degenerate(0.415, 0.7, 0.0)
    assert q_over_kbar(collinear, 1.66) == 0.0
    with pytest.raises(DomainError):
        q_over_kbar(geometry, 0.9)


# ---------------------------------------------------------------------------
# group delays
# ---------------------------------------------------------------------------

def test_group_delay_dispersionless_isotropic():
    model = constant_model(1.7, 1.7)
    tp = group_delay_params(model, reference_geometry())
    assert tp.d == 0.0
    assert tp.lam == 0.0


def test_group_delay_dispersionless_birefringent():
    c = 0.299792458  # um/fs
    model = constant_model(1.7, 1.6)
    geometry = reference_geometry()
    tp = group_delay_params(model, geometry)
    n_e_theta = extraordinary_index(model, DEGEN_UM, geometry.cut_angle)
    assert tp.d == pytest.approx((1.7 - n_e_theta) / c, rel=1e-12)
    # without dispersion the pump index equals the angled index
    assert tp.lam == pytest.approx(
        (n_e_theta - 0.5 * (1.7 + n_e_theta)) / c, rel=1e-12)


def test_group_delay_identical_polarizations():
    model = constant_model(1.7, 1.7)
    assert group_delay_params(model, reference_geometry()).d == 0.0


def test_group_delay_bbo_magnitude():
    # literature-typical pair-splitting rate for this material; the
    # temporal numbers are informational and cancel out of the efficiency
    tp = group_delay_params(bundled_bbo(), reference_geometry())
    assert tp.d == pytest.approx(0.19, rel=0.25)
    assert tp.d > 0.0


# ---------------------------------------------------------------------------
# full walk-off set and the data file
# ---------------------------------------------------------------------------

def test_build_walkoff_set_reference_values():
    walkoffs = build_walkoff_set(bundled_bbo(), reference_geometry())
    assert walkoffs.m_p == pytest.approx(0.07631, rel=0.10)
    assert walkoffs.m == pytest.approx(0.07243, rel=0.10)
    assert walkoffs.q_over_k == pytest.approx(0.036215, rel=0.10)


def test_build_walkoff_set_isotropic():
    model = constant_model(1.7, 1.7)
    geometry = reference_geometry()
    walkoffs = build_walkoff_set(model, geometry)
    assert walkoffs.m_p == 0.0
    assert walkoffs.m == 0.0
    assert walkoffs.q_over_k == pytest.approx(
        math.sin(geometry.external_cone_angle) / 1.7, rel=1e-14)


def test_build_walkoff_set_collinear():
    geometry = PhaseMatchGeometry.degenerate(
        PUMP_UM, math.radians(DEFAULT_CUT_ANGLE_DEG), 0.0)
    assert build_walkoff_set(bundled_bbo(), geometry).q_over_k == 0.0


def test_phase_match_angle_solves_collinear_condition():
    model = bundled_bbo()
    theta = phase_match_angle(model, PUMP_UM)
    assert math.radians(30.0) < theta < math.radians(60.0)
    lhs = extraordinary_index(model, PUMP_UM, theta)
    rhs = 0.5 * (ordinary_index(model, DEGEN_UM)
                 + extraordinary_index(model, DEGEN_UM, theta))
    assert lhs == pytest.approx(rhs, abs=1e-7)
    with pytest.raises(DomainError):
        phase_match_angle(model, PUMP_UM, bracket_deg=(50.0, 60.0))


def test_load_index_model_roundtrip(tmp_path):
    doc = {
        "material": "custom",
        "citation": "local measurement",
        "ordinary": {"form": "sellmeier-1", "coeffs": [2.89, 0.0, 0.0, 0.0],
                     "range_um": [0.3, 1.5]},
        "extraordinary": {"form": "sellmeier-1",
                          "coeffs": [2.56, 0.0, 0.0, 0.0],
                          "range_um": [0.2, 1.2]},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    model = load_index_model(path)
    assert model.material == "custom"
    assert model.range_um == (0.3, 1.2)  # intersection of the two ranges
    assert ordinary_index(model, 0.8) == pytest.approx(1.7, rel=1e-12)


def test_load_index_model_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"material": "x"}))
    with pytest.raises(DomainError):
        load_index_model(path)
    path.write_text(json.dumps({
        "material": "x",
        "ordinary": {"form": "other", "coeffs": [2.9, 0, 0, 0],
                     "range_um": [0.3, 1.5]},
        "extraordinary": {"form": "other", "coeffs": [2.5, 0, 0, 0],
                          "range_um": [0.3, 1.5]}}))
    with pytest.raises(DomainError):
        load_index_model(path)


def test_geometry_rejects_nan_pump_wavelength():
    with pytest.raises(DomainError, match="pump_wavelength"):
        PhaseMatchGeometry.degenerate(math.nan, 0.7, 0.06)
    with pytest.raises(DomainError, match="pump_wavelength"):
        PhaseMatchGeometry(math.nan, 0.7, 0.06)
