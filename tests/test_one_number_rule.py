"""One number rule and one range rule, at the sites with a check of their own.

The sweep grids, maximize_eta's bounds, the index functions' wavelength,
PhaseMatchGeometry's fields and pair_overlap_density's tau each have a
check of their own after the number rule, and each refuses NaN, +inf and
-inf by that rule, as ``<name> must be finite, got <value>``.  The
geometry's three fields, QuadratureSpec's extent_factor and
target_rel_err, q_over_kbar's n_bar, pump_waist_from_diameter's beam
diameter and magnification's focal length are checked by core's range
rule, and each refuses a value just outside its range as ``<name> must
be <range>, got <value>``.
"""

import math

import pytest

from spdcfc import (PhaseMatchGeometry, QuadratureSpec, SweepSpec, bundled_bbo,
                    ceiling_scan, extraordinary_index, magnification,
                    maximize_eta, ordinary_index, pair_overlap_density,
                    principal_extraordinary_index, pump_waist_from_diameter,
                    q_over_kbar, walk_off_tangent)
from spdcfc.errors import DomainError, WavelengthRangeError

from conftest import REFERENCE_WALKOFFS, reference_config

CFG = reference_config()
BBO = bundled_bbo()
GEOMETRY = {"pump_wavelength": 0.415, "cut_angle": 0.75,
            "external_cone_angle": 0.06}


def refusal(call) -> DomainError:
    with pytest.raises(DomainError) as info:
        call()
    return info.value


def geometry(**fields):
    return PhaseMatchGeometry(**{**GEOMETRY, **fields})


OWN_CHECK_SITES = {
    "l_grid": lambda v: SweepSpec((1000.0, v), (49.0,), CFG),
    "mu_values": lambda v: SweepSpec((1000.0,), (v,), CFG),
    "ceiling l_grid": lambda v: ceiling_scan(53.0, REFERENCE_WALKOFFS, [v]),
    "bounds lo": lambda v: maximize_eta(CFG, "xi", (v, 1.0)),
    "bounds hi": lambda v: maximize_eta(CFG, "mu", (1.0, v)),
    "ordinary_index": lambda v: ordinary_index(BBO, v),
    "principal_extraordinary_index":
        lambda v: principal_extraordinary_index(BBO, v),
    "extraordinary_index": lambda v: extraordinary_index(BBO, v, 0.7),
    "walk_off_tangent": lambda v: walk_off_tangent(BBO, v, 0.7),
    "pump_wavelength": lambda v: geometry(pump_wavelength=v),
    "cut_angle": lambda v: geometry(cut_angle=v),
    "external_cone_angle": lambda v: geometry(external_cone_angle=v),
    "tau": lambda v: pair_overlap_density(CFG, v),
}
SHOWN = {"ceiling l_grid": "l_grid", "bounds lo": "bounds",
         "bounds hi": "bounds", "ordinary_index": "lam",
         "principal_extraordinary_index": "lam", "extraordinary_index": "lam",
         "walk_off_tangent": "lam"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", OWN_CHECK_SITES)
def test_a_site_with_its_own_check_refuses_a_non_finite_float(site, value):
    exc = refusal(lambda: OWN_CHECK_SITES[site](value))
    assert str(exc) == f"{SHOWN.get(site, site)} must be finite, got {value}"
    assert not isinstance(exc, WavelengthRangeError)


HALF_PI = math.pi / 2.0

RANGE_RULE_SITES = [
    ("pump_wavelength", "> 0", lambda v: geometry(pump_wavelength=v),
     [0.0, -0.0, -5e-324]),
    ("cut_angle", "in (0, pi/2)", lambda v: geometry(cut_angle=v),
     [0.0, -5e-324, HALF_PI, math.nextafter(HALF_PI, 2.0)]),
    ("external_cone_angle", "in [0, pi/2)",
     lambda v: geometry(external_cone_angle=v), [-5e-324, HALF_PI]),
    ("extent_factor", ">= 4", lambda v: QuadratureSpec(extent_factor=v),
     [math.nextafter(4.0, 0.0)]),
    ("target_rel_err", "in (0, 1)", lambda v: QuadratureSpec(target_rel_err=v),
     [0.0, 1.0]),
    ("n_bar", ">= 1", lambda v: q_over_kbar(geometry(), v),
     [math.nextafter(1.0, 0.0)]),
    ("beam diameter", "> 0", pump_waist_from_diameter, [0.0, -5e-324]),
    ("focal length", "> 0", lambda v: magnification(v, 780.0),
     [0.0, -5e-324]),
]


@pytest.mark.parametrize("name, rule, build, outside", RANGE_RULE_SITES,
                         ids=[c[0] for c in RANGE_RULE_SITES])
def test_range_rule_refuses_just_outside_its_range(name, rule, build,
                                                  outside):
    for value in outside:
        assert str(refusal(lambda: build(value))) == (
            f"{name} must be {rule}, got {value}")


@pytest.mark.parametrize("name, rule, build, outside", RANGE_RULE_SITES,
                         ids=[c[0] for c in RANGE_RULE_SITES])
def test_range_rule_takes_a_non_finite_float_by_the_number_rule(
        name, rule, build, outside):
    for value in (math.nan, math.inf, -math.inf):
        assert str(refusal(lambda: build(value))) == (
            f"{name} must be finite, got {value}")


@pytest.mark.parametrize("build, value", [
    (lambda v: geometry(pump_wavelength=v), 5e-324),
    (lambda v: geometry(cut_angle=v), 5e-324),
    (lambda v: geometry(cut_angle=v), math.nextafter(HALF_PI, 0.0)),
    (lambda v: geometry(external_cone_angle=v), 0.0),
    (lambda v: QuadratureSpec(extent_factor=v), 4.0),
    (lambda v: QuadratureSpec(target_rel_err=v), math.nextafter(1.0, 0.0)),
    (lambda v: q_over_kbar(geometry(), v), 1.0),
    (pump_waist_from_diameter, 5e-324),
], ids=["pump", "cut-lo", "cut-hi", "cone", "extent", "target", "n_bar",
        "diameter"])
def test_range_rule_takes_its_range_end(build, value):
    build(value)
