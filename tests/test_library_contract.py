"""Library calls whose arguments have the wrong shape end in a DomainError
that names the argument, not in whatever Python raised on the way.

A pair of bounds that is not a pair, a grid that is not a sequence and a
birth depth that is not a number each used to end in a raw ValueError or
TypeError.  The messages the library already gave stay as they were.
A record argument (a config, a spec, an index model, a geometry) is not
checked yet: None in its place ends in a raw AttributeError, which a
strict xfail records.
"""

import itertools
import math

import pytest

from spdcfc import (PhaseMatchGeometry, SweepSpec, build_walkoff_set,
                    bundled_bbo, ceiling_scan, compute_alpha_beta,
                    efficiency, efficiency_curve, eta_closed_form,
                    eta_numeric, extraordinary_index, group_delay_params,
                    maximize_eta, ordinary_index, pair_overlap_density,
                    phase_match_angle, principal_extraordinary_index,
                    q_over_kbar, shape_params, walk_off_tangent)
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS, reference_config

CFG = reference_config(3000.0)
GEOMETRY = PhaseMatchGeometry(0.415, 0.75, 0.06)


def refusal(call) -> str:
    with pytest.raises(DomainError) as exc:
        call()
    return str(exc.value)


NOT_PAIRS = {
    "three": ((1, 2, 3), "(1, 2, 3)"),
    "one": ((1.0,), "(1.0,)"),
    "none": (None, "None"),
    "number": (5.0, "5.0"),
}


@pytest.mark.parametrize("value, shown", NOT_PAIRS.values(), ids=NOT_PAIRS)
def test_bounds_that_are_not_a_pair_are_refused(value, shown):
    assert refusal(lambda: maximize_eta(CFG, "xi", value)) == (
        f"bounds must be a pair (lo, hi), got {shown}")


@pytest.mark.parametrize("value, shown", NOT_PAIRS.values(), ids=NOT_PAIRS)
def test_bracket_that_is_not_a_pair_is_refused(value, shown):
    assert refusal(lambda: phase_match_angle(bundled_bbo(), 0.415, value)) == (
        f"bracket_deg must be a pair (lo, hi), got {shown}")


def test_an_endless_pair_is_refused_after_its_third_item():
    assert refusal(lambda: maximize_eta(CFG, "xi", itertools.count(1))) == (
        "bounds must be a pair (lo, hi), got count(4)")
    assert refusal(lambda: phase_match_angle(
        bundled_bbo(), 0.415, itertools.count(30))) == (
        "bracket_deg must be a pair (lo, hi), got count(33)")


def test_an_item_read_before_the_count_keeps_its_message():
    # as when unpacking: the bad item is met before the third one
    assert refusal(lambda: maximize_eta(CFG, "xi", ("0.1", 2.0, 3.0))) == (
        "bounds must be a number, got '0.1'")
    assert refusal(lambda: phase_match_angle(
        bundled_bbo(), 0.415, (30.0, math.nan, 50.0))) == (
        "bracket_deg must be finite, got nan")


def test_pairs_give_what_they_gave():
    assert maximize_eta(CFG, "xi", [0.1, 10]) == maximize_eta(
        CFG, "xi", (0.1, 10.0))
    assert phase_match_angle(bundled_bbo(), 0.415, [30, 60]).hex() == (
        "0x1.6c21240fe918dp-1")


@pytest.mark.parametrize("value", [None, 5.0], ids=["none", "number"])
def test_grids_that_are_not_sequences_are_refused(value):
    shown = repr(value)
    assert refusal(lambda: SweepSpec(value, (49.0,), CFG)) == (
        f"l_grid must be a sequence of numbers, got {shown}")
    assert refusal(lambda: SweepSpec((3000.0,), value, CFG)) == (
        f"mu_values must be a sequence of numbers, got {shown}")
    assert refusal(lambda: ceiling_scan(53.0, REFERENCE_WALKOFFS, value)) == (
        f"l_grid must be a sequence of numbers, got {shown}")


@pytest.mark.parametrize("tau, message", [
    (None, "tau must be a number, got None"),
    ("1500", "tau must be a number, got '1500'"),
    (10 ** 400, "tau must be finite, got a number past the float range"),
    # a NaN float is refused by the number rule, a finite one by the range
    (math.nan, "tau must be finite, got nan"),
    (3001.0, "tau must lie in [0, 3000.0], got 3001.0"),
], ids=["none", "text", "huge-int", "nan", "past-L"])
def test_pair_overlap_density_reads_tau_by_the_number_rule(tau, message):
    assert refusal(lambda: pair_overlap_density(CFG, tau)) == message


def test_pair_overlap_density_reads_an_int_tau_as_a_float():
    assert pair_overlap_density(CFG, 1500) == pair_overlap_density(
        CFG, 1500.0)


# each record argument of a public function, None in its place
RECORD_ARGUMENTS = {
    "efficiency": (efficiency, (None,), "cfg"),
    "shape_params": (shape_params, (None,), "cfg"),
    "eta_closed_form": (eta_closed_form, (None,), "sp"),
    "compute_alpha_beta": (compute_alpha_beta, (None,), "walkoffs"),
    "eta_numeric-cfg": (eta_numeric, (None,), "cfg"),
    "eta_numeric-spec": (eta_numeric, (CFG, None), "spec"),
    "pair_overlap_density-cfg": (pair_overlap_density, (None, 1500.0),
                                 "cfg"),
    "pair_overlap_density-spec": (pair_overlap_density, (CFG, 1500.0, None),
                                  "spec"),
    "efficiency_curve": (efficiency_curve, (None,), "spec"),
    "build_walkoff_set-model": (build_walkoff_set, (None, GEOMETRY), "model"),
    "build_walkoff_set-geometry": (build_walkoff_set, ("bbo", None),
                                   "geometry"),
    "group_delay_params-model": (group_delay_params, (None, GEOMETRY),
                                 "model"),
    "group_delay_params-geometry": (group_delay_params, ("bbo", None),
                                    "geometry"),
    "ordinary_index": (ordinary_index, (None, 0.83), "model"),
    "principal_extraordinary_index": (principal_extraordinary_index,
                                      (None, 0.83), "model"),
    "extraordinary_index": (extraordinary_index, (None, 0.83, 0.75),
                            "model"),
    "walk_off_tangent": (walk_off_tangent, (None, 0.83, 0.75), "model"),
    "q_over_kbar": (q_over_kbar, (None, 1.66), "geometry"),
    "phase_match_angle": (phase_match_angle, (None, 0.415), "model"),
}


@pytest.mark.xfail(raises=AttributeError, strict=True,
                   reason="record arguments are read without a check, so "
                          "None ends in a raw AttributeError")
@pytest.mark.parametrize("call, args, name", RECORD_ARGUMENTS.values(),
                         ids=RECORD_ARGUMENTS)
def test_none_for_a_record_is_refused_by_name(call, args, name):
    args = [bundled_bbo() if a == "bbo" else a for a in args]
    with pytest.raises(DomainError, match=f"^{name} "):
        call(*args)
