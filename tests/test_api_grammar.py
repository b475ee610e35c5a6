"""Seeded grammar of the library's public calls: a result or a DomainError.

Every public callable of ``core``, ``sweep`` and ``dispersion``, and the
oracle's ``QuadratureSpec`` and ``OracleResult``, is called on arguments
that Hypothesis draws from a fixed seed.  That is the package's public
names less its modules, constants and error types, ``load_index_model``
(file I/O) and the oracle's two computing names.  A number argument gets any value:
floats from 5e-324 to the largest, +-0, +-inf and NaN, ints past the
float range, text, bytes and None.  An argument typed as one of the
package's types gets an instance of it, built from extreme values too.
Each call must

- return, or raise a ``DomainError`` (subclasses included), and nothing
  else;
- raise no warning;
- return no NaN in any float it returns, nested in tuples or fields;
- return no infinite float when no float among its arguments is
  infinite.

A call whose number arguments are in range but for one that is NaN or
infinite must be refused as ``<name> must be finite, got <value>``.
``<name>`` is the argument's name; an item of a list is named as the
list, or as ``ordinary[k]`` in an index model.  The exceptions are the
limits: ``erf`` takes +-inf, and erf(sigma)/sigma and its reciprocal take
+inf.

The rows handed to ``SweepResult`` are built without ``SweepRow``'s own
checks, as ``efficiency_curve`` builds them, so that its check of each
eta is reached.
"""

import dataclasses
import math
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import spdcfc
from spdcfc import (AlphaBeta, EfficiencyResult,
                    ExperimentConfig, IndexModel, OptResult, OracleResult,
                    PhaseMatchGeometry, QuadratureSpec, ShapeParams, SweepResult, SweepRow,
                    SweepSpec, TemporalParams, WalkOffSet, build_walkoff_set,
                    bundled_bbo, ceiling_scan, compute_alpha_beta,
                    effective_to_raw, efficiency, efficiency_curve, erf,
                    erf_over_sigma, eta_closed_form, extraordinary_index,
                    group_delay_params, magnification, maximize_eta,
                    mode_field_radius, ordinary_index, phase_match_angle,
                    principal_extraordinary_index, pump_waist_from_diameter,
                    q_over_kbar, raw_to_effective, shape_params,
                    sigma_over_erf, walk_off_tangent)
from spdcfc.core import VARIABLES
from spdcfc.errors import DomainError

from conftest import bare_row

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  suppress_health_check=list(HealthCheck))

BIGGEST = 1.7976931348623157e308
NON_FINITE = (math.nan, math.inf, -math.inf)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-4, 1.0, -1.0, 1e300, BIGGEST,
    -BIGGEST, math.inf, -math.inf, math.nan])
NOT_NUMBERS = st.sampled_from([None, "1.0", b"1", bytearray(b"1"), "nan",
                               [1.0], 1j, object()])
HUGE_INTS = st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1024, 10 ** 308])


def anything(good: st.SearchStrategy) -> st.SearchStrategy:
    # what a number argument may be handed: an in-range value, any float,
    # an extreme one, an int of any size, or no number at all
    return st.one_of(good, st.floats(), SPECIAL_FLOATS, st.integers(),
                     HUGE_INTS, NOT_NUMBERS)


def floats(lo: float, hi: float, **kw) -> st.SearchStrategy:
    return st.floats(lo, hi, allow_nan=False, **kw)


POSITIVE = st.one_of(floats(1e-3, 1e4), floats(5e-324, BIGGEST))
NON_NEGATIVE = st.one_of(floats(0.0, 10.0), floats(0.0, BIGGEST))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = floats(0.0, 1.0, exclude_min=True)           # (0, 1]
WALKOFF = st.one_of(floats(0.0, 0.2), floats(0.0, 1.0, exclude_max=True))
HALF_PI = math.pi / 2.0

BBO = bundled_bbo()


def far_poles(model: IndexModel, c2: float) -> IndexModel:
    # the model with both poles moved to c2, far below its range
    o, e = ((c0, c1, c2, c3) for c0, c1, _, c3 in (model.ordinary,
                                                   model.extraordinary))
    return IndexModel("far", o, e, model.range_um)


ISO = IndexModel("iso", BBO.ordinary, BBO.ordinary, BBO.range_um)
MODELS = st.sampled_from([BBO, ISO, far_poles(BBO, -1e160),
                          far_poles(ISO, -1e160)])
IN_RANGE = floats(*BBO.range_um)  # a wavelength every model above takes

WALKOFFS = st.builds(WalkOffSet, WALKOFF, WALKOFF, WALKOFF)
CONFIGS = st.builds(ExperimentConfig, POSITIVE, POSITIVE, POSITIVE, POSITIVE,
                    WALKOFFS)
ALPHA_BETAS = st.builds(AlphaBeta, NON_NEGATIVE, NON_NEGATIVE, NON_NEGATIVE)
SHAPES = st.builds(ShapeParams, POSITIVE, NON_NEGATIVE, NON_NEGATIVE,
                   NON_NEGATIVE, ALPHA_BETAS)
GRIDS = st.lists(POSITIVE, min_size=1, max_size=4, unique=True).map(
    lambda g: tuple(sorted(g)))
SPECS = st.builds(SweepSpec, GRIDS, GRIDS, CONFIGS)
GEOMETRIES = st.builds(PhaseMatchGeometry,
                       st.one_of(floats(0.205, 0.53), POSITIVE),
                       floats(0.0, HALF_PI, exclude_min=True, exclude_max=True),
                       floats(0.0, HALF_PI, exclude_max=True))
ROWS = st.lists(st.builds(bare_row, FINITE, FINITE, FINITE, anything(UNIT)),
                max_size=3).map(tuple)
COUNTS = st.one_of(st.integers(-1, 300), st.sampled_from([2 ** 64, True]),
                   SPECIAL_FLOATS, NOT_NUMBERS)


# ---------------------------------------------------------------------------
# arguments
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Num:
    """A number argument, named ``shown`` in messages; ``good`` draws it in
    range, and ``limits`` are the infinities it takes as a value."""
    shown: str
    good: st.SearchStrategy
    limits: tuple = ()


@dataclasses.dataclass(frozen=True)
class Items:
    """A list of ``size`` numbers (a grid of 1-4 when ``size`` is None),
    each named ``shown`` with ``{k}`` its position."""
    shown: str
    good: st.SearchStrategy
    size: int | None = None


@dataclasses.dataclass(frozen=True)
class Given:
    """An argument that is not a number: ``strategy`` draws it, and
    ``good``, if set, draws it where the other arguments must pass."""
    strategy: st.SearchStrategy
    good: st.SearchStrategy | None = None


def items(spec: Items, each: st.SearchStrategy) -> st.SearchStrategy:
    if spec.size is None:
        return st.lists(each, min_size=1, max_size=4)
    return st.lists(each, min_size=spec.size, max_size=spec.size)


def fuzzed(spec) -> st.SearchStrategy:
    if isinstance(spec, Num):
        return anything(spec.good)
    if isinstance(spec, Items):
        # a list of anything, or something that is not the list asked for
        return st.one_of(items(spec, anything(spec.good)), NOT_NUMBERS,
                         st.lists(anything(spec.good), max_size=5))
    return spec.strategy


def in_range(spec) -> st.SearchStrategy:
    if isinstance(spec, Num):
        return spec.good
    if isinstance(spec, Items):
        if spec.size is None:  # a grid: strictly increasing
            return st.lists(spec.good, min_size=1, max_size=4,
                            unique=True).map(sorted)
        return items(spec, spec.good)
    return spec.strategy if spec.good is None else spec.good


# each public callable and its arguments, in order
CALLS = {
    "AlphaBeta": (AlphaBeta, [Num(n, NON_NEGATIVE)
                              for n in ("alpha1", "alpha2", "beta")]),
    "EfficiencyResult": (EfficiencyResult, [Num("eta", UNIT), Given(SHAPES)]),
    "ExperimentConfig": (ExperimentConfig, [
        Num(n, POSITIVE) for n in ("crystal_length", "pump_waist",
                                   "fiber_mode_radius",
                                   "inverse_magnification")]
        + [Given(WALKOFFS)]),
    "ShapeParams": (ShapeParams, [Num("xi", POSITIVE)]
                    + [Num(n, NON_NEGATIVE)
                       for n in ("sigma_c", "sigma1", "sigma2")]
                    + [Given(ALPHA_BETAS)]),
    "WalkOffSet": (WalkOffSet, [Num(n, WALKOFF)
                                for n in ("m_p", "m", "q_over_k")]),
    "compute_alpha_beta": (compute_alpha_beta, [Given(WALKOFFS)]),
    "effective_to_raw": (effective_to_raw, [
        Num(n, UNIT) for n in ("eta_fc", "eta_det", "t_filter")]),
    "raw_to_effective": (raw_to_effective, [
        Num(n, UNIT) for n in ("eta_raw", "eta_det", "t_filter")]),
    "efficiency": (efficiency, [Given(CONFIGS)]),
    "shape_params": (shape_params, [Given(CONFIGS)]),
    "eta_closed_form": (eta_closed_form, [Given(SHAPES)]),
    "erf": (erf, [Num("x", FINITE, limits=(math.inf, -math.inf))]),
    "erf_over_sigma": (erf_over_sigma, [
        Num("sigma", NON_NEGATIVE, limits=(math.inf,))]),
    "sigma_over_erf": (sigma_over_erf, [
        Num("sigma", NON_NEGATIVE, limits=(math.inf,))]),
    "magnification": (magnification, [Num("focal length", POSITIVE),
                                      Num("d_bl", POSITIVE)]),
    "mode_field_radius": (mode_field_radius, [Num("mfd", POSITIVE)]),
    "pump_waist_from_diameter": (pump_waist_from_diameter, [
        Num("beam diameter", POSITIVE)]),
    "IndexModel": (IndexModel, [
        Given(st.just("model")),
        Items("ordinary[{k}]", floats(-10.0, 10.0), 4),
        Items("extraordinary[{k}]", floats(-10.0, 10.0), 4),
        Items("range_um[{k}]", floats(0.1, 2.0), 2)]),
    "PhaseMatchGeometry": (PhaseMatchGeometry, [
        Num("pump_wavelength", POSITIVE),
        Num("cut_angle", floats(0.0, HALF_PI, exclude_min=True,
                                exclude_max=True)),
        Num("external_cone_angle", floats(0.0, HALF_PI, exclude_max=True))]),
    "TemporalParams": (TemporalParams, [Num("d", FINITE), Num("lam", FINITE)]),
    "build_walkoff_set": (build_walkoff_set, [Given(MODELS),
                                              Given(GEOMETRIES)]),
    "group_delay_params": (group_delay_params, [Given(MODELS),
                                                Given(GEOMETRIES)]),
    "bundled_bbo": (bundled_bbo, []),
    "ordinary_index": (ordinary_index, [Given(MODELS), Num("lam", IN_RANGE)]),
    "principal_extraordinary_index": (principal_extraordinary_index, [
        Given(MODELS), Num("lam", IN_RANGE)]),
    "extraordinary_index": (extraordinary_index, [
        Given(MODELS), Num("lam", IN_RANGE), Num("theta", FINITE)]),
    "walk_off_tangent": (walk_off_tangent, [
        Given(MODELS), Num("lam", IN_RANGE), Num("theta", FINITE)]),
    "phase_match_angle": (phase_match_angle, [
        Given(MODELS), Num("pump_wavelength", floats(0.205, 0.53)),
        Items("bracket_deg", floats(1.0, 89.0), 2)]),
    "q_over_kbar": (q_over_kbar, [Given(GEOMETRIES),
                                  Num("n_bar", floats(1.0, 3.0))]),
    "QuadratureSpec": (QuadratureSpec, [
        Given(COUNTS, st.integers(8, 64)), Given(COUNTS, st.integers(16, 96)),
        Num("extent_factor", floats(4.0, 40.0)),
        Num("target_rel_err", floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True))]),
    "OracleResult": (OracleResult, [
        Num("eta_numeric", UNIT), Num("est_rel_err", NON_NEGATIVE),
        Items("pieces[{k}]", POSITIVE, 3)]),
    "SweepSpec": (SweepSpec, [Items("l_grid", POSITIVE),
                              Items("mu_values", POSITIVE), Given(CONFIGS)]),
    "SweepRow": (SweepRow, [Num(n, POSITIVE) for n in ("length", "mu", "xi")]
                 + [Num("eta", UNIT)]),
    "SweepResult": (SweepResult, [Given(ROWS)]),
    "OptResult": (OptResult, [
        Given(st.sampled_from(VARIABLES)), Num("argmax", POSITIVE),
        Num("eta_max", UNIT), Items("bracket", POSITIVE, 2),
        Given(st.integers(0, 200)), Given(st.booleans())]),
    "efficiency_curve": (efficiency_curve, [Given(SPECS)]),
    "maximize_eta": (maximize_eta, [
        Given(CONFIGS), Given(st.sampled_from(VARIABLES + ("L",))),
        Items("bounds", POSITIVE, 2)]),
    "ceiling_scan": (ceiling_scan, [Num("pump_waist", POSITIVE),
                                    Given(WALKOFFS), Items("l_grid", POSITIVE)]),
}


# argument tuples that independent draws would seldom make: a lens whose
# object distance lies a few floats past its focal length, where the two
# reciprocals round alike, and an angle whose double overflows
RARE_CALLS = {
    "magnification": st.builds(
        lambda f, k: (f, f + k * math.ulp(f)),
        st.one_of(floats(1e-3, 100.0), POSITIVE), st.integers(1, 4)),
    "walk_off_tangent": st.tuples(
        MODELS, IN_RANGE, st.one_of(floats(8.98e307, BIGGEST),
                                    floats(-BIGGEST, -8.98e307))),
}


def test_the_table_covers_the_public_callables():
    excluded = {"core", "dispersion", "errors", "oracle", "sweep",
                "DEFAULT_CUT_ANGLE_DEG", "DEFAULT_MU_VALUES", "DomainError",
                "NoRealImageError", "WavelengthRangeError", "ConvergenceError",
                "load_index_model",
                # join once the oracle's kernel refuses its own extremes
                "eta_numeric", "pair_overlap_density"}
    assert set(CALLS) == set(spdcfc.__all__) - excluded
    for name, (func, _) in CALLS.items():
        assert getattr(spdcfc, name) is func


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

def floats_in(value):
    # every float a result holds, through tuples and dataclass fields
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floats_in(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from floats_in(getattr(value, field.name))


def outcome(func, args):
    # the call's result, or the DomainError it raised; any other exception
    # propagates, and a warning fails the test
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = func(*args)
        except DomainError as exc:
            result = exc
    assert not caught, [str(w.message) for w in caught]
    if not isinstance(result, DomainError):
        assert not any(map(math.isnan, floats_in(result))), result
    return result


@pytest.mark.parametrize("name", CALLS)
def test_every_call_ends_in_a_result_or_a_domain_error(name):
    func, params = CALLS[name]

    @settings(SEEDED, max_examples=30)
    @given(st.one_of(st.tuples(*map(fuzzed, params)),
                     RARE_CALLS.get(name, st.nothing())))
    def run(args):
        outcome(func, args)

    run()


@pytest.mark.parametrize("name", [n for n, (_, params) in CALLS.items()
                                  if any(isinstance(p, (Num, Items))
                                         for p in params)])
def test_a_non_finite_number_is_refused_by_the_number_rule(name):
    func, params = CALLS[name]

    @settings(SEEDED, max_examples=12)
    @given(st.tuples(*map(in_range, params)), st.data())
    def run(args, data):
        args = list(args)
        slots = [(i, None) for i, p in enumerate(params) if isinstance(p, Num)]
        slots += [(i, k) for i, p in enumerate(params)
                  if isinstance(p, Items) for k in range(len(args[i]))]
        i, k = data.draw(st.sampled_from(slots))
        bad = data.draw(st.sampled_from(NON_FINITE))
        shown = params[i].shown.format(k=k)
        if k is None:
            args[i] = bad
        else:
            args[i] = [*args[i][:k], bad, *args[i][k + 1:]]
        result = outcome(func, args)
        if bad in getattr(params[i], "limits", ()):
            assert not isinstance(result, DomainError), result
        else:
            assert isinstance(result, DomainError), result
            assert str(result) == f"{shown} must be finite, got {bad}"

    run()


def finite(spec) -> st.SearchStrategy:
    # an argument whose numbers are finite: in range, or any finite float
    # with the extremes among them
    if isinstance(spec, Given):
        return spec.strategy
    each = st.one_of(SPECIAL_FLOATS.filter(math.isfinite), spec.good, FINITE)
    return each if isinstance(spec, Num) else items(spec, each)


@pytest.mark.parametrize("name", CALLS)
def test_no_infinite_result_without_an_infinite_argument(name):
    func, params = CALLS[name]

    @settings(SEEDED, max_examples=30)
    @given(st.one_of(st.tuples(*map(finite, params)),
                     RARE_CALLS.get(name, st.nothing())))
    def run(args):
        assume(not any(map(math.isinf, floats_in(args))))
        result = outcome(func, args)
        if not isinstance(result, DomainError):
            assert not any(map(math.isinf, floats_in(result))), result

    run()


def test_sigma_over_erf_is_sigma_where_its_reciprocal_overflows():
    # erf is exactly 1 at the largest floats, where 1/erf_over_sigma
    # overflows; below them the value keeps its bits
    assert sigma_over_erf(BIGGEST) == BIGGEST
    assert sigma_over_erf(1e300) == 1.0 / erf_over_sigma(1e300)
