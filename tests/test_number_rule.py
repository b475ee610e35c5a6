"""One number rule across the library: core's check refuses what float()
would parse as text, the other modules send caller and file numbers
through it, and the command line turns a bad Sellmeier file or a bad
colon-separated list into exit 2 with one line."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from spdcfc import (
    ExperimentConfig,
    IndexModel,
    PhaseMatchGeometry,
    TemporalParams,
    WalkOffSet,
    build_walkoff_set,
    bundled_bbo,
    erf,
    erf_over_sigma,
    extraordinary_index,
    group_delay_params,
    load_index_model,
    ordinary_index,
    phase_match_angle,
    principal_extraordinary_index,
    q_over_kbar,
    walk_off_tangent,
)
from spdcfc.cli import main
from spdcfc.errors import DomainError, WavelengthRangeError
from spdcfc.oracle import QuadratureSpec

from conftest import REFERENCE_WALKOFFS

DATA = Path(__file__).parent / "data"
SELLMEIER_FILE = (Path(bundled_bbo.__code__.co_filename).parent / "data"
                  / "bbo_sellmeier.json")
WALKOFF_FLAGS = ["--Mp", "0.07631", "--M", "0.07243", "--QK", "0.036215"]

# what float() parses, or fails on with a TypeError, but is no number
NOT_NUMBERS = {
    "bytearray": (bytearray(b"3"), "bytearray(b'3')"),
    "memoryview": (memoryview(b"3"), None),  # repr carries an address
    "none": (None, "None"),
    "text": ("3", "'3'"),
}


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def reference_geometry() -> PhaseMatchGeometry:
    return PhaseMatchGeometry.degenerate(
        0.415, math.radians(42.9), math.radians(3.5))


def assert_names(exc_info, field: str, shown) -> None:
    message = str(exc_info.value)
    assert message.startswith(f"{field} must be a number, got ")
    if shown is not None:
        assert message == f"{field} must be a number, got {shown}"


# ---------------------------------------------------------------------------
# core's rule
# ---------------------------------------------------------------------------

def test_bytearray_crystal_length_is_refused_at_construction():
    # it used to construct and fail later inside efficiency()
    with pytest.raises(DomainError) as exc:
        ExperimentConfig(bytearray(b"3000"), 53.0, 1.48, 49.0,
                         REFERENCE_WALKOFFS)
    assert str(exc.value) == (
        "crystal_length must be a number, got bytearray(b'3000')")


@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_core_types_refuse_non_numbers(value, shown):
    with pytest.raises(DomainError) as exc:
        ExperimentConfig(3000.0, 53.0, 1.48, value, REFERENCE_WALKOFFS)
    assert_names(exc, "inverse_magnification", shown)
    with pytest.raises(DomainError) as exc:
        WalkOffSet(0.07, value, 0.03)
    assert_names(exc, "m", shown)


# ---------------------------------------------------------------------------
# oracle.QuadratureSpec
# ---------------------------------------------------------------------------

def test_quadrature_spec_non_numbers_name_the_field():
    # both used to raise a raw TypeError
    with pytest.raises(DomainError) as exc:
        QuadratureSpec(extent_factor=None)
    assert str(exc.value) == "extent_factor must be a number, got None"
    with pytest.raises(DomainError) as exc:
        QuadratureSpec(target_rel_err="1e-5")
    assert str(exc.value) == "target_rel_err must be a number, got '1e-5'"


@pytest.mark.parametrize("field", ["extent_factor", "target_rel_err"])
@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_quadrature_spec_refuses_non_numbers(field, value, shown):
    with pytest.raises(DomainError) as exc:
        QuadratureSpec(**{field: value})
    assert_names(exc, field, shown)


def test_quadrature_spec_nan_target_is_refused():
    with pytest.raises(DomainError, match="^target_rel_err must be finite"):
        QuadratureSpec(target_rel_err=math.nan)


# ---------------------------------------------------------------------------
# dispersion types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_temporal_params_refuse_non_numbers(value, shown):
    with pytest.raises(DomainError) as exc:
        TemporalParams(0.19, value)
    assert_names(exc, "lam", shown)


def test_temporal_params_text_is_not_stored():
    with pytest.raises(DomainError, match="^d must be a number, got '1'$"):
        TemporalParams("1", 2.0)


@pytest.mark.parametrize("field", ["pump_wavelength", "cut_angle",
                                   "external_cone_angle"])
@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_geometry_refuses_non_numbers(field, value, shown):
    fields = {"pump_wavelength": 0.415, "cut_angle": 0.75,
              "external_cone_angle": 0.06}
    with pytest.raises(DomainError) as exc:
        PhaseMatchGeometry(**{**fields, field: value})
    assert_names(exc, field, shown)


@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_degenerate_geometry_refuses_non_number_pump(value, shown):
    with pytest.raises(DomainError) as exc:
        PhaseMatchGeometry.degenerate(value, 0.75, 0.06)
    assert_names(exc, "pump_wavelength", shown)


def test_geometry_keeps_its_float_messages():
    # a non-finite float is refused by the number rule, as in every type
    with pytest.raises(DomainError,
                       match="^pump_wavelength must be finite, got nan$"):
        PhaseMatchGeometry.degenerate(math.nan, 0.75, 0.06)
    with pytest.raises(DomainError, match="^cut_angle must be finite, got inf$"):
        PhaseMatchGeometry.degenerate(0.415, math.inf, 0.06)


def sellmeier(ordinary=(2.9, 0.0, 0.0, 0.0), extraordinary=(2.5, 0.0, 0.0, 0.0),
              range_um=(0.2, 2.0)) -> IndexModel:
    return IndexModel("test", ordinary, extraordinary, range_um)


@pytest.mark.parametrize("kwargs, message", [
    ({"ordinary": None}, "ordinary must be a list of 4 numbers, got None"),
    ({"extraordinary": 2.5},
     "extraordinary must be a list of 4 numbers, got 2.5"),
    ({"ordinary": (2.9, 0.0, 0.0)},
     "ordinary must be a list of 4 numbers, got (2.9, 0.0, 0.0)"),
    ({"range_um": (0.2, 1.0, 2.0)},
     "range_um must be a list of 2 numbers, got (0.2, 1.0, 2.0)"),
    ({"ordinary": (math.nan, 0.0, 0.0, 0.0)},
     "ordinary[0] must be finite, got nan"),
    ({"extraordinary": (2.5, "0.01", 0.0, 0.0)},
     "extraordinary[1] must be a number, got '0.01'"),
    ({"range_um": (0.2, math.inf)}, "range_um[1] must be finite, got inf"),
    ({"range_um": (None, 2.0)}, "range_um[0] must be a number, got None"),
], ids=["coeffs-none", "coeffs-number", "coeffs-three", "range-three",
        "coeff-nan", "coeff-text", "range-inf", "range-none"])
def test_index_model_refuses_malformed_numbers(kwargs, message):
    with pytest.raises(DomainError) as exc:
        sellmeier(**kwargs)
    assert str(exc.value) == message


def test_index_model_stores_float_tuples():
    model = sellmeier(ordinary=[2.9, 0, 0, 0], range_um=[0.2, 2])
    assert model.ordinary == (2.9, 0.0, 0.0, 0.0)
    assert model.range_um == (0.2, 2.0)
    assert all(type(v) is float for v in model.ordinary + model.range_um)


# ---------------------------------------------------------------------------
# dispersion functions
# ---------------------------------------------------------------------------

def test_phase_match_angle_refuses_a_reversed_bracket():
    # it used to return the bracket midpoint, 45 deg
    with pytest.raises(DomainError) as exc:
        phase_match_angle(bundled_bbo(), 0.415, bracket_deg=(60.0, 30.0))
    assert str(exc.value) == (
        "bracket_deg must satisfy 0 < lo < hi < 90, got (60.0, 30.0)")


@pytest.mark.parametrize("bracket", [(0.0, 60.0), (30.0, 90.0),
                                     (30.0, 30.0), (-10.0, 60.0)])
def test_phase_match_angle_bracket_inside_0_90(bracket):
    with pytest.raises(DomainError, match="^bracket_deg must satisfy"):
        phase_match_angle(bundled_bbo(), 0.415, bracket_deg=bracket)


@pytest.mark.parametrize("bracket, message", [
    ((math.nan, 60.0), "bracket_deg must be finite, got nan"),
    ((30.0, "60"), "bracket_deg must be a number, got '60'"),
], ids=["nan", "text"])
def test_phase_match_angle_bracket_through_the_rule(bracket, message):
    with pytest.raises(DomainError) as exc:
        phase_match_angle(bundled_bbo(), 0.415, bracket_deg=bracket)
    assert str(exc.value) == message


def test_phase_match_angle_pump_through_the_rule():
    with pytest.raises(DomainError,
                       match="^pump_wavelength must be a number, got '0.415'$"):
        phase_match_angle(bundled_bbo(), "0.415")


def test_phase_match_angle_default_result_unchanged():
    assert phase_match_angle(bundled_bbo(), 0.415).hex() == \
        "0x1.6c21240fe918dp-1"


@pytest.mark.parametrize("n_bar, message", [
    (math.nan, "n_bar must be finite, got nan"),
    (math.inf, "n_bar must be finite, got inf"),
    (None, "n_bar must be a number, got None"),
    (bytearray(b"1.6"), "n_bar must be a number, got bytearray(b'1.6')"),
], ids=["nan", "inf", "none", "bytearray"])
def test_q_over_kbar_refuses_bad_index(n_bar, message):
    # a NaN n_bar used to come back as a NaN q
    with pytest.raises(DomainError) as exc:
        q_over_kbar(reference_geometry(), n_bar)
    assert str(exc.value) == message


# (function, arguments after the model), each at lam = 0.5 um
INDEX_FUNCTIONS = {
    "ordinary": (ordinary_index, ()),
    "principal_extraordinary": (principal_extraordinary_index, ()),
    "extraordinary": (extraordinary_index, (0.7,)),
    "walk_off": (walk_off_tangent, (0.7,)),
}
ANGLE_FUNCTIONS = {k: INDEX_FUNCTIONS[k] for k in ("extraordinary", "walk_off")}


@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("func, rest", INDEX_FUNCTIONS.values(),
                         ids=INDEX_FUNCTIONS.keys())
def test_index_functions_refuse_non_number_wavelength(func, rest, value, shown):
    # text and None were raw TypeErrors from the range check
    with pytest.raises(DomainError) as exc:
        func(bundled_bbo(), value, *rest)
    assert_names(exc, "lam", shown)


@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("func, rest", ANGLE_FUNCTIONS.values(),
                         ids=ANGLE_FUNCTIONS.keys())
def test_index_functions_refuse_non_number_angle(func, rest, value, shown):
    # None was a raw TypeError from math.cos
    with pytest.raises(DomainError) as exc:
        func(bundled_bbo(), 0.5, value)
    assert_names(exc, "theta", shown)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("func, rest", ANGLE_FUNCTIONS.values(),
                         ids=ANGLE_FUNCTIONS.keys())
def test_index_functions_refuse_non_finite_float_angle(func, rest, value):
    # a float theta skipped the rule: nan came back as nan, +-inf was a raw
    # ValueError from math.cos
    with pytest.raises(DomainError,
                       match=f"^theta must be finite, got {value}$"):
        func(bundled_bbo(), 0.83, value)


@pytest.mark.parametrize("func, rest", INDEX_FUNCTIONS.values(),
                         ids=INDEX_FUNCTIONS.keys())
def test_index_functions_read_other_numbers_as_floats(func, rest):
    model = bundled_bbo()
    expected = func(model, 0.5, *rest)
    assert func(model, Fraction(1, 2), *rest) == expected
    if rest:
        assert func(model, 0.5, Fraction(7, 10)) == expected
        assert func(model, 1, 0) == func(model, 1.0, 0.0)
    with pytest.raises(DomainError, match="^lam must be finite, got a "
                                          "number past the float range$"):
        func(model, 10 ** 400, *rest)


@pytest.mark.parametrize("func, rest", INDEX_FUNCTIONS.values(),
                         ids=INDEX_FUNCTIONS.keys())
def test_index_functions_keep_the_float_range_message(func, rest):
    # a NaN wavelength is refused by the number rule, not as out of range
    with pytest.raises(DomainError, match="^lam must be finite, got nan$") as exc:
        func(bundled_bbo(), math.nan, *rest)
    assert not isinstance(exc.value, WavelengthRangeError)


# ---------------------------------------------------------------------------
# erf and erf(sigma)/sigma
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, shown", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_erf_refuses_non_numbers(value, shown):
    with pytest.raises(DomainError) as exc:
        erf(value)
    assert_names(exc, "x", shown)
    with pytest.raises(DomainError) as exc:
        erf_over_sigma(value)
    assert_names(exc, "sigma", shown)


def test_erf_keeps_its_infinite_limits():
    assert erf(math.inf) == 1.0
    assert erf(-math.inf) == -1.0
    assert erf_over_sigma(math.inf) == 0.0
    with pytest.raises(DomainError, match="^sigma must be finite, got -inf$"):
        erf_over_sigma(-math.inf)
    with pytest.raises(DomainError, match="^x must be finite, got nan$"):
        erf(math.nan)


# ---------------------------------------------------------------------------
# the Sellmeier loader: structure only, numbers left to IndexModel
# ---------------------------------------------------------------------------

def bundled_doc() -> dict:
    return json.loads(SELLMEIER_FILE.read_text())


def set_entry(path: tuple, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


BAD_FILES = {
    "polarization-list": set_entry(("ordinary",), [2.7359, 0.01878]),
    "range-one-element": set_entry(("ordinary", "range_um"), [0.3]),
    "coeff-nan": set_entry(("ordinary", "coeffs", 0), math.nan),
    "coeff-text": set_entry(("extraordinary", "coeffs", 0), "2.3753"),
    "range-three-elements": set_entry(("extraordinary", "range_um"),
                                      [0.205, 1.06, 2.0]),
    "coeffs-null": set_entry(("ordinary", "coeffs"), None),
    "range-nan": set_entry(("extraordinary", "range_um"), [math.nan, 1.0]),
    "mixed-forms": set_entry(("extraordinary", "form"), "other"),
    "no-overlap": set_entry(("extraordinary", "range_um"), [0.1, 0.2]),
    "material-missing": lambda doc: {k: v for k, v in doc.items()
                                     if k != "material"},
    "top-level-list": lambda doc: [doc],
}


@pytest.mark.parametrize("edit", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_sellmeier_file_is_a_domain_error_naming_it(edit, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(bundled_doc())))
    with pytest.raises(DomainError) as exc:
        load_index_model(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("edit", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_sellmeier_file_exits_2_with_one_line(edit, capsys, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(bundled_doc())))
    code, out, err = run_cli(["params", "--sellmeier", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: bad Sellmeier file: {path}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_loader_reads_the_bundled_file_as_before():
    model = load_index_model(SELLMEIER_FILE)
    assert model == bundled_bbo()
    assert model.ordinary == (2.7359, 0.01878, 0.01822, 0.01354)
    assert model.extraordinary == (2.3753, 0.01224, 0.01667, 0.01516)
    assert model.range_um == (0.205, 1.06)


def test_bundled_walkoffs_are_bit_identical():
    walkoffs = build_walkoff_set(bundled_bbo(), reference_geometry())
    assert (walkoffs.m_p.hex(), walkoffs.m.hex(), walkoffs.q_over_k.hex()) == (
        "0x1.38d4c2dd52367p-4", "0x1.28f6e712e4d9bp-4", "0x1.32ac8af818397p-5")
    temporal = group_delay_params(bundled_bbo(), reference_geometry())
    assert (temporal.d.hex(), temporal.lam.hex()) == (
        "0x1.92ccea13b3440p-3", "0x1.32fa80631d880p-3")


@pytest.mark.parametrize("fmt, golden", [
    ("text", "golden_params_sellmeier.txt"),
    ("json", "golden_params_sellmeier.json"),
])
def test_params_sellmeier_output_is_byte_identical(fmt, golden, capsys):
    code, out, err = run_cli(["params", "--sellmeier", str(SELLMEIER_FILE),
                              "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == (DATA / golden).read_text()


# ---------------------------------------------------------------------------
# --bounds and --L-range share one colon-list parser
# ---------------------------------------------------------------------------

OPTIMIZE = ["optimize", "--var", "xi", "--L-mm", "2", "--rp-um", "53",
            *WALKOFF_FLAGS, "--bounds"]
SWEEP = ["sweep", "--rp-um", "53", "--w-um", "1.48", *WALKOFF_FLAGS,
         "--L-range"]


@pytest.mark.parametrize("args, message", [
    ([*OPTIMIZE, "1:2:3"], "--bounds must look like lo:hi, got '1:2:3'"),
    ([*OPTIMIZE, "a:2"], "--bounds must be numeric, got 'a:2'"),
    ([*OPTIMIZE, "1:inf"], "--bounds must be finite, got '1:inf'"),
    ([*SWEEP, "1:2"], "--L-range must look like lo:hi:step, got '1:2'"),
    ([*SWEEP, "1:2:x"], "--L-range must be numeric, got '1:2:x'"),
    ([*SWEEP, "1:nan:1"], "--L-range must be finite, got '1:nan:1'"),
], ids=["bounds-form", "bounds-numeric", "bounds-finite", "range-form",
        "range-numeric", "range-finite"])
def test_colon_lists_exit_2_with_one_line(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")
