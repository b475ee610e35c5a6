"""Command-line outputs pinned byte for byte, the exit codes of inputs
that are wrong in more than one way or carry malformed config values, and
the precedence of flags, config files and defaults."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spdcfc import bundled_bbo
from spdcfc.cli import main

DATA = Path(__file__).parent / "data"
SELLMEIER_FILE = (Path(bundled_bbo.__code__.co_filename).parent / "data"
                  / "bbo_sellmeier.json")

WALKOFF_FLAGS = ["--Mp", "0.07631", "--M", "0.07243", "--QK", "0.036215"]
REFERENCE_FLAGS = ["--rp-um", "53", "--w-um", "1.48", "--mu", "49",
                   *WALKOFF_FLAGS]
REFERENCE_CONFIG = {
    "schema_version": 1, "L_um": 3000.0, "rp_um": 53.0, "w_um": 1.48,
    "mu": 49.0, "walkoffs": {"Mp": 0.07631, "M": 0.07243, "QK": 0.036215}}


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# golden text outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, golden", [
    (["eval", "--L-mm", "3", *REFERENCE_FLAGS], "golden_eval.txt"),
    (["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm", "3",
      "--rp-um", "53", *WALKOFF_FLAGS], "golden_optimize.txt"),
    (["params", *WALKOFF_FLAGS], "golden_params.txt"),
    (["params", "--sellmeier"], "golden_params_sellmeier.txt"),
], ids=["eval", "optimize", "params", "params-sellmeier"])
def test_text_output_matches_golden_file(args, golden, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (DATA / golden).read_text()


# ---------------------------------------------------------------------------
# text and JSON name the same fields
# ---------------------------------------------------------------------------

def leaf_values(doc: dict) -> dict:
    leaves = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves.update(leaf_values(value))
        else:
            leaves[key] = value
    return leaves


def rendered(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(rendered(v) for v in value) + "]"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


@pytest.mark.parametrize("args", [
    ["eval", "--L-mm", "3", *REFERENCE_FLAGS],
    ["optimize", "--var", "xi", "--bounds", "0.1:10", "--L-mm", "3",
     "--rp-um", "53", *WALKOFF_FLAGS],
    ["optimize", "--var", "xi", "--bounds", "0.1:0.2", "--L-mm", "3",
     "--rp-um", "53", *WALKOFF_FLAGS],
    ["oracle", "--L-mm", "3", *REFERENCE_FLAGS],
    ["params", *WALKOFF_FLAGS],
    ["params", "--sellmeier"],
], ids=["eval", "optimize", "optimize-boundary", "oracle", "params",
        "params-sellmeier"])
def test_text_lines_render_the_json_fields(args, capsys):
    code, text, _ = run_cli(args, capsys)
    code_json, out_json, _ = run_cli([*args, "--format", "json"], capsys)
    assert code == code_json == 0
    fields = leaf_values(json.loads(out_json))
    lines = text.splitlines()
    assert lines
    for line in lines:
        name, sep, value = line.partition(" = ")
        assert sep, line
        assert name.strip() in fields, line
        assert value == rendered(fields[name.strip()]), line


# ---------------------------------------------------------------------------
# inputs with two faults: the check that fires first sets the exit code
# ---------------------------------------------------------------------------

DOUBLE_FAULTS = {
    # the mfd conversion raises before the lens pair is checked
    "mfd-then-lens": (["eval", "--L-mm", "3", "--rp-um", "53", "--mfd-um",
                       "-1", "--f-mm", "15", *WALKOFF_FLAGS], 1),
    "mfd-then-config": (["eval", "--L-mm", "0", "--rp-um", "0", "--mfd-um",
                         "-1", *WALKOFF_FLAGS], 1),
    "mfd-then-mu": (["eval", "--L-mm", "3", "--rp-um", "53", "--mfd-um",
                     "-1", *WALKOFF_FLAGS], 1),
    "w-conflict-then-mfd": (["eval", "--L-mm", "3", "--rp-um", "53",
                             "--w-um", "1.48", "--mfd-um", "-1", "--mu", "49",
                             *WALKOFF_FLAGS], 2),
    "lens-conflict-then-image": (["eval", "--L-mm", "3", "--rp-um", "53",
                                  "--w-um", "1.48", "--mu", "49", "--f-mm",
                                  "15.4", "--dbl-mm", "10", *WALKOFF_FLAGS],
                                 2),
    "image-then-walkoffs": (["eval", "--L-mm", "3", "--rp-um", "53",
                             "--w-um", "1.48", "--f-mm", "15.4", "--dbl-mm",
                             "10"], 1),
    "focal-then-walkoffs": (["eval", "--L-mm", "3", "--rp-um", "53",
                             "--w-um", "1.48", "--f-mm", "-1", "--dbl-mm",
                             "10"], 1),
    "missing-then-length": (["eval", "--L-mm", "-3", "--w-um", "1.48",
                             "--mu", "49", *WALKOFF_FLAGS], 2),
    "walkoffs-then-waist": (["eval", "--L-mm", "3", "--rp-um", "-53",
                             "--w-um", "1.48", "--mu", "49"], 2),
    "walkoff-value-then-waist": (["optimize", "--var", "xi", "--bounds",
                                  "0.1:10", "--L-mm", "2", "--rp-um", "-53",
                                  "--Mp", "2", "--M", "0", "--QK", "0"], 1),
    "mu-list-then-waist": (["sweep", "--L-range", "1:2:1", "--mu", "49,25",
                            "--rp-um", "-53", "--w-um", "1.48",
                            *WALKOFF_FLAGS], 2),
    "mu-list-then-rows": (["sweep", "--L-range", "1e305:1e305:1", "--mu",
                           "49,25", "--rp-um", "53", "--w-um", "1.48",
                           *WALKOFF_FLAGS], 2),
    "range-then-mu-list": (["sweep", "--L-range", "5:1:1", "--mu", "nan",
                            "--rp-um", "53", "--w-um", "1.48",
                            *WALKOFF_FLAGS], 2),
    "mu-list-then-walkoffs": (["sweep", "--L-range", "1:2:1", "--mu", "0",
                               "--rp-um", "53", "--w-um", "1.48", "--Mp",
                               "0.07"], 2),
    "bounds-then-waist": (["optimize", "--var", "xi", "--bounds", "5:1",
                           "--L-mm", "2", "--rp-um", "-53", *WALKOFF_FLAGS],
                          2),
    "nan-bounds-then-length": (["optimize", "--var", "xi", "--bounds",
                                "nan:1", "--L-mm", "-2", "--rp-um", "53",
                                *WALKOFF_FLAGS], 2),
    "experiment-then-grid": (["oracle", "--L-mm", "3", "--w-um", "1.48",
                              "--mu", "49", *WALKOFF_FLAGS, "--n-tau", "4"],
                             2),
    "waist-then-grid": (["oracle", "--L-mm", "3", "--rp-um", "-53",
                         "--w-um", "1.48", "--mu", "49", *WALKOFF_FLAGS,
                         "--n-tau", "4"], 1),
    "params-sources": (["params", "--Mp", "2", "--M", "0", "--QK", "0",
                        "--sellmeier"], 2),
    "params-partial-and-sellmeier": (["params", "--Mp", "0.07", "--sellmeier",
                                      "--pump-nm", "100"], 2),
    "params-file-then-pump": (["params", "--sellmeier", "MISSING",
                               "--pump-nm", "-1"], 2),
    "eval-file-then-pump": (["eval", "--L-mm", "3", "--rp-um", "53",
                             "--w-um", "1.48", "--mu", "49", "--sellmeier",
                             "MISSING", "--pump-nm", "-1"], 2),
    "params-pump-then-cut": (["params", "--sellmeier", "--pump-nm", "-1",
                              "--cut-angle-deg", "95"], 1),
}


@pytest.mark.parametrize("args, code", DOUBLE_FAULTS.values(),
                         ids=DOUBLE_FAULTS.keys())
def test_doubly_faulty_inputs_keep_their_exit_code(args, code, capsys,
                                                  tmp_path):
    args = [str(tmp_path / "missing.json") if a == "MISSING" else a
            for a in args]
    got, out, err = run_cli(args, capsys)
    assert got == code
    assert out == ""
    assert err.startswith("usage error:" if code == 2 else "error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc, code", [
    ({"schema_version": 99, "L_um": "abc"}, 2),
    ({**REFERENCE_CONFIG, "rp_um": -53.0, "walkoffs": {"Mp": 0.07}}, 2),
    ({**REFERENCE_CONFIG, "rp_um": -53.0}, 1),
], ids=["schema-then-value", "walkoffs-then-waist", "waist"])
def test_doubly_faulty_config_files_keep_their_exit_code(doc, code, capsys,
                                                        tmp_path):
    got, out, _ = run_cli(["eval", "--config", write_config(tmp_path, doc)],
                          capsys)
    assert (got, out) == (code, "")


# ---------------------------------------------------------------------------
# the Sellmeier file is read once per run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_params_sellmeier_reads_the_file_once(fmt, capsys, monkeypatch):
    import spdcfc.dispersion as dispersion

    calls = []
    load = dispersion.load_index_model

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(dispersion, "load_index_model", counting_load)
    code, out, _ = run_cli(["params", "--sellmeier", str(SELLMEIER_FILE),
                            "--format", fmt], capsys)
    assert code == 0
    assert calls == [str(SELLMEIER_FILE)]
    expected = (DATA / "golden_params_sellmeier.txt").read_text()
    if fmt == "text":
        assert out == expected


# ---------------------------------------------------------------------------
# config values must be JSON numbers
# ---------------------------------------------------------------------------

def with_walkoffs(**walkoffs) -> dict:
    return {**REFERENCE_CONFIG,
            "walkoffs": {**REFERENCE_CONFIG["walkoffs"], **walkoffs}}


def with_quadrature(**quadrature) -> dict:
    return {**REFERENCE_CONFIG, "quadrature": quadrature}


BAD_CONFIG_VALUES = {
    "length-text": ("eval", {**REFERENCE_CONFIG, "L_um": "abc"}),
    "length-numeric-text": ("eval", {**REFERENCE_CONFIG, "L_um": "3000"}),
    "length-list": ("eval", {**REFERENCE_CONFIG, "L_um": [1]}),
    "length-bool": ("eval", {**REFERENCE_CONFIG, "L_um": True}),
    "length-huge-int": ("eval", {**REFERENCE_CONFIG, "L_um": 10 ** 400}),
    "mu-object": ("eval", {**REFERENCE_CONFIG, "mu": {"value": 49}}),
    "waist-text-round-trip": ("eval", {
        "schema_version": 1, "eta": 0.4, "shape": {},
        "config": {**REFERENCE_CONFIG, "rp_um": "53"}}),
    "walkoff-null": ("eval", with_walkoffs(Mp=None)),
    "walkoff-text": ("eval", with_walkoffs(QK="0.036215")),
    "walkoff-bool": ("eval", with_walkoffs(M=False)),
    "n-tau-text": ("oracle", with_quadrature(n_tau="abc")),
    "n-tau-overflow": ("oracle", "QUAD_N_TAU_1E400"),
    "n-tau-fraction": ("oracle", with_quadrature(n_tau=64.9)),
    "n-trans-bool": ("oracle", with_quadrature(n_trans=True)),
    "n-trans-nan": ("oracle", with_quadrature(n_trans=float("nan"))),
    "extent-text": ("oracle", with_quadrature(extent_factor="6")),
    "target-list": ("oracle", with_quadrature(target_rel_err=[1e-5])),
    "not-utf8": ("eval", "NOT_UTF8"),
    "integer-over-digit-limit": ("eval", "OVER_DIGIT_LIMIT"),
}


@pytest.mark.parametrize("command, doc", BAD_CONFIG_VALUES.values(),
                         ids=BAD_CONFIG_VALUES.keys())
def test_malformed_config_values_are_usage_errors(command, doc, capsys,
                                                  tmp_path):
    path = tmp_path / "config.json"
    if doc == "QUAD_N_TAU_1E400":  # json.dumps cannot write 1e400
        path.write_text(json.dumps(with_quadrature(n_tau=1.0))
                        .replace("1.0}", "1e400}"))
    elif doc == "NOT_UTF8":
        path.write_bytes(json.dumps(REFERENCE_CONFIG).encode()[:-1]
                         + b', "x": "\xff"}')
    elif doc == "OVER_DIGIT_LIMIT":  # json refuses such an integer
        path.write_text(json.dumps(REFERENCE_CONFIG)
                        .replace("3000.0", "9" * 5000))
    else:
        path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_whole_float_grid_sizes_and_null_entries_are_accepted(capsys,
                                                             tmp_path):
    base = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS]
    expected = run_cli([*base, "--n-tau", "64", "--n-trans", "96"], capsys)
    doc = {**with_quadrature(n_tau=64.0, n_trans=96.0, extent_factor=6,
                             target_rel_err=None),
           "L_um": None, "mu": None}
    assert run_cli([*base, "--config", write_config(tmp_path, doc)],
                   capsys) == expected


# ---------------------------------------------------------------------------
# quadrature values: a flag, else the config file, else QuadratureSpec's
# ---------------------------------------------------------------------------

ORACLE_FLAGS = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json"]


def test_quadrature_flag_over_file_over_default(capsys, tmp_path):
    path = write_config(tmp_path, {"schema_version": 1, "quadrature": {
        "n_tau": 16, "n_trans": 32, "extent_factor": 8}})
    from_file = run_cli([*ORACLE_FLAGS, "--config", path], capsys)
    flagged = run_cli([*ORACLE_FLAGS, "--config", path, "--n-tau", "32"],
                      capsys)
    # target_rel_err is in neither, so it is QuadratureSpec's 1e-5
    assert from_file == run_cli([*ORACLE_FLAGS, "--n-tau", "16", "--n-trans",
                                 "32", "--extent-factor", "8"], capsys)
    assert flagged == run_cli([*ORACLE_FLAGS, "--n-tau", "32", "--n-trans",
                               "32", "--extent-factor", "8"], capsys)
    # each source changes the output, so each comparison above tells
    defaults = run_cli(ORACLE_FLAGS, capsys)
    assert len({from_file[1], flagged[1], defaults[1]}) == 3


# ---------------------------------------------------------------------------
# an unconverged oracle run
# ---------------------------------------------------------------------------

UNCONVERGED = ["oracle", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
               "--mu", repr(5.0 * 53.0 / 1.48), *WALKOFF_FLAGS, "--n-tau",
               "8", "--n-trans", "16", "--extent-factor", "4"]
UNCONVERGED_ERROR = (
    "error: oracle did not converge to 1e-05 after two refinements: last "
    "values 0.123789588 and 0.122979884 (est_rel_err 0.00658)\n")


def test_unconverged_oracle_text_is_pinned(capsys):
    assert run_cli(UNCONVERGED, capsys) == (1, (
        "eta_closed    = 0.122979884\n"
        "eta_numeric   = 0.122979884   (unconverged)\n"
        "est_rel_err   = 0.00658403451\n"), UNCONVERGED_ERROR)


def test_unconverged_oracle_json_is_pinned(capsys):
    code, out, err = run_cli([*UNCONVERGED, "--format", "json"], capsys)
    # the quadrature's two values at 9 digits: their last bits follow the
    # BLAS build's order of summation
    out = re.sub(r'("(?:eta_numeric|est_rel_err)": )([^,\n]+)',
                 lambda m: m[1] + format(float(m[2]), ".9g"), out)
    assert (code, err) == (1, UNCONVERGED_ERROR)
    assert out == """{
  "schema_version": 1,
  "config": {
    "L_um": 3000.0,
    "rp_um": 53.0,
    "w_um": 1.48,
    "mu": 179.05405405405406,
    "walkoffs": {
      "Mp": 0.07631,
      "M": 0.07243,
      "QK": 0.036215
    }
  },
  "eta_closed": 0.12297988368764415,
  "eta_numeric": 0.122979884,
  "est_rel_err": 0.00658403451,
  "pass": false
}
"""


# ---------------------------------------------------------------------------
# non-finite quadrature and geometry inputs
# ---------------------------------------------------------------------------

# runs one argument list through main() in a fresh interpreter and
# reports whether numpy was loaded
NUMPY_PROBE = """
import contextlib, io, json, sys
import spdcfc.cli
with contextlib.redirect_stdout(io.StringIO()) as out, \\
        contextlib.redirect_stderr(io.StringIO()) as err:
    code = spdcfc.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), err.getvalue(),
                  "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("extent", ["nan", "inf"])
def test_oracle_nonfinite_extent_fails_before_numpy_loads(extent):
    args = ["oracle", "--L-mm", "3", *REFERENCE_FLAGS, "--extent-factor",
            extent]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE,
                           json.dumps(args)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, out, err, numpy_loaded = json.loads(proc.stdout)
    assert (code, out, numpy_loaded) == (1, "", False)
    assert err == f"error: extent_factor must be finite, got {extent}\n"


@pytest.mark.parametrize("command", [
    ["params", "--sellmeier"],
    ["eval", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48", "--mu", "49",
     "--sellmeier"],
], ids=["params", "eval"])
def test_nan_pump_wavelength_is_named(command, capsys):
    code, out, err = run_cli([*command, "--pump-nm", "nan"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: pump_wavelength must be finite, got nan\n"


@pytest.mark.parametrize("content", [
    b'{"material": "beta-BBO\xff"}',
    b'{"material": "beta-BBO", "x": ' + b"9" * 5000 + b"}",
], ids=["not-utf8", "integer-over-digit-limit"])
def test_unparsable_sellmeier_file_is_a_usage_error(content, capsys,
                                                    tmp_path):
    path = tmp_path / "sellmeier.json"
    path.write_bytes(content)
    code, out, err = run_cli(["params", "--sellmeier", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: Sellmeier file is not valid JSON:")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# schema_version is the JSON integer 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("version, shown", [
    (True, "True"), (1.0, "1.0"), ("1", "'1'"), (None, "None")],
    ids=["true", "one-point-zero", "text", "null"])
def test_config_schema_version_must_be_the_integer_1(version, shown, capsys,
                                                     tmp_path):
    for doc in ({**REFERENCE_CONFIG, "schema_version": version},
                {"schema_version": version, "eta": 0.4, "shape": {},
                 "config": {k: v for k, v in REFERENCE_CONFIG.items()
                            if k != "schema_version"}}):
        code, out, err = run_cli(
            ["eval", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err == ("usage error: config schema_version must be 1, "
                       f"got {shown}\n")


def test_config_round_trip_keeps_its_schema_version(capsys, tmp_path):
    args = ["eval", "--L-mm", "3", *REFERENCE_FLAGS, "--format", "json"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(first)["schema_version"] == 1
    code, second, _ = run_cli(["eval", "--config",
                               write_config(tmp_path, first), "--format",
                               "json"], capsys)
    assert (code, second) == (0, first)
