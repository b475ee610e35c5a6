"""The package's public names: what ``import spdcfc`` exposes and where from."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import spdcfc
import spdcfc.cli

# every public name of the package, by the submodule that defines it
EXPORTS = {
    "core": [
        "AlphaBeta", "EfficiencyResult", "ExperimentConfig", "ShapeParams",
        "WalkOffSet", "compute_alpha_beta", "effective_to_raw", "efficiency",
        "erf", "erf_over_sigma", "eta_closed_form", "magnification",
        "mode_field_radius", "pump_waist_from_diameter", "raw_to_effective",
        "shape_params", "sigma_over_erf",
    ],
    "dispersion": [
        "DEFAULT_CUT_ANGLE_DEG", "IndexModel", "PhaseMatchGeometry",
        "TemporalParams", "build_walkoff_set", "bundled_bbo",
        "extraordinary_index", "group_delay_params", "load_index_model",
        "ordinary_index", "phase_match_angle",
        "principal_extraordinary_index", "q_over_kbar", "walk_off_tangent",
    ],
    "errors": [
        "ConvergenceError", "DomainError", "NoRealImageError",
        "WavelengthRangeError",
    ],
    "oracle": [
        "OracleResult", "QuadratureSpec", "eta_numeric",
        "pair_overlap_density",
    ],
    "sweep": [
        "DEFAULT_MU_VALUES", "OptResult", "SweepResult", "SweepRow",
        "SweepSpec", "ceiling_scan", "efficiency_curve", "maximize_eta",
    ],
}
PUBLIC_NAMES = sorted([*EXPORTS, *(n for ns in EXPORTS.values() for n in ns)])


def fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, 80 columns wide."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_52_public_names():
    assert len(PUBLIC_NAMES) == 52
    assert sorted(spdcfc.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module_name", sorted(EXPORTS))
def test_each_name_is_the_defining_modules_object(module_name):
    module = importlib.import_module(f"spdcfc.{module_name}")
    assert getattr(spdcfc, module_name) is module
    for name in EXPORTS[module_name]:
        assert getattr(spdcfc, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    names = json.loads(fresh(
        "import json\n"
        "from spdcfc import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))"))
    assert names == sorted(PUBLIC_NAMES + ["json"])


def test_submodule_attribute_without_explicit_import():
    out = fresh("import spdcfc\n"
                "print(spdcfc.sweep.maximize_eta.__module__)")
    assert out == "spdcfc.sweep\n"


def test_dir_covers_all_before_and_after_loading():
    assert json.loads(fresh(
        "import json, spdcfc\n"
        "print(json.dumps(set(spdcfc.__all__) <= set(dir(spdcfc))))"))
    assert set(spdcfc.__all__) <= set(dir(spdcfc))


@pytest.mark.parametrize("name", [
    "no_such_name", "__wrapped__", "_eta_on_grid", "numpy",
])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(spdcfc, name)
    assert not hasattr(spdcfc, name)


@pytest.mark.parametrize("name, exposers", [
    ("DEFAULT_CUT_ANGLE_DEG", ["spdcfc", "spdcfc.cli", "spdcfc.core",
                               "spdcfc.dispersion"]),
    ("VARIABLES", ["spdcfc.cli", "spdcfc.core", "spdcfc.sweep"]),
    ("DEFAULT_MU_VALUES", ["spdcfc", "spdcfc.cli", "spdcfc.core",
                           "spdcfc.sweep"]),
])
def test_parser_constants_have_one_definition(name, exposers):
    modules = ["spdcfc", *(f"spdcfc.{m}" for m in [*EXPORTS, "cli"])]
    found = [m for m in modules if hasattr(importlib.import_module(m), name)]
    assert set(exposers) <= set(found)
    value = getattr(spdcfc.core, name)
    for m in found:
        assert getattr(importlib.import_module(m), name) is value, m


@pytest.mark.parametrize("command", ["eval", "sweep", "optimize", "oracle",
                                     "params"])
def test_subcommand_help_keeps_the_package_defaults(command, capsys,
                                                    monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to this width
    with pytest.raises(SystemExit):
        spdcfc.cli.main([command, "--help"])
    expected = capsys.readouterr().out
    # the same text from an interpreter that loaded only what --help needs
    out = fresh("import spdcfc.cli\n"
                f"spdcfc.cli.main([{command!r}, '--help'])")
    assert out == expected
    assert "(default 42.9, a package default)" in " ".join(out.split())
    if command == "optimize":
        assert "--var {mu,rp,xi}" in out
