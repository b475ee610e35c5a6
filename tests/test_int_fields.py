"""Ints given to the library are computed with as floats, so they end
where the same floats end.

The frozen types store the float of an int field, so no arithmetic runs
on ints.  An int field past the float's square root therefore overflows
to inf, or is refused, as its float is, and never in a raw
`OverflowError`.  The command line still echoes a config file's integers
as written; computed fields print as floats.
"""

import json
import warnings

import pytest

from spdcfc import (ExperimentConfig, SweepSpec, WalkOffSet, ceiling_scan,
                    efficiency, efficiency_curve, eta_numeric, maximize_eta)
from spdcfc.cli import main
from spdcfc.errors import DomainError

from conftest import REFERENCE_WALKOFFS

BIG = {"1e200": 10 ** 200, "1e308": 10 ** 308}
FIELDS = ("crystal_length", "pump_waist", "fiber_mode_radius",
          "inverse_magnification")


def config(field: str, big: int) -> ExperimentConfig:
    # the reference design in ints (w = 1 um), one field replaced by big
    values = dict(zip(FIELDS, (3000, 53, 1, 49)), **{field: big})
    return ExperimentConfig(**values, walkoffs=REFERENCE_WALKOFFS)


CALLS = {
    "efficiency": efficiency,
    "eta_numeric": eta_numeric,
    "maximize_eta-mu": lambda cfg: maximize_eta(cfg, "mu", (1, 200)),
    "maximize_eta-rp": lambda cfg: maximize_eta(cfg, "rp", (3, 1000)),
    "maximize_eta-xi": lambda cfg: maximize_eta(cfg, "xi", (1, 10)),
    "efficiency_curve": lambda cfg: efficiency_curve(SweepSpec(
        (1000, cfg.crystal_length), (cfg.inverse_magnification,), cfg)),
}


def result_or_domain_error(call):
    # any other exception, or any warning, fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except DomainError as exc:
            return exc


@pytest.mark.parametrize("big", BIG.values(), ids=BIG.keys())
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_huge_int_fields_end_in_a_result_or_a_domain_error(call, field, big):
    cfg = config(field, big)
    assert result_or_domain_error(lambda: call(cfg)) is not None


@pytest.mark.parametrize("big", BIG.values(), ids=BIG.keys())
def test_huge_int_ceiling_scans_end_in_a_result_or_a_domain_error(big):
    for waist, lengths in ((big, [1000, 2000]), (53, [1000, big])):
        assert result_or_domain_error(
            lambda: ceiling_scan(waist, REFERENCE_WALKOFFS, lengths)
        ) is not None


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_an_int_field_gives_the_float_fields_result(call):
    ints = ExperimentConfig(10 ** 308, 1, 10 ** 308, 10 ** 308,
                            REFERENCE_WALKOFFS)
    floats = ExperimentConfig(1e308, 1.0, 1e308, 1e308, REFERENCE_WALKOFFS)
    assert str(result_or_domain_error(lambda: call(ints))) == str(
        result_or_domain_error(lambda: call(floats)))


def test_an_int_length_meets_the_oracles_length_refusal():
    walkoffs = WalkOffSet(0.1, 0.05, 0.01)
    outcomes = [result_or_domain_error(lambda: eta_numeric(ExperimentConfig(
        length, 1e70, 1e70, 1, walkoffs))) for length in (14 * 10 ** 153,
                                                          1.4e154)]
    assert all(isinstance(o, DomainError) for o in outcomes)
    assert str(outcomes[0]).startswith("crystal length L = 1.4e+154 um ")
    assert str(outcomes[0]) == str(outcomes[1])


def run_eval(capsys, tmp_path, doc: dict) -> tuple[int, str, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--config", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    return code, out, err


def int_doc(**changes) -> dict:
    return {"schema_version": 1, "L_um": 3000, "rp_um": 53, "w_um": 1.48,
            "mu": 49, "walkoffs": {"Mp": 0.07631, "M": 0.07243,
                                   "QK": 0.036215}, **changes}


def test_a_config_file_with_309_digit_integers_exits_1(capsys, tmp_path):
    code, out, err = run_eval(capsys, tmp_path, int_doc(
        rp_um=1, w_um=10 ** 308, mu=10 ** 308))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_int_walkoffs_print_computed_fields_as_floats(capsys, tmp_path):
    code, out, _ = run_eval(capsys, tmp_path, int_doc(
        walkoffs={"Mp": 0, "M": 0.07243, "QK": 0}))
    assert code == 0
    assert '"alpha1": 0.0,' in out
    assert '"Mp": 0,' in out and '"QK": 0\n' in out


def test_an_integer_config_round_trips_to_identical_text(capsys, tmp_path):
    code, first, _ = run_eval(capsys, tmp_path, int_doc())
    assert code == 0 and '"rp_um": 53,' in first
    code, second, _ = run_eval(capsys, tmp_path, json.loads(first))
    assert (code, second) == (0, first)
