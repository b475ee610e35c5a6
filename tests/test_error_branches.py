"""Error branches that the rest of the suite does not reach.

Each test drives one refusal: a malformed config file, a dataclass
given a value outside its domain, or the oracle command's disagreement
exit.  Each checks the exit code or the error type and the message.
"""

import json
import math

import pytest

from spdcfc import (AlphaBeta, OracleResult, PhaseMatchGeometry, ShapeParams,
                    q_over_kbar)
from spdcfc import oracle
from spdcfc.errors import DomainError
from spdcfc.sweep import OptResult, SweepResult, SweepRow

from conftest import bare_row
from test_cli import REFERENCE_FLAGS, run_cli


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def config_file(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc, message", [
    ([1, 2, 3], "config file must hold a JSON object"),
    ({"schema_version": 1, "config": {}, "typo": 1},
     "unknown config keys: ['typo']"),
    ({"schema_version": 1, "config": [3000.0]},
     "config entry must be a JSON object"),
    ({"schema_version": 1, "walkoffs": [0.07, 0.07, 0.03]},
     "walkoffs must be a JSON object"),
    ({"schema_version": 1, "quadrature": 64},
     "quadrature must be a JSON object"),
    ({"schema_version": 1, "walkoffs": {"Mp": 0.07, "M": 0.07, "QK": 0.03,
                                        "Q": 0.0}},
     "unknown walkoffs keys: ['Q']"),
    ({"schema_version": 1, "quadrature": {"n_taus": 64}},
     "unknown quadrature keys: ['n_taus']"),
], ids=["not-object", "wrapped-unknown", "config-not-object",
        "walkoffs-not-object", "quadrature-not-object",
        "walkoffs-unknown", "quadrature-unknown"])
@pytest.mark.parametrize("command", ["eval", "oracle"])
def test_malformed_config_exits_2_with_one_line(command, doc, message,
                                                capsys, tmp_path):
    code, out, err = run_cli(
        [command, "--config", config_file(tmp_path, doc), "--L-mm", "3",
         *REFERENCE_FLAGS], capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_oracle_disagreement_exits_1_after_printing(capsys, monkeypatch):
    # a quadrature 1% off the closed form, converged to 1e-7
    def off_by_one_percent(cfg, spec):
        return OracleResult(eta_numeric=0.99 * 0.435079926,
                            est_rel_err=1e-7, pieces=(1.0, 2.0, 3.0))

    monkeypatch.setattr(oracle, "eta_numeric", off_by_one_percent)
    code, out, err = run_cli(["oracle", "--L-mm", "3", *REFERENCE_FLAGS],
                             capsys)
    assert code == 1
    assert out.splitlines()[0] == "eta_closed    = 0.435079926"
    assert err.startswith("error: closed form and quadrature disagree: "
                          "deviation 0.01 > 0.0001")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# dataclass domains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["alpha1", "alpha2", "beta"])
def test_alpha_beta_rejects_a_negative_entry(field):
    values = {"alpha1": 1e-3, "alpha2": 2e-3, "beta": 3e-3, field: -1e-9}
    with pytest.raises(DomainError, match=f"{field} must be >= 0, got -1e-09"):
        AlphaBeta(**values)


AB = AlphaBeta(alpha1=7e-3, alpha2=1.3e-3, beta=1e-2)


@pytest.mark.parametrize("xi", [0.0, -1.0])
def test_shape_params_rejects_nonpositive_xi(xi):
    with pytest.raises(DomainError, match=f"xi must be > 0, got {xi}"):
        ShapeParams(xi, 0.5, 0.5, 0.5, alpha_beta=AB)


@pytest.mark.parametrize("field", ["sigma_c", "sigma1", "sigma2"])
def test_shape_params_rejects_a_negative_sigma(field):
    sigmas = {"sigma_c": 0.5, "sigma1": 0.5, "sigma2": 0.5, field: -0.25}
    with pytest.raises(DomainError, match=f"{field} must be >= 0, got -0.25"):
        ShapeParams(1.0, alpha_beta=AB, **sigmas)


def test_a_cone_angle_that_does_not_refract_is_refused():
    # sin of the angle just below pi/2 rounds to 1, which n_bar = 1 cannot
    # refract; bundled BBO's n_bar is above 1, so the CLI cannot get here
    geometry = PhaseMatchGeometry(0.415, 0.7, math.nextafter(math.pi / 2, 0))
    with pytest.raises(DomainError) as exc:
        q_over_kbar(geometry, 1.0)
    assert str(exc.value) == (
        "external cone angle does not refract into the crystal")


@pytest.mark.parametrize("cone", [math.pi / 2.0, 2.0])
def test_geometry_rejects_a_cone_angle_of_a_right_angle_or_more(cone):
    with pytest.raises(DomainError) as exc:
        PhaseMatchGeometry.degenerate(0.415, math.radians(42.9), cone)
    assert str(exc.value) == (
        f"external_cone_angle must be in [0, pi/2), got {cone}")


def test_sweep_result_rejects_no_rows():
    with pytest.raises(DomainError, match="sweep produced no rows"):
        SweepResult(rows=())


@pytest.mark.parametrize("eta", [0.0, -0.5, 1.0 + 1e-12, math.nan])
def test_sweep_result_rejects_an_eta_outside_the_unit_interval(eta):
    rows = (SweepRow(3000.0, 49.0, 1.37, 0.4), bare_row(3000.0, 60.0, 1.6, eta))
    with pytest.raises(DomainError) as exc:
        SweepResult(rows=rows)
    assert str(exc.value) == (
        "rows[1].eta must be finite, got nan" if math.isnan(eta)
        else f"rows[1].eta must be in (0, 1], got {eta}")


@pytest.mark.parametrize("rows, message", [
    ((bare_row(3000.0, 49.0, 1.37, None),),
     r"^rows\[0\]\.eta must be a number, got None$"),
    ((SweepRow(3000.0, 49.0, 1.37, 0.4), bare_row(3000.0, 60.0, 1.6, "0.5")),
     r"^rows\[1\]\.eta must be a number, got '0\.5'$"),
    (5, "^rows must be SweepRows with numeric etas, got 5$"),
    ((5,), r"^rows must be SweepRows with numeric etas, got \(5,\)$"),
], ids=["eta-None", "eta-text", "rows-not-iterable", "row-not-a-row"])
def test_sweep_result_rejects_rows_that_are_not_rows_with_numeric_etas(
        rows, message):
    # a non-row is refused as such; a row's eta by the number rule
    with pytest.raises(DomainError, match=message):
        SweepResult(rows=rows)


@pytest.mark.parametrize("eta_max, message", [
    ("x", "eta_max must be a number, got 'x'"),
    (None, "eta_max must be a number, got None"),
    (math.nan, "eta_max must be finite, got nan"),
    (0.0, "eta_max must be in (0, 1], got 0.0"),
    (1.5, "eta_max must be in (0, 1], got 1.5"),
])
def test_opt_result_reads_eta_max_by_the_number_rule(eta_max, message):
    with pytest.raises(DomainError) as exc:
        OptResult("xi", 1.0, eta_max, (0.1, 10.0), 20, False)
    assert str(exc.value) == message


@pytest.mark.parametrize("pieces", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                    (1.0, 1.0, 0.0), (1.0, -1.0, 1.0)])
def test_oracle_result_rejects_a_zero_or_negative_piece(pieces):
    k = next(k for k, p in enumerate(pieces) if p <= 0.0)
    with pytest.raises(DomainError) as exc:
        OracleResult(eta_numeric=0.5, est_rel_err=1e-6, pieces=pieces)
    assert str(exc.value) == f"pieces[{k}] must be > 0, got {pieces[k]}"


@pytest.mark.parametrize("args, message", [
    ((0.5, -0.5, (1.0, 1.0, 1.0)), "est_rel_err must be >= 0, got -0.5"),
    ((0.5, math.nan, (1.0, 1.0, 1.0)), "est_rel_err must be finite, got nan"),
    ((0.5, 0.1, (1.0, math.inf, 1.0)), "pieces[1] must be finite, got inf"),
    ((0.5, 0.1, (1.0, 1.0)),
     "pieces must be a list of 3 numbers, got (1.0, 1.0)"),
    ((0.5, 0.1, None), "pieces must be a list of 3 numbers, got None"),
    (("0.5", 0.1, (1.0, 1.0, 1.0)), "eta_numeric must be a number, got '0.5'"),
])
def test_oracle_result_reads_its_fields_by_the_number_rule(args, message):
    with pytest.raises(DomainError) as exc:
        OracleResult(*args)
    assert str(exc.value) == message


def test_oracle_result_stores_floats():
    result = OracleResult(1, 0, [1, 2, 3])
    assert result == OracleResult(1.0, 0.0, (1.0, 2.0, 3.0))
    assert all(type(v) is float for v in (result.eta_numeric,
                                          result.est_rel_err, *result.pieces))


def test_oracle_result_rejects_eta_past_one_plus_its_error():
    OracleResult(eta_numeric=1.0 + 1e-6, est_rel_err=1e-6,
                 pieces=(1.0, 1.0, 1.0))  # within the slack: accepted
    with pytest.raises(DomainError,
                       match=r"eta_numeric 1\.0001 outside \(0, 1 \+ est_rel_err\]"):
        OracleResult(eta_numeric=1.0001, est_rel_err=1e-6,
                     pieces=(1.0, 1.0, 1.0))
