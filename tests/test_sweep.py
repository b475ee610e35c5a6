"""Curve tabulation and scalar maximization."""

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, replace

import pytest

from spdcfc import (
    ExperimentConfig,
    SweepRow,
    SweepSpec,
    WalkOffSet,
    ceiling_scan,
    efficiency,
    efficiency_curve,
    maximize_eta,
)
from spdcfc.errors import DomainError
from spdcfc import sweep

from conftest import REFERENCE_WALKOFFS, _with_variable, reference_config
from test_core import ETA_1MM, ETA_3MM


def test_spec_validation():
    cfg = reference_config()
    with pytest.raises(DomainError):
        SweepSpec(l_grid=(), mu_values=(49.0,), fixed=cfg)
    with pytest.raises(DomainError):
        SweepSpec(l_grid=(1000.0, 1000.0), mu_values=(49.0,), fixed=cfg)
    with pytest.raises(DomainError):
        SweepSpec(l_grid=(2000.0, 1000.0), mu_values=(49.0,), fixed=cfg)
    with pytest.raises(DomainError):
        SweepSpec(l_grid=(1000.0,), mu_values=(-49.0,), fixed=cfg)


def test_single_point_curve():
    spec = SweepSpec(l_grid=(3000.0,), mu_values=(49.0,), fixed=reference_config())
    result = efficiency_curve(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert (row.length, row.mu) == (3000.0, 49.0)
    assert row.eta == pytest.approx(ETA_3MM, rel=1e-12)


def test_shorter_crystal_couples_better():
    spec = SweepSpec(l_grid=(1000.0, 3000.0), mu_values=(49.0,),
                     fixed=reference_config())
    rows = efficiency_curve(spec).rows
    assert rows[0].eta == pytest.approx(ETA_1MM, rel=1e-12)
    assert rows[0].eta > rows[1].eta


def test_row_ordering_length_major():
    spec = SweepSpec(l_grid=(1000.0, 2000.0), mu_values=(25.0, 49.0),
                     fixed=reference_config())
    rows = efficiency_curve(spec).rows
    assert [(r.length, r.mu) for r in rows] == [
        (1000.0, 25.0), (1000.0, 49.0), (2000.0, 25.0), (2000.0, 49.0)]
    assert len(rows) == 4


def test_curve_error_annotated_with_row():
    spec = SweepSpec(l_grid=(1000.0, 1e308), mu_values=(49.0,),
                     fixed=reference_config())
    with pytest.raises(DomainError, match=r"row L=1e\+308"):
        efficiency_curve(spec)


def test_curve_rows_equal_efficiency_bit_for_bit():
    # the sweep and efficiency() share one code path, so no rounding differs
    fixed = reference_config()
    # irregular mu values, so that any reordering of the arithmetic rounds
    # differently somewhere on the grid
    spec = SweepSpec(l_grid=(1.0, 500.0, 1000.0, 3000.0, 5000.0, 1e5),
                     mu_values=tuple(0.5 + 3.37 * k for k in range(40)),
                     fixed=fixed)
    for row in efficiency_curve(spec).rows:
        res = efficiency(replace(fixed, crystal_length=row.length,
                                 inverse_magnification=row.mu))
        assert row.eta == res.eta
        assert row.xi == res.shape.xi


@pytest.mark.parametrize("variable, bounds", [
    ("mu", (3.6, 360.0)), ("rp", (10.0, 300.0)), ("xi", (0.1, 10.0))])
def test_maximize_eta_max_equals_efficiency_at_argmax(variable, bounds):
    for length in (1e-3, 500.0, 2000.0, 5000.0):
        cfg = reference_config(length)
        res = maximize_eta(cfg, variable, bounds)
        probe = efficiency(_with_variable(cfg, variable, res.argmax))
        assert res.eta_max == probe.eta


def test_maximize_overflowing_bound_is_domain_error():
    cfg = reference_config(2000.0)
    # r_p/w is about 36, so xi = 1e307 needs mu = inf
    with pytest.raises(DomainError):
        maximize_eta(cfg, "xi", (0.1, 1e307))


def test_maximize_extreme_xi_bound_is_domain_error():
    # mu stays finite here, but xi**4 overflows inside the bracket
    with pytest.raises(DomainError, match="too extreme"):
        maximize_eta(reference_config(2000.0), "xi", (0.1, 1e150))


def test_maximize_reference_ceiling():
    res = maximize_eta(reference_config(2000.0), "xi", (0.1, 10.0))
    assert res.eta_max == pytest.approx(0.489, abs=0.005)
    assert res.argmax == pytest.approx(1.18, abs=0.05)
    assert not res.boundary
    assert res.iterations > 0
    # never below either bracket end
    for end in res.bracket:
        assert efficiency(_with_variable(reference_config(2000.0), "xi",
                                         end)).eta <= res.eta_max
    assert 0.0 < res.eta_max <= 1.0


def test_maximize_never_below_grid_scan():
    cfg = reference_config(2000.0)
    res = maximize_eta(cfg, "xi", (0.1, 10.0))
    grid_best = max(
        efficiency(_with_variable(cfg, "xi", 0.1 + 9.9 * k / 63)).eta
        for k in range(64))
    assert res.eta_max >= grid_best


def test_maximize_short_crystal_hits_lower_boundary():
    res = maximize_eta(reference_config(1e-3), "xi", (0.1, 10.0))
    assert res.boundary
    assert res.argmax == pytest.approx(0.1, abs=1e-3)
    assert res.eta_max == pytest.approx(1.0, abs=1e-3)


def test_maximize_mu_xi_reparameterization():
    cfg = reference_config(2000.0)
    xi_run = maximize_eta(cfg, "xi", (0.1, 10.0))
    scale = cfg.pump_waist / cfg.fiber_mode_radius
    mu_run = maximize_eta(cfg, "mu", (0.1 * scale, 10.0 * scale))
    assert mu_run.eta_max == pytest.approx(xi_run.eta_max, rel=1e-9)
    assert mu_run.argmax / scale == pytest.approx(xi_run.argmax, rel=1e-6)


def test_maximize_over_pump_waist():
    res = maximize_eta(reference_config(2000.0), "rp", (10.0, 300.0))
    assert 0.0 < res.eta_max <= 1.0
    probe = efficiency(_with_variable(reference_config(2000.0), "rp",
                                      res.argmax)).eta
    assert probe == pytest.approx(res.eta_max, rel=1e-9)


def test_maximize_validates_inputs():
    cfg = reference_config(2000.0)
    with pytest.raises(DomainError):
        maximize_eta(cfg, "xi", (0.0, 10.0))
    with pytest.raises(DomainError):
        maximize_eta(cfg, "xi", (5.0, 5.0))
    with pytest.raises(DomainError):
        maximize_eta(cfg, "waist", (0.1, 10.0))


def test_ceiling_scan_non_increasing():
    table = ceiling_scan(53.0, REFERENCE_WALKOFFS,
                         [2000.0, 2500.0, 3000.0, 4000.0, 5000.0])
    assert [length for length, _ in table] == [2000.0, 2500.0, 3000.0,
                                               4000.0, 5000.0]
    values = [eta for _, eta in table]
    assert values[0] == pytest.approx(0.489, abs=0.005)
    assert values[2] < 0.489
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_ceiling_scan_validates_grid():
    with pytest.raises(DomainError):
        ceiling_scan(53.0, REFERENCE_WALKOFFS, [])


CEILING_WALKOFFS = [
    REFERENCE_WALKOFFS,
    WalkOffSet(m_p=0.05, m=0.09, q_over_k=0.0),
    WalkOffSet(m_p=0.12, m=0.01, q_over_k=0.07),
]


@pytest.mark.parametrize("walkoffs", CEILING_WALKOFFS,
                         ids=["reference", "no-cone", "wide"])
def test_ceiling_scan_equals_maximize_eta_bit_for_bit(walkoffs):
    # the shared xi pre-scan must give what a per-length maximize_eta gives;
    # the short lengths put the maximum on the xi = 0.1 pre-scan point,
    # whose last bits at the last three pump waists come from the mu
    # round trip
    lengths = [0.0646, 0.227, 0.7, 1.508, 333.3, 1234.5, 2718.28, 9999.0,
               31415.9, 2e5]
    for pump_waist in (17.3, 53.0, 211.0, 41.73563363613645,
                       51.513003186720276, 88.54074837137509):
        for length, eta_max in ceiling_scan(pump_waist, walkoffs, lengths):
            cfg = ExperimentConfig(length, pump_waist, 1.0, 1.0, walkoffs)
            assert eta_max == maximize_eta(cfg, "xi", (0.1, 10.0)).eta_max


@pytest.mark.parametrize("pump_waist", [5e-324, 1e308],
                         ids=["lower-bound-underflow", "upper-bound-overflow"])
def test_ceiling_scan_bad_xi_bound_is_maximize_etas_error(pump_waist):
    # mu = xi * r_p / w is 0 or inf at one of the bounds
    cfg = ExperimentConfig(1000.0, pump_waist, 1.0, 1.0, REFERENCE_WALKOFFS)
    with pytest.raises(DomainError) as expected:
        maximize_eta(cfg, "xi", (0.1, 10.0))
    with pytest.raises(DomainError) as got:
        ceiling_scan(pump_waist, REFERENCE_WALKOFFS, [1000.0, 2000.0])
    assert str(got.value) == str(expected.value)
    assert "inverse_magnification" in str(got.value)


def first_row_error(spec):
    # the message efficiency() gives for the first failing row, L-major
    for length in spec.l_grid:
        for mu in spec.mu_values:
            try:
                efficiency(replace(spec.fixed, crystal_length=length,
                                   inverse_magnification=mu))
            except DomainError as exc:
                return f"row L={length} um, mu={mu}: {exc}"
    return None


# r_p = w = 0.01 um makes xi = mu and L/r_p = inf at L = 1e308, so that
# row's sigmas overflow; mu = 1e150 and 1e-170 are xi beyond evaluation
@pytest.mark.parametrize("l_grid, mu_values, expected", [
    ((1e308,), (1.0, 1e150), "mu=1.0: sigmas must be finite"),
    ((1e308,), (1e-170, 1.0), "mu=1e-170: xi=1e-170 too extreme"),
    ((1.0, 1e308), (1.0, 1e150), "L=1.0 um, mu=1e+150: xi=1e+150 too"),
    ((1e308,), (1.0, 2.0, 1e150), "mu=1.0: sigmas must be finite"),
], ids=["sigma-first", "xi-first", "xi-at-first-length", "sigma-then-xi"])
def test_curve_raises_first_failing_row_in_l_major_order(l_grid, mu_values,
                                                          expected):
    fixed = ExperimentConfig(1.0, 0.01, 0.01, 1.0, REFERENCE_WALKOFFS)
    spec = SweepSpec(l_grid=l_grid, mu_values=mu_values, fixed=fixed)
    with pytest.raises(DomainError) as got:
        efficiency_curve(spec)
    assert str(got.value) == first_row_error(spec)
    assert expected in str(got.value)


# ---------------------------------------------------------------------------
# sweep inputs follow core's number rule
# ---------------------------------------------------------------------------

PAST_FLOAT_RANGE = "must be finite, got a number past the float range"


def test_sweep_grid_past_float_range_is_domain_error():
    cfg = reference_config()
    with pytest.raises(DomainError, match=f"^l_grid {PAST_FLOAT_RANGE}$"):
        SweepSpec(l_grid=(10 ** 400,), mu_values=(49.0,), fixed=cfg)
    with pytest.raises(DomainError, match=f"^mu_values {PAST_FLOAT_RANGE}$"):
        SweepSpec(l_grid=(1000.0,), mu_values=(49, 10 ** 400), fixed=cfg)
    with pytest.raises(DomainError, match=f"^l_grid {PAST_FLOAT_RANGE}$"):
        ceiling_scan(53.0, REFERENCE_WALKOFFS, [1000.0, 10 ** 400])


def test_maximize_bound_past_float_range_is_domain_error():
    with pytest.raises(DomainError, match=f"^bounds {PAST_FLOAT_RANGE}$"):
        maximize_eta(reference_config(), "xi", (0.1, 10 ** 400))


def test_sweep_grid_text_is_domain_error():
    # as core refuses ceiling_scan("53", ...), the grids refuse text too
    cfg = reference_config()
    with pytest.raises(DomainError,
                       match=r"^l_grid must be a number, got '1000'$"):
        SweepSpec(l_grid=("1000", "2000"), mu_values=(49.0,), fixed=cfg)
    with pytest.raises(DomainError,
                       match=r"^mu_values must be a number, got b'49'$"):
        SweepSpec(l_grid=(1000.0,), mu_values=(b"49",), fixed=cfg)
    with pytest.raises(DomainError,
                       match=r"^l_grid must be a number, got '1000'$"):
        ceiling_scan(53.0, REFERENCE_WALKOFFS, ["1000"])
    with pytest.raises(DomainError, match="^pump_waist must be a number"):
        ceiling_scan("53", REFERENCE_WALKOFFS, [1000.0])


def test_maximize_bound_text_is_domain_error():
    with pytest.raises(DomainError,
                       match=r"^bounds must be a number, got '0.1'$"):
        maximize_eta(reference_config(), "xi", ("0.1", "10"))


def test_sweep_inputs_take_ints_as_floats():
    # non-float numbers still convert; only text and overflow are refused
    cfg = reference_config()
    spec = SweepSpec(l_grid=(1000, 3000), mu_values=(49,), fixed=cfg)
    assert spec.l_grid == (1000.0, 3000.0)
    assert all(type(v) is float for v in spec.l_grid + spec.mu_values)
    assert (maximize_eta(cfg, "xi", (1, 10))
            == maximize_eta(cfg, "xi", (1.0, 10.0)))
    assert (ceiling_scan(53.0, REFERENCE_WALKOFFS, [1000])
            == ceiling_scan(53.0, REFERENCE_WALKOFFS, [1000.0]))


def test_non_finite_float_grid_keeps_the_grid_message():
    # every grid item meets the number rule, and its range "> 0"
    cfg = reference_config()
    for bad, message in ((float("nan"), "mu_values must be finite, got nan"),
                         (float("inf"), "mu_values must be finite, got inf"),
                         (-1.0, "mu_values must be > 0, got -1.0")):
        with pytest.raises(DomainError) as exc:
            SweepSpec(l_grid=(1000.0,), mu_values=(bad,), fixed=cfg)
        assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        maximize_eta(cfg, "xi", (0.1, float("inf")))
    assert str(exc.value) == "bounds must be finite, got inf"


def test_curve_rows_behave_as_rows_built_by_init():
    spec = SweepSpec(l_grid=(1000.0, 3000.0), mu_values=(25.0, 49.0),
                     fixed=reference_config())
    for row in efficiency_curve(spec).rows:
        built = SweepRow(row.length, row.mu, row.xi, row.eta)
        assert type(row) is SweepRow
        assert row == built and hash(row) == hash(built)
        assert repr(row) == repr(built)
        assert list(vars(row)) == list(vars(built)) == [
            "length", "mu", "xi", "eta"]
        assert pickle.loads(pickle.dumps(row)) == built
        assert copy.deepcopy(row) == built
        assert asdict(row) == asdict(built)
        assert replace(row, eta=0.5) == replace(built, eta=0.5)
        with pytest.raises(FrozenInstanceError):
            row.eta = 0.5
        with pytest.raises(FrozenInstanceError):
            del row.mu


def test_maximize_eta_still_checks_its_result(monkeypatch):
    # the closed form never returns an eta outside (0, 1]; a stand-in that
    # does must be caught by OptResult, which maximize_eta still builds
    monkeypatch.setattr(sweep, "_eta", lambda *args: 0.0)
    with pytest.raises(DomainError, match=r"^eta_max must be in \(0, 1\]"):
        maximize_eta(reference_config(), "xi", (0.1, 10.0))


@pytest.mark.parametrize("fixed", [None, 3000.0, REFERENCE_WALKOFFS])
def test_spec_rejects_fixed_that_is_not_a_config(fixed):
    with pytest.raises(DomainError,
                       match="^fixed must be an ExperimentConfig$"):
        SweepSpec(l_grid=(1000.0,), mu_values=(49.0,), fixed=fixed)
