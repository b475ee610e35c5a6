"""Quadrature oracle against the closed form and its own invariants."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from spdcfc import (
    ExperimentConfig,
    QuadratureSpec,
    WalkOffSet,
    efficiency,
    eta_numeric,
    pair_overlap_density,
)
from spdcfc.errors import ConvergenceError, DomainError
from spdcfc.oracle import (MAX_GRID_POINTS, MAX_N_TAU, _eta_on_grid,
                           _gauss_legendre, _gauss_sums, _shifted_differences)

from conftest import REFERENCE_WALKOFFS, reference_config


def xi_config(length_um: float, xi: float,
              walkoffs: WalkOffSet = REFERENCE_WALKOFFS) -> ExperimentConfig:
    return ExperimentConfig(
        crystal_length=length_um, pump_waist=53.0, fiber_mode_radius=1.48,
        inverse_magnification=xi * 53.0 / 1.48, walkoffs=walkoffs)


def hard_config() -> ExperimentConfig:
    # xi = 5: back-imaged mode 265 um over a 53 um pump; coarse grids
    # undersample the pump-sized structure
    return xi_config(3000.0, 5.0)


# ---------------------------------------------------------------------------
# QuadratureSpec / OracleResult plumbing
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    QuadratureSpec()  # defaults are valid
    with pytest.raises(DomainError):
        QuadratureSpec(n_tau=7)
    with pytest.raises(DomainError):
        QuadratureSpec(n_trans=8)
    with pytest.raises(DomainError):
        QuadratureSpec(extent_factor=3.0)
    with pytest.raises(DomainError):
        QuadratureSpec(target_rel_err=0.0)


@pytest.mark.parametrize("field, value", [
    ("n_tau", 64.5), ("n_trans", 16.5), ("n_tau", 64.0), ("n_tau", None),
    ("n_trans", "96"), ("n_tau", True)])
def test_quadrature_spec_grid_sizes_are_integers(field, value):
    with pytest.raises(DomainError) as exc:
        QuadratureSpec(**{field: value})
    assert str(exc.value) == f"{field} must be an integer, got {value!r}"


def test_quadrature_spec_takes_numpy_integers_as_ints():
    spec = QuadratureSpec(n_tau=np.int64(64), n_trans=np.int32(96))
    assert spec == QuadratureSpec(n_tau=64, n_trans=96)
    assert type(spec.n_tau) is int and type(spec.n_trans) is int


def test_quadrature_spec_grid_size_checked_before_numpy_loads():
    code = ("import sys\n"
            "from spdcfc.oracle import QuadratureSpec\n"
            "from spdcfc.errors import DomainError\n"
            "try:\n"
            "    QuadratureSpec(n_tau=64.5)\n"
            "except DomainError as exc:\n"
            "    print(exc, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "n_tau must be an integer, got 64.5 False\n"


def test_quadrature_spec_grid_caps():
    # a spec allocates nothing; none over the caps is integrated here
    QuadratureSpec(n_tau=MAX_N_TAU,
                   n_trans=MAX_GRID_POINTS // (16 * MAX_N_TAU))
    for n_tau, n_trans in ((MAX_N_TAU + 1, 16), (10 ** 12, 96),
                           (64, MAX_GRID_POINTS // (16 * 64) + 1),
                           (8, 10 ** 12)):
        with pytest.raises(DomainError, match="grid too large"):
            QuadratureSpec(n_tau=n_tau, n_trans=n_trans)


# ---------------------------------------------------------------------------
# pair overlap density
# ---------------------------------------------------------------------------

def test_density_maximal_at_zero_depth():
    cfg = reference_config(3000.0)
    n0 = pair_overlap_density(cfg, 0.0)
    assert n0 > 0.0
    for tau in (10.0, 300.0, 1500.0, 3000.0):
        assert pair_overlap_density(cfg, tau) < n0


def test_density_constant_without_drift():
    cfg = replace(reference_config(3000.0), walkoffs=WalkOffSet(0.0, 0.0, 0.0))
    n0 = pair_overlap_density(cfg, 0.0)
    for tau in (0.0, 700.0, 3000.0):
        assert pair_overlap_density(cfg, tau) == pytest.approx(n0, rel=1e-12)


def test_density_decay_matches_gaussian_oracle():
    # frozen from the analytic three-Gaussian overlap of this geometry:
    # exp(-beta L^2 / (4 W^2) - |2Mp-M|^2 L^2 / (4 (2 rp^2 + W^2)))
    cfg = reference_config(3000.0)
    ratio = pair_overlap_density(cfg, 3000.0) / pair_overlap_density(cfg, 0.0)
    assert ratio < 1.0
    assert ratio == pytest.approx(0.002970545634, rel=1e-6)


def brute_force_density(cfg: ExperimentConfig, tau: float,
                        spec: QuadratureSpec) -> float:
    # the three Gaussians multiplied point by point on the trapezoid grid
    w = cfg.walkoffs
    pair_sep = math.hypot(w.m, 2.0 * w.q_over_k)
    pump_rate = 0.5 * (pair_sep + abs(2.0 * w.m_p - w.m))
    radius = cfg.fiber_mode_radius * cfg.inverse_magnification
    rp = cfg.pump_waist

    def mode(x):
        return (math.exp(-x * x / (2.0 * radius * radius))
                / (math.pi ** 0.25 * math.sqrt(radius)))

    def pump(x):
        return math.exp(-x * x / (2.0 * rp * rp))

    half = spec.extent_factor * max(radius, rp)
    n = spec.n_trans
    step = 2.0 * half / (n - 1)
    n_x = n_y = 0.0
    for i in range(n):
        x = -half + i * step
        weight = 0.5 * step if i in (0, n - 1) else step
        n_x += weight * mode(x) * mode(x - pair_sep * tau) * pump(
            x - pump_rate * tau)
        n_y += weight * mode(x) * mode(x) * pump(x)
    return n_x * n_y


@pytest.mark.parametrize("xi", [0.2, 1.0, 5.0])
def test_density_matches_brute_force_product(xi):
    cfg = xi_config(3000.0, xi)
    spec = QuadratureSpec()
    for tau in (0.0, 40.0, 700.0, 3000.0):
        expected = brute_force_density(cfg, tau, spec)
        assert expected > 0.0
        assert pair_overlap_density(cfg, tau, spec) == pytest.approx(
            expected, rel=1e-13)


def test_density_rejects_out_of_window_depth():
    cfg = reference_config(3000.0)
    with pytest.raises(DomainError):
        pair_overlap_density(cfg, -1.0)
    with pytest.raises(DomainError):
        pair_overlap_density(cfg, 3000.1)


# ---------------------------------------------------------------------------
# the 2-D kernel
# ---------------------------------------------------------------------------

KERNEL_SHAPES = [(1, 96), (64, 96), (128, 192), (256, 384)]


def kernel_case(n_tau: int, n_trans: int, peak: str):
    # a grid of half-width 3 and a Gaussian of 1/e half-width ~0.85; taus in (0, 1],
    # so the deepest row's peak sits at `rate`: on a grid node, between
    # two nodes, or past the grid's edge
    x = np.linspace(-3.0, 3.0, n_trans)
    rate = {"node": x[3 * n_trans // 4],
            "between": 0.5 * (x[n_trans // 3] + x[n_trans // 3 + 1]),
            "past_edge": 4.5}[peak]
    taus = np.arange(1, n_tau + 1) / n_tau
    vec = np.exp(-0.1 * x * x) * (x[1] - x[0])
    return taus, x, vec, 1.4, rate


@pytest.mark.parametrize("peak", ["node", "between", "past_edge"])
@pytest.mark.parametrize("n_tau, n_trans", KERNEL_SHAPES)
def test_gauss_rows_matches_plain_loop(n_tau, n_trans, peak):
    taus, x, vec, coef, rate = kernel_case(n_tau, n_trans, peak)
    got = _gauss_sums(taus, x, (coef,), (rate,), vec[None])[0]
    assert got.shape == (n_tau,)
    xs, vs = x.tolist(), vec.tolist()
    for tau, row in zip(taus.tolist(), got.tolist()):
        shift = rate * tau
        expected = math.fsum(v * math.exp(-coef * (xj - shift) ** 2)
                             for xj, v in zip(xs, vs))
        assert expected > 0.0
        assert row == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("peak", ["node", "between", "past_edge"])
@pytest.mark.parametrize("n_tau, n_trans", KERNEL_SHAPES)
def test_shifted_differences_equal_the_broadcast(n_tau, n_trans, peak):
    taus, x, _, _, rate = kernel_case(n_tau, n_trans, peak)
    rng = np.random.default_rng(n_tau * n_trans)
    # the kernel's own grids, then grids and shifts whose differences
    # round: mixed magnitudes and near-equal pairs
    for xs, r in ((x, rate),
                  (rng.uniform(-1e3, 1e3, n_trans), rate * 997.13),
                  (np.sort(rng.standard_normal(n_trans)) * 1e-7,
                   rng.standard_normal() * 1e-7)):
        got = _shifted_differences(taus, xs, r)
        assert np.array_equal(got, xs - r * taus[:, None])


# ---------------------------------------------------------------------------
# eta_numeric vs the closed form
# ---------------------------------------------------------------------------

def test_short_crystal_limit_is_prefactor():
    for xi in (0.5, 1.37, 3.0):
        res = eta_numeric(xi_config(1e-3, xi))
        expected = 4.0 * (1.0 + xi**2) / (2.0 + xi**2) ** 2
        assert res.eta_numeric == pytest.approx(expected, rel=1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "the singles integrals scale with L, so at L = 1e-160 um the product "
    "p1 * p2 in _eta_on_grid's p12 / sqrt(p1 * p2) is subnormal: eta "
    "deviates from the closed form by 9.2e-4 with est_rel_err 1.6e-14"))
def test_short_crystal_limit_past_a_subnormal_singles_product():
    cfg = xi_config(1e-160, 1.37)
    res = eta_numeric(cfg)
    assert res.eta_numeric == pytest.approx(efficiency(cfg).eta, rel=1e-9)


def test_matches_closed_form_on_reference_points():
    for length in (3000.0, 1000.0):
        cfg = reference_config(length)
        closed = efficiency(cfg).eta
        res = eta_numeric(cfg)
        assert abs(res.eta_numeric - closed) / closed <= 1e-4


def test_matches_closed_form_random_batch():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        length = 10.0 * math.exp(rng.uniform(0.0, math.log(500.0)))
        xi = rng.uniform(0.2, 5.0)
        cfg = xi_config(length, xi)
        closed = efficiency(cfg).eta
        res = eta_numeric(cfg)
        assert abs(res.eta_numeric - closed) / closed <= max(
            1e-4, 3.0 * res.est_rel_err)


def test_cauchy_schwarz_bound():
    for length in (10.0, 500.0, 3000.0):
        res = eta_numeric(reference_config(length))
        p12, p1, p2 = res.pieces
        assert p12 <= math.sqrt(p1 * p2) * (1.0 + 1e-9)
        assert res.eta_numeric <= 1.0 + res.est_rel_err + 1e-9


def test_arm_exchange_invariance():
    # swapping which arm carries the pair separation maps the pump
    # walk-off m_p -> m - m_p and leaves everything observable fixed
    a = xi_config(2000.0, 1.3, WalkOffSet(0.03, 0.07, 0.02))
    b = xi_config(2000.0, 1.3, WalkOffSet(0.04, 0.07, 0.02))
    assert efficiency(a).eta == pytest.approx(efficiency(b).eta, rel=1e-14)
    res_a, res_b = eta_numeric(a), eta_numeric(b)
    assert res_a.eta_numeric == pytest.approx(
        res_b.eta_numeric, rel=max(1e-10, 3 * (res_a.est_rel_err
                                               + res_b.est_rel_err)))


def test_deterministic_for_fixed_spec():
    cfg = reference_config(2500.0)
    first = eta_numeric(cfg)
    second = eta_numeric(cfg)
    assert first.eta_numeric == second.eta_numeric
    assert first.pieces == second.pieces


@pytest.mark.parametrize("n", [8, 64, 256])
def test_gauss_legendre_is_numpys_rule_read_only(n):
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_cold_and_warm_rule_cache_give_identical_results():
    coarse = QuadratureSpec(n_tau=16, n_trans=32, extent_factor=4.0)
    for cfg, spec in ((reference_config(3000.0), QuadratureSpec()),
                      (hard_config(), coarse)):
        _gauss_legendre.cache_clear()
        cold = eta_numeric(cfg, spec)
        assert _gauss_legendre.cache_info().misses > 0
        assert cold == eta_numeric(cfg, spec)


def test_refinement_estimate_decreases_with_grid_doubling():
    cfg = hard_config()
    chain = [_eta_on_grid(cfg, 8 * 2**k, 16 * 2**k, 4.0)[0] for k in range(4)]
    ests = [abs(b - a) / abs(b) for a, b in zip(chain, chain[1:])]
    assert ests[0] > ests[1] > ests[2]


def test_convergence_error_carries_both_values():
    spec = QuadratureSpec(n_tau=8, n_trans=16, extent_factor=4.0)
    with pytest.raises(ConvergenceError) as excinfo:
        eta_numeric(hard_config(), spec)
    err = excinfo.value
    assert err.est_rel_err > spec.target_rel_err
    assert 0.0 < err.eta_fine < 1.0
    assert 0.0 < err.eta_coarse < 1.0
    assert str(err.eta_fine)[:8] in str(err) or f"{err.eta_fine:.9g}" in str(err)


def test_converged_result_agrees_despite_coarse_start():
    # the refinement loop rescues the hard configuration once the grids
    # are allowed to double twice from a workable starting point
    cfg = hard_config()
    res = eta_numeric(cfg, QuadratureSpec(n_tau=16, n_trans=32,
                                          extent_factor=4.0))
    closed = efficiency(cfg).eta
    assert abs(res.eta_numeric - closed) / closed <= max(
        1e-4, 3.0 * res.est_rel_err)


@pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf])
def test_quadrature_spec_rejects_nonfinite_extent(extent):
    with pytest.raises(DomainError, match="extent_factor must be finite"):
        QuadratureSpec(extent_factor=extent)
