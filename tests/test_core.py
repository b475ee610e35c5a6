"""Parameter algebra and closed-form efficiency of the core model."""

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spdcfc import (
    AlphaBeta,
    EfficiencyResult,
    ExperimentConfig,
    ShapeParams,
    WalkOffSet,
    compute_alpha_beta,
    effective_to_raw,
    efficiency,
    eta_closed_form,
    magnification,
    mode_field_radius,
    pump_waist_from_diameter,
    raw_to_effective,
    shape_params,
)
from spdcfc.errors import DomainError, NoRealImageError

from conftest import REFERENCE_WALKOFFS, reference_config

# frozen via 40-digit arithmetic on the reference design point
ETA_3MM = 0.43507992619003883
ETA_1MM = 0.62388362071164924
XI_REFERENCE = 1.3683018867924528
SIGMA1_3MM = 2.8211320087967811
SIGMA2_3MM = 1.2164691149081478
SIGMAC_3MM = 3.411454126288875


def walkoff_sets():
    return st.builds(
        WalkOffSet,
        m_p=st.floats(min_value=0.0, max_value=0.3),
        m=st.floats(min_value=0.0, max_value=0.3),
        q_over_k=st.floats(min_value=0.0, max_value=0.15),
    )


def configs():
    return st.builds(
        lambda L, rp, xi, w, wo: ExperimentConfig(
            crystal_length=L, pump_waist=rp, fiber_mode_radius=w,
            inverse_magnification=xi * rp / w, walkoffs=wo),
        L=st.floats(min_value=1.0, max_value=10000.0),
        rp=st.floats(min_value=5.0, max_value=500.0),
        xi=st.floats(min_value=0.05, max_value=8.0),
        w=st.floats(min_value=0.5, max_value=5.0),
        wo=walkoff_sets(),
    )


# ---------------------------------------------------------------------------
# walk-off algebra
# ---------------------------------------------------------------------------

def test_alpha_beta_all_zero():
    ab = compute_alpha_beta(WalkOffSet(0.0, 0.0, 0.0))
    assert (ab.alpha1, ab.alpha2, ab.beta) == (0.0, 0.0, 0.0)


def test_alpha_beta_cancelling_walkoffs():
    ab = compute_alpha_beta(WalkOffSet(0.07, 0.07, 0.0))
    assert ab.alpha1 == pytest.approx(0.0049, rel=1e-12)
    assert ab.alpha2 == 0.0
    assert ab.beta == pytest.approx(0.0049, rel=1e-12)


def test_alpha_beta_reference_values():
    ab = compute_alpha_beta(REFERENCE_WALKOFFS)
    assert ab.alpha1 == pytest.approx(0.007134742325, rel=1e-12)
    assert ab.alpha2 == pytest.approx(0.001326580625, rel=1e-12)
    assert ab.beta == pytest.approx(0.0104922098, rel=1e-12)


def test_walkoffs_reject_bad_values():
    for bad in (-0.01, 1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            WalkOffSet(bad, 0.0, 0.0)
        with pytest.raises(DomainError):
            WalkOffSet(0.0, 0.0, bad)


@given(walkoff_sets())
def test_alpha_beta_invariants(wo):
    ab = compute_alpha_beta(wo)
    q2 = wo.q_over_k ** 2
    assert ab.alpha1 >= q2
    assert ab.alpha2 >= q2
    assert ab.beta >= 0.0


# ---------------------------------------------------------------------------
# unit conversions and imaging
# ---------------------------------------------------------------------------

def test_mode_field_radius():
    assert mode_field_radius(4.2) == pytest.approx(1.4849242404917498, rel=1e-12)
    assert mode_field_radius(2.0 * math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-12)
    assert mode_field_radius(8.4) == pytest.approx(2.0 * mode_field_radius(4.2),
                                                   rel=1e-12)
    with pytest.raises(DomainError):
        mode_field_radius(0.0)


def test_pump_waist_from_diameter():
    assert pump_waist_from_diameter(150.0) == pytest.approx(53.033008588991064,
                                                            rel=1e-12)
    assert pump_waist_from_diameter(2.0 * math.sqrt(2.0)) == pytest.approx(
        1.0, rel=1e-12)
    assert pump_waist_from_diameter(300.0) == pytest.approx(
        2.0 * pump_waist_from_diameter(150.0), rel=1e-12)
    with pytest.raises(DomainError):
        pump_waist_from_diameter(-1.0)


def test_magnification_reference_lens():
    mu, d_al = magnification(15.4, 780.0)
    assert mu == pytest.approx(49.649350649350649, rel=1e-12)
    assert d_al == pytest.approx(15.710175255035313, rel=1e-12)


def test_magnification_unit_and_simple():
    mu, d_al = magnification(10.0, 20.0)
    assert mu == pytest.approx(1.0, rel=1e-12)
    assert d_al == pytest.approx(20.0, rel=1e-12)
    mu, d_al = magnification(10.0, 30.0)
    assert mu == pytest.approx(2.0, rel=1e-12)
    assert d_al == pytest.approx(15.0, rel=1e-12)


def test_magnification_requires_real_image():
    with pytest.raises(NoRealImageError):
        magnification(15.4, 15.4)
    with pytest.raises(NoRealImageError):
        magnification(15.4, 10.0)
    with pytest.raises(DomainError):
        magnification(-1.0, 10.0)


@given(f=st.floats(min_value=0.1, max_value=100.0),
       ratio=st.floats(min_value=1.001, max_value=1000.0))
def test_magnification_consistency(f, ratio):
    mu, d_al = magnification(f, f * ratio)
    assert mu == pytest.approx(f * ratio / d_al, rel=1e-12)


# ---------------------------------------------------------------------------
# shape parameters
# ---------------------------------------------------------------------------

def test_shape_params_reference_point():
    sp = shape_params(reference_config(3000.0))
    assert sp.xi == pytest.approx(XI_REFERENCE, rel=1e-12)
    assert sp.sigma1 == pytest.approx(SIGMA1_3MM, rel=1e-12)
    assert sp.sigma2 == pytest.approx(SIGMA2_3MM, rel=1e-12)
    assert sp.sigma_c == pytest.approx(SIGMAC_3MM, rel=1e-12)


def test_shape_params_vanish_with_length():
    sp = shape_params(reference_config(1e-100))
    assert sp.xi == pytest.approx(XI_REFERENCE, rel=1e-12)
    for sigma in (sp.sigma_c, sp.sigma1, sp.sigma2):
        assert 0.0 <= sigma < 1e-99


def test_shape_params_scale_invariant():
    base = shape_params(reference_config(3000.0))
    cfg = reference_config(3000.0)
    doubled = shape_params(replace(cfg, crystal_length=6000.0,
                                   pump_waist=106.0, fiber_mode_radius=2.96))
    assert doubled.xi == pytest.approx(base.xi, rel=1e-14)
    assert doubled.sigma_c == pytest.approx(base.sigma_c, rel=1e-14)
    assert doubled.sigma1 == pytest.approx(base.sigma1, rel=1e-14)
    assert doubled.sigma2 == pytest.approx(base.sigma2, rel=1e-14)


@given(configs())
def test_shape_params_self_consistent(cfg):
    # recompute sigma_c from the other fields: sigma_c^2 xi^2 (2+xi^2)
    # must equal (L/r_p)^2 ((a1+a2) xi^2 + beta)
    sp = shape_params(cfg)
    ab = sp.alpha_beta
    xi2 = sp.xi ** 2
    lhs = sp.sigma_c ** 2 * xi2 * (2.0 + xi2)
    rhs = (cfg.crystal_length / cfg.pump_waist) ** 2 * (
        (ab.alpha1 + ab.alpha2) * xi2 + ab.beta)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_experiment_config_validation():
    wo = REFERENCE_WALKOFFS
    with pytest.raises(DomainError):
        ExperimentConfig(0.0, 53.0, 1.48, 49.0, wo)
    with pytest.raises(DomainError):
        ExperimentConfig(3000.0, -53.0, 1.48, 49.0, wo)
    with pytest.raises(DomainError):
        ExperimentConfig(3000.0, 53.0, 1.48, float("inf"), wo)
    with pytest.raises(DomainError):
        ExperimentConfig(3000.0, 53.0, 1.48, 49.0, None)


# ---------------------------------------------------------------------------
# closed-form efficiency
# ---------------------------------------------------------------------------

def test_eta_reference_points():
    assert efficiency(reference_config(3000.0)).eta == pytest.approx(ETA_3MM,
                                                                 rel=1e-12)
    assert efficiency(reference_config(1000.0)).eta == pytest.approx(ETA_1MM,
                                                                 rel=1e-12)


def test_eta_zero_sigma_is_prefactor():
    ab = AlphaBeta(0.0, 0.0, 0.0)
    for xi in (1e-6, 0.5, 1.0, 2.0):
        res = eta_closed_form(ShapeParams(xi, 0.0, 0.0, 0.0, ab))
        assert res.eta == pytest.approx(
            4.0 * (1.0 + xi**2) / (2.0 + xi**2) ** 2, rel=1e-14)
    tiny = eta_closed_form(ShapeParams(1e-8, 0.0, 0.0, 0.0, ab))
    assert tiny.eta == pytest.approx(1.0, abs=1e-12)


def test_eta_vanishes_for_small_mode_at_fixed_length():
    # fixed L > 0, xi -> 0: the pair-separation term diverges
    cfg = replace(reference_config(3000.0), inverse_magnification=1e-3)
    assert efficiency(cfg).eta < 0.01


def test_eta_echoes_shape():
    sp = shape_params(reference_config(3000.0))
    assert eta_closed_form(sp).shape is sp


def test_eta_arm_exchange_symmetric():
    sp = shape_params(reference_config(3000.0))
    swapped = ShapeParams(sp.xi, sp.sigma_c, sp.sigma2, sp.sigma1,
                          AlphaBeta(sp.alpha_beta.alpha2,
                                    sp.alpha_beta.alpha1,
                                    sp.alpha_beta.beta))
    assert eta_closed_form(swapped).eta == eta_closed_form(sp).eta


@given(configs())
def test_eta_in_unit_interval(cfg):
    assert 0.0 < efficiency(cfg).eta <= 1.0


@given(configs(), st.sampled_from([0.1, 10.0]))
def test_eta_scale_invariance(cfg, s):
    scaled = replace(cfg, crystal_length=s * cfg.crystal_length,
                     pump_waist=s * cfg.pump_waist,
                     fiber_mode_radius=s * cfg.fiber_mode_radius)
    assert efficiency(scaled).eta == pytest.approx(efficiency(cfg).eta,
                                                   rel=1e-12)


def test_eta_mode_magnification_tradeoff_exact():
    # power-of-two reshuffles between w and mu round-trip exactly
    cfg = reference_config(3000.0)
    traded = replace(cfg, fiber_mode_radius=cfg.fiber_mode_radius / 2.0,
                     inverse_magnification=cfg.inverse_magnification * 2.0)
    assert efficiency(traded).eta == efficiency(cfg).eta


@given(configs(), st.floats(min_value=0.1, max_value=10.0))
def test_eta_depends_on_w_mu_product_only(cfg, factor):
    traded = replace(cfg, fiber_mode_radius=cfg.fiber_mode_radius / factor,
                     inverse_magnification=cfg.inverse_magnification * factor)
    assert efficiency(traded).eta == pytest.approx(efficiency(cfg).eta,
                                                   rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=1.01, max_value=10.0))
def test_zero_length_prefactor_decreasing_in_xi(lo, step):
    # strict decrease, probed at separations float arithmetic can resolve
    hi = lo * step
    pref = lambda xi: 4.0 * (1.0 + xi**2) / (2.0 + xi**2) ** 2
    assert pref(lo) <= 1.0
    assert pref(hi) < pref(lo)


def test_eta_strictly_decreasing_in_length_reference_params():
    # 500-point grid on (0, 5000] um at the reference xi; this
    # monotonicity is specific to these parameters
    etas = [efficiency(reference_config(L)).eta
            for L in [5000.0 * (k + 1) / 500 for k in range(500)]]
    assert all(b < a for a, b in zip(etas, etas[1:]))


@pytest.mark.parametrize("fiber_mode_radius", [1e-170, 1e150])
def test_efficiency_extreme_xi_is_domain_error(fiber_mode_radius):
    # xi*xi underflows to 0 or xi**4 overflows to inf
    cfg = replace(reference_config(2000.0),
                  fiber_mode_radius=fiber_mode_radius,
                  inverse_magnification=1.0)
    with pytest.raises(DomainError, match="too extreme"):
        efficiency(cfg)


def test_eta_closed_form_hand_built_extreme_xi():
    # a hand-built ShapeParams skips _sigmas: xi**4 overflowing is a
    # DomainError there too, while xi*xi underflowing stays valid (eta 1)
    ab = compute_alpha_beta(REFERENCE_WALKOFFS)
    with pytest.raises(DomainError, match="too extreme"):
        eta_closed_form(ShapeParams(1e150, 0.0, 0.0, 0.0, ab))
    assert eta_closed_form(ShapeParams(1e-170, 0.0, 0.0, 0.0, ab)).eta == 1.0


@pytest.mark.parametrize("xi", [1.35e154, 1e160, 1e300, 1.7976931348623157e308])
@pytest.mark.parametrize("sigmas", [(0.0, 0.0, 0.0), (0.3, 1.0, 30.0),
                                    (1e300, 5e-324, 1e-4)])
def test_eta_closed_form_xi_whose_square_overflows_is_too_extreme(xi, sigmas):
    # xi*xi is inf: the refusal names xi, not the NaN prefactor's eta or a
    # sigma that the prefactor never meets
    ab = compute_alpha_beta(REFERENCE_WALKOFFS)
    with pytest.raises(DomainError) as exc:
        eta_closed_form(ShapeParams(xi, *sigmas, ab))
    assert str(exc.value) == f"xi={xi} too extreme to evaluate"


def _wide_configs(seed: int, count: int):
    # log-uniform lengths, waists, radii and magnifications over 1e-200..1e300,
    # so that xi, the sigmas and eta all reach their failure modes
    rng = random.Random(seed)

    def log_uniform():
        return 10.0 ** rng.uniform(-200.0, 300.0)

    def walkoff():
        return 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.2)

    for _ in range(count):
        yield ExperimentConfig(
            crystal_length=log_uniform(), pump_waist=log_uniform(),
            fiber_mode_radius=log_uniform(),
            inverse_magnification=log_uniform(),
            walkoffs=WalkOffSet(m_p=walkoff(), m=walkoff(),
                                q_over_k=walkoff()))


def _outcome(fn, *args):
    # a result as float.hex strings, or the error's type and message
    try:
        res = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    sp, ab = res.shape, res.shape.alpha_beta
    return tuple(float.hex(v) for v in (
        res.eta, sp.xi, sp.sigma_c, sp.sigma1, sp.sigma2,
        ab.alpha1, ab.alpha2, ab.beta))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_efficiency_equals_shape_params_then_eta_closed_form(seed):
    raised = 0
    for cfg in _wide_configs(seed, 3000):
        expected = _outcome(lambda c: eta_closed_form(shape_params(c)), cfg)
        assert _outcome(efficiency, cfg) == expected, cfg
        raised += isinstance(expected[0], type)
    # both paths are exercised: configs that evaluate and configs that raise
    assert 300 < raised < 2700


def test_efficiency_result_validation():
    sp = shape_params(reference_config(3000.0))
    with pytest.raises(DomainError):
        EfficiencyResult(eta=1.5, shape=sp)
    with pytest.raises(DomainError):
        EfficiencyResult(eta=0.0, shape=sp)


def test_threaded_evaluation_matches_sequential():
    lengths = [100.0 * (k + 1) for k in range(32)]
    sequential = [efficiency(reference_config(L)).eta for L in lengths]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda L: efficiency(reference_config(L)).eta,
                                 lengths))
    assert threaded == sequential


# ---------------------------------------------------------------------------
# loss-chain bookkeeping
# ---------------------------------------------------------------------------

def test_effective_to_raw_reference_values():
    assert effective_to_raw(0.42, 0.5, 0.85) == pytest.approx(0.1785, abs=1e-12)
    assert effective_to_raw(0.68, 0.5, 0.85) == pytest.approx(0.289, abs=1e-12)


def test_effective_to_raw_lossless():
    assert effective_to_raw(0.37, 1.0, 1.0) == 0.37


def test_effective_to_raw_rejects_out_of_range():
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            effective_to_raw(bad, 0.5, 0.85)
        with pytest.raises(DomainError):
            effective_to_raw(0.42, bad, 0.85)
        with pytest.raises(DomainError):
            effective_to_raw(0.42, 0.5, bad)


def test_raw_to_effective_inverts():
    assert raw_to_effective(0.1785, 0.5, 0.85) == pytest.approx(0.42, rel=1e-12)
    assert raw_to_effective(0.289, 0.5, 0.85) == pytest.approx(0.68, rel=1e-12)


@given(st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.1, max_value=1.0))
def test_bookkeeping_round_trip(eta_fc, eta_det, t_filter):
    raw = effective_to_raw(eta_fc, eta_det, t_filter)
    assert raw_to_effective(raw, eta_det, t_filter) == pytest.approx(
        eta_fc, rel=1e-12)


def test_raw_to_effective_rejects_inconsistent_chain():
    with pytest.raises(DomainError):
        raw_to_effective(0.9, 0.5, 0.85)


@pytest.mark.parametrize("build", [
    lambda: ExperimentConfig("3000", 53.0, 1.48, 49.0, REFERENCE_WALKOFFS),
    lambda: ExperimentConfig(3000.0, b"53", 1.48, 49.0, REFERENCE_WALKOFFS),
    lambda: WalkOffSet(m_p="0.07631", m=0.07243, q_over_k=0.036215),
    lambda: mode_field_radius("4.2"),
    lambda: magnification(b"15.4", 780.0),
], ids=["length-str", "waist-bytes", "walkoff-str", "mfd-str",
        "focal-bytes"])
def test_text_is_not_a_number(build):
    # float() would parse these; the value must arrive as a number
    with pytest.raises(DomainError, match="must be a number"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: ExperimentConfig(None, 53.0, 1.48, 49.0, REFERENCE_WALKOFFS),
     "crystal_length must be a number, got None"),
    (lambda: ExperimentConfig(3000.0, 53.0, [1.48], 49.0, REFERENCE_WALKOFFS),
     "fiber_mode_radius must be a number, got [1.48]"),
    (lambda: WalkOffSet(1j, 0.0, 0.0), "m_p must be a number, got 1j"),
    (lambda: mode_field_radius(None), "mfd must be a number, got None"),
    (lambda: magnification(15.4, object), "d_bl must be a number, got "
     "<class 'object'>"),
], ids=["length-none", "radius-list", "walkoff-complex", "mfd-none",
        "distance-type"])
def test_non_number_is_domain_error_naming_the_field(build, message):
    # float() raises TypeError on these; the error names the field instead
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# a number past the float range is a domain error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["crystal_length", "pump_waist",
                                   "fiber_mode_radius",
                                   "inverse_magnification"])
def test_config_number_past_float_range_is_domain_error(field):
    for huge in (10 ** 400, -(10 ** 400), Fraction(10 ** 400, 3)):
        with pytest.raises(DomainError) as exc:
            replace(reference_config(), **{field: huge})
        assert str(exc.value) == (
            f"{field} must be finite, got a number past the float range")


def test_walkoff_number_past_float_range_is_domain_error():
    with pytest.raises(DomainError, match="^q_over_k must be finite"):
        WalkOffSet(m_p=0.07, m=0.07, q_over_k=10 ** 400)
