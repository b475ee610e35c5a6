"""Closed-form fiber-coupling efficiency of a type-II photon-pair source.

The model treats both the pump and the fiber mode as Gaussians with the
field-amplitude 1/e convention exp(-|x|^2 / 2 r^2).  The fiber mode of
radius ``w``, imaged onto the crystal with inverse magnification ``mu``,
appears there with radius ``w * mu``.  Three dimensionless crystal
numbers feed the efficiency: the transverse walk-off per unit length of
the extraordinary pump (``m_p``) and of the extraordinary generated
field (``m``), and the transverse phase-matching wave-vector normalized
by the mean generated wave-vector (``q_over_k``).  The walk-off axis
lies in the crystal principal plane; the cone-intersection direction is
perpendicular to it, so ``q_over_k`` combines with the walk-offs in
quadrature.

Everything reduces to four dimensionless shape parameters: the mode-size
ratio ``xi = w*mu/r_p`` and three decay arguments ``sigma_c``,
``sigma_1``, ``sigma_2`` built from the crystal length over the pump
waist.  The efficiency is

    eta = 4 (1+xi^2)/(2+xi^2)^2 * erf(sigma_c)/sigma_c
          * sqrt(sigma_1/erf(sigma_1) * sigma_2/erf(sigma_2))

The error function is the standard library's ``math.erf``; only the
ratio erf(sigma)/sigma switches to its Taylor series near sigma = 0.
The arithmetic runs on plain floats in two private steps, split by what
each part depends on.  The xi step turns xi and the crystal numbers
into the prefactor 4 (1+xi^2)/(2+xi^2)^2 and three rates k, so that
each sigma is (L/r_p) k.  The length step turns the prefactor and the
three sigmas into eta.  Each step checks its own inputs and results.
The public functions wrap them in the validated dataclasses; the sweeps
run the xi step once per distinct xi and the length step once per
point, on inputs validated once, so both give the same bits.

The length step runs once per point of every sweep, optimization and
ceiling scan, and there a Python call costs more than its arithmetic.
So on its common path, three finite sigmas none of them below
``EROS_SERIES_CUTOFF``, it makes no call besides ``math.erf`` and
``math.sqrt``: it computes each erf(sigma)/sigma and its finiteness test
inline.  It hands over only when a sigma is small, to the Taylor series,
or not finite, to the check that raises, so each of those is still
written once.

All lengths are micrometres.  All functions are pure; the dataclasses
are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoRealImageError

TWO_OVER_SQRT_PI = 1.1283791670955126  # 2/sqrt(pi)

_SQRT8 = 2.0 * math.sqrt(2.0)

# bound once for the per-point steps below, which look each up per call
_erf = math.erf
_sqrt = math.sqrt
_INF = math.inf

# Below this sigma the erf(sigma)/sigma ratio switches to its Taylor series:
# the quotient is 0/0 at sigma = 0 and loses bits at subnormal sigma.
EROS_SERIES_CUTOFF = 1e-4

# Defaults the command-line parser reads when it is built.  They are
# defined here, in a module every command loads, and re-exported by
# ``dispersion`` and ``sweep``, so building the parser loads neither.

# Package default cut angle for the bundled BBO data (default, not a
# measured value).
DEFAULT_CUT_ANGLE_DEG = 42.9

# The variables maximize_eta optimizes over.
VARIABLES = ("mu", "rp", "xi")

# Magnifications for the default reproduction sweep.  Only mu = 49 is
# anchored to a measured design point; the rest are illustrative.
DEFAULT_MU_VALUES = (25.0, 35.0, 49.0, 60.0, 80.0)


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------

def erf(x: float) -> float:
    """Error function, ``math.erf`` with NaN rejected as a domain error."""
    if math.isnan(x):
        raise DomainError("erf argument is NaN")
    return math.erf(x)


def erf_over_sigma(sigma: float) -> float:
    """erf(sigma)/sigma, continued through sigma = 0 by its Taylor series.

    Returns 2/sqrt(pi) at sigma = 0 and decays monotonically to 0.
    """
    if math.isnan(sigma) or sigma < 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    return _erf_over_sigma(sigma)


def _erf_over_sigma(sigma: float) -> float:
    # erf_over_sigma on a sigma already known to be >= 0 and not NaN
    if sigma < EROS_SERIES_CUTOFF:
        s2 = sigma * sigma
        return TWO_OVER_SQRT_PI * (1.0 - s2 / 3.0 + s2 * s2 / 10.0)
    return _erf(sigma) / sigma


def sigma_over_erf(sigma: float) -> float:
    """sigma/erf(sigma), the reciprocal of :func:`erf_over_sigma`."""
    return 1.0 / erf_over_sigma(sigma)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _require_finite(name: str, value: float) -> float:
    if type(value) is not float:  # a float, the common case, needs none
        try:
            if isinstance(value, (str, bytes)):  # float() would parse them
                raise TypeError
            value = float(value)
        except TypeError:  # text, None, a complex, a container, ...
            raise DomainError(f"{name} must be a number, got {value!r}") from None
        except OverflowError:  # an int or Fraction past the float range
            raise DomainError(
                f"{name} must be finite, got a number past the float range"
            ) from None
    if math.isnan(value) or math.isinf(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class WalkOffSet:
    """Dimensionless transverse-drift numbers of the crystal geometry.

    m_p: walk-off magnitude of the extraordinary pump, displacement per
        unit propagation length.
    m: walk-off magnitude of the extraordinary generated field.
    q_over_k: transverse phase-matching wave-vector over the mean
        generated wave-vector (sine of the internal cone angle).
    All three are >= 0 and < 1 (paraxial regime).
    """

    m_p: float
    m: float
    q_over_k: float

    def __post_init__(self):
        for name in ("m_p", "m", "q_over_k"):
            v = _require_finite(name, getattr(self, name))
            if not 0.0 <= v < 1.0:
                raise DomainError(f"{name} must be in [0, 1), got {v}")


@dataclass(frozen=True)
class AlphaBeta:
    """Quadratic walk-off combinations fixed by the crystal alone."""

    alpha1: float
    alpha2: float
    beta: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta"):
            v = _require_finite(name, getattr(self, name))
            if v < 0.0:
                raise DomainError(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the closed-form efficiency needs.

    Lengths in micrometres; pump waist and fiber mode radius use the
    field-amplitude 1/e convention exp(-|x|^2 / 2 r^2).
    """

    crystal_length: float     # L, um
    pump_waist: float         # r_p, um
    fiber_mode_radius: float  # w, um
    inverse_magnification: float  # mu
    walkoffs: WalkOffSet

    def __post_init__(self):
        for name in ("crystal_length", "pump_waist", "fiber_mode_radius",
                     "inverse_magnification"):
            v = _require_finite(name, getattr(self, name))
            if v <= 0.0:
                raise DomainError(f"{name} must be > 0, got {v}")
        if not isinstance(self.walkoffs, WalkOffSet):
            raise DomainError("walkoffs must be a WalkOffSet")


@dataclass(frozen=True)
class ShapeParams:
    """Dimensionless arguments of the closed-form efficiency."""

    xi: float
    sigma_c: float
    sigma1: float
    sigma2: float
    alpha_beta: AlphaBeta

    def __post_init__(self):
        xi = _require_finite("xi", self.xi)
        if xi <= 0.0:
            raise DomainError(f"xi must be > 0, got {xi}")
        for name in ("sigma_c", "sigma1", "sigma2"):
            v = _require_finite(name, getattr(self, name))
            if v < 0.0:
                raise DomainError(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True)
class EfficiencyResult:
    """Coupling efficiency together with the shape parameters behind it."""

    eta: float
    shape: ShapeParams

    def __post_init__(self):
        eta = _require_finite("eta", self.eta)
        if not 0.0 < eta <= 1.0:
            raise DomainError(f"eta must be in (0, 1], got {eta}")


# ---------------------------------------------------------------------------
# parameter algebra
# ---------------------------------------------------------------------------

def compute_alpha_beta(walkoffs: WalkOffSet) -> AlphaBeta:
    """Combine walk-off magnitudes into the alpha/beta crystal numbers.

    The pump and generated-field walk-offs are collinear, so they
    subtract directly; the phase-matching term is perpendicular and adds
    in quadrature:

        alpha1 = m_p^2 + q^2
        alpha2 = (m_p - m)^2 + q^2
        beta   = m^2 + 4 q^2
    """
    q2 = walkoffs.q_over_k ** 2
    return AlphaBeta(
        alpha1=walkoffs.m_p ** 2 + q2,
        alpha2=(walkoffs.m_p - walkoffs.m) ** 2 + q2,
        beta=walkoffs.m ** 2 + 4.0 * q2,
    )


def mode_field_radius(mfd: float) -> float:
    """Gaussian field radius of a fiber mode from its mode-field diameter.

    The MFD is the 1/e^2 intensity diameter; with the field convention
    exp(-x^2 / 2 w^2) used here that makes w = MFD / (2 sqrt(2)).
    """
    mfd = _require_finite("mfd", mfd)
    if mfd <= 0.0:
        raise DomainError(f"mfd must be > 0, got {mfd}")
    return mfd / _SQRT8


def pump_waist_from_diameter(d: float) -> float:
    """Pump waist r_p from a 1/e^2 intensity beam diameter, d / (2 sqrt(2))."""
    d = _require_finite("d", d)
    if d <= 0.0:
        raise DomainError(f"beam diameter must be > 0, got {d}")
    return d / _SQRT8


def magnification(f: float, d_bl: float) -> tuple[float, float]:
    """Inverse magnification and image distance of a thin imaging lens.

    f: focal length; d_bl: object distance (crystal face to lens).  Both
    in the same unit; returns (mu, d_al) with d_al in that unit.
    Requires d_bl > f so a real image forms.
    """
    f = _require_finite("f", f)
    d_bl = _require_finite("d_bl", d_bl)
    if f <= 0.0:
        raise DomainError(f"focal length must be > 0, got {f}")
    if d_bl <= f:
        raise NoRealImageError(
            f"object distance {d_bl} must exceed focal length {f}")
    mu = d_bl / f - 1.0
    d_al = 1.0 / (1.0 / f - 1.0 / d_bl)
    return mu, d_al


def _prefactor(xi2: float) -> float:
    # the mode-matching factor 4 (1+xi^2)/(2+xi^2)^2, from xi^2
    return 4.0 * (1.0 + xi2) / (2.0 + xi2) ** 2


def _xi_terms(xi: float,
              ab: AlphaBeta) -> tuple[float, float, float, float]:
    # the xi step: (prefactor, kc, k1, k2), with sigma_x = (L/r_p) * k_x
    if not 0.0 < xi < _INF:
        raise DomainError(f"xi must be finite and > 0, got {xi}")
    xi2 = xi * xi
    # 0 once xi*xi underflows, inf once it overflows; the prefactor's
    # (2 + xi2)**2 overflows exactly when this product does
    denominator = xi2 * (2.0 + xi2)
    if not 0.0 < denominator < _INF:
        raise DomainError(f"xi={xi} too extreme to evaluate")
    return (_prefactor(xi2),
            _sqrt(((ab.alpha1 + ab.alpha2) * xi2 + ab.beta) / denominator),
            _sqrt(ab.alpha1 / (1.0 + xi2)),
            _sqrt(ab.alpha2 / (1.0 + xi2)))


def _check_sigmas(sigma_c: float, sigma1: float, sigma2: float) -> None:
    # L/r_p >= 0 and the rates are >= 0, so only inf or NaN can fail here
    if not (sigma_c < _INF and sigma1 < _INF and sigma2 < _INF):
        raise DomainError(
            f"sigmas must be finite, got sigma_c={sigma_c}, "
            f"sigma1={sigma1}, sigma2={sigma2}")


def _eta(prefactor: float, sigma_c: float, sigma1: float,
         sigma2: float) -> float:
    # the length step: eta from the xi step's prefactor and the sigmas,
    # inline on the common path (module docstring); the test below is
    # _check_sigmas's own, and a series sigma goes to _erf_over_sigma
    if not (sigma_c < _INF and sigma1 < _INF and sigma2 < _INF):
        _check_sigmas(sigma_c, sigma1, sigma2)
    cut = EROS_SERIES_CUTOFF
    arms = _sqrt(
        (_erf(sigma1) / sigma1 if sigma1 >= cut else _erf_over_sigma(sigma1))
        * (_erf(sigma2) / sigma2 if sigma2 >= cut
           else _erf_over_sigma(sigma2)))
    if arms == 0.0:
        raise DomainError(
            f"sigma1={sigma1}, sigma2={sigma2} too extreme to evaluate")
    eta = prefactor * (_erf(sigma_c) / sigma_c if sigma_c >= cut
                       else _erf_over_sigma(sigma_c)) / arms
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must be in (0, 1], got {eta}")
    return eta


def _shape_terms(cfg: ExperimentConfig) -> tuple[
        float, float, float, float, float, AlphaBeta]:
    # the xi step and the sigmas of one config:
    # (prefactor, xi, sigma_c, sigma1, sigma2, alpha_beta)
    ab = compute_alpha_beta(cfg.walkoffs)
    xi = cfg.fiber_mode_radius * cfg.inverse_magnification / cfg.pump_waist
    prefactor, kc, k1, k2 = _xi_terms(xi, ab)
    ratio = cfg.crystal_length / cfg.pump_waist
    return prefactor, xi, ratio * kc, ratio * k1, ratio * k2, ab


def shape_params(cfg: ExperimentConfig) -> ShapeParams:
    """Reduce an experiment configuration to its dimensionless shape."""
    _, xi, sigma_c, sigma1, sigma2, ab = _shape_terms(cfg)
    _check_sigmas(sigma_c, sigma1, sigma2)
    return ShapeParams(xi, sigma_c, sigma1, sigma2, alpha_beta=ab)


def eta_closed_form(sp: ShapeParams) -> EfficiencyResult:
    """Closed-form coupling efficiency from the shape parameters.

    The sigma -> 0 limits are taken through the series form of
    erf(sigma)/sigma, so the result stays finite down to zero crystal
    length, where it equals the pure mode-matching prefactor
    4 (1+xi^2)/(2+xi^2)^2.
    """
    # a hand-built ShapeParams skips the xi step: xi*xi underflowing gives
    # the xi -> 0 limit, and only xi**4 overflowing is out of reach
    try:
        prefactor = _prefactor(sp.xi * sp.xi)
    except OverflowError:
        raise DomainError(f"xi={sp.xi} too extreme to evaluate") from None
    return EfficiencyResult(
        eta=_eta(prefactor, sp.sigma_c, sp.sigma1, sp.sigma2), shape=sp)


def efficiency(cfg: ExperimentConfig) -> EfficiencyResult:
    """Convenience wrapper: shape_params followed by eta_closed_form.

    Runs as one pass that keeps the xi step's prefactor; the result and
    any error are the same as those of the two calls.
    """
    # sigmas that pass _eta's check always make a valid ShapeParams
    prefactor, xi, sigma_c, sigma1, sigma2, ab = _shape_terms(cfg)
    eta = _eta(prefactor, sigma_c, sigma1, sigma2)
    return EfficiencyResult(
        eta=eta, shape=ShapeParams(xi, sigma_c, sigma1, sigma2, alpha_beta=ab))


# ---------------------------------------------------------------------------
# experimental bookkeeping
# ---------------------------------------------------------------------------

def _check_unit_interval(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{name} must be in (0, 1], got {value}")
    return value


def effective_to_raw(eta_fc: float, eta_det: float, t_filter: float) -> float:
    """Raw measured coincidence efficiency from the effective coupling.

    Multiplies the fiber-coupling efficiency by the detector efficiency
    and the filter transmittance.
    """
    eta_fc = _check_unit_interval("eta_fc", eta_fc)
    eta_det = _check_unit_interval("eta_det", eta_det)
    t_filter = _check_unit_interval("t_filter", t_filter)
    return eta_fc * eta_det * t_filter


def raw_to_effective(eta_raw: float, eta_det: float, t_filter: float) -> float:
    """Effective coupling implied by a raw coincidence efficiency.

    Inverse of :func:`effective_to_raw`; raises if the implied coupling
    exceeds 1 (inconsistent bookkeeping).
    """
    eta_raw = _check_unit_interval("eta_raw", eta_raw)
    eta_det = _check_unit_interval("eta_det", eta_det)
    t_filter = _check_unit_interval("t_filter", t_filter)
    eta_fc = eta_raw / (eta_det * t_filter)
    if eta_fc > 1.0:
        raise DomainError(
            f"implied coupling efficiency {eta_fc} exceeds 1; "
            "raw value inconsistent with the loss chain")
    return eta_fc
