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
each part depends on.  The xi step takes w, mu, r_p and the crystal
numbers, forms xi = w*mu/r_p and turns it into the prefactor
4 (1+xi^2)/(2+xi^2)^2 and three rates k, so that each sigma is
(L/r_p) k; it is the one place xi is formed.  Where the product w*mu
leaves the normal float range, by overflow or underflow, xi is formed
from the mantissas and exponents with the same two roundings, so it
has the bits it has on w, mu and r_p scaled by a power of two into
that range.  The length step takes the xi step's terms and L/r_p,
forms the three sigmas and turns them into eta.  Each step checks its
own inputs and results.  The public functions wrap them in the
validated dataclasses; the sweeps run the xi step once per distinct xi
and the length step once per point, on inputs validated once, so both
give the same bits.

The length step runs once per point of every sweep, optimization and
ceiling scan, and there a Python call or a test costs more than its
arithmetic.  So on its common path, no sigma below
``EROS_SERIES_CUTOFF``, it makes no call besides ``math.erf`` and
``math.sqrt`` and runs one test, the range test of eta.  It computes
each erf(sigma)/sigma inline, and hands a small sigma to the Taylor
series, written once.  An infinite sigma has erf(sigma)/sigma = 0 and a
NaN one NaN, so eta then falls outside (0, 1] or its division by the
arms fails; only there are the sigmas and the arms tested, so that each
failure keeps its message.

All lengths are micrometres.  All functions are pure; the dataclasses
are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, NoRealImageError

TWO_OVER_SQRT_PI = 1.1283791670955126  # 2/sqrt(pi)

_SQRT8 = 2.0 * math.sqrt(2.0)

# bound once for the per-point steps below, which look each up per call
_erf = math.erf
_sqrt = math.sqrt
_INF = math.inf

# The least normal float: a product w*mu below it has lost bits.
_NORMAL_MIN = 2.0 ** -1022

# Below this sigma the erf(sigma)/sigma ratio switches to its Taylor series:
# the quotient is 0/0 at sigma = 0 and loses bits at subnormal sigma.
EROS_SERIES_CUTOFF = 1e-4

# The exact eta is at most 1 (Cauchy-Schwarz), and the closed form lands
# within 8 ulps of it; an eta past 1 by no more than 8 ulps of a value
# just below 1 is that rounding, and is returned as 1.
_ETA_ROUNDED_ONE = 1.0 + 8 * 2.0 ** -53

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
    """Error function, ``math.erf``: +-1 at +-inf, and a domain error for
    NaN or a non-number."""
    if x != _INF and x != -_INF:
        x = _require_finite("x", x)
    return _erf(x)


def erf_over_sigma(sigma: float) -> float:
    """erf(sigma)/sigma, continued through sigma = 0 by its Taylor series.

    Returns 2/sqrt(pi) at sigma = 0 and decays monotonically to 0 at
    sigma = inf.
    """
    value = _INF if sigma == _INF else _require_in("sigma", sigma, ">= 0")
    return _erf_over_sigma(value)


def _erf_over_sigma(sigma: float) -> float:
    # erf_over_sigma on a sigma already known to be >= 0 and not NaN
    if sigma < EROS_SERIES_CUTOFF:
        s2 = sigma * sigma
        return TWO_OVER_SQRT_PI * (1.0 - s2 / 3.0 + s2 * s2 / 10.0)
    return _erf(sigma) / sigma


def sigma_over_erf(sigma: float) -> float:
    """sigma/erf(sigma), the reciprocal of :func:`erf_over_sigma`; inf at
    sigma = inf, its limit."""
    if sigma == _INF:
        return _INF
    value = 1.0 / erf_over_sigma(sigma)
    # that overflows only at the largest floats, where erf is exactly 1
    # and the value is sigma itself
    return float(sigma) if value == _INF else value


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _require_finite(name: str, value: float) -> float:
    if type(value) is not float:  # a float, the common case, needs none
        try:
            # float() would parse these as text
            if isinstance(value, (str, bytes, bytearray, memoryview)):
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


def _check_fields(obj, names: tuple[str, ...], rule: str) -> None:
    # each field of a frozen type through _require_in, in order, and
    # stored as the float the check returned, so that the type computes
    # with floats only (an int, a Decimal, a numpy float, ... is replaced)
    for name in names:
        object.__setattr__(obj, name,
                           _require_in(name, getattr(obj, name), rule))


# The number rule, one rule per kind of argument.  A number passes
# _require_finite and, where it has a range, _require_in against the
# range of _RANGES keyed by the text its message prints: it is refused as
# "<name> must be finite, got <value>" when NaN or infinite and as
# "<name> must be <range>, got <value>" outside the range.  An ordered
# pair (lo, hi) passes _require_pair: each item through _require_finite,
# then _require_order with the one order of _ORDERS it names, refused as
# "<name> must satisfy <order>, got (<lo>, <hi>)".  A grid (sweep's
# _validated_grid) is the same two rules in a row: each item "> 0", each
# neighbour pair "0 < lo < hi".  A list of a fixed size passes
# _require_numbers: a list or tuple of that size, item k through
# _require_finite as "<name>[k]".  A count passes _require_count: an
# int, or what operator.index reads as one (a numpy integer), stored as
# an int; never a bool, Python's or numpy's.
_RANGES = {
    "> 0": lambda v: v > 0.0,
    ">= 0": lambda v: v >= 0.0,
    ">= 1": lambda v: v >= 1.0,
    ">= 4": lambda v: v >= 4.0,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in (0, pi/2)": lambda v: 0.0 < v < math.pi / 2.0,
    "in [0, pi/2)": lambda v: 0.0 <= v < math.pi / 2.0,
}


def _require_in(name: str, value: float, rule: str) -> float:
    # the number rule, then the range of _RANGES named by rule
    value = _require_finite(name, value)
    if not _RANGES[rule](value):
        raise DomainError(f"{name} must be {rule}, got {value}")
    return value


_ORDERS = {
    "0 < lo < hi": lambda lo, hi: 0.0 < lo < hi,
    "0 < lo <= hi": lambda lo, hi: 0.0 < lo <= hi,
    "0 < lo < hi < 90": lambda lo, hi: 0.0 < lo < hi < 90.0,
}


def _require_pair(name: str, values, order: str) -> tuple[float, float]:
    # (lo, hi) from values, each item through the number rule as it is
    # met: as when unpacking lo, hi, a bad item among the first three
    # speaks before the count does, and no fourth item is read; then the
    # order of _ORDERS named by order
    try:
        items = iter(values)
    except TypeError:  # None, a bare number, ...
        items = iter(())
    pair = []
    for item in items:
        pair.append(_require_finite(name, item))
        if len(pair) > 2:
            break
    if len(pair) != 2:
        raise DomainError(
            f"{name} must be a pair (lo, hi), got {values!r:.60}")
    lo, hi = pair
    _require_order(name, [pair], order)
    return lo, hi


def _require_order(name: str, pairs, order: str) -> None:
    # each (lo, hi) of pairs in the order of _ORDERS named by order
    holds = _ORDERS[order]
    for lo, hi in pairs:
        if not holds(lo, hi):
            raise DomainError(f"{name} must satisfy {order}, got ({lo}, {hi})")


def _require_numbers(name: str, values, size: int) -> tuple[float, ...]:
    # a list or tuple of size numbers, each through the number rule
    if not isinstance(values, (list, tuple)) or len(values) != size:
        raise DomainError(
            f"{name} must be a list of {size} numbers, got {values!r:.60}")
    return tuple(_require_finite(f"{name}[{k}]", v)
                 for k, v in enumerate(values))


def _require_count(name: str, value, least: int) -> int:
    try:
        # numpy 1.x's operator.index reads a numpy bool as 0 or 1 (with a
        # DeprecationWarning), so its bools are refused by their dtype
        if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
            raise TypeError
        value = operator.index(value)
    except TypeError:  # a float, None, text, ...
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
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
        _check_fields(self, ("m_p", "m", "q_over_k"), "in [0, 1)")


@dataclass(frozen=True)
class AlphaBeta:
    """Quadratic walk-off combinations fixed by the crystal alone."""

    alpha1: float
    alpha2: float
    beta: float

    def __post_init__(self):
        _check_fields(self, ("alpha1", "alpha2", "beta"), ">= 0")


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
        _check_fields(self, ("crystal_length", "pump_waist",
                             "fiber_mode_radius", "inverse_magnification"),
                      "> 0")
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
        _check_fields(self, ("xi",), "> 0")
        _check_fields(self, ("sigma_c", "sigma1", "sigma2"), ">= 0")


@dataclass(frozen=True)
class EfficiencyResult:
    """Coupling efficiency together with the shape parameters behind it."""

    eta: float
    shape: ShapeParams

    def __post_init__(self):
        _check_fields(self, ("eta",), "in (0, 1]")


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
    return _require_in("mfd", mfd, "> 0") / _SQRT8


def pump_waist_from_diameter(d: float) -> float:
    """Pump waist r_p from a 1/e^2 intensity beam diameter, d / (2 sqrt(2))."""
    return _require_in("beam diameter", d, "> 0") / _SQRT8


def magnification(f: float, d_bl: float) -> tuple[float, float]:
    """Inverse magnification and image distance of a thin imaging lens.

    f: focal length; d_bl: object distance (crystal face to lens).  Both
    in the same unit; returns (mu, d_al) with d_al in that unit.
    Requires d_bl > f so a real image forms, and refuses a lens whose mu
    or d_al is not a finite float > 0.
    """
    f = _require_in("focal length", f, "> 0")
    d_bl = _require_finite("d_bl", d_bl)
    if d_bl <= f:
        raise NoRealImageError(
            f"object distance {d_bl} must exceed focal length {f}")
    mu = d_bl / f - 1.0
    diff = 1.0 / f - 1.0 / d_bl
    d_al = 1.0 / diff if diff else _INF
    # diff is 0 where the reciprocals round alike, NaN where both overflow,
    # inf where 1/f alone does (d_al is then 0) and too small to invert
    # where d_al is past the float range; mu overflows where d_bl/f does
    if not (mu < _INF and 0.0 < d_al < _INF):
        what = ("image distance 1/(1/f - 1/d_bl)" if mu < _INF
                else "mu = d_bl/f - 1")
        raise DomainError(
            f"{what} is not a finite float for f={f}, d_bl={d_bl}")
    return mu, d_al


def _prefactor(xi2: float) -> float:
    # the mode-matching factor 4 (1+xi^2)/(2+xi^2)^2, from xi^2
    return 4.0 * (1.0 + xi2) / (2.0 + xi2) ** 2


def _xi_terms(w: float, mu: float, rp: float,
              ab: AlphaBeta) -> tuple[float, ...]:
    # the xi step: (xi, prefactor, kc, k1, k2), with xi = w*mu/r_p and
    # sigma_x = (L/r_p) * k_x
    product = w * mu
    xi = product / rp
    if not (0.0 < xi < _INF and product >= _NORMAL_MIN):
        # w*mu overflowed, underflowed or is subnormal: the normal path's
        # two roundings on the mantissas, then the exponents
        (mw, ew), (mm, em), (mr, er) = map(math.frexp, (w, mu, rp))
        try:
            xi = math.ldexp(mw * mm / mr, ew + em - er)
        except OverflowError:
            xi = _INF
        if not 0.0 < xi < _INF:
            raise DomainError(f"xi must be finite and > 0, got {xi}")
    xi2 = xi * xi
    # 0 once xi*xi underflows, inf once it overflows; the prefactor's
    # (2 + xi2)**2 overflows exactly when this product does
    denominator = xi2 * (2.0 + xi2)
    if not 0.0 < denominator < _INF:
        raise DomainError(f"xi={xi} too extreme to evaluate")
    return (xi, _prefactor(xi2),
            _sqrt(((ab.alpha1 + ab.alpha2) * xi2 + ab.beta) / denominator),
            _sqrt(ab.alpha1 / (1.0 + xi2)),
            _sqrt(ab.alpha2 / (1.0 + xi2)))


def _check_sigmas(sigma_c: float, sigma1: float, sigma2: float) -> None:
    # L/r_p >= 0 and the rates are >= 0, so only inf or NaN can fail here
    if not (sigma_c < _INF and sigma1 < _INF and sigma2 < _INF):
        raise DomainError(
            f"sigmas must be finite, got sigma_c={sigma_c}, "
            f"sigma1={sigma1}, sigma2={sigma2}")


def _eta(terms: tuple[float, ...], ratio: float) -> float:
    # the length step: eta from the xi step's terms and L/r_p, inline on
    # the common path (module docstring); a series sigma goes to
    # _erf_over_sigma
    _, prefactor, kc, k1, k2 = terms
    sigma_c, sigma1, sigma2 = ratio * kc, ratio * k1, ratio * k2
    cut = EROS_SERIES_CUTOFF
    arms = _sqrt(
        (_erf(sigma1) / sigma1 if sigma1 >= cut else _erf_over_sigma(sigma1))
        * (_erf(sigma2) / sigma2 if sigma2 >= cut
           else _erf_over_sigma(sigma2)))
    try:
        eta = prefactor * (_erf(sigma_c) / sigma_c if sigma_c >= cut
                           else _erf_over_sigma(sigma_c)) / arms
    except ZeroDivisionError:  # arms is 0
        eta = 0.0
    if not 0.0 < eta <= 1.0:
        if 1.0 < eta <= _ETA_ROUNDED_ONE:
            return 1.0
        # an infinite sigma has erf(sigma)/sigma = 0 and a NaN one NaN, so
        # each lands here: the sigmas speak first, then the arms
        _check_sigmas(sigma_c, sigma1, sigma2)
        if arms == 0.0:
            raise DomainError(
                f"sigma1={sigma1}, sigma2={sigma2} too extreme to evaluate")
        raise DomainError(f"eta must be in (0, 1], got {eta}")
    return eta


def shape_params(cfg: ExperimentConfig) -> ShapeParams:
    """Reduce an experiment configuration to its dimensionless shape."""
    ab = compute_alpha_beta(cfg.walkoffs)
    xi, _, kc, k1, k2 = _xi_terms(
        cfg.fiber_mode_radius, cfg.inverse_magnification, cfg.pump_waist, ab)
    ratio = cfg.crystal_length / cfg.pump_waist
    sigma_c, sigma1, sigma2 = ratio * kc, ratio * k1, ratio * k2
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
    # the xi -> 0 limit, and only xi**4, the prefactor's (2 + xi^2)**2,
    # overflowing is out of reach
    xi2 = sp.xi * sp.xi
    if xi2 * xi2 == _INF:
        raise DomainError(f"xi={sp.xi} too extreme to evaluate")
    # a ratio of 1.0 leaves every sigma's bits as they are
    return EfficiencyResult(
        eta=_eta((sp.xi, _prefactor(xi2), sp.sigma_c, sp.sigma1, sp.sigma2),
                 1.0),
        shape=sp)


def efficiency(cfg: ExperimentConfig) -> EfficiencyResult:
    """Closed-form coupling efficiency of a configuration: shape_params
    followed by eta_closed_form."""
    return eta_closed_form(shape_params(cfg))


# ---------------------------------------------------------------------------
# experimental bookkeeping
# ---------------------------------------------------------------------------

def effective_to_raw(eta_fc: float, eta_det: float, t_filter: float) -> float:
    """Raw measured coincidence efficiency from the effective coupling.

    Multiplies the fiber-coupling efficiency by the detector efficiency
    and the filter transmittance.
    """
    return (_require_in("eta_fc", eta_fc, "in (0, 1]")
            * _require_in("eta_det", eta_det, "in (0, 1]")
            * _require_in("t_filter", t_filter, "in (0, 1]"))


def raw_to_effective(eta_raw: float, eta_det: float, t_filter: float) -> float:
    """Effective coupling implied by a raw coincidence efficiency.

    Inverse of :func:`effective_to_raw`; raises if the implied coupling
    exceeds 1 (inconsistent bookkeeping).
    """
    eta_raw = _require_in("eta_raw", eta_raw, "in (0, 1]")
    eta_det = _require_in("eta_det", eta_det, "in (0, 1]")
    t_filter = _require_in("t_filter", t_filter, "in (0, 1]")
    if eta_det * t_filter == 0.0:  # both are > 0: the product underflowed
        raise DomainError(f"eta_det * t_filter underflows to 0, got "
                          f"{eta_det} * {t_filter}")
    eta_fc = eta_raw / (eta_det * t_filter)
    if eta_fc > 1.0:
        raise DomainError(
            f"implied coupling efficiency {eta_fc} exceeds 1; "
            "raw value inconsistent with the loss chain")
    return eta_fc
