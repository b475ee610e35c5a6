"""Walk-off and group-delay numbers from a uniaxial index model.

Sellmeier coefficients are data, not code: they ship in a versioned JSON
file (see ``data/bbo_sellmeier.json``) with a literature citation, and
users may point the tools at their own file.  The supported dispersion
form is

    "sellmeier-1":  n^2 = c0 + c1 / (lambda^2 - c2) - c3 * lambda^2

with the wavelength in micrometres.  A model is accepted only if, over
its whole validity range, neither polarization has a pole, both n^2 are
finite floats, both indices are real and > 1, and n_o >= n_e (negative
uniaxial or isotropic materials).  Finiteness is decided from a bound on
each term of n^2 over the range; each of the others exactly, from the
least value of a polynomial in lambda^2 over the range.

The geometry is degenerate: its generated wavelength is not an input
but is derived as twice the pump.

The cut angle defaults to 42.9 deg for the bundled BBO data.  That value
is a package default chosen to reproduce common type-II geometries near
415 nm pumping, not a measured quantity; an auxiliary bisection solver
for the collinear degenerate phase-matching angle is provided.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

# DEFAULT_CUT_ANGLE_DEG is defined in core and re-exported from here
from .core import (DEFAULT_CUT_ANGLE_DEG, WalkOffSet, _check_fields,
                   _require_finite, _require_in, _require_numbers,
                   _require_order, _require_pair, _require_record)
from .errors import DomainError, WavelengthRangeError

# Width at which the phase-matching bisection stops.  Far above the float
# spacing of angles below pi/2 (~2e-16), so the halving always ends.
_ANGLE_TOL_RAD = 1e-6

_C_UM_PER_FS = 0.299792458  # speed of light


@dataclass(frozen=True)
class IndexModel:
    """Principal refractive indices of a uniaxial crystal.

    ``ordinary`` and ``extraordinary`` are sellmeier-1 coefficient lists
    [c0, c1, c2, c3]; ``range_um`` is the wavelength validity interval.
    All three are stored as tuples of floats.  Only the sellmeier-1 form
    exists; the file loader refuses any other.
    """

    material: str
    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    range_um: tuple[float, float]
    citation: str = ""

    def __post_init__(self):
        for name, size in (("ordinary", 4), ("extraordinary", 4),
                           ("range_um", 2)):
            object.__setattr__(self, name, _require_numbers(
                name, getattr(self, name), size))
        lo, hi = self.range_um
        _require_order("range_um", [self.range_um], "0 < lo < hi")
        u_lo, u_hi = lo * lo, hi * hi
        for name in ("ordinary", "extraordinary"):
            c0, c1, c2, c3 = getattr(self, name)
            # a pole (lambda^2 = c2) inside the range, refused even when
            # c1 = 0; outside it, u - c2 keeps one sign on the range
            if u_lo <= c2 <= u_hi:
                raise DomainError(
                    f"{self.material}: {name} Sellmeier pole at "
                    f"{math.sqrt(c2):.4f} um inside the range [{lo}, {hi}]")
            # n^2 finite: each term is at most its bound on the range, and
            # rounding is monotone, so no evaluation of the form overflows
            if not (abs(c0) + abs(c1) / min(abs(u_lo - c2), abs(u_hi - c2))
                    + abs(c3) * u_hi) < math.inf:
                raise DomainError(f"{self.material}: {name} n^2 is not finite "
                                  f"on the range [{lo}, {hi}]")
        # n real and > 1 across the range, and n_o >= n_e (negative
        # uniaxial or isotropic; positive uniaxial is out of scope),
        # decided exactly: with u = lambda^2 and u - c2 of one sign on the
        # range, (n^2 - 1)(u - c2) is a quadratic in u and
        # (n_o^2 - n_e^2)(u - c2o)(u - c2e) a cubic, each signed to be
        # positive where its condition holds
        both = 1.0  # the sign of (u - c2o)(u - c2e)
        for c0, c1, c2, c3 in (self.ordinary, self.extraordinary):
            sign = 1.0 if c2 < u_lo else -1.0
            both *= sign
            least, u = _least(sign, u_lo, u_hi, 0.0, -c3, c0 - 1.0 + c3 * c2,
                              c1 - (c0 - 1.0) * c2)
            if not least > 0.0:
                raise DomainError(f"{self.material}: index not real and > 1 "
                                  f"at {math.sqrt(u):.4f} um")
        coeffs = _cubic(*self.ordinary, *self.extraordinary)
        if not all(map(math.isfinite, coeffs)):
            # a product past the float range (poles far from the range):
            # the same cubic exactly, scaled by a positive number so that
            # its largest coefficient is +-1
            from fractions import Fraction
            exact = _cubic(*map(Fraction, self.ordinary + self.extraordinary))
            top = max(map(abs, exact)) or 1
            coeffs = [float(k / top) for k in exact]
        least, u = _least(both, u_lo, u_hi, *coeffs)
        if not least >= 0.0:
            raise DomainError(
                f"{self.material}: n_o < n_e at {math.sqrt(u):.4f} um; "
                "only negative uniaxial crystals are supported")


def _cubic(c0o, c1o, c2o, c3o, c0e, c1e, c2e, c3e) -> tuple:
    # (n_o^2 - n_e^2)(u - c2o)(u - c2e) as its coefficients of u^3, u^2, u
    # and 1, in floats or in fractions
    d0, d3, total, product = c0o - c0e, c3o - c3e, c2o + c2e, c2o * c2e
    return (-d3, d0 + d3 * total, c1o - c1e - d0 * total - d3 * product,
            d0 * product + c1e * c2o - c1o * c2e)


def _least(sign: float, u_lo: float, u_hi: float,
           *coeffs: float) -> tuple[float, float]:
    # (p(u), u) at the least p over [u_lo, u_hi], for the cubic
    # p = sign (k3 u^3 + k2 u^2 + k1 u + k0): at an end, or at a real root
    # of p' = a u^2 + b u + c, both roots taken in the form that does not
    # cancel (a = 0 leaves the one root -c/b)
    k3, k2, k1, k0 = (sign * k for k in coeffs)
    a, b, c = 3.0 * k3, 2.0 * k2, k1
    points = [u_lo, u_hi]
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        points += [q / a] if a else []
        points += [c / q] if q else []
    return min((((k3 * u + k2) * u + k1) * u + k0, u)
               for u in points if u_lo <= u <= u_hi)


def _sellmeier1(coeffs: tuple[float, ...], lam: float) -> float:
    c0, c1, c2, c3 = coeffs
    l2 = lam * lam
    return c0 + c1 / (l2 - c2) - c3 * l2


def _check_range(model: IndexModel, lam: float) -> float:
    # returns lam, read by core's number rule, once model is known to be
    # an IndexModel: every index function reads its model here first
    _require_record("model", model, IndexModel)
    lam = _require_finite("lam", lam)
    lo, hi = model.range_um
    if not lo <= lam <= hi:
        raise WavelengthRangeError(
            f"{lam} um outside validity range [{lo}, {hi}] of {model.material}")
    return lam


def ordinary_index(model: IndexModel, lam: float) -> float:
    """Ordinary principal index n_o(lambda)."""
    lam = _check_range(model, lam)
    return math.sqrt(_sellmeier1(model.ordinary, lam))


def principal_extraordinary_index(model: IndexModel, lam: float) -> float:
    """Extraordinary principal index n_e(lambda) at 90 deg to the axis."""
    lam = _check_range(model, lam)
    return math.sqrt(_sellmeier1(model.extraordinary, lam))


def _extraordinary(model: IndexModel, lam: float, theta: float) -> tuple:
    # the angled index functions' one checked Sellmeier evaluation:
    # (theta, n_o^2, n_e^2, n(theta)), with lam checked against the range
    # and then theta read through core's rule
    lam = _check_range(model, lam)
    theta = _require_finite("theta", theta)
    n_o2 = _sellmeier1(model.ordinary, lam)
    n_e2 = _sellmeier1(model.extraordinary, lam)
    c, s = math.cos(theta), math.sin(theta)
    return theta, n_o2, n_e2, 1.0 / math.sqrt(c * c / n_o2 + s * s / n_e2)


def extraordinary_index(model: IndexModel, lam: float, theta: float) -> float:
    """Extraordinary index at angle theta between wave-vector and optic axis.

    1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2; equals n_o at
    theta = 0 and the principal n_e at theta = pi/2.
    """
    return _extraordinary(model, lam, theta)[3]


def walk_off_tangent(model: IndexModel, lam: float, theta: float) -> float:
    """Magnitude of the Poynting walk-off tangent of the extraordinary ray.

    tan(rho) = (n_e(theta)^2 / 2) sin(2 theta) (1/n_e^2 - 1/n_o^2),
    returned as a magnitude; zero along and perpendicular to the axis.
    """
    theta, n_o2, n_e2, n = _extraordinary(model, lam, theta)
    try:
        sin2 = math.sin(2.0 * theta)
    except ValueError:  # 2 theta overflowed, from |theta| ~ 9e307 on
        sin2 = 2.0 * math.sin(theta) * math.cos(theta)
    return abs(0.5 * _power(model, lam, n, 2) * sin2
               * (1.0 / n_e2 - 1.0 / n_o2))


def _power(model: IndexModel, lam: float, n: float, k: int) -> float:
    # n**k of an index n at lam, or a DomainError where it overflows: a
    # finite n^2 can still round past the float range at an angle, and
    # n^3 leaves it from n ~ 5.6e102 on
    try:
        return n ** k
    except OverflowError:
        raise DomainError(f"{model.material}: index {n} at {lam} um: n^{k} "
                          "is past the float range") from None


@dataclass(frozen=True)
class PhaseMatchGeometry:
    """Wavelengths and angles of the degenerate down-conversion geometry.

    Wavelengths in micrometres, angles in radians.  The generated
    wavelength is derived, twice the pump (degenerate operation only).
    """

    pump_wavelength: float
    cut_angle: float
    external_cone_angle: float

    def __post_init__(self):
        _check_fields(self, ("pump_wavelength",), "> 0")
        _check_fields(self, ("cut_angle",), "in (0, pi/2)")
        _check_fields(self, ("external_cone_angle",), "in [0, pi/2)")

    @property
    def degenerate_wavelength(self) -> float:
        """Wavelength of each generated photon, twice the pump."""
        return 2.0 * self.pump_wavelength

    @classmethod
    def degenerate(cls, pump_wavelength: float, cut_angle: float,
                   external_cone_angle: float) -> "PhaseMatchGeometry":
        return cls(pump_wavelength, cut_angle, external_cone_angle)


@dataclass(frozen=True)
class TemporalParams:
    """Group-delay mismatch rates in fs/um.

    d: ordinary-vs-extraordinary rate of the generated pair.
    lam: pump vs pair-average rate.  Informational only; both cancel out
    of the spatial coupling efficiency.
    """

    d: float
    lam: float

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, _require_finite(name, value))


def q_over_kbar(geometry: PhaseMatchGeometry, n_bar: float) -> float:
    """Normalized transverse phase-matching wave-vector.

    Refracts the external cone angle into the crystal and returns the
    sine of the internal angle, sin(asin(sin(ext)/n_bar)).  n_bar = 1
    is allowed as the vacuum (no-refraction) limit.
    """
    _require_record("geometry", geometry, PhaseMatchGeometry)
    n_bar = _require_in("n_bar", n_bar, ">= 1")
    s = math.sin(geometry.external_cone_angle) / n_bar
    if abs(s) >= 1.0:
        raise DomainError("external cone angle does not refract into the crystal")
    return math.sin(math.asin(s))


def _slope(coeffs: tuple[float, ...], u: float) -> float:
    # -d(n^2)/du of the sellmeier-1 form, with u = lambda^2
    c0, c1, c2, c3 = coeffs
    try:
        return c1 / (u - c2) ** 2 + c3
    except OverflowError:  # a pole far from the range: divide twice
        return c1 / (u - c2) / (u - c2) + c3


def _group_index(model: IndexModel, lam: float, theta: float) -> float:
    # n_g = n - lambda dn/dlambda at angle theta, exactly: with u = lambda^2
    # and S = -d(n^2)/du, 1/n^2 = cos^2/n_o^2 + sin^2/n_e^2 gives
    # lambda dn/dlambda = -u n^3 (cos^2 S_o/n_o^4 + sin^2 S_e/n_e^4);
    # theta = 0 is the ordinary ray
    theta, n_o2, n_e2, n = _extraordinary(model, lam, theta)
    u = lam * lam
    c, s = math.cos(theta), math.sin(theta)
    return n + u * _power(model, lam, n, 3) * (
        c * c * _slope(model.ordinary, u) / (n_o2 * n_o2)
        + s * s * _slope(model.extraordinary, u) / (n_e2 * n_e2))


def group_delay_params(model: IndexModel,
                       geometry: PhaseMatchGeometry) -> TemporalParams:
    """Group-delay mismatch rates D and Lambda of the geometry.

    Inverse group velocities are n_g/c, with the group index from the
    exact derivative of the Sellmeier form; the pump travels as an
    extraordinary ray at the cut angle.  Only the pump and pair
    wavelengths themselves must lie in the model's range.
    """
    _require_record("geometry", geometry, PhaseMatchGeometry)
    lam_p = geometry.pump_wavelength
    lam_d = geometry.degenerate_wavelength
    theta = geometry.cut_angle
    inv_u_o = _group_index(model, lam_d, 0.0) / _C_UM_PER_FS
    inv_u_e = _group_index(model, lam_d, theta) / _C_UM_PER_FS
    inv_u_p = _group_index(model, lam_p, theta) / _C_UM_PER_FS
    return TemporalParams(d=inv_u_o - inv_u_e,
                          lam=inv_u_p - 0.5 * (inv_u_o + inv_u_e))


def build_walkoff_set(model: IndexModel,
                      geometry: PhaseMatchGeometry) -> WalkOffSet:
    """Walk-off numbers of the geometry from the index model.

    The pump walk-off is evaluated at the pump wavelength, the generated
    one at the degenerate wavelength, both at the cut angle.  The mean
    generated wave-vector uses the harmonic mean of the ordinary and
    angled extraordinary indices at the degenerate wavelength.
    """
    _require_record("geometry", geometry, PhaseMatchGeometry)
    m_p = walk_off_tangent(model, geometry.pump_wavelength, geometry.cut_angle)
    m = walk_off_tangent(model, geometry.degenerate_wavelength,
                         geometry.cut_angle)
    n_o = ordinary_index(model, geometry.degenerate_wavelength)
    n_e = extraordinary_index(model, geometry.degenerate_wavelength,
                              geometry.cut_angle)
    n_bar = 2.0 * n_o * n_e / (n_o + n_e)
    return WalkOffSet(m_p=m_p, m=m, q_over_k=q_over_kbar(geometry, n_bar))


def phase_match_angle(model: IndexModel, pump_wavelength: float,
                      bracket_deg: tuple[float, float] = (30.0, 60.0)) -> float:
    """Collinear degenerate type-II phase-matching angle, by bisection.

    Solves n_e(theta, lam_p) = (n_o(2 lam_p) + n_e(theta, 2 lam_p)) / 2
    on the bracket (degrees, 0 < lo < hi < 90) to within 1e-6 rad;
    returns theta in radians.  Pumps that phase-match outside the
    default bracket (0.30 um at ~61.4 deg for BBO) need a wider one.
    """
    lam_p = _require_finite("pump_wavelength", pump_wavelength)
    lam_d = 2.0 * lam_p
    lo, hi = _require_pair("bracket_deg", bracket_deg, "0 < lo < hi < 90")

    def mismatch(theta: float) -> float:
        return (extraordinary_index(model, lam_p, theta)
                - 0.5 * (ordinary_index(model, lam_d)
                         + extraordinary_index(model, lam_d, theta)))

    a, b = math.radians(lo), math.radians(hi)
    fa, fb = mismatch(a), mismatch(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise DomainError(f"no phase-matching angle in [{lo}, {hi}] deg")
    while b - a > _ANGLE_TOL_RAD:
        mid = 0.5 * (a + b)
        fm = mismatch(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# index-model data files
# ---------------------------------------------------------------------------

def load_index_model(path: str | Path) -> IndexModel:
    """Load an IndexModel from a JSON Sellmeier data file.

    Expected schema: {"material": str, "citation": str, and for each of
    "ordinary"/"extraordinary" an object {"form": "sellmeier-1",
    "coeffs": [c0, c1, c2, c3], "range_um": [lo, hi]}}.  The model's
    validity range is the intersection of the two polarizations' ranges.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return _model_from_doc(doc, str(path))


def _model_from_doc(doc: dict, origin: str) -> IndexModel:
    # the file's structure, its form and the intersection of the two
    # polarizations' ranges, read with IndexModel's own check; IndexModel
    # checks the rest
    try:
        o, e = doc["ordinary"], doc["extraordinary"]
        o_lo, o_hi = _require_numbers("ordinary.range_um",
                                      o["range_um"], 2)
        e_lo, e_hi = _require_numbers("extraordinary.range_um",
                                      e["range_um"], 2)
        fields = dict(material=doc["material"], ordinary=o["coeffs"],
                      extraordinary=e["coeffs"],
                      range_um=(max(o_lo, e_lo), min(o_hi, e_hi)),
                      citation=str(doc.get("citation", "")))
        forms = [p.get("form", "sellmeier-1") for p in (o, e)]
        if forms != ["sellmeier-1", "sellmeier-1"]:
            raise DomainError(f"unsupported dispersion forms {forms}")
        return IndexModel(**fields)
    except DomainError as exc:
        raise DomainError(f"{origin}: {exc}") from None
    except (AttributeError, KeyError, TypeError) as exc:
        raise DomainError(f"{origin}: malformed Sellmeier file: {exc}") from exc


def bundled_bbo() -> IndexModel:
    """The BBO index model shipped with the package."""
    data = resources.files("spdcfc").joinpath("data/bbo_sellmeier.json")
    return _model_from_doc(json.loads(data.read_text(encoding="utf-8")),
                           "bundled bbo_sellmeier.json")
