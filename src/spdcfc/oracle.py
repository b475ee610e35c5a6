"""Numerical coupling efficiency straight from the overlap integrals.

This module re-derives the efficiency without the closed-form algebra,
as a cross-check.  Pairs are born together wherever the pump lights the
crystal; while propagating to the exit face they drift apart
transversely (polarization walk-off plus the opening of the emission
cones).  The time difference between the two detection events maps
one-to-one onto the birth depth through the group-delay mismatch rate,
so substituting tau = t/D turns the time integral into an integral over
birth depth tau in [0, L] and removes every temporal quantity.  The
pump's temporal envelope multiplies numerator and denominator
identically and cancels in the ratio.

After back-imaging the fiber modes onto the crystal plane (Gaussian,
radius w*mu), the locality of pair creation fixes one transverse
coordinate to the other, leaving per-depth overlap densities of three
Gaussians.  The transverse drift per unit depth is governed by three
vectors: the pair-separation vector (walk-off of the extraordinary
photon plus twice the cone term, which points out of the walk-off
plane), the pump-offset vector, and their per-arm combinations.  Only
their magnitudes enter, so each 2-D integral factorizes into one shifted
axis and one unshifted axis, both integrated on the same grid here.

Quadrature: Gauss-Legendre along the crystal (the emission window in
depth is a hard box), wide trapezoid transversely.  The estimated
relative error comes from doubling every grid.  The Gauss-Legendre rule
is built once per size and cached.  Each product of depth-shifted
Gaussians takes one exponential over the grid, of its combined
quadratic exponent; the unshifted factors and the trapezoid weights
enter the row sums as one vector.  Results are deterministic for a
fixed QuadratureSpec (fixed summation order).

numpy is imported inside the functions that integrate, so importing
this module (and the package) does not load it; only a quadrature does.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .core import ExperimentConfig, WalkOffSet
from .errors import ConvergenceError, DomainError

# Bounds on a QuadratureSpec: the last refinement builds a 4 n_tau point
# rule (through a (4 n_tau)^2 matrix) and a (4 n_tau) x (4 n_trans) grid.
MAX_N_TAU = 512
MAX_GRID_POINTS = 2 ** 22  # elements of that grid, 32 MiB as float64


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid and tolerance controls for the numerical overlap integrals.

    n_tau: Gauss-Legendre points along the crystal length, at most
        MAX_N_TAU.
    n_trans: trapezoid points per transverse axis; n_tau * n_trans is
        at most MAX_GRID_POINTS / 16, the refinements' growth.
    extent_factor: transverse half-width in units of max(w*mu, r_p).
    target_rel_err: refinement goal for the estimated relative error.
    """

    n_tau: int = 64
    n_trans: int = 96
    extent_factor: float = 6.0
    target_rel_err: float = 1e-5

    def __post_init__(self):
        for name in ("n_tau", "n_trans"):
            n = getattr(self, name)
            try:
                if isinstance(n, bool):  # an int, but not a count
                    raise TypeError
                object.__setattr__(self, name, operator.index(n))
            except TypeError:  # a float, None, text, ...
                raise DomainError(f"{name} must be an integer, got {n!r}") from None
        if self.n_tau < 8:
            raise DomainError(f"n_tau must be >= 8, got {self.n_tau}")
        if self.n_trans < 16:
            raise DomainError(f"n_trans must be >= 16, got {self.n_trans}")
        if (self.n_tau > MAX_N_TAU
                or 16 * self.n_tau * self.n_trans > MAX_GRID_POINTS):
            raise DomainError(
                f"grid too large: n_tau={self.n_tau}, n_trans={self.n_trans} "
                f"(n_tau <= {MAX_N_TAU}, n_tau * n_trans <= "
                f"{MAX_GRID_POINTS // 16})")
        if not math.isfinite(self.extent_factor):
            raise DomainError(
                f"extent_factor must be finite, got {self.extent_factor}")
        if self.extent_factor < 4.0:
            raise DomainError(
                f"extent_factor must be >= 4, got {self.extent_factor}")
        if not 0.0 < self.target_rel_err < 1.0:
            raise DomainError("target_rel_err must be in (0, 1)")


@dataclass(frozen=True)
class OracleResult:
    """Quadrature efficiency with its refinement-based error estimate.

    pieces holds the unnormalized probability integrals
    (pair, singles arm 1, singles arm 2).
    """

    eta_numeric: float
    est_rel_err: float
    pieces: tuple[float, float, float]

    def __post_init__(self):
        p12, p1, p2 = self.pieces
        if not (p12 > 0.0 and p1 > 0.0 and p2 > 0.0):
            raise DomainError(f"probability integrals must be > 0: {self.pieces}")
        # 1e-9 slack on the Cauchy-Schwarz bound for float roundoff
        if not 0.0 < self.eta_numeric <= 1.0 + self.est_rel_err + 1e-9:
            raise DomainError(
                f"eta_numeric {self.eta_numeric} outside (0, 1 + est_rel_err]")


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's rule, built once per size and shared read-only; under
    # MAX_N_TAU the cache holds at most 8 * 2 * 2048 floats
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _drift_rates(w: WalkOffSet) -> tuple[float, float, float, float]:
    """Transverse drift per unit birth depth, as vector magnitudes.

    The cone term is perpendicular to the walk-off axis, hence the
    quadrature sums.  Returns (pair separation, pump offset from the
    pair midpoint x2, arm-1 separation, arm-2 separation).
    """
    pair_sep = math.hypot(w.m, 2.0 * w.q_over_k)
    pump_off2 = abs(2.0 * w.m_p - w.m)
    arm1 = math.hypot(w.m_p, w.q_over_k)
    arm2 = math.hypot(w.m_p - w.m, w.q_over_k)
    return pair_sep, pump_off2, arm1, arm2


def _transverse_grid(cfg: ExperimentConfig, n_trans: int,
                     extent_factor: float) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    back_imaged = cfg.fiber_mode_radius * cfg.inverse_magnification
    half_width = extent_factor * max(back_imaged, cfg.pump_waist)
    x = np.linspace(-half_width, half_width, n_trans)
    weights = np.full(n_trans, x[1] - x[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return x, weights


def _gauss_rows(taus: np.ndarray, x: np.ndarray, vec: np.ndarray,
                coef: float, rate: float) -> np.ndarray:
    """Row sums of vec(x) * exp(-coef * (x - rate * tau)**2), one per tau.

    The oracle's one 2-D kernel, worked in place: a fresh 2-D temporary
    per step costs more than its arithmetic.
    """
    import numpy as np

    rows = x - rate * taus[:, None]
    rows *= rows
    rows *= -coef
    np.exp(rows, out=rows)
    rows *= vec
    return rows.sum(axis=1)


def _exponent_coefs(cfg: ExperimentConfig) -> tuple[float, float, float]:
    # mode(x) = exp(-a x^2) / sqrt(sqrt(pi) w mu), the unit-normalized fiber
    # mode back-imaged onto the crystal plane, and pump(x) = exp(-b x^2),
    # whose normalization cancels in the ratio; returns (a, b, mode norm^2)
    radius = cfg.fiber_mode_radius * cfg.inverse_magnification
    return (0.5 / (radius * radius), 0.5 / (cfg.pump_waist * cfg.pump_waist),
            1.0 / (math.sqrt(math.pi) * radius))


def _pair_density_rows(cfg: ExperimentConfig, taus: np.ndarray,
                       x: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Pair overlap density at each birth depth (includes the idle axis)."""
    import numpy as np

    pair_sep, pump_off2, _, _ = _drift_rates(cfg.walkoffs)
    a, b, norm_sq = _exponent_coefs(cfg)
    # mode(x) mode(x - pair_sep tau) pump(x - c tau), the pump pump_off2/2
    # beyond the pair midpoint: c = (pair_sep + pump_off2)/2.  The shifted
    # exponent a (x - pair_sep tau)^2 + b (x - c tau)^2 is
    # coef (x - rate tau)^2 + decay tau^2.
    coef = a + b
    rate = (a * pair_sep + 0.5 * b * (pair_sep + pump_off2)) / coef
    decay = a * b * (0.5 * (pair_sep - pump_off2)) ** 2 / coef
    mode_w = norm_sq * np.exp(-a * (x * x)) * tw
    n_x = np.exp(-decay * (taus * taus)) * _gauss_rows(taus, x, mode_w,
                                                        coef, rate)
    n_y = float((mode_w * np.exp(-coef * (x * x))).sum())
    return n_x * n_y


def pair_overlap_density(cfg: ExperimentConfig, tau: float,
                         spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Overlap density of the pair with both fiber modes at birth depth tau.

    Real-valued for the Gaussian profiles used here; maximal at tau = 0
    and constant in tau when all drift rates vanish.
    """
    if not 0.0 <= tau <= cfg.crystal_length:
        raise DomainError(
            f"tau must lie in [0, {cfg.crystal_length}], got {tau}")
    import numpy as np

    x, tw = _transverse_grid(cfg, spec.n_trans, spec.extent_factor)
    return float(_pair_density_rows(cfg, np.array([tau]), x, tw)[0])


def _eta_on_grid(cfg: ExperimentConfig, n_tau: int, n_trans: int,
                 extent_factor: float) -> tuple[float, float, float, float]:
    """One full quadrature pass; returns (eta, p12, p1, p2)."""
    import numpy as np

    _, _, arm1, arm2 = _drift_rates(cfg.walkoffs)
    x, tw = _transverse_grid(cfg, n_trans, extent_factor)
    nodes, gl_weights = _gauss_legendre(n_tau)
    length = cfg.crystal_length
    taus = 0.5 * length * (nodes + 1.0)
    tau_w = 0.5 * length * gl_weights

    p12 = float((tau_w * _pair_density_rows(cfg, taus, x, tw) ** 2).sum())

    # singles: mode(x)^2 pump(x - rate tau)^2, the pump squared as exp(-2b d^2)
    a, b, norm_sq = _exponent_coefs(cfg)
    mode_sq_w = norm_sq * np.exp(-2.0 * a * (x * x)) * tw
    idle = float((mode_sq_w * np.exp(-2.0 * b * (x * x))).sum())

    def singles(rate: float) -> float:
        rows = _gauss_rows(taus, x, mode_sq_w, 2.0 * b, rate)
        return float((tau_w * rows * idle).sum())

    p1 = singles(arm1)
    p2 = singles(arm2)
    return p12 / math.sqrt(p1 * p2), p12, p1, p2


def eta_numeric(cfg: ExperimentConfig,
                spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Coupling efficiency by quadrature, refined until the estimate holds.

    Evaluates on the requested grids, then on doubled grids; the
    relative change is the error estimate.  Doubles once more if needed;
    failing that raises ConvergenceError carrying both values.
    """
    etas = [_eta_on_grid(cfg, spec.n_tau, spec.n_trans,
                         spec.extent_factor)[0]]
    for scale in (2, 4):
        eta, p12, p1, p2 = _eta_on_grid(cfg, spec.n_tau * scale,
                                        spec.n_trans * scale,
                                        spec.extent_factor)
        est = abs(eta - etas[-1]) / abs(eta)
        if est <= spec.target_rel_err:
            return OracleResult(eta_numeric=eta, est_rel_err=est,
                                pieces=(p12, p1, p2))
        etas.append(eta)
    raise ConvergenceError(
        f"oracle did not converge to {spec.target_rel_err:g} after two "
        f"refinements: last values {etas[-2]:.9g} and {etas[-1]:.9g} "
        f"(est_rel_err {est:.3g})",
        eta_coarse=etas[-2], eta_fine=etas[-1], est_rel_err=est)
