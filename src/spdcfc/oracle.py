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

Quadrature: Gauss-Legendre in depth (the emission window is a hard box
at L), wide trapezoid transversely.  Each of the three depth integrals
(the pair, and each singles arm) falls as a Gaussian exp(-g tau^2) and
takes the rule on its own range [0, min(L, sqrt(40 / g))], past which
its integrand is below exp(-40) of its value at the entry face; g is
formed once per config, from the same coefficients as the kernel's.
The estimated relative error comes from doubling every grid.  The
Gauss-Legendre rule is built once per size and cached.  Each product of
depth-shifted Gaussians takes one exponential over the grid, of its
combined quadratic exponent; the unshifted factors and the trapezoid
weights enter the row sums as one vector.  A level's three such Gaussians
(pair, arm 1, arm 2) stack into one array per kernel pass, as many as
fit in 1 MiB: all three while a block is at most 1/3 MiB, so each step
of the kernel runs once per level; a pass of two and then a pass of
one up to 1/2 MiB (n_tau * n_trans = 49,152, for example); one per
pass beyond that.  The shifted differences (exact) and the row sums
are BLAS matrix products, and the row sums add in the BLAS build's
order: results are deterministic for a fixed QuadratureSpec on one
numpy/BLAS build, and the tests check that they do not depend on the
number of BLAS threads.  Lanes far off design, whose exponent falls
below ln(DBL_MIN) ~ -708.4, take numpy's slower per-lane exp; a
transverse grid centred on each depth row would leave none.

numpy is imported inside the functions that integrate, so importing
this module (and the package) does not load it; only a quadrature does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (ExperimentConfig, WalkOffSet, _check_fields, _require_count,
                   _require_finite, _require_in, _require_numbers)
from .errors import ConvergenceError, DomainError

# Bounds on a QuadratureSpec: the last refinement builds a 4 n_tau point
# rule (through a (4 n_tau)^2 matrix) and a (4 n_tau) x (4 n_trans) grid.
# A kernel pass holds one Gaussian block on that grid, or several that
# fit in _PASS_ELEMENTS, so the refinement's peak allocation is about
# one block: 32 MiB at the cap.
MAX_N_TAU = 512
MAX_GRID_POINTS = 2 ** 22  # elements of that grid, 32 MiB as float64

# float64s per kernel pass, 1 MiB: the three blocks of each of the
# default spec's levels (at most 516 KiB, at its third) stack into one
# pass, while at n_tau = 64 the third level (768 KiB per block) takes
# one block per pass.  A stack that spills out of a core's cache costs
# more per entry than its blocks one by one: that level fully stacked
# ran ~35% slower on a machine with 2 MiB of L2 per core.
_PASS_ELEMENTS = 2 ** 17

_TINY = 2.0 ** -1022  # the smallest normal float

# A depth integral ends where its Gaussian in tau, exp(-g tau^2), has
# fallen to exp(-40): at sqrt(40 / g).
_DEPTH_REACH = math.sqrt(40.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid and tolerance controls for the numerical overlap integrals.

    n_tau: Gauss-Legendre points per depth integral (the pair and each
        singles arm), each on its own range [0, t] with t <= L, where
        its integrand has fallen to exp(-40); at most MAX_N_TAU.  The
        default 14 is the least that keeps the reference design's
        est_rel_err below 1e-12, with the README's walk-offs and with
        the bundled BBO ones.
    n_trans: trapezoid points per transverse axis; n_tau * n_trans is
        at most MAX_GRID_POINTS / 16, the refinements' growth.  The
        last refinement then peaks at about 8 * 16 * n_tau * n_trans
        bytes (one Gaussian block, or 1 MiB of stacked smaller ones),
        32 MiB at the cap.
    extent_factor: transverse half-width in units of max(w*mu, r_p).
    target_rel_err: refinement goal for the estimated relative error.
    """

    n_tau: int = 14
    n_trans: int = 96
    extent_factor: float = 6.0
    target_rel_err: float = 1e-5

    def __post_init__(self):
        for name, least in (("n_tau", 8), ("n_trans", 16)):
            object.__setattr__(self, name, _require_count(
                name, getattr(self, name), least))
        if (self.n_tau > MAX_N_TAU
                or 16 * self.n_tau * self.n_trans > MAX_GRID_POINTS):
            raise DomainError(
                f"grid too large: n_tau={self.n_tau}, n_trans={self.n_trans} "
                f"(n_tau <= {MAX_N_TAU}, n_tau * n_trans <= "
                f"{MAX_GRID_POINTS // 16})")
        _check_fields(self, ("extent_factor",), ">= 4")
        _check_fields(self, ("target_rel_err",), "in (0, 1)")


@dataclass(frozen=True)
class OracleResult:
    """Quadrature efficiency with its refinement-based error estimate.

    pieces holds the unnormalized probability integrals
    (pair, singles arm 1, singles arm 2).  Each field is read by core's
    number rule and stored as floats: est_rel_err >= 0, pieces three
    numbers > 0, and eta_numeric in (0, 1 + est_rel_err].
    """

    eta_numeric: float
    est_rel_err: float
    pieces: tuple[float, float, float]

    def __post_init__(self):
        _check_fields(self, ("eta_numeric", "est_rel_err"), ">= 0")
        object.__setattr__(self, "pieces", tuple(map(
            _require_in, ("pieces[0]", "pieces[1]", "pieces[2]"),
            _require_numbers("pieces", self.pieces, 3), ("> 0",) * 3)))
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


@functools.lru_cache(maxsize=3)
def _unit_grid(n_trans: int) -> tuple[np.ndarray, np.ndarray]:
    # 0, 1, ..., n_trans - 1 and the trapezoid weights 1/2, 1, ..., 1, 1/2,
    # in units of the grid step; shared read-only, one spec's three levels
    # at most 3 * 2 * 131,072 floats (6 MiB) under MAX_GRID_POINTS
    import numpy as np

    steps = np.arange(n_trans, dtype=float)
    weights = np.ones(n_trans)
    weights[0] = weights[-1] = 0.5
    steps.flags.writeable = False
    weights.flags.writeable = False
    return steps, weights


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
    back_imaged = cfg.fiber_mode_radius * cfg.inverse_magnification
    half_width = extent_factor * max(back_imaged, cfg.pump_waist)
    # np.linspace(-half_width, half_width, n_trans) by linspace's own
    # arithmetic, without its per-call overhead (linspace takes another
    # formula only when the step underflows to 0, for a half-width of a
    # few subnormal ulps)
    steps, unit_weights = _unit_grid(n_trans)
    x = steps * ((half_width + half_width) / (n_trans - 1))
    x -= half_width
    x[-1] = half_width
    return x, unit_weights * (x[1] - x[0])


def _shifted_differences(taus: np.ndarray, x: np.ndarray,
                         rate: float | tuple[float, ...]) -> np.ndarray:
    """x - rate * taus[:, None], built as the product [1, s] @ [[x], [-1]].

    rate may also be a sequence of rates: their blocks stack, in order,
    into one (len(rate) * n) x x.size matrix, where taus is one row of n
    depths for every rate or one such row per rate.  BLAS fills the
    matrix faster than numpy's broadcast loop (~2.8x at 128x192, ~1.4x
    at 64x96).  Each entry is 1 * x_j + s_i * (-1): both products are
    exact, so with or without FMA the sum is rounded once and the
    entries are bit-identical to the broadcast difference.
    """
    import numpy as np

    rates = np.array(rate, dtype=float).reshape(-1, 1)
    left = np.empty((rates.shape[0], taus.shape[-1], 2))
    left[..., 0] = 1.0
    np.multiply(rates, taus, out=left[..., 1])
    right = np.empty((2, x.size))
    right[0] = x
    right[1] = -1.0
    return left.reshape(-1, 2) @ right


def _gauss_sums(taus: np.ndarray, x: np.ndarray, coefs: tuple[float, ...],
                rates: tuple[float, ...], vecs: np.ndarray) -> np.ndarray:
    """Row sums of vec(x) * exp(-coef * (x - rate * tau)**2), one per tau,
    for each block (coef, rate, vec); shape (len(coefs), n), where taus is
    one row of n depths for every block or one such row per block.

    The oracle's one 2-D kernel.  Blocks stack into one array per pass,
    as many as fit _PASS_ELEMENTS (at least one), and each step runs
    once per pass, in place (a fresh 2-D temporary per step costs more
    than its arithmetic).  The square stays a square of the exact
    difference, since expanding it cancels near the Gaussian's peak.
    Lanes whose exponent falls below ln(DBL_MIN) take numpy's slower
    per-lane exp.  The row sums are one matrix-vector product per block:
    a block's rows summed inside a taller product can round differently.
    """
    import numpy as np

    if taus.ndim == 1:  # one row of depths for every block
        taus = taus[None].repeat(len(coefs), axis=0)
    n_tau = taus.shape[1]
    per_pass = max(1, _PASS_ELEMENTS // (n_tau * x.size))
    sums = np.empty((len(coefs), n_tau, 1))
    for first in range(0, len(coefs), per_pass):
        last = first + per_pass
        rows = _shifted_differences(taus[first:last], x, rates[first:last])
        rows = rows.reshape(-1, n_tau, x.size)
        rows *= rows
        rows *= np.negative(coefs[first:last])[:, None, None]
        np.exp(rows, out=rows)
        np.matmul(rows, vecs[first:last, :, None], out=sums[first:last])
        del rows  # before the next pass allocates its own
    return sums[..., 0]


def _exponent_coefs(cfg: ExperimentConfig) -> tuple[float, float, float]:
    # mode(x) = exp(-a x^2) / sqrt(sqrt(pi) w mu), the unit-normalized fiber
    # mode back-imaged onto the crystal plane, and pump(x) = exp(-b x^2),
    # whose normalization cancels in the ratio; returns (a, b, mode norm^2).
    # The widths squared, a, b and the pair's a*b must be normal floats:
    # past that range the divisions fail, inf * 0 turns the Gaussians into
    # NaN, or a*b underflows and the pair's decay comes out wrong
    radius = cfg.fiber_mode_radius * cfg.inverse_magnification
    mode_sq, pump_sq = radius * radius, cfg.pump_waist * cfg.pump_waist
    if mode_sq >= _TINY and pump_sq >= _TINY:
        a, b = 0.5 / mode_sq, 0.5 / pump_sq
        if a >= _TINY and b >= _TINY and _TINY <= a * b < math.inf:
            return a, b, 1.0 / (math.sqrt(math.pi) * radius)
    raise DomainError(f"widths w*mu = {radius} um and r_p = {cfg.pump_waist} "
                      "um are outside the range the quadrature can represent")


@functools.lru_cache(maxsize=1)
def _gaussians(cfg: ExperimentConfig) -> tuple:
    """cfg's Gaussian coefficients and depth ranges, shared by its levels.

    Returns (a, b, norm_sq, coef, rate, decay, arm1, arm2, half_depths):
    the fiber mode's and the pump's coefficients and the mode's norm
    squared (_exponent_coefs), the pair block's coefficient, drift rate
    and decay, the arms' drift rates, and half of each _depth_ranges
    entry, as a read-only column.  The last config's are kept, so an
    eta_numeric call forms them once for all its levels.
    """
    import numpy as np

    pair_sep, pump_off2, arm1, arm2 = _drift_rates(cfg.walkoffs)
    a, b, norm_sq = _exponent_coefs(cfg)  # refuses widths before the grid
    # mode(x) mode(x - pair_sep tau) pump(x - c tau), the pump pump_off2/2
    # beyond the pair midpoint: c = (pair_sep + pump_off2)/2.  The shifted
    # exponent a (x - pair_sep tau)^2 + b (x - c tau)^2 is
    # coef (x - rate tau)^2 + decay tau^2.  The singles are
    # mode(x)^2 pump(x - arm tau)^2, the pump squared as exp(-2b d^2).
    coef = a + b
    rate = (a * pair_sep + 0.5 * b * (pair_sep + pump_off2)) / coef
    decay = a * b * (0.5 * (pair_sep - pump_off2)) ** 2 / coef
    half_depths = 0.5 * np.array(_depth_ranges(cfg))[:, None]
    half_depths.flags.writeable = False
    return a, b, norm_sq, coef, rate, decay, arm1, arm2, half_depths


def _depth_ranges(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """The depth t that each integral spans, [0, t]: pair, arm 1, arm 2.

    Completing the square in x over the whole axis, the pair density
    squared falls as exp(-g tau^2) with g = 2 (decay + a coef rate^2 /
    (a + coef)), and an arm's row with g = 2 a b arm^2 / (a + b).  In the
    widths W = w mu and R = r_p, sqrt(g) is hypot(s R/W, c, s - c) /
    hypot(sqrt(2) R, W) for the pair (s = pair_sep, c as in _gaussians)
    and arm / hypot(R, W) for an arm.  Formed so, from the ratio R/W and
    no square of a width, t = min(L, sqrt(40 / g)) scales with the
    lengths.  Past t the integrand is below exp(-40) of its value at the
    entry face; a zero g keeps the whole crystal.
    """
    pair_sep, pump_off2, arm1, arm2 = _drift_rates(cfg.walkoffs)
    radius = cfg.fiber_mode_radius * cfg.inverse_magnification
    waist = cfg.pump_waist
    c = 0.5 * (pair_sep + pump_off2)
    arm_width = math.hypot(waist, radius)
    spans = ((math.hypot(math.sqrt(2.0) * waist, radius),
              math.hypot(pair_sep * (waist / radius), c, pair_sep - c)),
             (arm_width, arm1), (arm_width, arm2))
    length = cfg.crystal_length
    return tuple(min(length, _DEPTH_REACH * width / drift) if drift else length
                 for width, drift in spans)


def _densities(cfg: ExperimentConfig, taus: np.ndarray, n_trans: int,
               extent_factor: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-depth densities of the pair and both singles arms, from one
    call of the kernel, on the transverse grid of n_trans points.

    taus holds n birth depths for every integral, or one row of n for
    each: pair, arm 1, arm 2.  Returns the pair overlap density at its
    depths (idle axis included); the singles' row sums of arm 1 and arm
    2, shape (2, n); and the singles' idle axis, which multiplies both
    arms' rows.
    """
    import numpy as np

    a, b, norm_sq, coef, rate, decay, arm1, arm2, _ = _gaussians(cfg)
    x, tw = _transverse_grid(cfg, n_trans, extent_factor)
    length = cfg.crystal_length
    # the kernel squares x - rate tau, with |x| up to the half-width and
    # tau up to L: refused where that square would overflow
    reach = float(x[-1]) + max(rate, arm1, arm2) * length
    if reach * reach == math.inf:
        raise DomainError(f"grid reach half-width + rate * L = {reach} um is "
                          "outside the range the quadrature can represent")
    # a nonzero decay multiplies tau^2, with tau up to L
    if decay and length * length == math.inf:
        raise DomainError(f"crystal length L = {length} um is outside the "
                          "range the quadrature can represent")
    # the unshifted Gaussians: the mode, the pair block's weight, and
    # mode^2 twice, one weight per arm block (each normalized and with
    # the trapezoid weights); then the pair's idle axis and pump^2
    flat = np.exp(np.multiply.outer(
        (-a, -2.0 * a, -2.0 * a, -coef, -2.0 * b), x * x))
    vecs = flat[:3] * norm_sq * tw
    pair_idle, singles_idle = (vecs[:2] * flat[3:]).sum(axis=1).tolist()
    sums = _gauss_sums(taus, x, (coef, 2.0 * b, 2.0 * b),
                       (rate, arm1, arm2), vecs)
    # a zero decay's factor is exactly 1, but NaN once tau^2 overflows
    if decay:
        pair_taus = taus if taus.ndim == 1 else taus[0]
        pair = np.exp(-decay * (pair_taus * pair_taus)) * sums[0]
    else:
        pair = sums[0]
    return pair * pair_idle, sums[1:], singles_idle


def pair_overlap_density(cfg: ExperimentConfig, tau: float,
                         spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Overlap density of the pair with both fiber modes at birth depth tau.

    Real-valued for the Gaussian profiles used here; maximal at tau = 0
    and constant in tau when all drift rates vanish.
    """
    tau = _require_finite("tau", tau)
    if not 0.0 <= tau <= cfg.crystal_length:
        raise DomainError(
            f"tau must lie in [0, {cfg.crystal_length}], got {tau}")
    import numpy as np

    return float(_densities(cfg, np.array([tau]), spec.n_trans,
                            spec.extent_factor)[0][0])


def _eta_on_grid(cfg: ExperimentConfig, n_tau: int, n_trans: int,
                 extent_factor: float) -> tuple[float, float, float, float]:
    """One full quadrature pass; returns (eta, p12, p1, p2).

    Each integral takes the n_tau point rule on its own depth range.
    """
    nodes, gl_weights = _gauss_legendre(n_tau)
    half_depths = _gaussians(cfg)[-1]
    taus = half_depths * (nodes + 1.0)
    tau_w = half_depths * gl_weights
    pair, singles, idle = _densities(cfg, taus, n_trans, extent_factor)
    p12 = float((tau_w[0] * pair ** 2).sum())
    p1, p2 = (tau_w[1:] * singles * idle).sum(axis=1).tolist()
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
