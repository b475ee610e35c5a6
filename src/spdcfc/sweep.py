"""Efficiency curves over crystal length and scalar design optimization."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# DEFAULT_MU_VALUES is defined in core and re-exported from here
from .core import (DEFAULT_MU_VALUES, VARIABLES, AlphaBeta, ExperimentConfig,
                   WalkOffSet, _eta, _require_finite, _xi_terms,
                   compute_alpha_beta)
from .errors import DomainError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_PRESCAN = 64


def _as_floats(name: str, values) -> tuple[float, ...]:
    # core's number rule for what is not a float; a non-finite float is
    # left to the caller's own check and message
    return tuple(v if type(v) is float else _require_finite(name, v)
                 for v in values)


def _validated_grid(name: str, values) -> tuple[float, ...]:
    grid = _as_floats(name, values)
    if not grid:
        raise DomainError(f"{name} must not be empty")
    if any(v <= 0.0 or math.isnan(v) or math.isinf(v) for v in grid):
        raise DomainError(f"{name} values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError(f"{name} must be strictly increasing")
    return grid


@dataclass(frozen=True)
class SweepSpec:
    """Grid of crystal lengths (um) and magnifications over a template."""

    l_grid: tuple[float, ...]
    mu_values: tuple[float, ...]
    fixed: ExperimentConfig

    def __post_init__(self):
        object.__setattr__(self, "l_grid", _validated_grid("l_grid", self.l_grid))
        object.__setattr__(self, "mu_values",
                           _validated_grid("mu_values", self.mu_values))
        if not isinstance(self.fixed, ExperimentConfig):
            raise DomainError("fixed must be an ExperimentConfig")


@dataclass(frozen=True)
class SweepRow:
    """One point of an efficiency curve.

    length: crystal length L in um.
    mu: inverse magnification of the fiber mode onto the crystal.
    xi: w*mu/r_p at that mu, with w and r_p in um.
    eta: closed-form coupling efficiency, in (0, 1].

    efficiency_curve returns its rows in L-major order.
    """

    length: float
    mu: float
    xi: float
    eta: float


@dataclass(frozen=True)
class SweepResult:
    """The rows of an efficiency curve, in L-major order: every mu of the
    first length, then every mu of the next.  Each row's eta is checked
    to lie in (0, 1]."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise DomainError("sweep produced no rows")
        if any(not 0.0 < r.eta <= 1.0 for r in self.rows):
            raise DomainError("sweep row with eta outside (0, 1]")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a scalar maximization.

    boundary is set when the maximum sits on a bracket end, in which
    case no interior optimum has been established.
    """

    variable: str
    argmax: float
    eta_max: float
    bracket: tuple[float, float]
    iterations: int
    boundary: bool

    def __post_init__(self):
        if not 0.0 < self.eta_max <= 1.0:
            raise DomainError(f"eta_max must be in (0, 1], got {self.eta_max}")


def _row_error(length: float, mu: float, exc: DomainError) -> DomainError:
    return DomainError(f"row L={length} um, mu={mu}: {exc}")


def efficiency_curve(spec: SweepSpec) -> SweepResult:
    """Tabulate eta over the grid, crystal-length major, then mu."""
    fixed = spec.fixed
    ab = compute_alpha_beta(fixed.walkoffs)
    rp, w = fixed.pump_waist, fixed.fiber_mode_radius
    # the xi step once per mu; a mu whose xi fails fails at every length,
    # so its first row, at the first length, is where it is raised
    columns, failed = [], None
    for mu in spec.mu_values:
        xi = w * mu / rp
        try:
            columns.append((mu, xi, *_xi_terms(xi, ab)))
        except DomainError as exc:
            failed = mu, exc
            break
    rows = []
    # a row gets its __dict__, in field order, in one step instead of
    # through the frozen __init__, which pays one object.__setattr__ per
    # field; SweepRow has no __post_init__, so no check is skipped, and
    # the type is unchanged
    new, set_dict = object.__new__, object.__setattr__
    for length in spec.l_grid:
        ratio = length / rp
        for mu, xi, prefactor, kc, k1, k2 in columns:
            try:
                eta = _eta(prefactor, ratio * kc, ratio * k1, ratio * k2)
            except DomainError as exc:
                raise _row_error(length, mu, exc) from exc
            row = new(SweepRow)
            set_dict(row, "__dict__",
                     {"length": length, "mu": mu, "xi": xi, "eta": eta})
            rows.append(row)
        if failed:
            mu, exc = failed
            raise _row_error(length, mu, exc) from exc
    return SweepResult(rows=tuple(rows))


def _with_variable(cfg: ExperimentConfig, variable: str,
                   value: float) -> ExperimentConfig:
    if variable == "mu":
        return replace(cfg, inverse_magnification=value)
    if variable == "rp":
        return replace(cfg, pump_waist=value)
    if variable == "xi":
        # eta sees mu only through xi = w*mu/r_p, so sweep xi via mu
        return replace(cfg, inverse_magnification=value * cfg.pump_waist
                       / cfg.fiber_mode_radius)
    raise DomainError(f"variable must be one of {VARIABLES}, got {variable!r}")


def _prescan_grid(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * k / (_N_PRESCAN - 1) for k in range(_N_PRESCAN)]


def _xi_of(value: float, rp: float, w: float) -> float:
    # through mu and back, as _with_variable and shape_params do
    return w * (value * rp / w) / rp


def _eta_of_xi(length: float, rp: float, w: float, ab: AlphaBeta):
    ratio = length / rp

    def eta_at(value: float) -> float:
        # _xi_of, in place: this runs once per golden-section step
        prefactor, kc, k1, k2 = _xi_terms(w * (value * rp / w) / rp, ab)
        return _eta(prefactor, ratio * kc, ratio * k1, ratio * k2)
    return eta_at


def _refine(eta_at, grid: list[float], grid_etas: list[float],
            rel_tol: float) -> tuple[float, float, tuple[float, float], int]:
    # golden section around the best pre-scan point of grid; returns
    # (argmax, eta_max, bracket, iterations), with eta_max already
    # checked to lie in (0, 1] by the closed form
    best = max(range(_N_PRESCAN), key=grid_etas.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _N_PRESCAN - 1)]
    bracket = (a, b)

    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = eta_at(x1), eta_at(x2)
    iterations = 0
    while (b - a) > rel_tol * 0.5 * (a + b) and iterations < 200:
        iterations += 1
        if f1 < f2:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = eta_at(x2)
        else:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = eta_at(x1)
    mid = 0.5 * (a + b)
    candidates = [(eta_at(mid), mid), (f1, x1), (f2, x2),
                  (grid_etas[best], grid[best])]
    eta_max, argmax = max(candidates)
    return argmax, eta_max, bracket, iterations


def maximize_eta(cfg: ExperimentConfig, variable: str,
                 bounds: tuple[float, float],
                 rel_tol: float = 1e-6) -> OptResult:
    """Maximize eta over one design variable on the given bounds.

    A 64-point grid pre-scan locates the best cell (no global
    unimodality is assumed), then golden-section refines it until the
    bracket shrinks below rel_tol relative to the variable.  The
    returned maximum is never below the best pre-scan point.
    """
    lo, hi = _as_floats("bounds", bounds)
    if not (lo > 0.0 and hi > lo and math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    rel_tol = _require_finite("rel_tol", rel_tol)
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must be in (0, 1), got {rel_tol}")
    # both ends must make a valid configuration; the points in between
    # then only need the shape checks of the closed form
    _with_variable(cfg, variable, lo)
    _with_variable(cfg, variable, hi)
    ab = compute_alpha_beta(cfg.walkoffs)
    length, rp = cfg.crystal_length, cfg.pump_waist
    w, mu = cfg.fiber_mode_radius, cfg.inverse_magnification

    # each eta_at repeats the arithmetic of efficiency(_with_variable(...))
    if variable == "mu":
        ratio = length / rp

        def eta_at(value: float) -> float:
            prefactor, kc, k1, k2 = _xi_terms(w * value / rp, ab)
            return _eta(prefactor, ratio * kc, ratio * k1, ratio * k2)
    elif variable == "rp":
        def eta_at(value: float) -> float:
            ratio = length / value
            prefactor, kc, k1, k2 = _xi_terms(w * mu / value, ab)
            return _eta(prefactor, ratio * kc, ratio * k1, ratio * k2)
    else:
        eta_at = _eta_of_xi(length, rp, w, ab)

    grid = _prescan_grid(lo, hi)
    argmax, eta_max, bracket, iterations = _refine(
        eta_at, grid, [eta_at(v) for v in grid], rel_tol)
    edge = 1e-4 * (hi - lo)
    return OptResult(variable=variable, argmax=argmax, eta_max=eta_max,
                     bracket=bracket, iterations=iterations,
                     boundary=(argmax - lo) < edge or (hi - argmax) < edge)


def ceiling_scan(pump_waist: float, walkoffs: WalkOffSet,
                 l_grid) -> tuple[tuple[float, float], ...]:
    """Best achievable eta per crystal length, maximized over xi.

    Returns (L, eta_max) pairs for xi swept on [0.1, 10] at the given
    pump waist; the fiber radius and magnification drop out of the
    optimum since only their product matters.  Each length gives what
    maximize_eta gives on the template w = mu = 1; the xi of its 64
    pre-scan points do not depend on the length, so their xi step runs
    once and is shared across lengths.
    """
    grid = _validated_grid("l_grid", l_grid)
    lo, hi = 0.1, 10.0
    # pump_waist, walkoffs and the xi bounds are checked as maximize_eta
    # checks them, once: no check depends on the length
    template = ExperimentConfig(grid[0], pump_waist, 1.0, 1.0, walkoffs)
    _with_variable(template, "xi", lo)
    _with_variable(template, "xi", hi)
    ab = compute_alpha_beta(walkoffs)
    xi_grid = _prescan_grid(lo, hi)
    terms = [_xi_terms(_xi_of(v, pump_waist, 1.0), ab) for v in xi_grid]
    out = []
    for length in grid:
        ratio = length / pump_waist
        grid_etas = [_eta(prefactor, ratio * kc, ratio * k1, ratio * k2)
                     for prefactor, kc, k1, k2 in terms]
        eta_max = _refine(_eta_of_xi(length, pump_waist, 1.0, ab), xi_grid,
                          grid_etas, 1e-6)[1]
        out.append((length, eta_max))
    return tuple(out)
