"""Efficiency curves over crystal length and scalar design optimization."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (ExperimentConfig, WalkOffSet, _eta, _sigmas,
                   compute_alpha_beta)
from .errors import DomainError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Magnifications for the default reproduction sweep.  Only mu = 49 is
# anchored to a measured design point; the rest are illustrative.
DEFAULT_MU_VALUES = (25.0, 35.0, 49.0, 60.0, 80.0)

VARIABLES = ("mu", "rp", "xi")


def _validated_grid(name: str, values) -> tuple[float, ...]:
    grid = tuple(float(v) for v in values)
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


@dataclass(frozen=True)
class SweepRow:
    length: float  # um
    mu: float
    xi: float
    eta: float


@dataclass(frozen=True)
class SweepResult:
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


def efficiency_curve(spec: SweepSpec) -> SweepResult:
    """Tabulate eta over the grid, crystal-length major, then mu."""
    fixed = spec.fixed
    ab = compute_alpha_beta(fixed.walkoffs)
    rp, w = fixed.pump_waist, fixed.fiber_mode_radius
    rows = []
    for length in spec.l_grid:
        ratio = length / rp
        for mu in spec.mu_values:
            xi = w * mu / rp
            try:
                eta = _eta(xi, *_sigmas(ratio, xi, ab))
            except DomainError as exc:
                raise DomainError(
                    f"row L={length} um, mu={mu}: {exc}") from exc
            rows.append(SweepRow(length=length, mu=mu, xi=xi, eta=eta))
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


def maximize_eta(cfg: ExperimentConfig, variable: str,
                 bounds: tuple[float, float],
                 rel_tol: float = 1e-6) -> OptResult:
    """Maximize eta over one design variable on the given bounds.

    A 64-point grid pre-scan locates the best cell (no global
    unimodality is assumed), then golden-section refines it until the
    bracket shrinks below rel_tol relative to the variable.  The
    returned maximum is never below the best pre-scan point.
    """
    lo, hi = (float(b) for b in bounds)
    if not (lo > 0.0 and hi > lo and math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    # both ends must make a valid configuration; the points in between
    # then only need the shape checks of the closed form
    _with_variable(cfg, variable, lo)
    _with_variable(cfg, variable, hi)
    ab = compute_alpha_beta(cfg.walkoffs)
    length, rp = cfg.crystal_length, cfg.pump_waist
    w, mu = cfg.fiber_mode_radius, cfg.inverse_magnification

    # each eta_at repeats the arithmetic of efficiency(_with_variable(...))
    if variable == "mu":
        def eta_at(value: float) -> float:
            xi = w * value / rp
            return _eta(xi, *_sigmas(length / rp, xi, ab))
    elif variable == "rp":
        def eta_at(value: float) -> float:
            xi = w * mu / value
            return _eta(xi, *_sigmas(length / value, xi, ab))
    else:
        def eta_at(value: float) -> float:
            # through mu and back, as _with_variable and shape_params do
            mu_of_xi = value * rp / w
            xi = w * mu_of_xi / rp
            return _eta(xi, *_sigmas(length / rp, xi, ab))

    n_grid = 64
    grid = [lo + (hi - lo) * k / (n_grid - 1) for k in range(n_grid)]
    grid_etas = [eta_at(v) for v in grid]
    best = max(range(n_grid), key=grid_etas.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, n_grid - 1)]
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
    edge = 1e-4 * (hi - lo)
    return OptResult(variable=variable, argmax=argmax, eta_max=eta_max,
                     bracket=bracket, iterations=iterations,
                     boundary=(argmax - lo) < edge or (hi - argmax) < edge)


def ceiling_scan(pump_waist: float, walkoffs: WalkOffSet,
                 l_grid) -> tuple[tuple[float, float], ...]:
    """Best achievable eta per crystal length, maximized over xi.

    Returns (L, eta_max) pairs for xi swept on [0.1, 10] at the given
    pump waist; the fiber radius and magnification drop out of the
    optimum since only their product matters.
    """
    grid = _validated_grid("l_grid", l_grid)
    out = []
    for length in grid:
        template = ExperimentConfig(
            crystal_length=length, pump_waist=pump_waist,
            fiber_mode_radius=1.0, inverse_magnification=1.0,
            walkoffs=walkoffs)
        res = maximize_eta(template, "xi", (0.1, 10.0))
        out.append((length, res.eta_max))
    return tuple(out)
