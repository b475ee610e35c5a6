"""Efficiency curves over crystal length and scalar design optimization."""

from __future__ import annotations

import math
from dataclasses import dataclass

# DEFAULT_MU_VALUES is defined in core and re-exported from here
from .core import (DEFAULT_MU_VALUES, VARIABLES, AlphaBeta, ExperimentConfig,
                   WalkOffSet, _check_fields, _eta, _require_count,
                   _require_in, _require_order, _require_pair,
                   _require_record, _xi_terms, compute_alpha_beta)
from .errors import DomainError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_N_PRESCAN = 64
# golden section's stopping width, relative to the variable
_REL_TOL = 1e-6


def _validated_grid(name: str, values) -> tuple[float, ...]:
    try:
        grid = tuple([_require_in(name, v, "> 0") for v in values])
    except TypeError:  # not iterable: None, a bare number, ...
        raise DomainError(f"{name} must be a sequence of numbers, "
                          f"got {values!r:.60}") from None
    if not grid:
        raise DomainError(f"{name} must not be empty")
    _require_order(name, zip(grid, grid[1:]), "0 < lo < hi")
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
        _require_record("fixed", self.fixed, ExperimentConfig)


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

    def __post_init__(self):
        _check_fields(self, ("length", "mu", "xi"), "> 0")
        _check_fields(self, ("eta",), "in (0, 1]")


@dataclass(frozen=True)
class SweepResult:
    """The rows of an efficiency curve, in L-major order: every mu of the
    first length, then every mu of the next.  Each row's eta is checked
    to lie in (0, 1]."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise DomainError("sweep produced no rows")
        try:
            etas = [r.eta for r in self.rows]
        except (AttributeError, TypeError):  # not rows
            raise DomainError(f"rows must be SweepRows with numeric etas, got "
                              f"{self.rows!r:.60}") from None
        for k, eta in enumerate(etas):
            _require_in(f"rows[{k}].eta", eta, "in (0, 1]")


def _require_variable(variable: str) -> None:
    if variable not in VARIABLES:
        raise DomainError(
            f"variable must be one of {VARIABLES}, got {variable!r}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a scalar maximization.

    variable: the design variable's name, one of VARIABLES.
    argmax: the best value found for it, > 0.
    eta_max: eta there, in (0, 1].
    bracket: (lo, hi), the pre-scan cell that the golden section refined,
        each > 0, with lo <= hi (the two ends may be equal).
    iterations: the golden-section steps taken, an int >= 0.
    boundary, a bool, is set when the maximum sits on a bracket end, in
    which case no interior optimum has been established.
    """

    variable: str
    argmax: float
    eta_max: float
    bracket: tuple[float, float]
    iterations: int
    boundary: bool

    def __post_init__(self):
        _check_fields(self, ("argmax",), "> 0")
        _check_fields(self, ("eta_max",), "in (0, 1]")
        object.__setattr__(self, "bracket", _require_pair(
            "bracket", self.bracket, "0 < lo <= hi"))
        _require_variable(self.variable)
        object.__setattr__(self, "iterations",
                           _require_count("iterations", self.iterations, 0))
        _require_record("boundary", self.boundary, bool)


def _row_error(length: float, mu: float, exc: DomainError) -> DomainError:
    return DomainError(f"row L={length} um, mu={mu}: {exc}")


def efficiency_curve(spec: SweepSpec) -> SweepResult:
    """Tabulate eta over the grid, crystal-length major, then mu."""
    _require_record("spec", spec, SweepSpec)
    fixed = spec.fixed
    ab = compute_alpha_beta(fixed.walkoffs)
    rp, w = fixed.pump_waist, fixed.fiber_mode_radius
    # the xi step once per mu; a mu whose xi fails fails at every length,
    # so its first row, at the first length, is where it is raised
    columns, failed = [], None
    for mu in spec.mu_values:
        try:
            terms = _xi_terms(w, mu, rp, ab)
        except DomainError as exc:
            failed = mu, exc
            break
        columns.append((mu, terms[0], terms))
    rows = []
    # a row and the result get their fields in one step each, not through
    # the frozen __init__, which pays one object.__setattr__ per field and
    # would check again what is checked: length and mu by SweepSpec, xi
    # by the xi step, eta by the length step, and the rows by being built
    # here, at least one since neither grid is empty
    new = object.__new__
    for length in spec.l_grid:
        ratio = length / rp
        for mu, xi, terms in columns:
            try:
                eta = _eta(terms, ratio)
            except DomainError as exc:
                raise _row_error(length, mu, exc) from exc
            row = new(SweepRow)
            row.__dict__.update(length=length, mu=mu, xi=xi, eta=eta)
            rows.append(row)
        if failed:
            mu, exc = failed
            raise _row_error(length, mu, exc) from exc
    result = new(SweepResult)
    result.__dict__["rows"] = tuple(rows)
    return result


def _prescan_grid(lo: float, hi: float) -> list[float]:
    grid = [lo + (hi - lo) * k / (_N_PRESCAN - 1) for k in range(_N_PRESCAN)]
    if grid[-1] == math.inf:
        # (hi - lo) * 63 overflowed: each step from (hi - lo) / 64, exact
        # at this width, and scaled back, so it has the bits it has on
        # the bracket scaled by a power of two
        width = math.ldexp(hi - lo, -6)
        grid = [lo + math.ldexp(width * k / (_N_PRESCAN - 1), 6)
                for k in range(_N_PRESCAN)]
    return grid


def _eta_of_xi(length: float, rp: float, w: float, ab: AlphaBeta):
    ratio = length / rp

    def eta_at(value: float) -> float:
        # xi through its mu = xi*r_p/w, the config's mu at that xi
        return _eta(_xi_terms(w, value * rp / w, rp, ab), ratio)
    return eta_at


def _refine(eta_at, grid: list[float], grid_etas: list[float]) -> tuple:
    # golden section around the best pre-scan point of grid; returns
    # (argmax, eta_max, bracket, iterations), with eta_max already
    # checked to lie in (0, 1] by the closed form
    # the first of tied maxima; the closed form returns no NaN
    best = grid_etas.index(max(grid_etas))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _N_PRESCAN - 1)]
    bracket = (a, b)

    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = eta_at(x1), eta_at(x2)
    iterations = 0
    # the midpoint as 0.5*a + 0.5*b: the bits of 0.5*(a + b) in the
    # normal range, and no overflow where a + b would pass it
    while (b - a) > _REL_TOL * (0.5 * a + 0.5 * b) and iterations < 200:
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
    mid = 0.5 * a + 0.5 * b
    candidates = [(eta_at(mid), mid), (f1, x1), (f2, x2),
                  (grid_etas[best], grid[best])]
    eta_max, argmax = max(candidates)
    return argmax, eta_max, bracket, iterations


def maximize_eta(cfg: ExperimentConfig, variable: str,
                 bounds: tuple[float, float]) -> OptResult:
    """Maximize eta over one design variable on the given bounds.

    A 64-point grid pre-scan locates the best cell (no global
    unimodality is assumed), then golden-section refines it until the
    bracket shrinks below 1e-6 relative to the variable.  The
    returned maximum is never below the best pre-scan point.
    """
    lo, hi = _require_pair("bounds", bounds, "0 < lo < hi")
    _require_record("cfg", cfg, ExperimentConfig)
    _require_variable(variable)
    ab = compute_alpha_beta(cfg.walkoffs)
    length, rp = cfg.crystal_length, cfg.pump_waist
    w, mu = cfg.fiber_mode_radius, cfg.inverse_magnification

    # both ends must make a valid configuration, cfg with the variable
    # set to the end (an xi through its mu = xi*r_p/w), and the points in
    # between then need only the closed form's own checks: a mu or r_p
    # end is a valid field as a bound is, and an xi end where its mu is.
    # Each eta_at repeats the arithmetic of efficiency() on that
    # configuration
    if variable == "mu":
        ratio = length / rp

        def eta_at(value: float) -> float:
            return _eta(_xi_terms(w, value, rp, ab), ratio)
    elif variable == "rp":
        def eta_at(value: float) -> float:
            return _eta(_xi_terms(w, mu, value, ab), length / value)
    else:  # "xi"
        for value in (lo, hi):
            _require_in("inverse_magnification", value * rp / w, "> 0")
        eta_at = _eta_of_xi(length, rp, w, ab)

    grid = _prescan_grid(lo, hi)
    argmax, eta_max, bracket, iterations = _refine(
        eta_at, grid, [eta_at(v) for v in grid])
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
    pump_waist = template.pump_waist  # as the check read it
    for value in (lo, hi):  # the mu = xi*r_p/w of each xi end at w = 1
        _require_in("inverse_magnification", value * pump_waist, "> 0")
    ab = compute_alpha_beta(walkoffs)
    xi_grid = _prescan_grid(lo, hi)
    # xi through its mu, as _eta_of_xi passes it at w = 1, where
    # multiplying and dividing by w are exact
    terms = [_xi_terms(1.0, v * pump_waist, pump_waist, ab) for v in xi_grid]
    out = []
    for length in grid:
        ratio = length / pump_waist
        grid_etas = [_eta(t, ratio) for t in terms]
        eta_max = _refine(_eta_of_xi(length, pump_waist, 1.0, ab), xi_grid,
                          grid_etas)[1]
        out.append((length, eta_max))
    return tuple(out)
