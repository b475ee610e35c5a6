"""Fiber-coupling efficiency model and design tools for photon-pair sources.

``import spdcfc`` loads only the closed form (``spdcfc.core``) and the
error types (``spdcfc.errors``).  The submodules ``dispersion``,
``oracle`` and ``sweep``, and the names re-exported from them, load on
first access (PEP 562): ``spdcfc.maximize_eta`` imports ``spdcfc.sweep``
the first time it is looked up, and is an ordinary attribute after that.
So a command that needs only the closed form never pays for the others'
imports; the oracle's numpy is imported later still, on its first
quadrature.
"""

from importlib import import_module as _import_module

from .core import (
    DEFAULT_CUT_ANGLE_DEG,
    AlphaBeta,
    EfficiencyResult,
    ExperimentConfig,
    ShapeParams,
    WalkOffSet,
    compute_alpha_beta,
    effective_to_raw,
    efficiency,
    erf,
    erf_over_sigma,
    eta_closed_form,
    magnification,
    mode_field_radius,
    pump_waist_from_diameter,
    raw_to_effective,
    shape_params,
    sigma_over_erf,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NoRealImageError,
    WavelengthRangeError,
)

__version__ = "0.1.0"

# Public names loaded on first access, and the submodule defining each.
_LAZY = {
    **dict.fromkeys(("dispersion", "IndexModel", "PhaseMatchGeometry",
                     "TemporalParams", "build_walkoff_set", "bundled_bbo",
                     "extraordinary_index", "group_delay_params",
                     "load_index_model", "ordinary_index",
                     "phase_match_angle", "principal_extraordinary_index",
                     "q_over_kbar", "walk_off_tangent"), "dispersion"),
    **dict.fromkeys(("oracle", "OracleResult", "QuadratureSpec",
                     "eta_numeric", "pair_overlap_density"), "oracle"),
    **dict.fromkeys(("sweep", "DEFAULT_MU_VALUES", "OptResult",
                     "SweepResult", "SweepRow", "SweepSpec", "ceiling_scan",
                     "efficiency_curve", "maximize_eta"), "sweep"),
}

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_LAZY))


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
