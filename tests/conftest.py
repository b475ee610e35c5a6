from dataclasses import replace

from hypothesis import settings

from spdcfc import ExperimentConfig, SweepRow, WalkOffSet
from spdcfc.core import VARIABLES
from spdcfc.errors import DomainError

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")

# Reference design point used throughout: 415 nm pumped type-II BBO,
# 3.5 deg cones, MFD 4.2 um fiber imaged at mu ~ 49.
REFERENCE_WALKOFFS = WalkOffSet(m_p=0.07631, m=0.07243, q_over_k=0.036215)


def reference_config(length_um: float = 3000.0) -> ExperimentConfig:
    return ExperimentConfig(
        crystal_length=length_um,
        pump_waist=53.0,
        fiber_mode_radius=1.48,
        inverse_magnification=49.0,
        walkoffs=REFERENCE_WALKOFFS,
    )


def bare_row(length, mu, xi, eta) -> SweepRow:
    # a row whose fields skip SweepRow's own checks, as a row built without
    # __init__ (by efficiency_curve, or by unpickling) skips them
    row = object.__new__(SweepRow)
    row.__dict__.update(length=length, mu=mu, xi=xi, eta=eta)
    return row


def _with_variable(cfg: ExperimentConfig, variable: str,
                   value: float) -> ExperimentConfig:
    # cfg with one design variable of maximize_eta set to value: the
    # configuration whose eta maximize_eta evaluates there
    if variable == "mu":
        return replace(cfg, inverse_magnification=value)
    if variable == "rp":
        return replace(cfg, pump_waist=value)
    if variable == "xi":
        # eta sees mu only through xi = w*mu/r_p, so sweep xi via mu
        return replace(cfg, inverse_magnification=value * cfg.pump_waist
                       / cfg.fiber_mode_radius)
    raise DomainError(f"variable must be one of {VARIABLES}, got {variable!r}")
