"""Command-line front end: evaluate, sweep, optimize, oracle, params.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 when a computation fails a domain or convergence check, 2 when the
command line or a config file is unusable.  Crystal length and lens
distances are taken in mm on the command line; everything else follows
the package's micrometre convention.  Numbers print with 9 significant
digits and a "." decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# dispersion, oracle and sweep are imported by the commands that use
# them, so a command loads only the modules it runs
from .core import (
    DEFAULT_CUT_ANGLE_DEG,
    VARIABLES,
    ExperimentConfig,
    WalkOffSet,
    compute_alpha_beta,
    efficiency,
    magnification,
    mode_field_radius,
)
from .errors import ConvergenceError, DomainError

SELLMEIER_PATH_ENV = "SPDCFC_SELLMEIER_PATH"

SCHEMA_VERSION = 1

_CONFIG_KEYS = {"schema_version", "L_um", "rp_um", "w_um", "mu",
                "walkoffs", "quadrature"}
_WALKOFF_KEYS = {"Mp", "M", "QK"}
_QUAD_KEYS = {"n_tau", "n_trans", "extent_factor", "target_rel_err"}
_RESULT_KEYS = {"eta", "shape"}

CSV_HEADER = "L_mm,mu,xi,eta"

# Most crystal lengths one --L-range may ask for; larger grids are a
# usage error, caught before the list is built.
MAX_L_RANGE_POINTS = 100_000


class UsageError(Exception):
    """Unusable command line or config file; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

def _load_config_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    if "config" in doc:
        # a previous `eval --format json` output fed back in
        unknown = set(doc) - ({"schema_version", "config"} | _RESULT_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        inner = doc["config"]
        if not isinstance(inner, dict):
            raise UsageError("config entry must be a JSON object")
        doc = dict(inner)
        doc.setdefault("schema_version", SCHEMA_VERSION)
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(
            f"config schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")
    for sub, keys in (("walkoffs", _WALKOFF_KEYS), ("quadrature", _QUAD_KEYS)):
        if sub in doc:
            if not isinstance(doc[sub], dict):
                raise UsageError(f"{sub} must be a JSON object")
            bad = set(doc[sub]) - keys
            if bad:
                raise UsageError(f"unknown {sub} keys: {sorted(bad)}")
    return doc


def _load_model(flag_value: str) -> IndexModel:
    from .dispersion import bundled_bbo, load_index_model

    path = flag_value or os.environ.get(SELLMEIER_PATH_ENV, "")
    try:
        if path:
            return load_index_model(path)
        return bundled_bbo()
    except OSError as exc:
        raise UsageError(f"cannot read Sellmeier file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"Sellmeier file is not valid JSON: {exc}") from exc
    except DomainError as exc:
        raise UsageError(f"bad Sellmeier file: {exc}") from exc


def _geometry(args) -> PhaseMatchGeometry:
    from .dispersion import PhaseMatchGeometry

    return PhaseMatchGeometry.degenerate(
        pump_wavelength=args.pump_nm * 1e-3,
        cut_angle=math.radians(args.cut_angle_deg),
        external_cone_angle=math.radians(args.cone_angle_deg))


def _resolve_walkoffs(args, doc: dict) -> WalkOffSet:
    explicit = (args.Mp, args.M, args.QK)
    if any(v is not None for v in explicit):
        if args.sellmeier is not None:
            raise UsageError("--Mp/--M/--QK and --sellmeier are mutually exclusive")
        if any(v is None for v in explicit):
            raise UsageError("provide all of --Mp, --M and --QK together")
        return WalkOffSet(m_p=args.Mp, m=args.M, q_over_k=args.QK)
    if args.sellmeier is not None:
        from .dispersion import build_walkoff_set

        return build_walkoff_set(_load_model(args.sellmeier), _geometry(args))
    if "walkoffs" in doc:
        w = doc["walkoffs"]
        missing = _WALKOFF_KEYS - set(w)
        if missing:
            raise UsageError(f"config walkoffs missing {sorted(missing)}")
        return WalkOffSet(m_p=w["Mp"], m=w["M"], q_over_k=w["QK"])
    raise UsageError(
        "no walk-offs: pass --Mp/--M/--QK, or --sellmeier, or a config file")


def _resolve_experiment(args, doc: dict, *,
                        optional: tuple[str, ...] = ()) -> ExperimentConfig:
    """Assemble the experiment from flags over config-file values.

    Quantities named in optional may be omitted; they get a placeholder
    of 1.0 because the subcommand overrides them per point (the sweep
    grid, the optimized variable).
    """
    length_um = (1000.0 * args.L_mm if args.L_mm is not None
                 else doc.get("L_um"))
    if length_um is None:
        if "L" not in optional:
            raise UsageError("missing crystal length: pass --L-mm")
        length_um = 1.0

    rp = args.rp_um if args.rp_um is not None else doc.get("rp_um")
    if rp is None:
        if "rp" not in optional:
            raise UsageError("missing pump waist: pass --rp-um")
        rp = 1.0

    if args.w_um is not None and args.mfd_um is not None:
        raise UsageError("--w-um and --mfd-um are mutually exclusive")
    if args.w_um is not None:
        w = args.w_um
    elif args.mfd_um is not None:
        w = mode_field_radius(args.mfd_um)
    else:
        w = doc.get("w_um")
    if w is None:
        if "w" not in optional:
            raise UsageError("missing fiber mode: pass --w-um or --mfd-um")
        w = 1.0

    lens = (args.f_mm is not None, args.dbl_mm is not None)
    if any(lens) and not all(lens):
        raise UsageError("--f-mm and --dbl-mm must be given together")
    if args.mu is not None and all(lens):
        raise UsageError("--mu and --f-mm/--dbl-mm are mutually exclusive")
    if args.mu is not None:
        mu = args.mu
    elif all(lens):
        mu, _ = magnification(args.f_mm, args.dbl_mm)
    else:
        mu = doc.get("mu")
    if mu is None:
        if "mu" not in optional:
            raise UsageError("missing magnification: pass --mu or --f-mm/--dbl-mm")
        mu = 1.0

    return ExperimentConfig(
        crystal_length=length_um, pump_waist=rp, fiber_mode_radius=w,
        inverse_magnification=mu, walkoffs=_resolve_walkoffs(args, doc))


def _resolve_quadrature(args, doc: dict) -> QuadratureSpec:
    from .oracle import QuadratureSpec

    qdoc = doc.get("quadrature", {})
    defaults = QuadratureSpec()

    def pick(flag_value, key: str, default):
        value = flag_value if flag_value is not None else qdoc.get(key)
        return default if value is None else value

    return QuadratureSpec(
        n_tau=int(pick(args.n_tau, "n_tau", defaults.n_tau)),
        n_trans=int(pick(args.n_trans, "n_trans", defaults.n_trans)),
        extent_factor=float(pick(args.extent_factor, "extent_factor",
                                 defaults.extent_factor)),
        target_rel_err=float(pick(args.target_rel_err, "target_rel_err",
                                  defaults.target_rel_err)))


def _config_doc(cfg: ExperimentConfig) -> dict:
    return {
        "L_um": cfg.crystal_length,
        "rp_um": cfg.pump_waist,
        "w_um": cfg.fiber_mode_radius,
        "mu": cfg.inverse_magnification,
        "walkoffs": {"Mp": cfg.walkoffs.m_p, "M": cfg.walkoffs.m,
                     "QK": cfg.walkoffs.q_over_k},
    }


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{what} must look like lo:hi, got {text!r}")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"{what} must be numeric, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return lo, hi


def _parse_l_range_mm(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--L-range must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--L-range must be numeric, got {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"--L-range must be finite, got {text!r}")
    if lo <= 0.0 or step <= 0.0 or hi < lo:
        raise UsageError(f"--L-range is empty or invalid: {text!r}")
    intervals = (hi - lo) / step + 1e-9  # may overflow to inf
    # floor(intervals) + 1 lengths exceed the cap exactly when this holds
    if intervals >= MAX_L_RANGE_POINTS:
        raise UsageError(
            f"--L-range {text!r} asks for more than {MAX_L_RANGE_POINTS} "
            "lengths")
    count = int(math.floor(intervals)) + 1
    return [lo + k * step for k in range(count)]


def _parse_mu_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"--mu must be a comma-separated list, got {text!r}") from exc
    if not values:
        raise UsageError("--mu list is empty")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"--mu values must be finite, got {text!r}")
    if any(v <= 0.0 for v in values):
        raise UsageError("--mu values must be > 0")
    if sorted(values) != values or len(set(values)) != len(values):
        raise UsageError("--mu values must be strictly increasing")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    doc = _load_config_doc(args.config) if args.config else {}
    cfg = _resolve_experiment(args, doc)
    res = efficiency(cfg)
    shape = res.shape
    ab = shape.alpha_beta
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _config_doc(cfg),
            "eta": res.eta,
            "shape": {"xi": shape.xi, "sigma_c": shape.sigma_c,
                      "sigma1": shape.sigma1, "sigma2": shape.sigma2,
                      "alpha1": ab.alpha1, "alpha2": ab.alpha2,
                      "beta": ab.beta},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"eta     = {_fmt(res.eta)}")
        print(f"xi      = {_fmt(shape.xi)}")
        print(f"sigma_c = {_fmt(shape.sigma_c)}")
        print(f"sigma1  = {_fmt(shape.sigma1)}")
        print(f"sigma2  = {_fmt(shape.sigma2)}")
        print(f"alpha1  = {_fmt(ab.alpha1)}")
        print(f"alpha2  = {_fmt(ab.alpha2)}")
        print(f"beta    = {_fmt(ab.beta)}")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepSpec, efficiency_curve

    doc = _load_config_doc(args.config) if args.config else {}
    l_grid_mm = _parse_l_range_mm(args.L_range)
    mu_values = _parse_mu_list(args.mu)
    # the sweep grid supplies L and mu; neutralize their single-value slots
    plain = argparse.Namespace(**{**vars(args), "L_mm": None, "mu": None})
    template = _resolve_experiment(plain, doc, optional=("L", "mu"))
    spec = SweepSpec(l_grid=tuple(1000.0 * l for l in l_grid_mm),
                     mu_values=tuple(mu_values), fixed=template)
    result = efficiency_curve(spec)
    if args.format == "json":
        rows = [{"L_mm": r.length / 1000.0, "mu": r.mu, "xi": r.xi,
                 "eta": r.eta} for r in result.rows]
        print(json.dumps({"schema_version": SCHEMA_VERSION, "rows": rows},
                         indent=2))
    else:
        print(CSV_HEADER)
        for r in result.rows:
            print(f"{_fmt(r.length / 1000.0)},{_fmt(r.mu)},"
                  f"{_fmt(r.xi)},{_fmt(r.eta)}")
    return 0


def _cmd_optimize(args) -> int:
    from .sweep import maximize_eta

    doc = _load_config_doc(args.config) if args.config else {}
    lo, hi = _parse_pair(args.bounds, "--bounds")
    if lo <= 0.0 or hi <= lo:
        raise UsageError(
            f"--bounds must satisfy 0 < lo < hi for {args.var}, got {args.bounds!r}")
    optional = {"mu": ("mu",), "xi": ("mu", "w"), "rp": ("rp",)}[args.var]
    cfg = _resolve_experiment(args, doc, optional=optional)
    res = maximize_eta(cfg, args.var, (lo, hi))
    if args.format == "json":
        print(json.dumps({
            "schema_version": SCHEMA_VERSION, "variable": res.variable,
            "argmax": res.argmax, "eta_max": res.eta_max,
            "bracket": list(res.bracket), "iterations": res.iterations,
            "boundary": res.boundary}, indent=2))
    else:
        print(f"variable   = {res.variable}")
        print(f"argmax     = {_fmt(res.argmax)}")
        print(f"eta_max    = {_fmt(res.eta_max)}")
        print(f"bracket    = [{_fmt(res.bracket[0])}, {_fmt(res.bracket[1])}]")
        print(f"iterations = {res.iterations}")
        print(f"boundary   = {'yes' if res.boundary else 'no'}")
    if res.boundary:
        print("note: maximum sits on a bracket boundary; no interior "
              "optimum established", file=sys.stderr)
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import eta_numeric

    doc = _load_config_doc(args.config) if args.config else {}
    cfg = _resolve_experiment(args, doc)
    quad = _resolve_quadrature(args, doc)
    eta_closed = efficiency(cfg).eta
    try:
        oracle = eta_numeric(cfg, quad)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: the quadrature oracle needs numpy: {exc}",
              file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"eta_closed    = {_fmt(eta_closed)}")
        print(f"eta_numeric   = {_fmt(exc.eta_fine)}   (unconverged)")
        print(f"est_rel_err   = {_fmt(exc.est_rel_err)}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    deviation = abs(oracle.eta_numeric - eta_closed) / eta_closed
    threshold = max(1e-4, 3.0 * oracle.est_rel_err)
    ok = deviation <= threshold
    if args.format == "json":
        print(json.dumps({
            "schema_version": SCHEMA_VERSION, "config": _config_doc(cfg),
            "eta_closed": eta_closed, "eta_numeric": oracle.eta_numeric,
            "rel_deviation": deviation, "est_rel_err": oracle.est_rel_err,
            "pieces": list(oracle.pieces), "pass": ok}, indent=2))
    else:
        print(f"eta_closed    = {_fmt(eta_closed)}")
        print(f"eta_numeric   = {_fmt(oracle.eta_numeric)}")
        print(f"rel_deviation = {_fmt(deviation)}")
        print(f"est_rel_err   = {_fmt(oracle.est_rel_err)}")
    if not ok:
        print(f"error: closed form and quadrature disagree: deviation "
              f"{deviation:.3g} > {threshold:.3g}", file=sys.stderr)
        return 1
    return 0


def _cmd_params(args) -> int:
    explicit = (args.Mp, args.M, args.QK)
    if any(v is not None for v in explicit) and args.sellmeier is not None:
        raise UsageError("--Mp/--M/--QK and --sellmeier are mutually exclusive")
    temporal = None
    if args.sellmeier is not None:
        from .dispersion import build_walkoff_set, group_delay_params

        model = _load_model(args.sellmeier)
        geometry = _geometry(args)
        walkoffs = build_walkoff_set(model, geometry)
        temporal = group_delay_params(model, geometry)
    elif all(v is not None for v in explicit):
        walkoffs = WalkOffSet(m_p=args.Mp, m=args.M, q_over_k=args.QK)
    else:
        raise UsageError("pass either all of --Mp/--M/--QK or --sellmeier")
    ab = compute_alpha_beta(walkoffs)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "walkoffs": {"Mp": walkoffs.m_p, "M": walkoffs.m,
                         "QK": walkoffs.q_over_k},
            "alpha1": ab.alpha1, "alpha2": ab.alpha2, "beta": ab.beta,
            "temporal": None if temporal is None else
            {"D_fs_per_um": temporal.d, "Lambda_fs_per_um": temporal.lam},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"Mp     = {_fmt(walkoffs.m_p)}")
        print(f"M      = {_fmt(walkoffs.m)}")
        print(f"QK     = {_fmt(walkoffs.q_over_k)}")
        print(f"alpha1 = {_fmt(ab.alpha1)}")
        print(f"alpha2 = {_fmt(ab.alpha2)}")
        print(f"beta   = {_fmt(ab.beta)}")
        if temporal is not None:
            print(f"D_fs_per_um      = {_fmt(temporal.d)}")
            print(f"Lambda_fs_per_um = {_fmt(temporal.lam)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, with_length: bool = True,
                with_mu: bool = True) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file; flags override its values")
    if with_length:
        parser.add_argument("--L-mm", dest="L_mm", type=float,
                            help="crystal length in mm")
    parser.add_argument("--rp-um", dest="rp_um", type=float,
                        help="pump waist (1/e field radius) in um")
    parser.add_argument("--w-um", dest="w_um", type=float,
                        help="fiber mode field radius in um")
    parser.add_argument("--mfd-um", dest="mfd_um", type=float,
                        help="fiber mode-field diameter in um (w = MFD/(2 sqrt 2))")
    if with_mu:
        parser.add_argument("--mu", type=float, help="inverse magnification")
    parser.add_argument("--f-mm", dest="f_mm", type=float,
                        help="coupling-lens focal length in mm")
    parser.add_argument("--dbl-mm", dest="dbl_mm", type=float,
                        help="crystal-to-lens distance in mm")
    _add_walkoff_flags(parser)
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_walkoff_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--Mp", type=float, help="pump walk-off magnitude")
    parser.add_argument("--M", type=float, help="generated-field walk-off magnitude")
    parser.add_argument("--QK", type=float,
                        help="transverse phase-matching wave-vector over mean wave-vector")
    parser.add_argument("--sellmeier", nargs="?", const="", metavar="FILE",
                        help="derive walk-offs from a Sellmeier JSON file; "
                             f"without FILE uses ${SELLMEIER_PATH_ENV} or the "
                             "bundled BBO data")
    parser.add_argument("--pump-nm", dest="pump_nm", type=float, default=415.0,
                        help="pump wavelength in nm (default 415)")
    parser.add_argument("--cut-angle-deg", dest="cut_angle_deg", type=float,
                        default=DEFAULT_CUT_ANGLE_DEG,
                        help=f"optic-axis cut angle in deg (default "
                             f"{DEFAULT_CUT_ANGLE_DEG}, a package default)")
    parser.add_argument("--cone-angle-deg", dest="cone_angle_deg", type=float,
                        default=3.5,
                        help="external emission-cone angle in deg (default 3.5)")


def _add_quadrature_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-tau", dest="n_tau", type=int,
                        help="Gauss-Legendre points along the crystal")
    parser.add_argument("--n-trans", dest="n_trans", type=int,
                        help="transverse trapezoid points per axis")
    parser.add_argument("--extent-factor", dest="extent_factor", type=float,
                        help="transverse half-width in units of max(w*mu, r_p)")
    parser.add_argument("--target-rel-err", dest="target_rel_err", type=float,
                        help="refinement target for the error estimate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcfc",
        description="Fiber-coupling efficiency tools for photon-pair sources")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="closed-form efficiency of one configuration")
    _add_common(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="efficiency vs crystal length as CSV/JSON")
    p_sweep.add_argument("--L-range", dest="L_range", required=True,
                         metavar="LO:HI:STEP", help="crystal lengths in mm")
    p_sweep.add_argument("--mu", default="25,35,49,60,80",
                         help="comma-separated magnifications, increasing "
                              "(default 25,35,49,60,80: an illustrative set "
                              "around the anchored design point 49)")
    _add_common(p_sweep, with_length=False, with_mu=False)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_opt = sub.add_parser("optimize", help="maximize efficiency over one variable")
    p_opt.add_argument("--var", required=True, choices=VARIABLES)
    p_opt.add_argument("--bounds", required=True, metavar="LO:HI")
    _add_common(p_opt)
    p_opt.set_defaults(handler=_cmd_optimize)

    p_oracle = sub.add_parser(
        "oracle", help="compare the closed form against the overlap quadrature")
    _add_common(p_oracle)
    _add_quadrature_flags(p_oracle)
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_params = sub.add_parser(
        "params", help="derive walk-off and group-delay parameters")
    _add_walkoff_flags(p_params)
    p_params.add_argument("--format", choices=("text", "json"), default="text")
    p_params.set_defaults(handler=_cmd_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); send what is still buffered
        # to devnull so the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
