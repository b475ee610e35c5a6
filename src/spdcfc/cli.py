"""Command-line front end: evaluate, sweep, optimize, oracle, params.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 when a computation fails a domain or convergence check, 2 when the
command line or a config file is unusable.  Crystal length and lens
distances are taken in mm on the command line; everything else follows
the package's micrometre convention.  Numbers print with 9 significant
digits and a "." decimal separator regardless of locale.

Every subcommand prints its results as "name = value" lines (sweep: CSV
rows), or with --format json as one JSON document that starts with
schema_version; _emit writes both.  A config file follows _SCHEMA, and
each value comes from its flag, else the file, else a default: the
quadrature's are QuadratureSpec's own.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

# dispersion, oracle and sweep are imported by the commands that use
# them, so a command loads only the modules it runs
from .core import (
    DEFAULT_CUT_ANGLE_DEG,
    DEFAULT_MU_VALUES,
    VARIABLES,
    ExperimentConfig,
    WalkOffSet,
    _require_in,
    _require_pair,
    compute_alpha_beta,
    efficiency,
    magnification,
    mode_field_radius,
)
from .errors import ConvergenceError, DomainError

SELLMEIER_PATH_ENV = "SPDCFC_SELLMEIER_PATH"

SCHEMA_VERSION = 1

# each config key and what it holds: a number, a whole number (a grid
# size), or an object with keys of its own; schema_version is checked
# apart.  The walk-offs are in the order of WalkOffSet's fields
_SCHEMA = {"schema_version": None, "L_um": "number", "rp_um": "number",
           "w_um": "number", "mu": "number",
           "walkoffs": {"Mp": "number", "M": "number", "QK": "number"},
           "quadrature": {"n_tau": "whole", "n_trans": "whole",
                          "extent_factor": "number",
                          "target_rel_err": "number"}}

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

def _check_number(name: str, kind: str, value) -> None:
    # a JSON number (not a bool) within the float range, and whole for a
    # grid size; the message quotes at most 40 characters of the value
    whole = kind == "whole"
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (float(value).is_integer() or not whole))
    except OverflowError:  # a JSON integer beyond the float range
        ok = False
    if not ok:
        shown = "a whole number" if whole else "a number"
        raise UsageError(f"config {name} must be {shown}, got {value!r:.40}")


def _load_config_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # undecodable text or malformed JSON
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    if "config" in doc:
        # a previous `eval --format json` output fed back in
        unknown = set(doc) - {"schema_version", "config", "eta", "shape"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        inner = doc["config"]
        if not isinstance(inner, dict):
            raise UsageError("config entry must be a JSON object")
        # the outer version speaks for the inner config unless it has one
        doc = {"schema_version": doc.get("schema_version", SCHEMA_VERSION),
               **inner}
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    version = doc.get("schema_version")
    # the JSON integer only: true and 1.0 compare equal to 1 in Python
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UsageError(
            f"config schema_version must be {SCHEMA_VERSION}, "
            f"got {version!r}")
    subs = {key: kinds for key, kinds in _SCHEMA.items()
            if isinstance(kinds, dict)}
    for sub, kinds in subs.items():
        if sub in doc:
            if not isinstance(doc[sub], dict):
                raise UsageError(f"{sub} must be a JSON object")
            bad = set(doc[sub]) - set(kinds)
            if bad:
                raise UsageError(f"unknown {sub} keys: {sorted(bad)}")
    levels = [("", doc, _SCHEMA)] + [(f"{sub}.", doc.get(sub, {}), kinds)
                                     for sub, kinds in subs.items()]
    for prefix, entries, kinds in levels:
        for key, value in entries.items():
            # null reads as absent, except for a walk-off
            if isinstance(kinds[key], str) and (value is not None
                                                or prefix == "walkoffs."):
                _check_number(prefix + key, kinds[key], value)
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
    except DomainError as exc:
        raise UsageError(f"bad Sellmeier file: {exc}") from exc
    except ValueError as exc:  # undecodable text or malformed JSON
        raise UsageError(f"Sellmeier file is not valid JSON: {exc}") from exc


def _resolve_walkoffs(args, doc: dict) -> tuple[WalkOffSet, dict,
                                                 tuple | None]:
    """Walk-offs from the flags, a Sellmeier file or the config file.

    Returns the WalkOffSet; its values keyed Mp, M and QK as the flags or
    the file gave them; and the (model, geometry) pair the walk-offs were
    derived from when they came from a Sellmeier file, else None.
    """
    explicit = (args.Mp, args.M, args.QK)
    derived = None
    if any(v is not None for v in explicit):
        if args.sellmeier is not None:
            raise UsageError("--Mp/--M/--QK and --sellmeier are mutually exclusive")
        if any(v is None for v in explicit):
            raise UsageError("provide all of --Mp, --M and --QK together")
        values = explicit
    elif args.sellmeier is not None:
        from .dispersion import PhaseMatchGeometry, build_walkoff_set

        model = _load_model(args.sellmeier)
        derived = model, PhaseMatchGeometry.degenerate(
            pump_wavelength=args.pump_nm * 1e-3,
            cut_angle=math.radians(args.cut_angle_deg),
            external_cone_angle=math.radians(args.cone_angle_deg))
        values = vars(build_walkoff_set(*derived)).values()
    elif "walkoffs" in doc:
        w = doc["walkoffs"]
        missing = set(_SCHEMA["walkoffs"]) - set(w)
        if missing:
            raise UsageError(f"config walkoffs missing {sorted(missing)}")
        values = [w[key] for key in _SCHEMA["walkoffs"]]
    else:
        # params takes no config file
        or_config = ", or a config file" if "config" in args else ""
        raise UsageError(
            f"no walk-offs: pass --Mp/--M/--QK, or --sellmeier{or_config}")
    given = dict(zip(_SCHEMA["walkoffs"], values))
    return WalkOffSet(*given.values()), given, derived


def _pick(flag_value, doc: dict, key: str, placeholders: dict, missing: str):
    """A flag's value, else the config file's value under key, else
    placeholders[key]; a UsageError naming what is missing when none is
    set."""
    value = flag_value if flag_value is not None else doc.get(key)
    if value is None:
        value = placeholders.get(key)
        if value is None:
            raise UsageError(f"missing {missing}")
    return value


def _resolve_experiment(args, doc: dict, *, optional: tuple[str, ...] = ()
                        ) -> tuple[ExperimentConfig, dict]:
    """Assemble the experiment from flags over config-file values.

    Returns the config and the values it was built from, as the flags or
    the file gave them, keyed as in a config file: the JSON outputs echo
    these, so a config file's 53 is echoed as 53.  The config keys named
    in optional may be omitted; they get a placeholder of 1.0 because
    the subcommand overrides them per point (the sweep grid, the
    optimized variable).
    """
    placeholders = dict.fromkeys(optional, 1.0)
    length_um = _pick(None if args.L_mm is None else 1000.0 * args.L_mm, doc,
                      "L_um", placeholders, "crystal length: pass --L-mm")
    rp = _pick(args.rp_um, doc, "rp_um", placeholders,
               "pump waist: pass --rp-um")
    if args.w_um is not None and args.mfd_um is not None:
        raise UsageError("--w-um and --mfd-um are mutually exclusive")
    w = _pick(args.w_um if args.mfd_um is None
              else mode_field_radius(args.mfd_um), doc, "w_um", placeholders,
              "fiber mode: pass --w-um or --mfd-um")
    lens = (args.f_mm is not None, args.dbl_mm is not None)
    if any(lens) and not all(lens):
        raise UsageError("--f-mm and --dbl-mm must be given together")
    if args.mu is not None and all(lens):
        raise UsageError("--mu and --f-mm/--dbl-mm are mutually exclusive")
    mu = _pick(magnification(args.f_mm, args.dbl_mm)[0] if all(lens)
               else args.mu, doc, "mu", placeholders,
               "magnification: pass --mu or --f-mm/--dbl-mm")
    walkoffs, given_walkoffs, _ = _resolve_walkoffs(args, doc)
    given = {"L_um": length_um, "rp_um": rp, "w_um": w, "mu": mu,
             "walkoffs": given_walkoffs}
    return ExperimentConfig(length_um, rp, w, mu, walkoffs), given


def _resolve_quadrature(args, doc: dict) -> QuadratureSpec:
    from .oracle import QuadratureSpec

    # a flag over the file's value; QuadratureSpec's default where neither
    # gives one.  A file's whole float grid size is passed as an int
    qdoc = doc.get("quadrature", {})
    given = {}
    for key, kind in _SCHEMA["quadrature"].items():
        value = getattr(args, key)
        value = qdoc.get(key) if value is None else value
        if value is not None:
            given[key] = int(value) if kind == "whole" else value
    return QuadratureSpec(**given)


def _parse_numbers(text: str, flag: str, form: str) -> list[float]:
    # the finite numbers of a flag value that looks like form, e.g. lo:hi
    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise UsageError(f"{flag} must look like {form}, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"{flag} must be numeric, got {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    return values


def _parse_l_range_mm(text: str) -> list[float]:
    lo, hi, step = _parse_numbers(text, "--L-range", "lo:hi:step")
    try:  # core's order and range, as usage errors
        _require_pair("--L-range", (lo, hi), "0 < lo <= hi")
        _require_in("--L-range step", step, "> 0")
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    intervals = (hi - lo) / step + 1e-9  # may overflow to inf
    # floor(intervals) + 1 lengths exceed the cap exactly when this holds
    if intervals >= MAX_L_RANGE_POINTS:
        raise UsageError(
            f"--L-range {text!r} asks for more than {MAX_L_RANGE_POINTS} "
            "lengths")
    count = int(math.floor(intervals)) + 1
    return [lo + k * step for k in range(count)]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _render(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(map(_render, value)) + "]"
    return value if isinstance(value, str) else _fmt(value)


def _lines(fields: dict) -> list[str]:
    """One "name = value" line per field, names padded to the longest."""
    width = max(map(len, fields))
    return [f"{name:<{width}} = {_render(value)}"
            for name, value in fields.items()]


def _emit(args, fields: dict, text=None) -> None:
    """fields as one JSON document under --format json; else the lines of
    text, an iterable of strings, which by default are fields' own."""
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, **fields},
                         indent=2))
        return
    for line in _lines(fields) if text is None else text:
        print(line)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args, doc: dict) -> int:
    cfg, given = _resolve_experiment(args, doc)
    res = efficiency(cfg)
    shape = res.shape
    ab = shape.alpha_beta
    shape_fields = {"xi": shape.xi, "sigma_c": shape.sigma_c,
                    "sigma1": shape.sigma1, "sigma2": shape.sigma2,
                    "alpha1": ab.alpha1, "alpha2": ab.alpha2, "beta": ab.beta}
    _emit(args, {"config": given, "eta": res.eta, "shape": shape_fields},
          _lines({"eta": res.eta, **shape_fields}))
    return 0


def _cmd_sweep(args, doc: dict) -> int:
    from .sweep import SweepSpec, _validated_grid, efficiency_curve

    l_grid_mm = _parse_l_range_mm(args.L_range)
    try:
        mu_values = _validated_grid(
            "--mu", [float(p) for p in args.mu_list.split(",") if p.strip()])
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    except ValueError as exc:  # float() of an item that is not a number
        raise UsageError(f"--mu must be numeric, got {args.mu_list!r}") from exc
    # the sweep grid supplies L and mu; the parser leaves their flags unset
    template = _resolve_experiment(args, doc, optional=("L_um", "mu"))[0]
    spec = SweepSpec(l_grid=tuple(1000.0 * l for l in l_grid_mm),
                     mu_values=mu_values, fixed=template)
    columns = CSV_HEADER.split(",")
    rows = [dict(zip(columns, (r.length / 1000.0, r.mu, r.xi, r.eta)))
            for r in efficiency_curve(spec).rows]
    _emit(args, {"rows": rows}, itertools.chain(
        [CSV_HEADER], (",".join(map(_fmt, row.values())) for row in rows)))
    return 0


def _cmd_optimize(args, doc: dict) -> int:
    from .sweep import maximize_eta

    try:  # core's order for maximize_eta's bounds, as a usage error
        lo, hi = _require_pair("--bounds", _parse_numbers(
            args.bounds, "--bounds", "lo:hi"), "0 < lo < hi")
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    optional = {"mu": ("mu",), "xi": ("mu", "w_um"), "rp": ("rp_um",)}[args.var]
    cfg = _resolve_experiment(args, doc, optional=optional)[0]
    res = maximize_eta(cfg, args.var, (lo, hi))
    _emit(args, {"variable": res.variable, "argmax": res.argmax,
                 "eta_max": res.eta_max, "bracket": list(res.bracket),
                 "iterations": res.iterations, "boundary": res.boundary})
    if res.boundary:
        print("note: maximum sits on a bracket boundary; no interior "
              "optimum established", file=sys.stderr)
    return 0


def _cmd_oracle(args, doc: dict) -> int:
    from .oracle import eta_numeric

    cfg, given = _resolve_experiment(args, doc)
    quad = _resolve_quadrature(args, doc)
    eta_closed = efficiency(cfg).eta
    try:
        import numpy as np  # inside the try: its absence is reported below

        # an exponent that overflows to -inf has exp 0, its exact value
        with np.errstate(over="ignore"):
            oracle = eta_numeric(cfg, quad)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: the quadrature oracle needs numpy: {exc}",
              file=sys.stderr)
        return 1
    except ZeroDivisionError:
        # a grid too coarse for the narrower Gaussian makes an integral 0,
        # and the quadrature divides by it
        print("error: the quadrature underflows to 0 at this configuration, "
              "so the oracle cannot check it", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        # the text pads its names to the width of the converged output
        _emit(args, {"config": given, "eta_closed": eta_closed,
                     "eta_numeric": exc.eta_fine,
                     "est_rel_err": exc.est_rel_err, "pass": False},
              [f"eta_closed    = {_fmt(eta_closed)}",
               f"eta_numeric   = {_fmt(exc.eta_fine)}   (unconverged)",
               f"est_rel_err   = {_fmt(exc.est_rel_err)}"])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    deviation = abs(oracle.eta_numeric - eta_closed) / eta_closed
    threshold = max(1e-4, 3.0 * oracle.est_rel_err)
    ok = deviation <= threshold
    fields = {"eta_closed": eta_closed, "eta_numeric": oracle.eta_numeric,
              "rel_deviation": deviation, "est_rel_err": oracle.est_rel_err}
    _emit(args, {"config": given, **fields, "pieces": list(oracle.pieces),
                 "pass": ok}, _lines(fields))
    if not ok:
        print(f"error: closed form and quadrature disagree: deviation "
              f"{deviation:.3g} > {threshold:.3g}", file=sys.stderr)
        return 1
    return 0


def _cmd_params(args, doc: dict) -> int:
    walkoffs, walkoff_fields, derived = _resolve_walkoffs(args, doc)
    ab = compute_alpha_beta(walkoffs)
    ab_fields = {"alpha1": ab.alpha1, "alpha2": ab.alpha2, "beta": ab.beta}
    temporal_fields = None
    if derived is not None:
        from .dispersion import group_delay_params

        temporal = group_delay_params(*derived)
        temporal_fields = {"D_fs_per_um": temporal.d,
                           "Lambda_fs_per_um": temporal.lam}
    _emit(args, {"walkoffs": walkoff_fields, **ab_fields,
                 "temporal": temporal_fields},
          _lines({**walkoff_fields, **ab_fields})
          + (_lines(temporal_fields) if temporal_fields else []))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *,
                single_point: bool = True) -> None:
    # single_point adds --L-mm and --mu; sweep takes grids of both instead
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file; flags override its values")
    if single_point:
        parser.add_argument("--L-mm", dest="L_mm", type=float,
                            help="crystal length in mm")
    parser.add_argument("--rp-um", dest="rp_um", type=float,
                        help="pump waist (1/e field radius) in um")
    parser.add_argument("--w-um", dest="w_um", type=float,
                        help="fiber mode field radius in um")
    parser.add_argument("--mfd-um", dest="mfd_um", type=float,
                        help="fiber mode-field diameter in um (w = MFD/(2 sqrt 2))")
    if single_point:
        parser.add_argument("--mu", type=float, help="inverse magnification")
    parser.add_argument("--f-mm", dest="f_mm", type=float,
                        help="coupling-lens focal length in mm")
    parser.add_argument("--dbl-mm", dest="dbl_mm", type=float,
                        help="crystal-to-lens distance in mm")
    _add_shared_flags(parser)


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    # the walk-off sources and --format, which every subcommand takes
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
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_quadrature_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-tau", dest="n_tau", type=int,
                        help="Gauss-Legendre points per depth integral, "
                             "each on its own range within the crystal")
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
    default_mu = ",".join(format(v, "g") for v in DEFAULT_MU_VALUES)
    p_sweep.add_argument("--mu", dest="mu_list", metavar="MU",
                         default=default_mu,
                         help="comma-separated magnifications, increasing "
                              f"(default {default_mu}: an illustrative set "
                              "around the anchored design point 49)")
    _add_common(p_sweep, single_point=False)
    # the --L-range and --mu grids take the place of single values
    p_sweep.set_defaults(handler=_cmd_sweep, L_mm=None, mu=None)

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
    _add_shared_flags(p_params)
    p_params.set_defaults(handler=_cmd_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # params takes no config file
        path = getattr(args, "config", None)
        code = args.handler(args, _load_config_doc(path) if path else {})
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
    except (ConvergenceError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
