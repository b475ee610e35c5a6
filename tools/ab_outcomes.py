"""Record what a fixed list of spdcfc calls returns, and compare two records.

    python3 tools/ab_outcomes.py dump CHECKOUT OUT.json
    python3 tools/ab_outcomes.py compare A.json B.json

``dump`` imports spdcfc from ``CHECKOUT/src`` (and refuses a copy found
anywhere else), runs a seeded list of public calls, and writes each
call's outcome: the ``repr`` of its value, or its error type and text,
plus the text of any warning it raised.  The calls cover the closed
form, the sweeps and optimizer, the quadrature oracle, the Sellmeier
front end and the experimental bookkeeping, on random inputs over many
decades mixed with 0, -1, 5e-324, 1e300, +-inf, nan, the erf-series
cutoff, values that are not numbers, ``Decimal`` numbers and int fields
from 1 to ``10**308``, the index-model check on scaled copies of the
bundled Sellmeier coefficients, configurations whose product w*mu
leaves the normal float range beside copies scaled back into it, index
models whose arithmetic reaches past the float range, design studies
on bundled-BBO walk-offs over the design ranges of the benchmark's
``design_scan``, in-process command lines through ``spdcfc.cli.main``
(seeded argv draws over all five subcommands and config files of every
form), whose exit code, stdout and stderr are recorded with the
temporary directory's path replaced by ``<tmp>``, and counts given as
numpy integers, bools and integral floats beside ordered pairs at the
edges of their orders, and the oracle over the wide-domain probe of
ROADMAP item 3.  The list depends only on the seed, so a dump
of one checkout under two environments, or of two checkouts, can be
compared entry by entry.

``compare`` prints every call whose outcome differs and exits 1 if
any does, 0 if none does.  Standard library only, besides spdcfc and
numpy (which the oracle imports, and whose integers some counts are).
A dump takes well under 30 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

SEED = 20260317
N_CONFIGS = 3000
SPECIALS = (0.0, -1.0, 5e-324, 1e300, math.inf, -math.inf, math.nan)
CUTOFF = 1e-4  # core.EROS_SERIES_CUTOFF
REF_WALKOFFS = (0.07631, 0.07243, 0.036215)  # m_p, m, q/K of the design


def load_spdcfc(checkout: Path):
    src = (checkout / "src").resolve()
    if not (src / "spdcfc" / "__init__.py").is_file():
        sys.exit(f"no package sources at {src / 'spdcfc'}")
    sys.path.insert(0, str(src))
    import spdcfc
    if src not in Path(spdcfc.__file__).resolve().parents:
        sys.exit(f"imported spdcfc from {spdcfc.__file__}, not {src}")
    return spdcfc


def outcome(call) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {"value": repr(call())}
        except Exception as exc:  # every error is an outcome to record
            out = {"error": type(exc).__name__, "text": str(exc)}
    if caught:
        out["warnings"] = [f"{w.category.__name__}: {w.message}"
                           for w in caught]
    return out


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def maybe_special(rng: random.Random, value: float, p: float = 0.05):
    return rng.choice(SPECIALS) if rng.random() < p else value


def random_configs(rng: random.Random, n: int) -> list[tuple]:
    # (L, r_p, w, mu, (m_p, m, q/K)) in um; a few draws land on the series
    # cutoff or have a zero pair decay (M_p = M with q/K = 0)
    configs = []
    for _ in range(n):
        walkoffs = [maybe_special(rng, rng.uniform(0.0, 0.3), 0.02)
                    for _ in range(3)]
        if rng.random() < 0.03:
            walkoffs = [walkoffs[0], walkoffs[0], 0.0]
        length = log_uniform(rng, 1e-6, 1e8)
        rp = log_uniform(rng, 1e-3, 1e5)
        if rng.random() < 0.02:  # sigma near the cutoff: L/r_p k ~ 1e-4
            length = CUTOFF * rp / 0.05 * rng.choice((0.999, 1.0, 1.001))
        configs.append((maybe_special(rng, length), maybe_special(rng, rp),
                        maybe_special(rng, log_uniform(rng, 1e-3, 1e3)),
                        maybe_special(rng, log_uniform(rng, 1e-3, 1e5)),
                        tuple(walkoffs)))
    return configs


def closed_form_calls(api, rng: random.Random) -> list[tuple[str, object]]:
    def config(args):
        length, rp, w, mu, wo = args
        return api.ExperimentConfig(length, rp, w, mu, api.WalkOffSet(*wo))

    calls = []
    for k, args in enumerate(random_configs(rng, N_CONFIGS)):
        calls.append((f"efficiency{args!r}",
                      lambda a=args: api.efficiency(config(a))))
        for var, bounds in (("mu", (1.0, 200.0)), ("rp", (3.0, 1000.0)),
                            ("xi", (0.1, 10.0))):
            calls.append((f"maximize_eta{args!r}, {var!r}, {bounds!r}",
                          lambda a=args, v=var, b=bounds:
                          api.maximize_eta(config(a), v, b)))
        if k % 5 == 0:
            lengths = sorted({args[0] if type(args[0]) is float
                              and args[0] > 0 and math.isfinite(args[0])
                              else 1.0, 1e3, 3e3})
            calls.append((f"efficiency_curve{args!r}, {lengths!r}",
                          lambda a=args, ls=tuple(lengths):
                          api.efficiency_curve(api.SweepSpec(
                              ls, (0.5, 25.0, 49.0, 1e4), config(a)))))
            calls.append((f"ceiling_scan{args[1:]!r}, {lengths!r}",
                          lambda a=args, ls=tuple(lengths): api.ceiling_scan(
                              a[1], api.WalkOffSet(*a[4]), ls)))
    # hand-built shapes skip the xi step: tiny and huge xi, zero, cutoff
    # and subnormal sigmas
    sigmas = (0.0, 5e-324, 1e-300, math.nextafter(CUTOFF, 0.0), CUTOFF,
              math.nextafter(CUTOFF, 1.0), 0.3, 1.0, 30.0, 1e300)
    for _ in range(600):
        xi = rng.choice((log_uniform(rng, 1e-200, 1e200), 1.0, 1e77, 1e160))
        args = (xi, *(rng.choice(sigmas) for _ in range(3)))
        calls.append((f"eta_closed_form{args!r}",
                      lambda a=args: api.eta_closed_form(api.ShapeParams(
                          *a, api.AlphaBeta(0.01, 0.02, 0.03)))))
    for x in (*SPECIALS, CUTOFF, 0.5, 7.0, 1e-310, sys.float_info.max, "1",
              None):
        for fn in (api.erf, api.erf_over_sigma, api.sigma_over_erf):
            calls.append((f"{fn.__name__}({x!r})", lambda f=fn, v=x: f(v)))
    for args in ((0.5, 0.9, 0.8), (1.0, 5e-324, 0.5), (0.3, 1.0, 1.0),
                 (1e-300, 1e-200, 1e-200), (0.0, 0.5, 0.5)):
        calls.append((f"effective_to_raw{args!r}",
                      lambda a=args: api.effective_to_raw(*a)))
        calls.append((f"raw_to_effective{args!r}",
                      lambda a=args: api.raw_to_effective(*a)))
    # optimum records with a bracket out of order, a variable, count or
    # flag of the wrong kind, and equal bracket ends
    for args in (("mu", 1.0, 0.5, (2.0, 1.0), -1, "yes"),
                 ("L", 1.0, 0.5, (1.0, 2.0), 20, False),
                 ("xi", 1.0, 0.5, (1.0, 2.0), True, False),
                 ("xi", 1.0, 0.5, (1.0, 2.0), 20, 0),
                 ("xi", 1.0, 0.5, (1.0, 1.0), 0, True)):
        calls.append((f"OptResult{args!r}", lambda a=args: api.OptResult(*a)))
    for args in ((50.0, 100.0), (50.0, 50.0), (-1.0, 5.0), (1e-300, 1e300)):
        calls.append((f"magnification{args!r}",
                      lambda a=args: api.magnification(*a)))
    for d in (4.2, 0.0, 5e-324, math.nan):
        calls.append((f"mode_field_radius({d!r})",
                      lambda v=d: api.mode_field_radius(v)))
        calls.append((f"pump_waist_from_diameter({d!r})",
                      lambda v=d: api.pump_waist_from_diameter(v)))
    return calls


def oracle_calls(api, rng: random.Random) -> list[tuple[str, object]]:
    calls = []
    # design-like and wide configs, every fifth with a zero pair decay,
    # then the reference design at lengths up to past ~1.3e154 um, where
    # tau^2 overflows
    configs = []
    for k in range(100):
        wide = k % 2
        walkoffs = tuple(rng.uniform(0.0, 0.2) for _ in range(3))
        if k % 10 == 0:
            walkoffs = (0.0, 0.0, 0.0)
        elif k % 5 == 0:
            walkoffs = (walkoffs[0], walkoffs[0], 0.0)
        configs.append((
            log_uniform(rng, 10.0, 1e5 if wide else 2e4),
            log_uniform(rng, 3.0, 1000.0) if wide else rng.uniform(30.0, 80.0),
            log_uniform(rng, 1.0, 10.0) if wide else rng.uniform(1.2, 2.0),
            log_uniform(rng, 1.0, 1000.0) if wide else rng.uniform(25.0, 80.0),
            walkoffs))
    for length in (3000.0, 1e5, 1e150, 1e163, 1e300):
        for wo in ((0.0, 0.0, 0.0), (0.05, 0.05, 0.0), REF_WALKOFFS):
            configs.append((length, 53.0, 1.48, 49.0, wo))
    # a nonzero pair decay at a length whose square overflows
    configs.append((1e160, 0.01, 0.01, 1.0, (1e-8, 0.0, 0.0)))
    # the ends of the design region's xi = w mu / r_p range, where some
    # kernel lanes reach exponents below ln(DBL_MIN); their own stream, so
    # the calls above and below keep theirs
    tail = random.Random(f"{SEED}:design-tail")
    for k in range(40):
        rp = tail.uniform(30.0, 120.0)
        xi = tail.uniform(*((0.2, 0.25) if k % 2 else (4.0, 5.0)))
        configs.append((tail.uniform(3000.0, 5000.0), rp, 1.48,
                        xi * rp / 1.48, REF_WALKOFFS))
    for args in configs:
        calls.append((f"eta_numeric{args!r}",
                      lambda a=args: api.eta_numeric(api.ExperimentConfig(
                          *a[:4], api.WalkOffSet(*a[4])))))
    # the same tails under specs whose kernel passes hold two blocks and
    # then one (n_tau * n_trans = 49,152), or one (98,304), so that the
    # low lanes fall in some blocks of a pass only; again their own stream
    split = random.Random(f"{SEED}:split-passes")
    for n_tau in (128, 256):
        for k in range(10):
            rp = split.uniform(30.0, 120.0)
            xi = split.uniform(*((0.2, 0.25) if k % 2 else (4.0, 5.0)))
            args = (split.uniform(3000.0, 5000.0), rp, 1.48, xi * rp / 1.48,
                    REF_WALKOFFS)
            calls.append((f"eta_numeric{args!r}, n_tau={n_tau}, n_trans=384",
                          lambda a=args, n=n_tau: api.eta_numeric(
                              api.ExperimentConfig(*a[:4],
                                                   api.WalkOffSet(*a[4])),
                              api.QuadratureSpec(n_tau=n, n_trans=384))))
    ref = api.ExperimentConfig(3000.0, 53.0, 1.48, 49.0,
                               api.WalkOffSet(*REF_WALKOFFS))
    for tau in (0.0, 1500.0, 3000.0, 3001.0, None, math.nan):
        calls.append((f"pair_overlap_density(ref, {tau!r})",
                      lambda t=tau: api.pair_overlap_density(ref, t)))
    for ext in (6.0, 1e150, 1e200):
        calls.append((f"eta_numeric(ref, extent_factor={ext!r})",
                      lambda e=ext: api.eta_numeric(
                          ref, api.QuadratureSpec(extent_factor=e))))
    return calls


def oracle_probe_calls(api) -> list[tuple[str, object]]:
    # eta_numeric and est_rel_err, or the exception, at 200 configs of
    # ROADMAP item 3's wide-domain probe (log-uniform L in [10 um, 10 cm],
    # r_p in [3, 1000] um, w in [1, 10] um, mu in [1, 1000]; walk-offs
    # uniform in [0, 0.2]); their own stream, run last, so every call
    # above keeps its outcome
    rng = random.Random(f"{SEED}:oracle-probe")
    calls = []
    for _ in range(200):
        args = (log_uniform(rng, 10.0, 1e5), log_uniform(rng, 3.0, 1000.0),
                log_uniform(rng, 1.0, 10.0), log_uniform(rng, 1.0, 1000.0),
                tuple(rng.uniform(0.0, 0.2) for _ in range(3)))

        def call(a=args):
            res = api.eta_numeric(api.ExperimentConfig(*a[:4],
                                                       api.WalkOffSet(*a[4])))
            return res.eta_numeric, res.est_rel_err
        calls.append((f"eta_numeric{args!r}, probe", call))
    return calls


def dispersion_calls(api, rng: random.Random) -> list[tuple[str, object]]:
    model = api.bundled_bbo()
    lo, hi = model.range_um
    bad_theta = (math.nan, math.inf, "0.7", None, 1, 10 ** 400)
    calls = []
    for fn in (api.ordinary_index, api.principal_extraordinary_index):
        for _ in range(300):
            lam = rng.uniform(lo - 0.05, hi + 0.05)
            calls.append((f"{fn.__name__}({lam!r})",
                          lambda f=fn, v=lam: f(model, v)))
    for fn in (api.extraordinary_index, api.walk_off_tangent):
        for k in range(300):
            lam = rng.uniform(lo - 0.05, hi + 0.05)
            theta = (rng.choice(bad_theta) if k % 25 == 0
                     else rng.uniform(-4.0, 4.0))
            calls.append((f"{fn.__name__}({lam!r}, {theta!r})",
                          lambda f=fn, v=lam, t=theta: f(model, v, t)))
    for _ in range(100):
        args = (rng.uniform(0.25, 0.6), math.radians(rng.uniform(20.0, 70.0)),
                math.radians(rng.uniform(0.0, 10.0)))
        geometry = lambda a=args: api.PhaseMatchGeometry.degenerate(*a)
        calls.append((f"build_walkoff_set{args!r}",
                      lambda g=geometry: api.build_walkoff_set(model, g())))
        calls.append((f"group_delay_params{args!r}",
                      lambda g=geometry: api.group_delay_params(model, g())))
        calls.append((f"phase_match_angle({args[0]!r})",
                      lambda a=args: api.phase_match_angle(model, a[0])))
    # pumps within 1 nm of each end of the pump range [0.205, 0.53] um,
    # where the pump and its doubled wavelength both lie in [lo, hi]; their
    # own stream, so the calls above keep theirs
    ends = random.Random(f"{SEED}:pump-range-ends")
    for end in (lo, hi / 2.0):
        for _ in range(20):
            args = (ends.uniform(end - 1e-3, end + 1e-3),
                    math.radians(ends.uniform(20.0, 70.0)),
                    math.radians(ends.uniform(0.0, 10.0)))
            calls.append((f"group_delay_params{args!r}",
                          lambda a=args: api.group_delay_params(
                              model, api.PhaseMatchGeometry.degenerate(*a))))
    return calls


def number_kind_calls(api) -> list[tuple[str, object]]:
    # Decimal inputs, which pass the number rule and are then computed
    # with as floats
    w = api.WalkOffSet(*REF_WALKOFFS)
    cfg = lambda: api.ExperimentConfig(Decimal(3000), 53.0, 1.48, 49.0, w)
    geometry = api.PhaseMatchGeometry.degenerate(0.415, 0.75, 0.06)
    ab = api.AlphaBeta(0.01, 0.02, 0.03)
    return [
        ("efficiency(L=Decimal(3000))", lambda: api.efficiency(cfg())),
        ("eta_numeric(L=Decimal(3000))", lambda: api.eta_numeric(cfg())),
        ("maximize_eta(L=Decimal(3000), 'xi', (0.1, 10))",
         lambda: api.maximize_eta(cfg(), "xi", (0.1, 10))),
        ("ceiling_scan(Decimal('1.5'), ref, [1000.0, 2000.0])",
         lambda: api.ceiling_scan(Decimal("1.5"), w, [1000.0, 2000.0])),
        ("PhaseMatchGeometry.degenerate(Decimal('0.415'), 0.75, 0.06)",
         lambda: api.PhaseMatchGeometry.degenerate(Decimal("0.415"), 0.75,
                                                   0.06)),
        ("q_over_kbar(g, Decimal('1.5'))",
         lambda: api.q_over_kbar(geometry, Decimal("1.5"))),
        ("erf_over_sigma(Decimal('1.5'))",
         lambda: api.erf_over_sigma(Decimal("1.5"))),
        ("sigma_over_erf(Decimal('1.5'))",
         lambda: api.sigma_over_erf(Decimal("1.5"))),
        ("eta_closed_form(xi=Decimal(1))",
         lambda: api.eta_closed_form(
             api.ShapeParams(Decimal(1), 1.0, 1.0, 1.0, ab))),
        ("eta_numeric(ref, extent_factor=Decimal(6))",
         lambda: api.eta_numeric(
             api.ExperimentConfig(3000.0, 53.0, 1.48, 49.0, w),
             api.QuadratureSpec(extent_factor=Decimal(6)))),
    ]


def int_calls(api) -> list[tuple[str, object]]:
    # int fields from 1 to 10**308, a uniform number of digits each, and
    # int walk-offs of 0; their own stream, so the calls above keep theirs
    ints = random.Random(f"{SEED}:int-fields")

    def draw() -> int:
        return ints.randrange(1, 10 ** ints.randint(0, 308) + 1)

    calls = []
    for k in range(300):
        args = (draw(), draw(), draw(), draw(),
                ints.choice((REF_WALKOFFS, (0, 0.07243, 0), (0, 0, 0))))
        config = lambda a=args: api.ExperimentConfig(*a[:4],
                                                     api.WalkOffSet(*a[4]))
        calls.append((f"efficiency{args!r}",
                      lambda c=config: api.efficiency(c())))
        for var, bounds in (("mu", (1, 200)), ("rp", (3, 1000)),
                            ("xi", (1, 10))):
            calls.append((f"maximize_eta{args!r}, {var!r}, {bounds!r}",
                          lambda c=config, v=var, b=bounds:
                          api.maximize_eta(c(), v, b)))
        if k % 5 == 0:
            lengths = tuple(sorted({args[0], 1000, 3000}))
            calls.append((f"efficiency_curve{args!r}, {lengths!r}",
                          lambda c=config, ls=lengths: api.efficiency_curve(
                              api.SweepSpec(ls, (1, 25, 49, 10 ** 4), c()))))
            calls.append((f"ceiling_scan{args[1:]!r}, {lengths!r}",
                          lambda a=args, ls=lengths: api.ceiling_scan(
                              a[1], api.WalkOffSet(*a[4]), ls)))
        if k % 20 == 0:
            calls.append((f"eta_numeric{args!r}",
                          lambda c=config: api.eta_numeric(c())))
    return calls


def sellmeier_domain_calls(api) -> list[tuple[str, object]]:
    # index models whose coefficients are the bundled ones, each scaled by
    # U[0.3, 3], on the bundled range: built, or refused for a pole, an
    # index not > 1 or n_o < n_e; their own stream, so the calls above
    # keep theirs
    scale = random.Random(f"{SEED}:sellmeier-domain")
    bbo = api.bundled_bbo()
    calls = []
    for _ in range(2000):
        args = tuple(tuple(c * scale.uniform(0.3, 3.0) for c in coeffs)
                     for coeffs in (bbo.ordinary, bbo.extraordinary))
        calls.append((f"IndexModel{args!r}",
                      lambda a=args: api.IndexModel("scaled", *a,
                                                    bbo.range_um)))
    return calls


def xi_range_calls(api) -> list[tuple[str, object]]:
    # configurations whose w*mu overflows, is subnormal or underflows to 0
    # while xi is normal, each beside its copy with L, r_p and w scaled by
    # a power of two so that w*mu is normal; their own stream, so the
    # calls above keep theirs
    scale = random.Random(f"{SEED}:xi-range")
    families = (((1e6, 1e12), (2e3, 1e5), (1e-4, 1e-1), 1025),
                ((1e-200, 1e-20), (1e-12, 1e-2), (1.0, 1e4), -1023),
                ((1e-200, 1e-40), (1e-30, 1e-25), (1.0, 1e4), -1090))
    pairs = [((3000.0, 1e305, 1e300, 1e9), -8),
             ((3e-297, 1e-300, 1e-160, 1e-150), 600)]
    for mu_range, xi_range, ratio_range, target in families:
        for _ in range(20):
            w = scale.uniform(1.0, 10.0)
            mu = log_uniform(scale, *mu_range)
            rp = w * mu / log_uniform(scale, *xi_range)
            length = rp * log_uniform(scale, *ratio_range)
            k = target - math.frexp(w * mu)[1]
            pairs.append(((math.ldexp(length, k), math.ldexp(rp, k),
                           math.ldexp(w, k), mu), -k))
    calls = []
    for wide, k in pairs:
        for args in (wide, (*(math.ldexp(v, k) for v in wide[:3]), wide[3])):
            config = lambda a=args: api.ExperimentConfig(
                *a, api.WalkOffSet(*REF_WALKOFFS))
            length, rp, _, mu = args
            calls.append((f"efficiency{args!r}",
                          lambda c=config: api.efficiency(c())))
            calls.append((f"efficiency_curve{args!r}",
                          lambda c=config, a=args: api.efficiency_curve(
                              api.SweepSpec((a[0] / 2.0, a[0]),
                                            (a[3] / 4.0, a[3], 2.0 * a[3]),
                                            c()))))
            for var, bounds in (("mu", (mu / 4.0, 4.0 * mu)),
                                ("rp", (rp / 4.0, 4.0 * rp))):
                calls.append((f"maximize_eta{args!r}, {var!r}, {bounds!r}",
                              lambda c=config, v=var, b=bounds:
                              api.maximize_eta(c(), v, b)))
    return calls


def sellmeier_overflow_calls(api) -> list[tuple[str, object]]:
    # index models whose n^2 overflows on the range, whose index cubed
    # overflows, and whose pole lies far below the range, each built in
    # the call and then evaluated at seeded geometries; their own stream,
    # so the calls above keep theirs
    geometries = random.Random(f"{SEED}:sellmeier-overflow")
    bbo = api.bundled_bbo()
    far_o, far_e = ((c0, c1, -1e160, c3)
                    for c0, c1, _, c3 in (bbo.ordinary, bbo.extraordinary))
    models = (((1e308, 1e308, 0.0, -1e308), (1e308, 0.0, 0.0, 0.0),
               (0.3, 1.0)),
              ((1e206, 0.0, 0.0, 0.0), (0.99e206, 0.0, 0.0, 0.0), (0.3, 1.2)),
              (bbo.ordinary, far_e, bbo.range_um),
              (far_o, far_e, bbo.range_um))
    calls = []
    for _ in range(25):
        args = (geometries.uniform(0.25, 0.5),
                math.radians(geometries.uniform(20.0, 70.0)),
                math.radians(geometries.uniform(0.0, 10.0)))
        for model in models:
            for fn in (api.build_walkoff_set, api.group_delay_params):
                calls.append((f"{fn.__name__}{model!r}, {args!r}",
                              lambda f=fn, m=model, a=args: f(
                                  api.IndexModel("overflow", *m),
                                  api.PhaseMatchGeometry.degenerate(*a))))
    return calls


def number_rule_calls(api) -> list[tuple[str, object]]:
    # the sites with a check of their own after the number rule, at NaN
    # and +-inf; the checks by core's range rule that have their own
    # names or ranges, just outside and at their ranges' ends; thin
    # lenses a few floats past focus; angles whose double overflows;
    # brackets whose search arithmetic overflows; and models whose poles
    # lie far below their range.  Their own stream, so the calls above
    # keep theirs
    rng = random.Random(f"{SEED}:number-rule")
    bbo = api.bundled_bbo()
    walkoffs = api.WalkOffSet(*REF_WALKOFFS)
    cfg = api.ExperimentConfig(3000.0, 53.0, 1.48, 49.0, walkoffs)
    fields = (0.415, 0.75, 0.06)

    def geometry(k, v):
        return api.PhaseMatchGeometry(*fields[:k], v, *fields[k + 1:])

    half_pi = math.pi / 2.0
    sites = {
        "SweepSpec.l_grid": lambda v: api.SweepSpec((1e3, v), (49.0,), cfg),
        "SweepSpec.mu_values": lambda v: api.SweepSpec((1e3,), (v,), cfg),
        "ceiling_scan.l_grid": lambda v: api.ceiling_scan(53.0, walkoffs,
                                                          [v]),
        "maximize_eta.lo": lambda v: api.maximize_eta(cfg, "xi", (v, 1.0)),
        "maximize_eta.hi": lambda v: api.maximize_eta(cfg, "mu", (1.0, v)),
        "ordinary_index": lambda v: api.ordinary_index(bbo, v),
        "principal_extraordinary_index":
            lambda v: api.principal_extraordinary_index(bbo, v),
        "extraordinary_index": lambda v: api.extraordinary_index(bbo, v, 0.7),
        "walk_off_tangent": lambda v: api.walk_off_tangent(bbo, v, 0.7),
        "pair_overlap_density": lambda v: api.pair_overlap_density(cfg, v),
        **{f"PhaseMatchGeometry.{k}": lambda v, k=k: geometry(k, v)
           for k in range(3)},
    }
    calls = [(f"{name}({v!r})", lambda f=fn, v=v: f(v))
             for name, fn in sites.items()
             for v in (math.nan, math.inf, -math.inf)]
    folded = {
        "PhaseMatchGeometry.0": (lambda v: geometry(0, v), (0.0, -5e-324)),
        "PhaseMatchGeometry.1": (lambda v: geometry(1, v),
                                 (0.0, half_pi, math.nextafter(half_pi, 2.0))),
        "PhaseMatchGeometry.2": (lambda v: geometry(2, v),
                                 (-5e-324, half_pi)),
        "QuadratureSpec.extent_factor": (
            lambda v: api.QuadratureSpec(extent_factor=v),
            (math.nextafter(4.0, 0.0), 4.0)),
        "QuadratureSpec.target_rel_err": (
            lambda v: api.QuadratureSpec(target_rel_err=v), (0.0, 1.0)),
        "q_over_kbar": (lambda v: api.q_over_kbar(geometry(0, 0.415), v),
                        (math.nextafter(1.0, 0.0), 1.0)),
        "pump_waist_from_diameter": (api.pump_waist_from_diameter,
                                     (0.0, -5e-324)),
        "magnification.f": (lambda v: api.magnification(v, 780.0),
                            (0.0, -5e-324)),
    }
    calls += [(f"{name}({v!r})", lambda f=fn, v=v: f(v))
              for name, (fn, values) in folded.items() for v in values]
    lenses = [(5e-324, 1e-323), (1e-310, 3e-310),
              (0.0018241151702338225, 0.0018241151702338228)]
    for _ in range(40):
        f = rng.uniform(1.0, 100.0)
        lenses.append((f, f + rng.randint(1, 4) * math.ulp(f)))
    calls += [(f"magnification{args!r}",
               lambda a=args: api.magnification(*a)) for args in lenses]
    for _ in range(20):
        args = (rng.uniform(0.25, 1.0),
                rng.choice((1.0, -1.0)) * rng.uniform(8.99e307, 1.79e308))
        calls.append((f"walk_off_tangent{args!r}",
                      lambda a=args: api.walk_off_tangent(bbo, *a)))
    for k in range(20):
        variable = ("rp", "mu")[k % 2]
        hi = rng.uniform(6e306, 1.79e308)
        lo = hi * rng.uniform(0.001, 0.5)
        scale = 1e300 * rng.uniform(1.0, 10.0)
        if variable == "rp":  # w, mu with xi in [2, 20] at lo
            args = (lo * rng.uniform(0.01, 1.0), lo, scale,
                    rng.uniform(2.0, 20.0) * (lo / scale))
        else:  # r_p, w with xi in [0.02, 0.5] at lo
            args = (scale * rng.uniform(0.01, 100.0), scale,
                    rng.uniform(0.02, 0.5) * scale / lo, lo)
        calls.append((f"maximize_eta{args!r}, {variable!r}, {(lo, hi)!r}",
                      lambda a=args, v=variable, b=(lo, hi): api.maximize_eta(
                          api.ExperimentConfig(*a, walkoffs), v, b)))
    for _ in range(20):
        c2 = -(10.0 ** rng.uniform(140.0, 308.0))
        args = tuple(tuple(c * rng.uniform(0.3, 3.0) for c in coeffs[:2])
                     + (c2, coeffs[3] * rng.uniform(0.3, 3.0))
                     for coeffs in (bbo.ordinary, bbo.extraordinary))
        calls.append((f"IndexModel{args!r}",
                      lambda a=args: api.IndexModel("far", *a, bbo.range_um)))
        iso = (args[0], args[0])
        calls.append((f"IndexModel{iso!r}",
                      lambda a=iso: api.IndexModel("iso", *a, bbo.range_um)))
    return calls


def design_study_calls(api) -> list[tuple[str, object]]:
    # design studies as bench/workloads.py's design_scan runs them: walk-
    # offs from the bundled BBO data at a pump of 405-420 nm, a cut of
    # 41.5-44 deg and 3.5 deg cones, then at r_p 30-120 um and L 0.5-5 mm
    # an efficiency curve of 50 lengths, the optimum over each variable
    # and a ceiling scan of 10 lengths; their own stream, so the calls
    # above keep theirs
    rng = random.Random(f"{SEED}:design-study")
    bbo = api.bundled_bbo()
    calls = []
    for _ in range(20):
        pump, cut = rng.uniform(0.405, 0.420), rng.uniform(41.5, 44.0)
        rp, length = rng.uniform(30.0, 120.0), rng.uniform(500.0, 5000.0)
        geometry = api.PhaseMatchGeometry.degenerate(
            pump, math.radians(cut), math.radians(3.5))
        walkoffs = api.build_walkoff_set(bbo, geometry)
        cfg = api.ExperimentConfig(length, rp, 1.48, 49.0, walkoffs)
        args = (pump, cut, rp, length)
        curve = tuple(length * k / 25 for k in range(1, 51))
        ceiling = [length * k / 5 for k in range(1, 11)]
        calls.append((f"design efficiency_curve{args!r}",
                      lambda c=cfg, ls=curve: api.efficiency_curve(
                          api.SweepSpec(ls, api.DEFAULT_MU_VALUES, c))))
        for var, bounds in (("mu", (1.0, 200.0)), ("rp", (3.0, 1000.0)),
                            ("xi", (0.1, 10.0))):
            calls.append((f"design maximize_eta{args!r}, {var!r}",
                          lambda c=cfg, v=var, b=bounds:
                          api.maximize_eta(c, v, b)))
        calls.append((f"design ceiling_scan{args!r}",
                      lambda w=walkoffs, r=rp, ls=ceiling:
                      api.ceiling_scan(r, w, ls)))
    return calls


def count_and_pair_calls(api) -> list[tuple[str, object]]:
    # counts (grid sizes and golden-section steps) as ints, numpy integers
    # of several widths, bools (Python's and numpy's), integral floats and
    # other kinds, a seeded few near each count's least value; then ordered
    # pairs at each edge of their order and one float past it, for
    # maximize_eta's bounds, an optimum's bracket and the phase-matching
    # bracket.  Their own stream, so the calls above keep theirs
    import numpy as np

    rng = random.Random(f"{SEED}:counts-and-pairs")
    kinds = (int, np.int64, np.int32, np.int16, np.uint8, np.uint64)
    others = (-1, True, False, np.True_, np.False_, 64.0, 16.0, 3.0,
              np.float64(64.0), 64.5, None, "96", 10 ** 400)
    builds = {"QuadratureSpec.n_tau": (8, lambda v: api.QuadratureSpec(
                  n_tau=v)),
              "QuadratureSpec.n_trans": (16, lambda v: api.QuadratureSpec(
                  n_trans=v)),
              "OptResult.iterations": (0, lambda v: api.OptResult(
                  "mu", 1.0, 0.5, (0.5, 2.0), v, False))}
    calls = []
    for name, (least, build) in builds.items():
        values = list(others)
        values += [rng.choice(kinds)(rng.randint(max(least - 2, 0),
                                                 least + 100))
                   for _ in range(12)]
        calls += [(f"{name}({v!r})", lambda b=build, v=v: b(v))
                  for v in values]
    # both grid sizes wrong: the first one checked speaks
    for n_tau, n_trans in ((7, 16.5), (np.int64(7), True), (64.0, 8),
                           (np.True_, np.int32(15)), (8, 16)):
        calls.append((f"QuadratureSpec({n_tau!r}, {n_trans!r})",
                      lambda a=n_tau, b=n_trans: api.QuadratureSpec(a, b)))
    bbo = api.bundled_bbo()
    cfg = api.ExperimentConfig(3000.0, 53.0, 1.48, 49.0,
                               api.WalkOffSet(*REF_WALKOFFS))
    # w*mu = 1e-20 keeps xi normal for r_p down to 5e-324
    tiny = api.ExperimentConfig(1e-320, 1.0, 1e-300, 1e-20,
                                api.WalkOffSet(*REF_WALKOFFS))
    pairs = []
    for _ in range(8):
        lo = rng.uniform(1.0, 80.0)
        hi = rng.uniform(lo, 89.0)
        pairs += [(lo, lo), (lo, math.nextafter(lo, math.inf)),
                  (lo, math.nextafter(lo, 0.0)), (hi, lo), (0.0, hi),
                  (-0.0, hi), (5e-324, hi), (-5e-324, hi)]
    pairs += [(30.0, 90.0), (30.0, math.nextafter(90.0, 0.0)),
              (30.0, math.nextafter(90.0, 91.0)), (89.0, 90.0),
              (0.0, 5e-324), (5e-324, 5e-324), (5e-324, 1e-300)]
    for pair in pairs:
        calls.append((f"maximize_eta(ref, 'mu', {pair!r})",
                      lambda p=pair: api.maximize_eta(cfg, "mu", p)))
        calls.append((f"maximize_eta(tiny, 'rp', {pair!r})",
                      lambda p=pair: api.maximize_eta(tiny, "rp", p)))
        calls.append((f"OptResult(bracket={pair!r})",
                      lambda p=pair: api.OptResult("xi", 1.0, 0.5, p, 3,
                                                   False)))
        calls.append((f"phase_match_angle(0.415, {pair!r})",
                      lambda p=pair: api.phase_match_angle(bbo, 0.415, p)))
    for variable in ("L", "MU", None, ("mu",)):
        calls.append((f"maximize_eta(ref, {variable!r}, (1.0, 2.0))",
                      lambda v=variable: api.maximize_eta(cfg, v, (1.0, 2.0))))
        calls.append((f"OptResult(variable={variable!r})",
                      lambda v=variable: api.OptResult(v, 1.0, 0.5, (1.0, 2.0),
                                                       3, False)))
    return calls


# command lines: numbers a draw may put in a numeric flag, grid sizes for
# --n-tau and --n-trans (small, so that no draw allocates much), and the
# optional flags a draw may add with a sane value (params takes only the
# geometry ones)
CLI_ADVERSARIAL = ("0", "-1", "1e-320", "1e-150", "1e-7", "1e150", "1e300",
                   "nan", "inf", "-inf")
CLI_GRID_SIZES = ("0", "-1", "1", "2", "8", "16", "1.5", "nan", "1e3")
CLI_GEOMETRY = {"--pump-nm": "415", "--cut-angle-deg": "42.9",
                "--cone-angle-deg": "3.5"}
CLI_OPTIONAL = {"--mfd-um": "4.19", "--f-mm": "8", "--dbl-mm": "400",
                **CLI_GEOMETRY}
CLI_QUADRATURE = {"--extent-factor": "6", "--target-rel-err": "1e-5"}
CLI_WALKOFF_PAIRS = [["--Mp", "0.07631"], ["--M", "0.07243"],
                     ["--QK", "0.036215"]]
REF_CONFIG = {"schema_version": 1, "L_um": 3000.0, "rp_um": 53.0,
              "w_um": 1.48, "mu": 49.0,
              "walkoffs": {"Mp": 0.07631, "M": 0.07243, "QK": 0.036215}}
# what a config file's entry may be replaced with: "drop" removes it,
# "huge" is an integer past the float range
CONFIG_VALUES = (None, "3000", True, [1], {"v": 1}, "huge", math.nan, 64.0,
                 64.9, 0, -1.0, 1e300, "drop")


def cli_argv(rng: random.Random, command: str, pole: str) -> list[str]:
    # a line at the reference design point, then up to three mutations:
    # a flag dropped, or one number of a present or an added flag made
    # adversarial
    if rng.random() < 0.5:
        pairs = [list(p) for p in CLI_WALKOFF_PAIRS]
    else:
        pairs = [["--sellmeier", pole]] if rng.random() < 0.2 else [
            ["--sellmeier"]]
    optional = CLI_GEOMETRY
    if command != "params":
        optional = CLI_OPTIONAL
        pairs += [["--rp-um", "53"], ["--w-um", "1.48"]]
        if command == "sweep":
            pairs.append(["--L-range", "1:3:1"])
            if rng.random() < 0.5:
                pairs.append(["--mu", "25,49"])
        else:
            pairs += [["--L-mm", "3"], ["--mu", "49"]]
    if command == "optimize":
        pairs += [["--var", rng.choice(("mu", "xi", "rp"))],
                  ["--bounds", "1:100"]]
    if command == "oracle":
        optional = {**CLI_OPTIONAL, **CLI_QUADRATURE}
        if rng.random() < 0.3:
            pairs += [["--n-tau", "8"], ["--n-trans", "16"]]
    for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3))):
        if rng.random() < 0.1 and len(pairs) > 1:
            pairs.pop(rng.randrange(len(pairs)))
            continue
        if rng.random() < 0.3:
            flag = rng.choice(list(optional))
            pairs.append([flag, optional[flag]])
        pair = rng.choice(pairs)
        if len(pair) == 1:  # a bare --sellmeier
            continue
        if pair[0] in ("--n-tau", "--n-trans"):
            pair[1] = rng.choice(CLI_GRID_SIZES)
        elif pair[0] == "--var":
            pair[1] = rng.choice(("mu", "xi", "rp", "L"))
        elif pair[0] == "--sellmeier":
            pair[1] = rng.choice(CLI_ADVERSARIAL)  # a file that is not there
        else:  # one part of a colon or comma list, or the whole number
            parts = pair[1].replace(":", ",").split(",")
            parts[rng.randrange(len(parts))] = rng.choice(CLI_ADVERSARIAL)
            pair[1] = (":" if ":" in pair[1] else ",").join(parts)
    if rng.random() < 0.3:
        pairs.append(["--format", "json"])
    rng.shuffle(pairs)
    return [command] + [token for pair in pairs for token in pair]


def config_doc(rng: random.Random) -> tuple[str, dict, list[str]]:
    # a command, a config file for it and the flags that go with it: the
    # flat form, the wrapped form `eval --format json` prints, or a
    # quadrature-only file beside the reference flags; then up to two of
    # its entries replaced or dropped, or an unknown key added
    command = rng.choice(("eval", "sweep", "optimize", "oracle"))
    quadrature = {"n_tau": rng.choice((16, 32.0, 64)),
                  "n_trans": rng.choice((32, 48.0, 96)),
                  "extent_factor": rng.choice((6, 8.0)),
                  "target_rel_err": rng.choice((1e-5, 1e-3, None))}
    flags = {"sweep": ["--L-range", "1:3:1"],
             "optimize": ["--var", "xi", "--bounds", "0.1:10"]}.get(command,
                                                                  [])
    form = rng.choice(("flat", "wrapped", "quadrature-only"))
    doc = json.loads(json.dumps(REF_CONFIG))
    if form == "quadrature-only":
        doc = {"schema_version": 1, "quadrature": quadrature}
        flags += ["--rp-um", "53", "--w-um", "1.48",
                  *(t for p in CLI_WALKOFF_PAIRS for t in p)]
        if command in ("eval", "optimize", "oracle"):
            flags += ["--L-mm", "3", "--mu", "49"]
    elif command == "oracle":
        doc["quadrature"] = quadrature
    if form != "quadrature-only" and rng.random() < 0.2:
        doc.update(L_um=3000, rp_um=53)  # echoed as written
    entries = [(doc, key) for key in doc]
    entries += [(doc[key], sub) for key in ("walkoffs", "quadrature")
                if isinstance(doc.get(key), dict) for sub in doc[key]]
    for _ in range(rng.choice((0, 1, 1, 2))):
        if rng.random() < 0.1:
            doc["unknown"] = 1
            continue
        where, key = rng.choice(entries)
        value = rng.choice(CONFIG_VALUES + ((2, 1.0) if key ==
                                            "schema_version" else ()))
        if value == "drop":
            where.pop(key, None)
        else:
            where[key] = 10 ** 400 if value == "huge" else value
    if form == "wrapped":  # the version, if any, moves to the outer object
        outer = {k: doc.pop(k) for k in ("schema_version",) if k in doc}
        doc = {**outer, "config": doc, "eta": 0.435, "shape": {"xi": 1.0}}
    return command, doc, flags


def run_cli(cli, argv: list[str], tmp: str) -> tuple:
    # exit code, stdout and stderr of one in-process command line, with
    # the temporary directory's path replaced by a fixed token
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage failures
            code = exc.code
    return (code, out.getvalue().replace(tmp, "<tmp>"),
            err.getvalue().replace(tmp, "<tmp>"))


def cli_calls(tmp: str) -> list[tuple[str, object]]:
    # command lines of all five subcommands, then config files, each in
    # text and in JSON; their own stream, so the calls above keep theirs.
    # A Sellmeier file with a pole in its range takes about a fifth of
    # the draws that name a file
    import spdcfc.cli as cli

    rng = random.Random(f"{SEED}:cli")
    os.environ.pop(cli.SELLMEIER_PATH_ENV, None)  # --sellmeier's default
    pole = os.path.join(tmp, "pole.json")
    with open(pole, "w", encoding="utf-8") as fh:
        json.dump({"material": "pole", "citation": "",
                   "ordinary": {"form": "sellmeier-1",
                                "coeffs": [2.7359, 0.01878, 0.5, 0.01354],
                                "range_um": [0.205, 1.06]},
                   "extraordinary": {"form": "sellmeier-1",
                                     "coeffs": [2.3753, 0.01224, 0.01667,
                                                0.01516],
                                     "range_um": [0.205, 1.06]}}, fh)
    argvs = [cli_argv(rng, command, pole)
             for command in ("eval", "sweep", "optimize", "oracle", "params")
             for _ in range(100)]
    for k in range(80):
        command, doc, flags = config_doc(rng)
        path = os.path.join(tmp, f"config-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argvs += [[command, "--config", path, *flags, "--format", fmt]
                  for fmt in ("text", "json")]
    argvs.append(["eval", "--config", os.path.join(tmp, "missing.json")])
    return [(f"cli {' '.join(argv).replace(tmp, '<tmp>')}",
             lambda a=argv: run_cli(cli, a, tmp)) for argv in argvs]


def dump(checkout: Path, out: Path) -> None:
    api = load_spdcfc(checkout)
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        calls = (closed_form_calls(api, rng) + oracle_calls(api, rng)
                 + dispersion_calls(api, rng) + number_kind_calls(api)
                 + int_calls(api) + sellmeier_domain_calls(api)
                 + xi_range_calls(api) + sellmeier_overflow_calls(api)
                 + number_rule_calls(api) + design_study_calls(api)
                 + cli_calls(tmp) + count_and_pair_calls(api)
                 + oracle_probe_calls(api))
        record = [[name, outcome(call)] for name, call in calls]
    out.write_text(json.dumps({"outcomes": record}, indent=0) + "\n",
                   encoding="utf-8")
    errors = sum("error" in o for _, o in record)
    print(f"{len(record)} outcomes ({errors} errors) from "
          f"{api.__file__} written to {out}")


def compare(a: Path, b: Path) -> int:
    left = json.loads(a.read_text(encoding="utf-8"))["outcomes"]
    right = json.loads(b.read_text(encoding="utf-8"))["outcomes"]
    if [n for n, _ in left] != [n for n, _ in right]:
        print(f"the two dumps list different calls ({len(left)} and "
              f"{len(right)}); dump both with the same tool")
        return 1
    differ = 0
    for (name, x), (_, y) in zip(left, right):
        if x != y:
            differ += 1
            print(f"{name}\n  {a}: {json.dumps(x)}\n  {b}: {json.dumps(y)}")
    print(f"{len(left)} outcomes, {differ} differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "dump":
        dump(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    print("usage:\n" + "\n".join(__doc__.splitlines()[2:4]),
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
