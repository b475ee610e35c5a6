"""The three benchmark workloads: seeded inputs, one operation, its check.

Inputs are drawn from ``random.Random("<workload>:<seed>")`` with Latin
hypercube sampling, so each run covers every input dimension evenly and
the mix of slow and fast operations varies little between seeds.  The
package only ever sees the generated numbers.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned, as in a designer's script or
shell.  ``run_op`` times only the calls into the package (or the CLI
subprocess); the output check runs after the clock stops.

The workloads reach the package through ``self.api`` (the ``spdcfc``
module object) at call time, and the CLI through the module-level
``run_cli``, so that the tracer can wrap those attributes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed

# Reference design: 415 nm pumped type-II BBO, 3.5 deg cones, 4.2 um MFD
# fiber (w = 1.48 um) imaged at mu = 49 onto a 53 um pump waist.
REF_WALKOFFS = (0.07631, 0.07243, 0.036215)  # m_p, m, q_over_k
REF_RP_UM = 53.0
REF_W_UM = 1.48
REF_MFD_UM = 4.2
REF_MU = 49.0
CONE_DEG = 3.5

# Acceptance criterion 1 of the package: eta(1 mm) and eta(3 mm) at the
# reference design, as (target, tolerance).
REF_ETA_BANDS = {1000.0: (0.68, 0.07), 3000.0: (0.42, 0.05)}

ORACLE_TOLERANCE = 1e-4
CLI_TIMEOUT_S = 60.0


def latin_hypercube(rng: random.Random, n: int, dims: int) -> list[tuple]:
    """n points in [0, 1)^dims, one per stratum along every axis."""
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([(k + rng.random()) / n for k in strata])
    return list(zip(*cols))


def lin(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _g9(x: float) -> str:
    return format(float(x), ".9g")


def _round4(x: float) -> float:
    # README-like arguments: four significant digits, exact as a float
    return float(f"{x:.4g}")


@dataclass
class Outcome:
    """One finished operation.

    failure is None on success, else a category ("convergence",
    "domain", "raw_exception", "disagree", "mismatch", "exit_code",
    "traceback").  error_type names the exception class or the failed
    check; wrong marks an output that was produced but is incorrect.
    """

    kind: str
    ms: float
    failure: str | None = None
    error_type: str | None = None
    wrong: bool = False
    detail: str = ""


def _failure_category(api, exc: BaseException) -> str:
    if isinstance(exc, api.ConvergenceError):
        return "convergence"
    if isinstance(exc, api.DomainError):
        return "domain"
    return "raw_exception"


# ---------------------------------------------------------------------------
# design_scan
# ---------------------------------------------------------------------------

class DesignScan:
    """One op is one design study at a seeded BBO geometry and design point.

    Walk-offs come from the bundled Sellmeier data at a seeded pump
    wavelength and cut angle; at a seeded pump waist and crystal length
    the study runs one efficiency curve (50 lengths x DEFAULT_MU_VALUES),
    one maximize_eta over xi on [0.1, 10] and one ceiling scan over 10
    lengths: about 1.3k closed-form etas.
    """

    name = "design_scan"
    n_ops = 100
    curve_points = 50
    ceiling_points = 10

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = [
            (lin(a, 0.405, 0.420),      # pump wavelength, um
             lin(b, 41.5, 44.0),        # cut angle, deg
             lin(c, 30.0, 120.0),       # pump waist r_p, um
             lin(d, 500.0, 5000.0))     # crystal length L, um
            for a, b, c, d in latin_hypercube(rng, self.n_ops, 4)]

    def kind(self, idx: int) -> str:
        return "study"

    def reference(self) -> speed.Reference:
        return speed.in_process()

    def prepare(self, api, root: Path) -> list[tuple[str, bool, str]]:
        self.api = api
        self.model = api.bundled_bbo()
        checks = reference_checks(api, root)
        for idx in range(2):
            self.run_op(idx)
        return checks

    def run_op(self, idx: int) -> Outcome:
        api = self.api
        pump_um, cut_deg, rp, length = self.inputs[idx]
        t0 = perf_counter()
        try:
            geometry = api.PhaseMatchGeometry.degenerate(
                pump_wavelength=pump_um, cut_angle=math.radians(cut_deg),
                external_cone_angle=math.radians(CONE_DEG))
            walkoffs = api.build_walkoff_set(self.model, geometry)
            base = api.ExperimentConfig(
                crystal_length=length, pump_waist=rp,
                fiber_mode_radius=REF_W_UM, inverse_magnification=REF_MU,
                walkoffs=walkoffs)
            curve = api.efficiency_curve(api.SweepSpec(
                l_grid=tuple(length * k / (self.curve_points // 2)
                             for k in range(1, self.curve_points + 1)),
                mu_values=api.DEFAULT_MU_VALUES, fixed=base))
            best = api.maximize_eta(base, "xi", (0.1, 10.0))
            ceiling = api.ceiling_scan(
                rp, walkoffs,
                [length * k / (self.ceiling_points // 2)
                 for k in range(1, self.ceiling_points + 1)])
        except Exception as exc:  # counted by type; the run goes on
            return Outcome("study", (perf_counter() - t0) * 1e3,
                           _failure_category(api, exc), type(exc).__name__,
                           detail=str(exc)[:200])
        ms = (perf_counter() - t0) * 1e3
        values = ([r.eta for r in curve.rows] + [best.eta_max]
                  + [eta for _, eta in ceiling])
        bad = [v for v in values if not (math.isfinite(v) and 0.0 < v <= 1.0)]
        if bad or len(values) != self.curve_points * 5 + 1 + self.ceiling_points:
            return Outcome("study", ms, "mismatch", "eta_out_of_range",
                           wrong=True, detail=f"{len(bad)} bad values")
        return Outcome("study", ms)


def reference_config(api, length_um: float, mu: float = REF_MU):
    return api.ExperimentConfig(
        crystal_length=length_um, pump_waist=REF_RP_UM,
        fiber_mode_radius=REF_W_UM, inverse_magnification=mu,
        walkoffs=api.WalkOffSet(*REF_WALKOFFS))


def reference_checks(api, root: Path) -> list[tuple[str, bool, str]]:
    """Reproduce the package's reference numbers before timing starts."""
    checks = []
    for length, (target, tol) in REF_ETA_BANDS.items():
        eta = api.efficiency(reference_config(api, length)).eta
        checks.append((f"eta({length / 1000:g} mm) at reference design",
                       abs(eta - target) <= tol,
                       f"{eta:.9g} within {target} +/- {tol}"))
    golden = root / "tests" / "data" / "golden_sweep.csv"
    with open(golden, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    lengths = sorted({1000.0 * float(r["L_mm"]) for r in rows})
    mus = sorted({float(r["mu"]) for r in rows})
    curve = api.efficiency_curve(api.SweepSpec(
        l_grid=tuple(lengths), mu_values=tuple(mus),
        fixed=reference_config(api, lengths[0])))
    got = [(_g9(r.length / 1000.0), _g9(r.mu), _g9(r.xi), _g9(r.eta))
           for r in curve.rows]
    want = [(r["L_mm"], r["mu"], r["xi"], r["eta"]) for r in rows]
    diff = sum(1 for a, b in zip(got, want) if a != b)
    checks.append((f"{golden.relative_to(root)} rows reproduced",
                   got == want, f"{len(want)} rows, {diff} differ"))
    return checks


# ---------------------------------------------------------------------------
# oracle_check
# ---------------------------------------------------------------------------

# Off-region points that are always checked: xi = 0.05 and xi = 20 at
# the 3 mm reference design, and the probe-domain point whose quadrature
# ends in a raw ZeroDivisionError.
ORACLE_FIXED = (
    ("fixed", 3000.0, REF_RP_UM, REF_W_UM, 0.05 * REF_RP_UM / REF_W_UM,
     *REF_WALKOFFS),
    ("fixed", 3000.0, REF_RP_UM, REF_W_UM, 20.0 * REF_RP_UM / REF_W_UM,
     *REF_WALKOFFS),
    ("fixed", 97.0, 5.1, 1.0, 1718.0, 0.1, 0.1, 0.1),
)


class OracleCheck:
    """One op is efficiency plus eta_numeric on one config, compared.

    The timed ops run on design-region configs (reference walk-offs, xi
    log-uniform in [0.2, 5], L in 0.1-5 mm, r_p in 30-120 um), where the
    oracle converges at its first doubling and no op fails.

    The off-region set holds the three fixed points of ORACLE_FIXED and
    seeded configs from the wide probe domain (log-uniform L in [10 um,
    10 cm], r_p in [3, 1000] um, w in [1, 10] um, mu in [1, 1000],
    walk-offs uniform in [0, 0.2]).  About a third of it fails today
    (ConvergenceError or a raw ZeroDivisionError).  It is checked once
    per run, after the timed loop, and its failures are reported by type
    and in the ``oracle.*`` layer metrics rather than as failed ops.
    Input tuples are (region, L, r_p, w, mu, m_p, m, q_over_k).
    """

    name = "oracle_check"
    n_design = 600
    n_wide = 60

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for a, b, c in latin_hypercube(rng, self.n_design, 3):
            rp = lin(c, 30.0, 120.0)
            mu = log_uniform(a, 0.2, 5.0) * rp / REF_W_UM
            self.inputs.append(("design", lin(b, 100.0, 5000.0), rp,
                                REF_W_UM, mu, *REF_WALKOFFS))
        self.off_region = list(ORACLE_FIXED) + [
            ("wide", log_uniform(a, 10.0, 1e5), log_uniform(b, 3.0, 1000.0),
             log_uniform(c, 1.0, 10.0), log_uniform(d, 1.0, 1000.0),
             lin(e, 0.0, 0.2), lin(f, 0.0, 0.2), lin(g, 0.0, 0.2))
            for a, b, c, d, e, f, g in latin_hypercube(rng, self.n_wide, 7)]

    @property
    def n_ops(self) -> int:
        return len(self.inputs)

    def kind(self, idx: int) -> str:
        return "check"

    def reference(self) -> speed.Reference:
        return speed.in_process()

    def _config(self, inp):
        _, length, rp, w, mu, m_p, m, qk = inp
        return self.api.ExperimentConfig(
            crystal_length=length, pump_waist=rp, fiber_mode_radius=w,
            inverse_magnification=mu,
            walkoffs=self.api.WalkOffSet(m_p=m_p, m=m, q_over_k=qk))

    def prepare(self, api, root: Path) -> list[tuple[str, bool, str]]:
        self.api = api
        self.configs = [self._config(inp) for inp in self.inputs]
        for idx in range(min(4, self.n_ops)):
            self.run_op(idx)
        return []

    def run_op(self, idx: int) -> Outcome:
        return oracle_op(self.api, self.configs[idx])

    def off_region_pass(self) -> list[Outcome]:
        """Check every off-region config once; failures never abort it."""
        outcomes = []
        for inp in self.off_region:
            outcome = oracle_op(self.api, self._config(inp))
            outcome.kind = inp[0]
            outcomes.append(outcome)
        return outcomes


def oracle_op(api, cfg) -> Outcome:
    t0 = perf_counter()
    try:
        closed = api.efficiency(cfg).eta
        numeric = api.eta_numeric(cfg).eta_numeric
    except Exception as exc:  # counted by type; the run goes on
        return Outcome("check", (perf_counter() - t0) * 1e3,
                       _failure_category(api, exc), type(exc).__name__,
                       detail=str(exc)[:200])
    ms = (perf_counter() - t0) * 1e3
    deviation = abs(numeric - closed) / closed
    if not deviation <= ORACLE_TOLERANCE:
        return Outcome("check", ms, "disagree", "disagree", wrong=True,
                       detail=f"deviation {deviation:.3g}")
    return Outcome("check", ms)


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def run_cli(root: Path, env: dict, argv: list[str]) -> subprocess.CompletedProcess:
    """One ``python -m spdcfc`` call; waits for it to end."""
    return subprocess.run([sys.executable, "-m", "spdcfc", *argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.pop("SPDCFC_SELLMEIER_PATH", None)
    return env


def _parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and value.split():
            out[key.strip()] = value.split()[0]
    return out


def walkoff_args() -> list[str]:
    m_p, m, qk = REF_WALKOFFS
    return ["--Mp", repr(m_p), "--M", repr(m), "--QK", repr(qk)]


SWEEP_L_RANGE = (0.1, 5.0, 0.1)  # mm, as README's sweep example
CLI_SUBCOMMANDS = ("eval", "sweep", "optimize", "oracle", "params")


class CliSession:
    """One op is one ``python -m spdcfc <sub>`` subprocess.

    A cycle is eval (text), eval --format json, eval --config on that
    JSON, sweep, optimize, oracle and params --sellmeier, each with
    README-like arguments perturbed by the seed.  The speed reference
    is a bare ``python -c pass``, run between ops, so the CLI times can
    also be given net of interpreter start-up.
    """

    name = "cli_session"
    n_cycles = 5
    cycle = ("eval", "eval", "eval", "sweep", "optimize", "oracle", "params")

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for (u_l, u_rp, u_mu, u_srp, u_ol, u_orp, u_xl, u_xrp, u_xmu, u_p,
             u_c) in latin_hypercube(rng, self.n_cycles, 11):
            self.inputs.append({
                "eval": (_round4(lin(u_l, 0.5, 5.0)),
                         _round4(REF_RP_UM * lin(u_rp, 0.8, 1.2)),
                         _round4(REF_MU * lin(u_mu, 0.8, 1.2))),
                "sweep": _round4(REF_RP_UM * lin(u_srp, 0.8, 1.2)),
                "optimize": (_round4(lin(u_ol, 0.5, 5.0)),
                             _round4(REF_RP_UM * lin(u_orp, 0.8, 1.2))),
                "oracle": (_round4(lin(u_xl, 0.5, 5.0)),
                           _round4(REF_RP_UM * lin(u_xrp, 0.8, 1.2)),
                           _round4(REF_MU * lin(u_xmu, 0.8, 1.2))),
                "params": (_round4(lin(u_p, 405.0, 420.0)),
                           _round4(lin(u_c, 41.5, 44.0))),
            })

    def kind(self, idx: int) -> str:
        return self.cycle[idx % len(self.cycle)]

    def prepare(self, api, root: Path) -> list[tuple[str, bool, str]]:
        self.api = api
        self.root = root
        self.env = child_env(root)
        self.roundtrip = root / "bench" / "out" / "roundtrip.json"
        self.roundtrip.parent.mkdir(parents=True, exist_ok=True)
        self.argvs = [self._argvs(p) for p in self.inputs]
        self.expected = [self._expected(api, p) for p in self.inputs]
        self._json_eta = None
        speed.process_start_ms(root, self.env)
        self.run_op(0)
        return []

    def reference(self) -> speed.Reference:
        return speed.process_start(self.root, self.env)

    @property
    def n_ops(self) -> int:
        return self.n_cycles * len(self.cycle)

    def _argvs(self, p: dict) -> list[list[str]]:
        length, rp, mu = p["eval"]
        point = ["--L-mm", repr(length), "--rp-um", repr(rp), "--mu", repr(mu),
                 *walkoff_args()]
        lo, hi, step = SWEEP_L_RANGE
        o_len, o_rp = p["optimize"]
        x_len, x_rp, x_mu = p["oracle"]
        pump_nm, cut_deg = p["params"]
        return [
            ["eval", *point, "--mfd-um", repr(REF_MFD_UM)],
            ["eval", *point, "--w-um", repr(REF_W_UM), "--format", "json"],
            ["eval", "--config", str(self.roundtrip), "--format", "json"],
            ["sweep", "--L-range", f"{lo:g}:{hi:g}:{step:g}",
             "--rp-um", repr(p["sweep"]), "--w-um", repr(REF_W_UM),
             *walkoff_args()],
            ["optimize", "--var", "xi", "--bounds", "0.1:10",
             "--L-mm", repr(o_len), "--rp-um", repr(o_rp), *walkoff_args()],
            ["oracle", "--L-mm", repr(x_len), "--rp-um", repr(x_rp),
             "--w-um", repr(REF_W_UM), "--mu", repr(x_mu), *walkoff_args()],
            ["params", "--sellmeier", "--pump-nm", repr(pump_nm),
             "--cut-angle-deg", repr(cut_deg)],
        ]

    def _expected(self, api, p: dict) -> list:
        """Library values, as 9-significant-digit strings, per cycle op."""
        walkoffs = api.WalkOffSet(*REF_WALKOFFS)

        def cfg(length_um, rp, w, mu):
            return api.ExperimentConfig(
                crystal_length=length_um, pump_waist=rp, fiber_mode_radius=w,
                inverse_magnification=mu, walkoffs=walkoffs)

        length, rp, mu = p["eval"]
        eta_text = api.efficiency(
            cfg(1000.0 * length, rp, api.mode_field_radius(REF_MFD_UM), mu)).eta
        eta_json = api.efficiency(cfg(1000.0 * length, rp, REF_W_UM, mu)).eta
        lo, hi, step = SWEEP_L_RANGE
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        curve = api.efficiency_curve(api.SweepSpec(
            l_grid=tuple(1000.0 * (lo + k * step) for k in range(count)),
            mu_values=api.DEFAULT_MU_VALUES,
            fixed=cfg(1000.0, p["sweep"], REF_W_UM, 1.0)))
        o_len, o_rp = p["optimize"]
        best = api.maximize_eta(cfg(1000.0 * o_len, o_rp, 1.0, 1.0), "xi",
                                (0.1, 10.0))
        x_len, x_rp, x_mu = p["oracle"]
        x_cfg = cfg(1000.0 * x_len, x_rp, REF_W_UM, x_mu)
        pump_nm, cut_deg = p["params"]
        model = api.bundled_bbo()
        geometry = api.PhaseMatchGeometry.degenerate(
            pump_wavelength=pump_nm * 1e-3, cut_angle=math.radians(cut_deg),
            external_cone_angle=math.radians(CONE_DEG))
        derived = api.build_walkoff_set(model, geometry)
        return [
            {"eta": _g9(eta_text)},
            {"eta": _g9(eta_json)},
            {"eta": _g9(eta_json)},
            [_g9(r.eta) for r in curve.rows],
            {"eta_max": _g9(best.eta_max)},
            {"eta_closed": _g9(api.efficiency(x_cfg).eta),
             "eta_numeric": _g9(api.eta_numeric(x_cfg).eta_numeric)},
            {"Mp": _g9(derived.m_p), "M": _g9(derived.m),
             "QK": _g9(derived.q_over_k)},
        ]

    def run_op(self, idx: int) -> Outcome:
        cycle_idx, pos = divmod(idx % self.n_ops, len(self.cycle))
        kind = self.cycle[pos]
        t0 = perf_counter()
        try:
            proc = run_cli(self.root, self.env, self.argvs[cycle_idx][pos])
        except (OSError, subprocess.SubprocessError) as exc:
            return Outcome(kind, (perf_counter() - t0) * 1e3, "raw_exception",
                           type(exc).__name__, detail=str(exc)[:200])
        ms = (perf_counter() - t0) * 1e3
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            return Outcome(kind, ms, "traceback", last.split(":")[0],
                           detail=last[:200])
        if proc.returncode != 0:
            return Outcome(kind, ms, "exit_code", f"exit_{proc.returncode}",
                           detail=proc.stderr.strip()[:200])
        problem = self._check(pos, proc.stdout, self.expected[cycle_idx][pos])
        if problem:
            return Outcome(kind, ms, "mismatch", "mismatch", wrong=True,
                           detail=f"{' '.join(self.argvs[cycle_idx][pos][:1])}: "
                                  f"{problem}")
        return Outcome(kind, ms)

    def _check(self, pos: int, stdout: str, expected) -> str:
        """Empty when the output matches the library, else what differs."""
        if pos in (1, 2):
            try:
                eta = json.loads(stdout)["eta"]
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable JSON output: {exc}"
            if _g9(eta) != expected["eta"]:
                return f"eta {_g9(eta)} != library {expected['eta']}"
            if pos == 1:
                self.roundtrip.write_text(stdout, encoding="utf-8")
                self._json_eta = eta
            elif eta != self._json_eta:
                return f"round trip eta {eta!r} != {self._json_eta!r}"
            return ""
        if pos == 3:
            lines = stdout.splitlines()
            got = [line.rsplit(",", 1)[-1] for line in lines[1:]]
            if lines[:1] != ["L_mm,mu,xi,eta"] or got != expected:
                bad = sum(1 for a, b in zip(got, expected) if a != b)
                return (f"{len(got)} rows (want {len(expected)}), "
                        f"{bad} etas differ")
            return ""
        values = _parse_kv(stdout)
        for key, want in expected.items():
            if values.get(key) != want:
                return f"{key} {values.get(key)} != library {want}"
        return ""


WORKLOADS = {cls.name: cls for cls in (DesignScan, OracleCheck, CliSession)}
