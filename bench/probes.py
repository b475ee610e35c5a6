"""Per-layer probes: each layer entry point timed alone at fixed inputs.

The probes run in the traced mode of every workload, after the workload
passes, and use the same inputs whatever the seed, so a layer number
moves only when the layer does.  Library calls are timed in-process;
import and CLI start-up are timed in fresh child processes, one at a
time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads as wl

# README examples, one per subcommand.
CLI_PROBE_ARGV = {
    "eval": ["eval", "--L-mm", "3", "--rp-um", "53", "--mfd-um", "4.2",
             "--mu", "49", *wl.walkoff_args()],
    "sweep": ["sweep", "--L-range", "0.1:5:0.1", "--mu", "49", "--rp-um", "53",
              "--w-um", "1.48", *wl.walkoff_args()],
    "optimize": ["optimize", "--var", "xi", "--bounds", "0.1:10",
                 "--L-mm", "2", "--rp-um", "53", *wl.walkoff_args()],
    "oracle": ["oracle", "--L-mm", "3", "--rp-um", "53", "--w-um", "1.48",
               "--mu", "49", *wl.walkoff_args()],
    "params": ["params", "--sellmeier"],
}

# (n_tau, n_trans) of the oracle's three refinement levels at the default
# QuadratureSpec.
ORACLE_LEVELS = ((64, 96), (128, 192), (256, 384))

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import {mod}; "
                  "print(time.perf_counter() - t)")


def per_call(fn, number: int, repeat: int = 5) -> tuple[float, int]:
    """Median over repeats of the mean seconds per call, and the repeats."""
    fn()
    runs = []
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        runs.append((perf_counter() - t0) / number)
    return statistics.median(runs), repeat


def each_call(fns, repeat: int = 1) -> tuple[float, int]:
    """Median seconds of single calls; a call that raises counts too."""
    times = []
    for _ in range(repeat):
        for fn in fns:
            t0 = perf_counter()
            try:
                fn()
            except Exception:  # a failing input still costs its time
                pass
            times.append(perf_counter() - t0)
    return statistics.median(times), len(times)


def round_robin(calls: dict, repeat: int) -> dict[str, float]:
    """Median of each named call's returned seconds.

    The calls take turns within every round, so a slow spell of the
    machine falls on all of them alike.
    """
    times = {name: [] for name in calls}
    for _ in range(repeat):
        for name, call in calls.items():
            times[name].append(call())
    return {name: statistics.median(ts) for name, ts in times.items()}


def _import_seconds(root: Path, env: dict, module: str) -> float:
    """In-child time of ``import module`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET.format(mod=module)], cwd=root,
        env=env, capture_output=True, text=True, timeout=wl.CLI_TIMEOUT_S,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _cli_wall(root: Path, env: dict, argv: list[str]) -> float:
    t0 = perf_counter()
    proc = wl.run_cli(root, env, argv)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-200:]}")
    return seconds


def _cli_main(argv: list[str], repeat: int) -> float:
    cli = importlib.import_module("spdcfc.cli")

    def call():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main({argv[0]}) returned {code}")
    return per_call(call, number=1, repeat=repeat)[0]


def wide_probe_configs(api, n: int = 8) -> list:
    """Fixed wide-domain configs, drawn like oracle_check's wide ones."""
    rng = random.Random("probe:wide")
    configs = []
    for a, b, c, d, e, f, g in wl.latin_hypercube(rng, n, 7):
        configs.append(api.ExperimentConfig(
            crystal_length=wl.log_uniform(a, 10.0, 1e5),
            pump_waist=wl.log_uniform(b, 3.0, 1000.0),
            fiber_mode_radius=wl.log_uniform(c, 1.0, 10.0),
            inverse_magnification=wl.log_uniform(d, 1.0, 1000.0),
            walkoffs=api.WalkOffSet(m_p=wl.lin(e, 0.0, 0.2),
                                    m=wl.lin(f, 0.0, 0.2),
                                    q_over_k=wl.lin(g, 0.0, 0.2))))
    return configs


def run_probes(api, root: Path) -> dict[str, tuple[float, int]]:
    """All per-layer probe metrics: name -> (value, sample count)."""
    env = wl.child_env(root)
    ref3 = wl.reference_config(api, 3000.0)
    ref2 = wl.reference_config(api, 2000.0)
    walkoffs = ref3.walkoffs
    shape = api.shape_params(ref3)
    out: dict[str, tuple[float, int]] = {}

    def put(name, measured, scale):
        seconds, samples = measured
        out[name] = (seconds * scale, samples)

    put("core.erf_us.x1_3", per_call(lambda: api.erf(1.3), 5000), 1e6)
    put("core.erf_us.x3_0", per_call(lambda: api.erf(3.0), 5000), 1e6)
    put("core.shape_params_us", per_call(lambda: api.shape_params(ref3), 2000),
        1e6)
    put("core.eta_closed_form_us",
        per_call(lambda: api.eta_closed_form(shape), 2000), 1e6)
    put("core.efficiency_us", per_call(lambda: api.efficiency(ref3), 2000), 1e6)

    curve_spec = api.SweepSpec(
        l_grid=tuple(100.0 * k for k in range(1, 51)),
        mu_values=api.DEFAULT_MU_VALUES, fixed=ref3)
    put("sweep.efficiency_curve_ms",
        per_call(lambda: api.efficiency_curve(curve_spec), 3), 1e3)
    put("sweep.maximize_eta_ms",
        per_call(lambda: api.maximize_eta(ref2, "xi", (0.1, 10.0)), 3), 1e3)
    ceiling_grid = [500.0 * k for k in range(1, 11)]
    put("sweep.ceiling_scan_ms",
        per_call(lambda: api.ceiling_scan(wl.REF_RP_UM, walkoffs,
                                          ceiling_grid), 1), 1e3)

    design = [wl.reference_config(api, length) for length in (1000.0, 3000.0)]
    put("oracle.eta_numeric_ms.design",
        each_call([lambda c=c: api.eta_numeric(c) for c in design], repeat=3),
        1e3)
    put("oracle.eta_numeric_ms.wide",
        each_call([lambda c=c: api.eta_numeric(c)
                   for c in wide_probe_configs(api)]), 1e3)
    level_pass = getattr(sys.modules["spdcfc.oracle"], "_eta_on_grid", None)
    extent = api.QuadratureSpec().extent_factor
    for k, (n_tau, n_trans) in enumerate(ORACLE_LEVELS):
        name = f"oracle.level_ms.l{k}"
        if level_pass is None:
            out[name] = (-1.0, 0)  # the level pass no longer has this name
        else:
            put(name, per_call(
                lambda: level_pass(ref3, n_tau, n_trans, extent), 2), 1e3)

    put("dispersion.bundled_bbo_ms", per_call(api.bundled_bbo, 20), 1e3)
    model = api.bundled_bbo()
    geometry = api.PhaseMatchGeometry.degenerate(
        pump_wavelength=0.415, cut_angle=math.radians(api.DEFAULT_CUT_ANGLE_DEG),
        external_cone_angle=math.radians(wl.CONE_DEG))
    put("dispersion.build_walkoff_set_us",
        per_call(lambda: api.build_walkoff_set(model, geometry), 500), 1e6)
    put("dispersion.phase_match_angle_us",
        per_call(lambda: api.phase_match_angle(model, 0.415), 100), 1e6)
    put("dispersion.group_delay_params_us",
        per_call(lambda: api.group_delay_params(model, geometry), 500), 1e6)

    child_repeat = 5
    imports = round_robin({
        "import.bare_python_ms": lambda: speed.process_start_ms(root, env) / 1e3,
        "import.numpy_ms": lambda: _import_seconds(root, env, "numpy"),
        "import.spdcfc_ms": lambda: _import_seconds(root, env, "spdcfc"),
    }, child_repeat)
    for name, seconds in imports.items():
        out[name] = (seconds * 1e3, child_repeat)

    walls = round_robin({sub: lambda argv=argv: _cli_wall(root, env, argv)
                         for sub, argv in CLI_PROBE_ARGV.items()}, child_repeat)
    for sub, argv in CLI_PROBE_ARGV.items():
        main_s = _cli_main(argv, repeat=5)
        out[f"cli.main_ms.{sub}"] = (main_s * 1e3, 5)
        out[f"cli.startup_ms.{sub}"] = ((walls[sub] - main_s) * 1e3,
                                        child_repeat)
    return out
