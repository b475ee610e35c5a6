"""spdcfc benchmark runner (stdlib only).

    python3 bench/run.py --workload design_scan --seed 1 --seconds 30 --trace 0

Workloads: design_scan, oracle_check, cli_session, or ``all`` to run
the three one after the other.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs an untraced and a traced
pass of half the time each plus the per-layer probes, and reports the
per-layer metrics and the tracing overhead.  A readable report goes to
stdout, followed by one JSON line with the metrics of BENCHMARK.json;
the full record (machine, checks, sample counts, failures by type and,
when traced, every span) is written to ``bench/out/<workload>.trace<T>.json``.

End-to-end times are scaled to a fixed machine speed by a speed
reference (``speed.py``) timed between the ops; the report prints the
times as measured beside them.

The runner is one process and starts no threads.  Its child processes (CLI
calls, import probes, repeated set-ups) run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import probes
import speed
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# set-up runs per measured run: this process plus fresh children
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}

LAYERS = ("bench", "core", "sweep", "oracle", "dispersion", "cli")

PER_LAYER = {
    "import.bare_python_ms": "ms",
    "import.numpy_ms": "ms",
    "import.spdcfc_ms": "ms",
    **{f"cli.main_ms.{sub}": "ms" for sub in workloads.CLI_SUBCOMMANDS},
    **{f"cli.startup_ms.{sub}": "ms" for sub in workloads.CLI_SUBCOMMANDS},
    "core.erf_us.x1_3": "us",
    "core.erf_us.x3_0": "us",
    "core.shape_params_us": "us",
    "core.eta_closed_form_us": "us",
    "core.efficiency_us": "us",
    "core.etas_per_op": "count",
    "sweep.efficiency_curve_ms": "ms",
    "sweep.maximize_eta_ms": "ms",
    "sweep.ceiling_scan_ms": "ms",
    "sweep.golden_iterations": "count",
    "sweep.etas_per_optimize": "count",
    "oracle.eta_numeric_ms.design": "ms",
    "oracle.eta_numeric_ms.wide": "ms",
    "oracle.level_ms.l0": "ms",
    "oracle.level_ms.l1": "ms",
    "oracle.level_ms.l2": "ms",
    "oracle.levels_per_check": "count",
    "oracle.converged_share": "ratio",
    "oracle.fail.convergence": "count",
    "oracle.fail.raw_exception": "count",
    "oracle.fail.disagree": "count",
    "oracle.fail.domain": "count",
    "dispersion.bundled_bbo_ms": "ms",
    "dispersion.build_walkoff_set_us": "us",
    "dispersion.phase_match_angle_us": "us",
    "dispersion.group_delay_params_us": "us",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms",
    "trace.spans_per_op": "count",
}


def _count_iterations(counts, result) -> None:
    counts["sweep.golden_iterations"] += result.iterations


# Layer entry points, wrapped at the attribute their caller looks up:
# the runner calls spdcfc.<name>; the sweep module calls its own
# imported names; eta_numeric calls its per-level pass.
TRACE_BINDINGS = (
    ("spdcfc", "efficiency_curve", "sweep.efficiency_curve"),
    ("spdcfc", "maximize_eta", "sweep.maximize_eta", _count_iterations),
    ("spdcfc.sweep", "maximize_eta", "sweep.maximize_eta", _count_iterations),
    ("spdcfc", "ceiling_scan", "sweep.ceiling_scan"),
    ("spdcfc", "efficiency", "core.efficiency"),
    ("spdcfc.sweep", "efficiency", "core.efficiency"),
    ("spdcfc", "eta_numeric", "oracle.eta_numeric"),
    ("spdcfc.oracle", "_eta_on_grid", "oracle.level"),
    ("spdcfc", "build_walkoff_set", "dispersion.build_walkoff_set"),
    ("workloads", "run_cli", "cli.run"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or data)."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_spdcfc():
    src = ROOT / "src"
    if not (src / "spdcfc" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {src / 'spdcfc'}; run from "
                         "the root of a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spdcfc
    if src.resolve() not in Path(spdcfc.__file__).resolve().parents:
        raise BenchError(f"imported spdcfc from {spdcfc.__file__}, not {src}")
    return spdcfc


def setup(name: str, seed: int):
    """Import, input generation and warm-up; returns the prepared workload."""
    t0 = perf_counter()
    api = load_spdcfc()
    wl = workloads.WORKLOADS[name](seed)
    checks = wl.prepare(api, ROOT)
    return wl, api, checks, perf_counter() - t0


def scaled_setup(name: str, seed: int):
    """setup() plus its (scaled, measured) time in seconds.

    The speed reference runs right after the set-up, so that it does
    not disturb the timed imports.
    """
    wl, api, checks, seconds = setup(name, seed)
    factor = speed.settled_factor(wl.reference())
    return wl, api, checks, (seconds * factor, seconds)


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    """(scaled, measured) set-up seconds of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["measured_s"]


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

@dataclass
class Measured:
    """Outcomes of a timed loop, op i on input i % n_inputs.

    factors[i] is the speed gauge's scale factor when op i started;
    reference_ms holds the gauge's reference runs.
    """

    outcomes: list
    factors: list
    n_inputs: int
    elapsed: float
    reference: speed.Reference
    reference_ms: list

    def op_times(self, scaled: bool = True) -> dict[int, list[float]]:
        """input -> its ops' times in ms, scaled to the reference speed
        or as measured."""
        times: dict[int, list[float]] = {}
        for i, (o, f) in enumerate(zip(self.outcomes, self.factors)):
            times.setdefault(i % self.n_inputs, []).append(
                o.ms * f if scaled else o.ms)
        return times

    def input_times(self, scaled: bool = True) -> list[float]:
        """One time per input run: the median of its repeats (ms).

        The loop visits the inputs in turn, so an input's repeats lie
        seconds apart; their median drops the ones that a burst of
        other work on the machine slowed down.
        """
        return [statistics.median(ms)
                for ms in self.op_times(scaled).values()]

    def describe(self) -> str:
        n = len(self.outcomes)
        inputs = min(n, self.n_inputs)
        fewest, most = max(1, n // self.n_inputs), -(-n // self.n_inputs)
        return (f"{n} ops over {inputs} of {self.n_inputs} inputs in "
                f"{self.elapsed:.1f} s, {fewest}-{most} per input; "
                f"{len(self.reference_ms)} runs of the speed reference "
                f"({self.reference.name}), median "
                f"{statistics.median(self.reference_ms):.4g} ms against "
                f"{self.reference.ref_ms:g} ms")


def measure(wl, seconds: float, tracer: Tracer | None = None) -> Measured:
    """Closed loop over the workload's inputs until ``seconds`` have passed.

    The speed reference runs between ops, never inside one; at least
    one op runs.
    """
    gauge = speed.Gauge(wl.reference())
    outcomes = []
    factors = []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        idx = i % wl.n_ops
        factors.append(gauge.factor())
        if tracer is None:
            outcomes.append(wl.run_op(idx))
        else:
            span = tracer.begin("op." + wl.kind(idx))
            outcomes.append(wl.run_op(idx))
            tracer.end(span)
        i += 1
        now = perf_counter()
        if now >= deadline:
            return Measured(outcomes, factors, wl.n_ops, now - start,
                            gauge.ref, gauge.times)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def time_metrics(ms: list[float], setup_s: list[float]) -> dict:
    """name -> (value, unit, sample count) of the end-to-end metrics,
    from one time per input and the set-up times."""
    n = len(ms)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "ops_per_s": (n / (sum(ms) / 1e3), "1/s", n),
        "op_ms.p50": (statistics.median(ms), "ms", n),
        "op_ms.p90": (p90(ms), "ms", n),
    }


def session_metrics(wl, measured: Measured) -> dict:
    """Per-subcommand CLI times, scaled, and measured raw and net of bare
    interpreter start."""
    bare = statistics.median(measured.reference_ms)
    out = {"cli.bare_python_ms.p50 (measured)":
           (bare, "ms", len(measured.reference_ms))}
    scaled, raw = measured.op_times(), measured.op_times(scaled=False)
    for sub in workloads.CLI_SUBCOMMANDS:
        idx = [i for i in scaled if wl.kind(i) == sub]
        if idx:
            p50 = statistics.median(statistics.median(raw[i]) for i in idx)
            out[f"cli.{sub}_ms.p50"] = (statistics.median(
                statistics.median(scaled[i]) for i in idx), "ms", len(idx))
            out[f"cli.{sub}_ms.p50 (measured)"] = (p50, "ms", len(idx))
            out[f"cli.{sub}_net_ms.p50 (measured)"] = (p50 - bare, "ms",
                                                       len(idx))
    return out


def per_layer_metrics(tracer: Tracer, traced_run: Measured,
                      untraced_run: Measured, off_region: list,
                      probe_values) -> dict:
    """name -> (value, unit, sample count) for every per-layer metric.

    The oracle failure counts and converged share come from the
    off-region pass of oracle_check (no configs elsewhere).
    """
    traced = traced_run.outcomes
    n = len(traced)
    opt = tracer.span_count("sweep.maximize_eta")
    checks = tracer.span_count("oracle.eta_numeric")
    fails = Counter(o.failure for o in off_region if o.failure)
    n_off = len(off_region)
    self_s = tracer.self_seconds_by_layer()
    traced_values = {
        "core.etas_per_op": tracer.span_count("core.efficiency") / n,
        "sweep.golden_iterations":
            tracer.counts["sweep.golden_iterations"] / opt if opt else 0.0,
        "sweep.etas_per_optimize":
            tracer.child_count("core.efficiency", "sweep.maximize_eta") / opt
            if opt else 0.0,
        "oracle.levels_per_check":
            tracer.span_count("oracle.level") / checks if checks else 0.0,
        "oracle.converged_share":
            (n_off - fails["convergence"] - fails["raw_exception"]
             - fails["domain"]) / n_off if n_off else 0.0,
        "oracle.fail.convergence": fails["convergence"],
        "oracle.fail.raw_exception": fails["raw_exception"],
        "oracle.fail.disagree": fails["disagree"],
        "oracle.fail.domain": fails["domain"],
        "trace.overhead_ms": (statistics.median(traced_run.input_times())
                              - statistics.median(untraced_run.input_times())),
        "trace.spans_per_op": len(tracer.names) / n,
    }
    for layer in LAYERS:
        traced_values[f"self_ms.{layer}"] = self_s.get(layer, 0.0) / n * 1e3
    values = {name: (value, n) for name, value in traced_values.items()}
    for name in ("oracle.converged_share", "oracle.fail.convergence",
                 "oracle.fail.raw_exception", "oracle.fail.disagree",
                 "oracle.fail.domain"):
        values[name] = (traced_values[name], n_off)
    values.update(probe_values)
    return {name: (float(values[name][0]), unit, values[name][1])
            for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    numpy = sys.modules.get("numpy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or platform.machine(),
        "mem_gib": round(mem / 2 ** 30, 1),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    print(f"  {'metric':34s} {'value':>14s}  {'unit':6s} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.6g}  {unit:6s} {n}")


def report(args, record: dict) -> None:
    m = record["machine"]
    print(f"# spdcfc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu']!r} mem={m['mem_gib']} GiB "
          f"python={m['python']} numpy={m['numpy']} commit={record['commit']}")
    for name, ok, detail in record["checks"]:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"# ops: {attempted} attempted, {failed} failed "
          f"(fail_share {failed / attempted:.4f}), "
          f"{record['wrong']} with a wrong output")
    if record["failures_by_type"]:
        print("# failures by type: " + ", ".join(
            f"{k}={v}" for k, v in sorted(record["failures_by_type"].items())))
    for kind, detail in record["first_failure_detail"].items():
        print(f"#   first {kind}: {detail}")
    off = record["off_region"]
    if off["checked"]:
        print(f"# off-region configs (checked once after timing, not in "
              f"attempted/failed): {off['checked']} checked, {off['failed']} "
              f"failed (fail_share {off['failed'] / off['checked']:.4f})")
        for kind, count in sorted(off["failures_by_type"].items()):
            print(f"#   {kind}={count}, first: "
                  f"{off['first_failure_detail'][kind]}")
    print(f"# {record['timing']}")
    for title, group in record["tables"].items():
        print_table(title, {k: tuple(v) for k, v in group.items()})
    if record.get("untraced_bindings"):
        print("# not traced (attribute missing): "
              + ", ".join(record["untraced_bindings"]))


def off_region_pass(wl) -> list:
    """The workload's untimed off-region checks (oracle_check only)."""
    if isinstance(wl, workloads.OracleCheck):
        return wl.off_region_pass()
    return []


def summarize(outcomes) -> tuple[int, Counter, dict]:
    failed = [o for o in outcomes if o.failure]
    by_type = Counter(f"{o.failure}:{o.error_type}" for o in failed)
    first = {}
    for o in failed:
        first.setdefault(f"{o.failure}:{o.error_type}", o.detail)
    return len(failed), by_type, first


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(args) -> int:
    wl, api, checks, first_setup = scaled_setup(args.workload, args.seed)
    tables = {}
    untraced_bindings = []
    spans = None
    if not args.trace:
        setup_samples = [first_setup] + [
            setup_in_child(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)]
        measured = measure(wl, args.seconds)
        e2e = time_metrics(measured.input_times(),
                           [scaled for scaled, _ in setup_samples])
        tables["end-to-end (tracing off, scaled to reference speed)"] = e2e
        tables["end-to-end as measured (not gated)"] = time_metrics(
            measured.input_times(scaled=False),
            [raw for _, raw in setup_samples])
        if isinstance(wl, workloads.CliSession):
            tables["cli_session per subcommand"] = session_metrics(wl, measured)
        emitted = e2e
        outcomes = measured.outcomes
        timing_note = measured.describe()
        off_region = off_region_pass(wl)
    else:
        untraced = measure(wl, args.seconds / 2)
        tracer = Tracer()
        untraced_bindings = tracer.install(TRACE_BINDINGS)
        try:
            traced = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        off_region = off_region_pass(wl)
        layer = per_layer_metrics(tracer, traced, untraced, off_region,
                                  probes.run_probes(api, ROOT))
        tables["per-layer (traced pass and probes)"] = layer
        outcomes = untraced.outcomes + traced.outcomes
        emitted = layer
        spans = {"by_name": tracer.by_name(), "spans": tracer.dump()}
        timing_note = (f"untraced: {untraced.describe()}; "
                       f"traced: {traced.describe()}")

    failed, by_type, first = summarize(outcomes)
    wrong = sum(1 for o in outcomes if o.wrong)
    correct = all(ok for _, ok, _ in checks) and wrong == 0
    off_failed, off_by_type, off_first = summarize(off_region)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "commit": git_commit(),
        "checks": checks, "correct": correct, "attempted": len(outcomes),
        "failed": failed, "wrong": wrong, "failures_by_type": dict(by_type),
        "first_failure_detail": first, "timing": timing_note, "tables": tables,
        "untraced_bindings": untraced_bindings,
        "off_region": {"checked": len(off_region), "failed": off_failed,
                       "failures_by_type": dict(off_by_type),
                       "first_failure_detail": off_first},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}.trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({**record, "trace_spans": spans}, fh)
    report(args, record)
    print(f"# full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in emitted.items()}}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            scaled, measured = scaled_setup(args.workload, args.seed)[3]
            print(json.dumps({"setup_s": scaled, "measured_s": measured}))
            return 0
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
