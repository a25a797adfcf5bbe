"""One benchmark process: generate a workload's configs and run them through the CLI.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread cap set; it writes one JSON result file and exits.  Every
operation goes through ``qaction.cli.main`` in this process, exactly as
``qaction <command> --config ... --out ...`` would run it.

  --setup-only   import, generate and load the configs, report setup time
  --trace 0      run passes until --seconds is used up; report wall times
  --trace 1      one untraced pass, two traced passes (counts must repeat),
                 each followed by a traced workloads.layer_probe(), then the
                 --threads 1/2 propagator comparison, untraced
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

THREAD_REPEATS = 2


def write_configs(commands, work: Path) -> list[Path]:
    paths = []
    for i, cmd in enumerate(commands):
        path = work / "configs" / f"{i:02d}_{cmd.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cmd.document, indent=2, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


def run_cli(main, argv) -> tuple[int, str]:
    """Invoke the click entry point in-process; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main.main(args=argv, prog_name="qaction", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crash
            buf.write(f"{type(exc).__name__}: {exc}\n")
            code = 3
    return code, buf.getvalue()


class Runner:
    def __init__(self, workload, seed, work, probe=False):
        from qaction import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.commands = workloads.WORKLOADS[workload](seed)
        self.configs = write_configs(self.commands, work)
        self.probe = workloads.layer_probe() if probe else []
        self.probe_configs = write_configs(self.probe, work / "probe")
        for cmd, path in zip(self.commands + self.probe, self.configs + self.probe_configs):
            cli.load_config(path, cmd.command)
        needs_reference = workload in ("fit_sweep", "flow_march")
        self.reference = workloads.load_reference() if needs_reference else None
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.cpu: list[float] = []

    def run_command(self, cmd, config: Path, out: Path, tracer=None):
        """One CLI invocation, checked and counted as one or more operations."""
        argv = [cmd.command, "--config", str(config), "--out", str(out),
                "--threads", str(cmd.threads), "--seed", str(self.seed)]
        if tracer is None:
            code, text = run_cli(self.cli.main, argv)
        else:
            with tracer.span("cli.main"):
                code, text = run_cli(self.cli.main, argv)
        verdicts = workloads.check(self.seed, cmd, code, text, out, self.reference)
        self.attempted += len(verdicts)
        self.failures += [(name, detail) for name, ok, detail in verdicts if not ok]

    def run_pass(self, tracer=None) -> float:
        c0 = time.process_time()
        t0 = time.perf_counter()
        for i, (cmd, path) in enumerate(zip(self.commands, self.configs)):
            self.run_command(cmd, path, self.work / "out" / f"{i:02d}_{cmd.name}", tracer)
        self.cpu.append(time.process_time() - c0)
        return time.perf_counter() - t0

    def run_probe(self, tracer):
        for cmd, path in zip(self.probe, self.probe_configs):
            self.run_command(cmd, path, self.work / "probe" / "out" / cmd.name, tracer)


def traced(tracer: Tracer, run) -> float:
    """Run ``run(tracer)`` with the tracer's wrappers installed; returns its wall time."""
    tracer.install()
    t0 = time.perf_counter()
    try:
        run(tracer)
    finally:
        tracer.uninstall()
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_threads(runner: Runner, seed: int) -> dict:
    """Wall time of the two propagator configs at --threads 1 and 2, untraced."""
    timings = {1: [], 2: []}
    commands = {t: workloads.propagators(seed, threads=t) for t in (1, 2)}
    work = runner.work / "threads"
    for repeat in range(THREAD_REPEATS):
        order = (1, 2) if repeat % 2 == 0 else (2, 1)
        for threads in order:
            configs = write_configs(commands[threads], work / f"t{threads}")
            t0 = time.perf_counter()
            for cmd, path in zip(commands[threads], configs):
                runner.run_command(cmd, path, work / f"t{threads}" / "out" / cmd.name)
            timings[threads].append(time.perf_counter() - t0)
    return {
        "threads1_s": statistics.median(timings[1]),
        "threads2_s": statistics.median(timings[2]),
        "speedup": statistics.median(timings[1]) / statistics.median(timings[2]),
    }


KERNEL = ("analytic.euclidean_log_amplitude", "analytic.harmonic_log_kernel")
POTENTIAL = ("model.potential_value", "model.potential_derivative",
             "model.potential_second_derivative")


def counts_of(tracer: Tracer) -> dict[str, int]:
    totals = tracer.layer_totals()

    def calls(*names):
        return sum(totals.get(n, {"calls": 0})["calls"] for n in names)

    errors = tracer.errors
    return {
        "trajectory.solve_bvp.calls": calls("trajectory.solve_bvp"),
        "trajectory.solve_bvp.cold_calls": len(tracer.cold_spans),
        "trajectory.solve_bvp.failed": sum(
            v for (n, _), v in errors.items() if n == "trajectory.solve_bvp"
        ),
        "trajectory.newton_iters": tracer.counts["trajectory.newton_iters"],
        "fit.bvp_solves": tracer.calls_under("trajectory.solve_bvp", "fit.fit_at_time"),
        "flow.bvp_solves": tracer.calls_under("trajectory.solve_bvp", "flow.step"),
        "fit.fit_at_time.calls": calls("fit.fit_at_time"),
        "fit.evaluations": tracer.counts["fit.evaluations"],
        "fit.converged": tracer.counts["fit.converged"],
        "flow.step.calls": calls("flow.step"),
        "flow.step.rejected": sum(v for (n, _), v in errors.items() if n == "flow.step"),
        "analytic.kernel.calls": calls(*KERNEL),
        "specfun.bessel_i.calls": calls("specfun.bessel_i"),
        "oracle.eigensolve.calls": calls("oracle.solve_spectrum"),
        "oracle.amplitude.calls": calls("oracle.amplitude"),
        "model.potential.calls": calls(*POTENTIAL),
    }


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit, spans measured)."""
    totals = tracer.layer_totals()

    def self_s(*names):
        return sum(totals.get(n, {"self_s": 0.0})["self_s"] for n in names)

    def total_s(*names):
        return sum(totals.get(n, {"total_s": 0.0})["total_s"] for n in names)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    solves = counts["trajectory.solve_bvp.calls"]
    cold = counts["trajectory.solve_bvp.cold_calls"]
    cold_s = tracer.cold_seconds()
    warm_s = total_s("trajectory.solve_bvp") - cold_s
    slices = counts["fit.fit_at_time.calls"]
    steps = counts["flow.step.calls"]
    bessel, spectrum, amplitude = ("specfun.bessel_i",), ("oracle.solve_spectrum",), ("oracle.amplitude",)
    bvp, fit, step = ("trajectory.solve_bvp",), ("fit.fit_at_time",), ("flow.step",)
    return {
        "model.potential.calls": (counts["model.potential.calls"], "count", POTENTIAL),
        "model.potential.self_s": (self_s(*POTENTIAL), "s", POTENTIAL),
        "specfun.bessel_i.calls": (counts["specfun.bessel_i.calls"], "count", bessel),
        "specfun.bessel_i.us_per_call": (
            per(total_s(*bessel), counts["specfun.bessel_i.calls"], 1e6), "us", bessel),
        "analytic.kernel.calls": (counts["analytic.kernel.calls"], "count", KERNEL),
        "analytic.kernel.us_per_call": (
            per(total_s(*KERNEL), counts["analytic.kernel.calls"], 1e6), "us", KERNEL),
        "analytic.kernel.self_s": (self_s(*KERNEL), "s", KERNEL),
        "oracle.eigensolve.calls": (counts["oracle.eigensolve.calls"], "count", spectrum),
        "oracle.eigensolve.s_per_call": (
            per(total_s(*spectrum), counts["oracle.eigensolve.calls"]), "s", spectrum),
        "oracle.amplitude.calls": (counts["oracle.amplitude.calls"], "count", amplitude),
        "oracle.amplitude.us_per_call": (
            per(total_s(*amplitude), counts["oracle.amplitude.calls"], 1e6), "us", amplitude),
        "trajectory.solve_bvp.calls": (solves, "count", bvp),
        "trajectory.solve_bvp.cold_calls": (cold, "count", bvp),
        "trajectory.solve_bvp.cold_ms": (per(cold_s, cold, 1e3), "ms", bvp),
        "trajectory.solve_bvp.warm_ms": (per(warm_s, solves - cold, 1e3), "ms", bvp),
        "trajectory.solve_bvp.self_s": (self_s(*bvp), "s", bvp),
        "trajectory.solve_bvp.failed": (counts["trajectory.solve_bvp.failed"], "count", bvp),
        "trajectory.newton_iters_per_solve": (
            per(counts["trajectory.newton_iters"], solves), "ratio", bvp),
        "trajectory.action_value.self_s": (
            self_s("trajectory.action_value"), "s", ("trajectory.action_value",)),
        "trajectory.sensitivities.self_s": (
            self_s("trajectory.sensitivities"), "s", ("trajectory.sensitivities",)),
        "fit.fit_at_time.calls": (slices, "count", fit),
        "fit.fit_at_time.s_per_call": (per(total_s(*fit), slices), "s", fit),
        "fit.fit_at_time.self_s": (self_s(*fit), "s", fit),
        "fit.evaluations_per_slice": (per(counts["fit.evaluations"], slices), "ratio", fit),
        "fit.bvp_solves_per_slice": (per(counts["fit.bvp_solves"], slices), "ratio", fit),
        "fit.converged_ratio": (per(counts["fit.converged"], slices), "ratio", fit),
        "fit.build_table.self_s": (self_s("fit.build_table"), "s", ("fit.build_table",)),
        "flow.step.calls": (steps, "count", step),
        "flow.step.s_per_call": (per(total_s(*step), steps), "s", step),
        "flow.step.rejected": (counts["flow.step.rejected"], "count", step),
        "flow.bvp_solves_per_step": (per(counts["flow.bvp_solves"], steps), "ratio", step),
        "flow.assemble_system.self_s": (
            self_s("flow.assemble_system"), "s", ("flow.assemble_system",)),
        "flow.solve_rates.self_s": (self_s("flow.solve_rates"), "s", ("flow.solve_rates",)),
        "cli.self_s": (self_s("cli.main"), "s", ("cli.main",)),
        "cli.load_config.self_s": (self_s("cli.load_config"), "s", ("cli.load_config",)),
    }


def bases(counts: dict) -> dict:
    """The denominators and numerators behind the per-layer ratios."""
    return {
        "slices": counts["fit.fit_at_time.calls"],
        "evaluations": counts["fit.evaluations"],
        "fit_solves": counts["fit.bvp_solves"],
        "steps": counts["flow.step.calls"],
        "flow_solves": counts["flow.bvp_solves"],
        "solves": counts["trajectory.solve_bvp.calls"],
        "newton_iters": counts["trajectory.newton_iters"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it spawned this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, probe=args.trace == 1)
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s, "qaction_file": runner.cli.__file__}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    if args.trace == 0:
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(runner.run_pass())
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(passes) > args.seconds:
                break
        result["passes"] = passes
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        untraced = runner.run_pass()
        tracers, probes = [Tracer(), Tracer()], [Tracer(), Tracer()]
        traced_s = []
        for tracer, probe in zip(tracers, probes):
            traced_s.append(traced(tracer, runner.run_pass))
            traced(probe, runner.run_probe)
        counts = [counts_of(t) for t in tracers]
        probe_counts = [counts_of(t) for t in probes]
        threads = time_threads(runner, args.seed)
        # A metric whose functions the workload never calls comes from the probe.
        totals = tracers[1].layer_totals()
        own = layer_metrics(tracers[1], counts[1])
        from_probe = layer_metrics(probes[1], probe_counts[1])
        metrics, idle = {}, set()
        for key, (value, unit, spans) in own.items():
            if not any(n in totals for n in spans):
                value = from_probe[key][0]
                idle.update(spans)
            metrics[key] = {"value": value, "unit": unit}
        metrics["cli.threads2_speedup"] = {"value": threads["speedup"], "unit": "ratio"}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_s) / untraced, "unit": "ratio"}
        result["passes"] = [untraced]
        result["traced_passes"] = traced_s
        result["counts"] = [{**c, **{f"probe {k}": v for k, v in p.items()}}
                            for c, p in zip(counts, probe_counts)]
        result["counts_repeat"] = result["counts"][0] == result["counts"][1]
        result["threads"] = threads
        result["from_probe"] = sorted(idle)
        result["metrics"] = metrics
        result["base"] = {"workload": bases(counts[1]), "probe": bases(probe_counts[1])}
        trace_path = work / "spans.npz"
        tracers[1].save(trace_path)
        probes[1].save(work / "probe_spans.npz")
        result["spans"] = {"file": str(trace_path), "count": len(tracers[1].start)}
    result["cpu"] = runner.cpu
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
