"""qaction benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fit_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Nothing is built: the worker imports
``qaction`` from ``src/`` of that checkout.  Load discipline: one workload at
a time in one worker process (a closed loop, one pass after another), BLAS
capped at one thread, so at most two threads run at once (the propagator's
``--threads 2`` pool in the traced thread comparison).

--trace 0 prints the end-to-end metrics, measured with tracing off:
  wall_s       median wall time of one pass over the workload's configs
  setup_s      process start to first operation (imports, config generation
               and loading), median over SETUP_SAMPLES processes
  peak_rss_mb  peak resident memory of the worker process
--trace 1 prints the per-layer metrics of a traced pass (see worker.py).

Human-readable lines (environment, failed_ratio with its counts, the
percentile line, per-operation failures) come first; the last line of
standard output is the JSON result, with "correct": false when an operation
missed its check or the traced counts did not repeat.  The exit code is 0
when a result was printed and 2 when none could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, result: Path, deadline: float) -> dict:
    """Run worker.py to completion and return its result file."""
    result.unlink(missing_ok=True)
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--result", str(result), "--started", repr(started)]
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{output[-4000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    expected = (ROOT / "src" / "qaction" / "cli.py").resolve()
    if Path(data["qaction_file"]).resolve() != expected:
        raise RuntimeError(f"imported {data['qaction_file']}, not {expected}")
    return data


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "load": "one workload, one worker process, closed loop",
    }


def percentile_line(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 passes beyond it (n={n})"
    p = 100.0 * (n - 10) / n
    ranked = sorted(samples)
    return f"p{p:.0f} = {ranked[n - 11]:.4f} s (n={n}, 10 passes beyond it)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qaction" / "cli.py").is_file():
        print(f"no qaction sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    work = WORK / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work / "run")]
    try:
        # setup_s is reported only with tracing off.
        setups = [
            spawn([*common, "--seconds", "0", "--setup-only"], work / "setup.json", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1 if args.trace == 0 else 0)
        ]
        run = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    work / "result.json", deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    setups.append(run["setup_s"])

    env = environment(args.seed, args.workload)
    print("environment: " + json.dumps(env, sort_keys=True))
    attempted, failures = run["attempted"], run["failures"]
    for name, detail in failures:
        print(f"FAILED {name}: {detail}")
    print(f"failed_ratio = {len(failures) / attempted:.4g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    correct = not failures
    passes = run["passes"]
    if args.trace == 0:
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
        }
        print(f"passes: {len(passes)}; {percentile_line(passes)}")
        print("pass wall s: " + ", ".join(f"{t:.4f}" for t in passes))
        print("pass cpu s: " + ", ".join(f"{t:.4f}" for t in run["cpu"]))
        print("setup samples: " + ", ".join(f"{s:.4f}" for s in setups))
    else:
        metrics = run["metrics"]
        if not run["counts_repeat"]:
            correct = False
            print("FAILED counts differ between the two traced passes:")
            for key in run["counts"][0]:
                a, b = run["counts"][0][key], run["counts"][1][key]
                if a != b:
                    print(f"  {key}: {a} vs {b}")
        print(f"counts repeat exactly between two traced passes: {run['counts_repeat']}")
        for source, base in run["base"].items():
            print(f"bases ({source}): {json.dumps(base, sort_keys=True)}")
        print("functions the workload never calls, reported from the layer probe: "
              + (", ".join(run["from_probe"]) or "none"))
        print(f"untraced pass {passes[0]:.4f} s, traced passes "
              + ", ".join(f"{t:.4f}" for t in run["traced_passes"]) + " s")
        print(f"threads: {json.dumps(run['threads'], sort_keys=True)}")
        print(f"spans: {run['spans']['count']} written to {run['spans']['file']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
