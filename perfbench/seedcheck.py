"""Repeat and second-seed check of the traced counts.

    python3 perfbench/seedcheck.py --seeds 1 2 [--workloads fit_sweep ...]

Runs the traced benchmark three times per workload: twice at the first seed
and once at the second.  Every count (calls, solves, Newton iterations,
evaluations, steps, and the ratios of counts) must be identical between the
two runs of the first seed.  The counts per operation must differ between
the two seeds by no more than the wall_s bound of BENCHMARK.json, so that a
claim re-checked on the second seed compares the same amount of work.  The
exit code is 1 if either check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Ratios of counts; with the "count" metrics they must repeat exactly.
COUNT_RATIOS = (
    "fit.evaluations_per_slice",
    "fit.bvp_solves_per_slice",
    "fit.converged_ratio",
    "trajectory.newton_iters_per_solve",
    "flow.bvp_solves_per_step",
)

# Work per operation, compared between the two seeds.
PER_OPERATION = (
    "fit.evaluations_per_slice",
    "fit.bvp_solves_per_slice",
    "trajectory.newton_iters_per_solve",
    "trajectory.solve_bvp.calls",
    "flow.bvp_solves_per_step",
    "flow.step.calls",
    "analytic.kernel.calls",
    "specfun.bessel_i.calls",
    "oracle.eigensolve.calls",
    "oracle.amplitude.calls",
    "model.potential.calls",
)


def traced(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return result["metrics"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    ok, worst = True, 0.0
    for workload in args.workloads:
        first, again, second = (traced(workload, s, bench["run_seconds"])
                                for s in (args.seeds[0], *args.seeds))
        exact = [k for k, m in first.items() if m["unit"] == "count" or k in COUNT_RATIOS]
        differ = [k for k in exact if first[k]["value"] != again[k]["value"]]
        ok &= not differ
        print(f"{workload}: {len(exact)} counts at seed {args.seeds[0]} "
              + ("repeat exactly" if not differ else f"DIFFER: {', '.join(differ)}"))
        for key in PER_OPERATION:
            a, b = first[key]["value"], second[key]["value"]
            rel = abs(a - b) / max(abs(a), abs(b))
            worst = max(worst, rel)
            flag = "" if rel <= bound else "  BEYOND wall_s bound"
            print(f"  {key:36s} {a:>12.6g} {b:>12.6g} {rel:8.2%}{flag}")
    print(f"largest difference between seeds {args.seeds[0]} and {args.seeds[1]}: "
          f"{worst:.2%} against the wall_s bound {bound:.0%}")
    return 0 if ok and worst <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
