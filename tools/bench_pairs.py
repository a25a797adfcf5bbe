"""Compare two source trees on one benchmark workload in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

Runs `python3 perfbench/run.py --workload W --seed K --seconds S --trace 0`
in each tree, with that tree's own perfbench/, N times each. Pair i runs
PARENT first when i is even and CHANGE first when it is odd, so a drift in
the host's load falls on both sides. Every run's result line is printed as
it arrives. Then, for each end-to-end metric of BENCHMARK.json (read from
this script's checkout, never written), the summary gives:

- each side's median and quartiles, and how many pairs CHANGE won (ties
  count for neither side);
- whether a gain may be claimed: CHANGE won at least nine tenths of the
  pairs, and the medians differ by more than PARENT's interquartile range;
- the move of CHANGE's median against PARENT's, relative, beside the
  metric's bound, and whether it is worse than the bound allows.

It also says whether every run was correct with no failed operation. Exit
status: 0 when every run produced a result, 2 otherwise.

Standard library only, like perfbench/ itself, so it runs against any tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CLAIM_SHARE = 0.9  # of the pairs run, ties counting for neither side


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in tree: its JSON result line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """The report's lines for runs paired by index, metrics as in BENCHMARK.json."""
    lines = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        gain = (am - bm) if lower else (bm - am)
        claim = wins >= CLAIM_SHARE * len(a) and gain > a3 - a1
        move = (bm - am) / am
        worse = -move if not lower else move
        unit = spec["unit"]
        lines += [
            f"{name}: parent {am:.6g} [{a1:.6g}, {a3:.6g}] {unit}, "
            f"change {bm:.6g} [{b1:.6g}, {b3:.6g}] {unit}; change won {wins}/{len(a)}",
            f"  claim rule (>= {CLAIM_SHARE:.0%} of pairs won, median gap {gain:.4g} "
            f"> parent IQR {a3 - a1:.4g}): {'holds' if claim else 'does not hold'}",
            f"  move {move:+.2%} against bound {spec['bound']:.0%}: "
            f"{'WORSE than the bound' if worse > spec['bound'] else 'within the bound'}",
        ]
    runs = parent + change
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    lines.append(f"correct with 0 failed: {len(runs) - len(bad)}/{len(runs)} runs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    names = [m["name"] for m in metrics]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = getattr(args, side)
            try:
                result = run_once(tree, args.workload, args.seconds, args.seed)
            except RuntimeError as exc:
                print(f"benchmark failed: {exc}", file=sys.stderr)
                return 2
            runs[side].append(result)
            values = ", ".join(f"{n} {result['metrics'][n]['value']:.6g}" for n in names)
            print(f"pair {i + 1} {side}: {values}; correct {result['correct']}, "
                  f"failed {result['failed']}", flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g}-s runs at seed {args.seed}")
    print("\n".join(summary(runs["parent"], runs["change"], metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
