"""Generated inputs and correctness checks of the three benchmark workloads.

Every workload is a list of CLI commands over JSON configs that this module
writes from the workload seed.  The program only ever sees those configs.

- fit_sweep and flow_march draw their jitter from one of VARIANTS fixed
  variants (variant = seed mod VARIANTS), because their results are checked
  against reference values stored with the benchmark in reference.json
  (rebuilt by make_reference.py).
- reference_checks jitters its query points continuously from the seed; its
  checks are closed-form bounds, so it needs no stored reference.

An operation is one fitted time slice (fit_sweep), one flow config run
(flow_march) or one CLI command run (reference_checks).  ``check`` returns
one (name, ok, detail) triple per operation of a command.  The traced run
also runs ``layer_probe``; each probe command is one operation and passes
when it exits 0.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16
REFERENCE_FILE = Path(__file__).with_name("reference.json")

MODEL = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5, "-2": 1.0}}
STRONG_MODEL = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5, "-2": 5.0}}
IMAGE_MODEL = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5}}

FIT_TIMES = (0.7, 1.0)
# Relative error of the fitted amplitudes against the exact ones, per time.
# The unjittered windows give 1.06e-3 and 2.61e-3; the 16 jitter variants
# span 0.87e-3 to 1.32e-3 and 2.26e-3 to 3.02e-3.
FIT_REL_ERROR_BOUND = {0.7: 1.5e-3, 1.0: 3.5e-3}
# Relative agreement of mass, v_2, v_-2 and the gauge-invariant constant term
# with reference.json: loose enough for another optimiser reaching the same
# optimum (a Gauss-Newton prototype matched Nelder-Mead to 8 digits), tight
# against the spread of v_-2 and the constant term between variants (2-5%).
FIT_PARAM_RTOL = 1e-4

FLOW_STEPS = 20
FLOW_DBETA = 3.75e-3
FLOW_BETA0 = 0.35
# Relative agreement of the flowed mass, v_2, v_-2 and constant term with
# reference.json.
FLOW_PARAM_RTOL = 1e-6

# Max rel_diff between the closed-form kernel and the grid oracle; the
# unjittered configs give 1.35e-5 and 2.18e-5, seeds 1-20 up to 1.78e-5 and
# 2.62e-5.
PROPAGATOR_REL_DIFF_BOUND = {"propagator_cross_check": 3e-5, "propagator_image_formula": 4e-5}
IMAGE_IDENTITY_BOUND = 1e-10
# Grid eigenvalues against E_n = hbar omega (2n + 1 + gamma), first five levels.
SPECTRUM_LEVEL_RTOL = 1e-6
SCALES_RTOL = 1e-12


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, config name and config document."""

    command: str
    name: str
    document: dict
    threads: int = 1
    probe: bool = False


def variant(seed: int) -> int:
    return seed % VARIANTS


def _jitter(rng: random.Random, value: float, half_width: float) -> float:
    return round(value + rng.uniform(-half_width, half_width), 6)


def fit_sweep(seed: int) -> list[Command]:
    """One continuation sweep on the paper's asymmetric windows, edges +-0.05."""
    rng = random.Random(f"fit_sweep/{variant(seed)}")
    fit = {
        "ansatz": [0, 2, -2],
        "initial": {"start": _jitter(rng, 4.0, 0.05), "stop": _jitter(rng, 5.0, 0.05), "count": 2},
        "final": {"start": _jitter(rng, 0.5, 0.05), "stop": _jitter(rng, 3.0, 0.05), "count": 10},
        "times": list(FIT_TIMES),
        "intervals": 500,
        "source": "analytic",
    }
    return [Command("fit", "fit_sweep", {"model": MODEL, "fit": fit})]


FLOW_START = {"mass": 0.99994533, "coefficients": {"-2": 1.2280919, "0": 1.1676274}}


def flow_march(seed: int) -> list[Command]:
    """The stability trio, 20 RK4 steps each; the perturbed v_2 are drawn by seed."""
    rng = random.Random(f"flow_march/{variant(seed)}")
    v2 = {
        "flow_standard": 0.499881,
        "flow_stability_low": round(rng.uniform(0.47, 0.48), 6),
        "flow_stability_high": round(rng.uniform(0.51, 0.52), 6),
    }
    out = []
    for name, value in v2.items():
        initial = {
            "beta": FLOW_BETA0,
            "mass": FLOW_START["mass"],
            "coefficients": {**FLOW_START["coefficients"], "2": value},
        }
        flow = {
            "initial": initial,
            "initial_point": 10.0,
            "final_points": {"start": 0.2, "stop": 7.0, "count": 30},
            "beta_end": FLOW_BETA0 + FLOW_STEPS * FLOW_DBETA,
            "dbeta": FLOW_DBETA,
            "record_stride": 1,
        }
        out.append(Command("flow", name, {"model": MODEL, "flow": flow}))
    return out


def _points(rng, values, half_width):
    return [_jitter(rng, v, half_width) for v in values]


def propagators(seed: int, threads: int = 1) -> list[Command]:
    rng = random.Random(f"propagator/{seed}")
    cross = {
        "initial": _points(rng, (1.0, 2.0, 3.0), 0.05),
        "final": _points(rng, (1.0, 2.0, 3.0), 0.05),
        "times": _points(rng, (0.4, 1.0, 2.0, 4.0), 0.02),
    }
    image = {
        "initial": _points(rng, (0.5, 1.0, 2.0, 3.0), 0.05),
        "final": _points(rng, (0.5, 1.0, 2.0, 3.0), 0.05),
        "times": _points(rng, (0.5, 1.0, 2.0), 0.02),
    }
    return [
        Command("propagator", "propagator_cross_check", {"model": MODEL, "propagator": cross}, threads),
        Command("propagator", "propagator_image_formula", {"model": IMAGE_MODEL, "propagator": image}, threads),
    ]


def reference_checks(seed: int) -> list[Command]:
    """propagator x2, verify x2, spectrum and scales; query points jittered."""
    rng = random.Random(f"reference_checks/{seed}")
    verify = {"boundary": _jitter(rng, 1.0, 0.05), "composition_time": _jitter(rng, 0.5, 0.02)}
    strong = {"boundary": _jitter(rng, 1.0, 0.05), "composition_time": _jitter(rng, 0.5, 0.02)}
    return propagators(seed) + [
        Command("verify", "verify_standard", {"model": MODEL, "verify": verify}),
        Command("verify", "verify_strong_coupling", {"model": STRONG_MODEL, "verify": strong}),
        Command("spectrum", "spectrum_standard", {"model": MODEL, "spectrum": {"levels": 40}}),
        Command("scales", "scales_standard",
                {"model": MODEL, "scales": {"probability": _jitter(rng, 0.95, 0.01)}}),
    ]


def layer_probe() -> list[Command]:
    """A small fixed fit, flow step and coarse propagator, traced after every traced pass.

    Each workload leaves some layers idle (reference_checks never solves a
    BVP, flow_march never fits), and an idle layer would report a time of
    exactly 0 on every run.  The probe gives every layer a little work that
    is the same on every workload and seed (about 1 s); the traced run takes
    each metric of a function the workload never calls from the probe.
    """
    fit = {
        "ansatz": [0, 2, -2],
        "initial": [4.5],
        "final": {"start": 0.5, "stop": 3.0, "count": 5},
        "times": [0.7],
        "intervals": 100,
        "source": "analytic",
        "init": {"mass": 0.9983, "coefficients": {"2": 0.5044, "-2": 1.39, "0": 1.0}},
    }
    flow = {
        "initial": {
            "beta": FLOW_BETA0,
            "mass": FLOW_START["mass"],
            "coefficients": {**FLOW_START["coefficients"], "2": 0.499881},
        },
        "initial_point": 10.0,
        "final_points": {"start": 0.2, "stop": 7.0, "count": 8},
        "beta_end": FLOW_BETA0 + FLOW_DBETA,
        "dbeta": FLOW_DBETA,
        "intervals": 100,
    }
    propagator = {"initial": [1.0, 2.0], "final": [1.5, 2.5], "times": [0.5, 1.0],
                  "spacing": 1e-2, "extent": 10.0, "levels": 60}
    return [
        Command("fit", "probe_fit", {"model": MODEL, "fit": fit}, probe=True),
        Command("flow", "probe_flow", {"model": MODEL, "flow": flow}, probe=True),
        Command("propagator", "probe_propagator", {"model": MODEL, "propagator": propagator},
                probe=True),
    ]


WORKLOADS = {
    "fit_sweep": fit_sweep,
    "flow_march": flow_march,
    "reference_checks": reference_checks,
}


# ------------------------------------------------------------------ checks


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), 1e-12)


def _family(model: dict) -> tuple[float, float]:
    """(omega, gamma) of v_2 x^2 + v_-2 x^-2, written out independently of qaction."""
    m, hbar = model["mass"], model["hbar"]
    v2 = model["coefficients"]["2"]
    vm2 = model["coefficients"].get("-2", 0.0)
    return math.sqrt(2.0 * v2 / m), 0.5 * math.sqrt(1.0 + 8.0 * m * vm2 / hbar**2)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def fit_slices(out_dir: Path) -> list[dict]:
    """Fitted parameters per slice, in the form stored in reference.json."""
    slices = []
    for row in _rows(out_dir / "fit_results.csv"):
        t = float(row["T"])
        slices.append({
            "T": t,
            "mass": float(row["mass"]),
            "v_2": float(row["v_2"]),
            "v_-2": float(row["v_-2"]),
            "constant_term": float(row["v_0"]) - float(row["log_norm"]) / t,
            "relative_error": float(row["relative_error"]),
            "converged": int(row["converged"]),
        })
    return slices


def flow_final(out_dir: Path) -> dict:
    rows = _rows(out_dir / "flow_trace.csv")
    last = rows[-1]
    beta = float(last["beta"])
    return {
        "rows": len(rows),
        "deficiencies": [int(r["deficiency"]) for r in rows[1:]],
        "beta": beta,
        "mass": float(last["mass"]),
        "v_2": float(last["v_2"]),
        "v_-2": float(last["v_-2"]),
        "constant_term": float(last["v_0"]) - float(last["log_norm"]) / beta,
    }


PARAMS = ("mass", "v_2", "v_-2", "constant_term")


def check(seed: int, cmd: Command, code: int, text: str, out_dir: Path,
          reference: dict | None) -> list[tuple[str, bool, str]]:
    """Correctness verdict for every operation of one command run."""
    if cmd.probe:
        return [(cmd.name, code == 0, "ok" if code == 0 else f"exit code {code}")]
    if cmd.command == "fit":
        return _check_fit(seed, cmd, code, out_dir, reference)
    if code != 0:
        return [(cmd.name, False, f"exit code {code}")]
    if cmd.command == "flow":
        return [_check_flow(seed, cmd, out_dir, reference)]
    if cmd.command == "propagator":
        return [_check_propagator(cmd, out_dir)]
    if cmd.command == "verify":
        ok = "verify: 7/7 checks passed" in text
        return [(cmd.name, ok, "7/7 checks" if ok else "verify did not pass 7/7")]
    if cmd.command == "spectrum":
        return [_check_spectrum(cmd, out_dir)]
    return [_check_scales(cmd, out_dir)]


def _check_fit(seed, cmd, code, out_dir, reference):
    names = [f"{cmd.name}@T={t}" for t in FIT_TIMES]
    if code != 0:
        return [(n, False, f"exit code {code}") for n in names]
    ref = reference["fit_sweep"][str(variant(seed))]
    slices = fit_slices(out_dir)
    if [s["T"] for s in slices] != list(FIT_TIMES):
        return [(n, False, "wrong slice times") for n in names]
    out = []
    for name, got, want in zip(names, slices, ref):
        bound = FIT_REL_ERROR_BOUND[got["T"]]
        problems = []
        if got["converged"] != 1:
            problems.append("not converged")
        if not got["relative_error"] < bound:
            problems.append(f"relative error {got['relative_error']:.3e} >= {bound:.2e}")
        for key in PARAMS:
            if not _close(got[key], want[key], FIT_PARAM_RTOL):
                problems.append(f"{key} {got[key]:.10g} vs reference {want[key]:.10g}")
        out.append((name, not problems, "; ".join(problems) or "ok"))
    return out


def _check_flow(seed, cmd, out_dir, reference):
    want = reference["flow_march"][str(variant(seed))][cmd.name]
    got = flow_final(out_dir)
    problems = []
    if got["rows"] != FLOW_STEPS + 1:
        problems.append(f"{got['rows'] - 1} recorded steps, expected {FLOW_STEPS}")
    if any(d != 1 for d in got["deficiencies"]):
        problems.append(f"rank deficiencies {sorted(set(got['deficiencies']))}, expected 1")
    for key in PARAMS:
        if not _close(got[key], want[key], FLOW_PARAM_RTOL):
            problems.append(f"{key} {got[key]:.12g} vs reference {want[key]:.12g}")
    return (cmd.name, not problems, "; ".join(problems) or "ok")


def _check_propagator(cmd, out_dir):
    rows = _rows(out_dir / "propagator.csv")
    sec = cmd.document["propagator"]
    expected = len(sec["initial"]) * len(sec["final"]) * len(sec["times"])
    bound = PROPAGATOR_REL_DIFF_BOUND[cmd.name]
    worst = max(float(r["rel_diff"]) for r in rows)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if not worst < bound:
        problems.append(f"max rel_diff {worst:.3e} >= {bound:.1e}")
    if "image_rel_diff" in rows[0]:
        image = max(float(r["image_rel_diff"]) for r in rows)
        if not image < IMAGE_IDENTITY_BOUND:
            problems.append(f"image identity {image:.3e} >= {IMAGE_IDENTITY_BOUND:.0e}")
    return (cmd.name, not problems, "; ".join(problems) or f"max rel_diff {worst:.3e}")


def _check_spectrum(cmd, out_dir):
    rows = _rows(out_dir / "spectrum.csv")
    w, gamma = _family(cmd.document["model"])
    hbar = cmd.document["model"]["hbar"]
    problems = []
    if len(rows) != cmd.document["spectrum"]["levels"]:
        problems.append(f"{len(rows)} levels")
    for n, row in enumerate(rows[:5]):
        exact = hbar * w * (2 * n + 1 + gamma)
        if not _close(float(row["energy"]), exact, SPECTRUM_LEVEL_RTOL):
            problems.append(f"level {n}: {float(row['energy']):.10g} vs {exact:.10g}")
    return (cmd.name, not problems, "; ".join(problems) or "ok")


def _check_scales(cmd, out_dir):
    with open(out_dir / "scales.json", encoding="utf-8") as fh:
        got = json.load(fh)
    model = cmd.document["model"]
    w, gamma = _family(model)
    m, hbar = model["mass"], model["hbar"]
    energy = hbar * w * (1.0 + gamma)
    expected = {
        "omega": w,
        "gamma": gamma,
        "ground_energy": energy,
        "time_scale": hbar / energy,
    }
    problems = [
        f"{k} {got[k]!r} vs {v!r}" for k, v in expected.items() if not _close(got[k], v, SCALES_RTOL)
    ]
    products = got["asymptotic_products"]
    if not _close(products["mass_v_2"], 0.5 * m * m * w * w, SCALES_RTOL):
        problems.append("mass_v_2")
    if not _close(products["mass_v_-2"], 0.5 * hbar**2 * (0.5 + gamma) ** 2, SCALES_RTOL):
        problems.append("mass_v_-2")
    if not (got["length_scale"] > 0.0 and math.isfinite(got["length_scale"])):
        problems.append("length_scale")
    return (cmd.name, not problems, "; ".join(problems) or "ok")
