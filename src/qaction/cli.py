"""Command-line driver: JSON experiment configs in, CSV curves and JSON summaries out.

Every subcommand reads a single JSON document (unknown keys rejected), runs
one experiment and writes its outputs under --out.  The first line of every
CSV is a comment embedding the sha256 hash of the config document, so any
result file can be traced back to the exact configuration that produced it.
Identical config and seed give bit-identical output; --threads only
parallelises independent table entries and never changes the numbers.

Exit codes: 0 success, 1 config validation error, 2 numerical failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from .analytic import (
    asymptotic_quantum_params,
    dynamical_scales,
    euclidean_log_amplitude,
    gamma_index,
    ground_state,
    harmonic_log_kernel,
    reconstruct_ground_state,
    transformation_residual,
)
from .fit import BoundarySet, constant_term, equidistant, sweep, write_results_csv
from .flow import FlowState, default_grid_policy, write_trace_csv
from .flow import run as flow_run
from .model import (
    ActionParams,
    Domain,
    PotentialSpec,
    omega,
    params_from_dict,
    potential_value,
)
from .oracle import amplitude, default_grid, refine_energies, solve_spectrum
from .specfun import bessel_i
from .trajectory import SolverError, TimeGrid, neighbour_offset


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class VerificationFailure(RuntimeError):
    """One or more verify checks missed their tolerance."""


_TOP_KEYS = ("model", "propagator", "spectrum", "fit", "flow", "verify", "scales")
_SECTION_REQUIRED = {"propagator", "spectrum", "fit", "flow"}


def config_hash(document) -> str:
    canon = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _check_keys(section, allowed, required, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")


def _float(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _int(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def _float_list(value, where, allow_empty=False):
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers")
    if not value and not allow_empty:
        raise ConfigError(f"{where} must not be empty")
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _point_set(value, where):
    """A set of points: explicit list or {start, stop, count}."""
    if isinstance(value, dict):
        _check_keys(value, ("start", "stop", "count"), ("start", "stop", "count"), where)
        count = _int(value["count"], f"{where}.count", minimum=1)
        try:
            return equidistant(_float(value["start"], where), _float(value["stop"], where), count)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(_float_list(value, where))


def _time_list(value, where, allow_empty=False):
    if isinstance(value, dict):
        pts = _point_set(value, where)
        return [float(t) for t in pts]
    return _float_list(value, where, allow_empty=allow_empty)


def _coefficients(value, where):
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"{where} must be a non-empty object of exponent: value pairs")
    out = {}
    for key, v in value.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: exponent {key!r} is not an integer") from None
        out[k] = _float(v, f"{where}[{key}]")
    return out


def _built(build, where):
    """build(), with the ValueError of an invalid value reported as a ConfigError."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _require_positive(model: ActionParams, points, where):
    if model.domain is Domain.HALF_LINE and any(x <= 0.0 for x in points):
        raise ConfigError(f"{where} must be positive on the half-line")


def _model_from(payload) -> ActionParams:
    if not isinstance(payload, dict):
        raise ConfigError("model must be a JSON object")
    try:
        return params_from_dict(payload)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _require_closed_form(model: ActionParams, where):
    nonzero = {k for k, v in model.potential.coefficients.items() if v != 0.0}
    half = model.domain is Domain.HALF_LINE
    if half and nonzero <= {2, -2} and model.potential.coefficients.get(2, 0.0) > 0.0:
        return
    if not half and nonzero <= {2} and model.potential.coefficients.get(2, 0.0) > 0.0:
        return
    raise ConfigError(
        f"{where} needs a model with a closed-form amplitude "
        "(half-line x^2 + x^-2 family, or a full-line oscillator)"
    )


def _require_scale_family(model: ActionParams, where):
    nonzero = {k for k, v in model.potential.coefficients.items() if k != 0 and v != 0.0}
    if model.domain is not Domain.HALF_LINE or not nonzero <= {2, -2}:
        raise ConfigError(f"{where} is defined for the half-line x^2 + x^-2 family")
    if model.potential.coefficients.get(2, 0.0) <= 0.0:
        raise ConfigError(f"{where} needs a confining x^2 term")


def _oracle_keys(section, defaults=(("spacing", 2e-3), ("extent", 12.0), ("levels", 160), ("refine", True))):
    out = {}
    for key, default in defaults:
        if key in section:
            if key == "refine":
                if not isinstance(section[key], bool):
                    raise ConfigError("refine must be a boolean")
                out[key] = section[key]
            elif key == "levels":
                out[key] = _int(section[key], "levels", minimum=1)
            else:
                out[key] = _float(section[key], key)
        else:
            out[key] = default
    if out["spacing"] <= 0 or out["extent"] <= out["spacing"]:
        raise ConfigError("oracle grid needs 0 < spacing < extent")
    return out


def _validate_propagator(section, model):
    _check_keys(
        section,
        ("initial", "final", "times", "spacing", "extent", "levels", "refine"),
        ("initial", "final", "times"),
        "propagator",
    )
    _require_closed_form(model, "propagator")
    out = _oracle_keys(section)
    out["initial"] = _point_set(section["initial"], "propagator.initial")
    out["final"] = _point_set(section["final"], "propagator.final")
    out["times"] = _time_list(section["times"], "propagator.times", allow_empty=True)
    if any(t <= 0 for t in out["times"]):
        raise ConfigError("propagator.times must be positive")
    return out


def _validate_spectrum(section, model):
    _check_keys(section, ("levels", "spacing", "extent", "refine"), (), "spectrum")
    return _oracle_keys(section)


def _validate_fit(section, model):
    _check_keys(
        section,
        (
            "ansatz",
            "initial",
            "final",
            "times",
            "points_per_unit",
            "intervals",
            "source",
            "spacing",
            "extent",
            "levels",
            "refine",
            "max_evaluations",
            "init",
            "divergence_threshold",
        ),
        ("ansatz", "initial", "final", "times"),
        "fit",
    )
    if not isinstance(section["ansatz"], list) or not section["ansatz"]:
        raise ConfigError("fit.ansatz must be a non-empty list of exponents")
    ansatz = sorted({_int(k, "fit.ansatz entry") for k in section["ansatz"]})
    _built(lambda: PotentialSpec(dict.fromkeys(ansatz, 0.0)), "fit.ansatz")
    source = section.get("source", "analytic")
    if source not in ("analytic", "oracle"):
        raise ConfigError("fit.source must be 'analytic' or 'oracle'")
    if source == "analytic":
        _require_closed_form(model, "fit with analytic source")
    out = _oracle_keys(section)
    out["ansatz"] = ansatz
    out["source"] = source
    out["initial"] = _point_set(section["initial"], "fit.initial")
    out["final"] = _point_set(section["final"], "fit.final")
    _require_positive(model, out["initial"], "fit.initial")
    _require_positive(model, out["final"], "fit.final")
    out["times"] = _time_list(section["times"], "fit.times")
    if any(t <= 0 for t in out["times"]):
        raise ConfigError("fit.times must be positive")
    if "points_per_unit" in section and "intervals" in section:
        raise ConfigError("fit: give either points_per_unit or intervals, not both")
    out["points_per_unit"] = (
        _float(section["points_per_unit"], "fit.points_per_unit")
        if "points_per_unit" in section
        else None
    )
    out["intervals"] = (
        _int(section["intervals"], "fit.intervals", minimum=2) if "intervals" in section else 500
    )
    out["max_evaluations"] = _int(section.get("max_evaluations", 50000), "fit.max_evaluations", 1)
    out["divergence_threshold"] = _float(
        section.get("divergence_threshold", 1e-2), "fit.divergence_threshold"
    )
    init = None
    if "init" in section:
        _check_keys(section["init"], ("mass", "coefficients"), ("mass", "coefficients"), "fit.init")
        coeffs = _coefficients(section["init"]["coefficients"], "fit.init.coefficients")
        if not set(coeffs) <= set(ansatz):
            raise ConfigError("fit.init.coefficients must only use ansatz exponents")
        mass = _float(section["init"]["mass"], "fit.init.mass")
        init = _built(
            lambda: ActionParams(
                mass=mass,
                hbar=model.hbar,
                potential=PotentialSpec({k: coeffs.get(k, 0.0) for k in ansatz}),
                domain=model.domain,
            ),
            "fit.init",
        )
    out["init"] = init
    return out


def _validate_flow(section, model):
    _check_keys(
        section,
        (
            "initial",
            "initial_point",
            "final_points",
            "beta_end",
            "dbeta",
            "mode",
            "intervals",
            "record_stride",
            "compare_fit",
        ),
        ("initial", "initial_point", "final_points", "beta_end"),
        "flow",
    )
    init = section["initial"]
    _check_keys(init, ("beta", "mass", "coefficients", "log_norm"), ("beta", "mass", "coefficients"), "flow.initial")
    out = {
        "beta": _float(init["beta"], "flow.initial.beta"),
        "mass": _float(init["mass"], "flow.initial.mass"),
        "coefficients": _coefficients(init["coefficients"], "flow.initial.coefficients"),
        "log_norm": _float(init.get("log_norm", 0.0), "flow.initial.log_norm"),
        "initial_point": _float(section["initial_point"], "flow.initial_point"),
        "final_points": _point_set(section["final_points"], "flow.final_points"),
        "beta_end": _float(section["beta_end"], "flow.beta_end"),
        "dbeta": _float(section.get("dbeta", 3.75e-3), "flow.dbeta"),
        "mode": section.get("mode", "min_norm"),
        "intervals": _int(section.get("intervals", 500), "flow.intervals", minimum=2),
        "record_stride": _int(section.get("record_stride", 1), "flow.record_stride", minimum=1),
    }
    if out["mode"] not in ("min_norm", "pin_v0"):
        raise ConfigError("flow.mode must be 'min_norm' or 'pin_v0'")
    if out["beta"] <= 0 or out["beta_end"] < out["beta"]:
        raise ConfigError("flow needs 0 < initial.beta <= beta_end")
    _require_positive(model, [out["initial_point"]], "flow.initial_point")
    # each final point also needs its lower neighbour, at x - neighbour_offset(x)
    _require_positive(
        model, [x - neighbour_offset(x) for x in out["final_points"]],
        "flow.final_points less their neighbour offset 1e-3 max(1, |x|)",
    )
    out["state"] = _built(
        lambda: FlowState(
            beta=out["beta"],
            params=ActionParams(
                mass=out["mass"],
                hbar=model.hbar,
                potential=PotentialSpec(out["coefficients"]),
                domain=model.domain,
            ),
            log_norm=out["log_norm"],
            initial_point=out["initial_point"],
            final_points=out["final_points"],
        ),
        "flow",
    )
    compare = None
    if "compare_fit" in section:
        sub = section["compare_fit"]
        _check_keys(
            sub,
            ("initial", "final", "source", "stride", "spacing", "extent", "levels", "refine", "max_evaluations"),
            ("initial", "final"),
            "flow.compare_fit",
        )
        compare = _oracle_keys(sub)
        compare["initial"] = _point_set(sub["initial"], "flow.compare_fit.initial")
        compare["final"] = _point_set(sub["final"], "flow.compare_fit.final")
        compare["source"] = sub.get("source", "analytic")
        if compare["source"] not in ("analytic", "oracle"):
            raise ConfigError("flow.compare_fit.source must be 'analytic' or 'oracle'")
        if compare["source"] == "analytic":
            _require_closed_form(model, "flow.compare_fit with analytic source")
        compare["stride"] = _int(sub.get("stride", 1), "flow.compare_fit.stride", minimum=1)
        compare["max_evaluations"] = _int(sub.get("max_evaluations", 50000), "flow.compare_fit.max_evaluations", 1)
    out["compare_fit"] = compare
    return out


def _validate_verify(section, model):
    _check_keys(
        section,
        ("gamma_shift", "spacing", "extent", "composition_time", "boundary"),
        (),
        "verify",
    )
    _require_scale_family(model, "verify")
    return {
        "gamma_shift": _float(section.get("gamma_shift", 0.0), "verify.gamma_shift"),
        "spacing": _float(section.get("spacing", 5e-4), "verify.spacing"),
        "extent": _float(section.get("extent", 10.0), "verify.extent"),
        "composition_time": _float(section.get("composition_time", 0.5), "verify.composition_time"),
        "boundary": _float(section.get("boundary", 1.0), "verify.boundary"),
    }


def _validate_scales(section, model):
    _check_keys(section, ("probability",), (), "scales")
    _require_scale_family(model, "scales")
    prob = _float(section.get("probability", 0.95), "scales.probability")
    if not 0.0 < prob < 1.0:
        raise ConfigError("scales.probability must lie in (0, 1)")
    return {"probability": prob}


_VALIDATORS = {
    "propagator": _validate_propagator,
    "spectrum": _validate_spectrum,
    "fit": _validate_fit,
    "flow": _validate_flow,
    "verify": _validate_verify,
    "scales": _validate_scales,
}


def load_config(path, command):
    """Parse and validate the config document for one subcommand."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    required = ("model", command) if command in _SECTION_REQUIRED else ("model",)
    _check_keys(raw, _TOP_KEYS, required, "config")
    model = _model_from(raw["model"])
    section = _VALIDATORS[command](raw.get(command, {}), model)
    return {"model": model, "section": section, "hash": config_hash(raw)}


def _meta(cfg, seed) -> str:
    return f"config_hash=sha256:{cfg['hash']} seed={seed}"


def _write_csv(path, columns, rows, meta):
    def cell(v):
        if isinstance(v, bool):
            return str(int(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.17g}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _decomposition(model, spacing, extent, levels, refine):
    fine = solve_spectrum(model, default_grid(model.domain, spacing=spacing, extent=extent), levels)
    if not refine:
        return fine
    coarse = solve_spectrum(
        model, default_grid(model.domain, spacing=2.0 * spacing, extent=extent), levels
    )
    return refine_energies(coarse, fine)


def _map_entries(worker, entries, threads):
    if threads > 1 and len(entries) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, entries))
    return [worker(e) for e in entries]


def _log_amplitude(model, a, b, t):
    nonzero = {k for k, v in model.potential.coefficients.items() if v != 0.0}
    if model.domain is Domain.HALF_LINE and nonzero <= {2, -2}:
        return euclidean_log_amplitude(model, a, b, t)
    return harmonic_log_kernel(model.mass, omega(model), model.hbar, a, b, t)


# ---------------------------------------------------------------- subcommands


def _run_propagator(cfg, out_dir, threads, seed):
    model = cfg["model"]
    sec = cfg["section"]
    with_image = (
        model.domain is Domain.HALF_LINE
        and model.potential.coefficients.get(-2, 0.0) == 0.0
    )
    columns = ["initial", "final", "time", "log_analytic", "analytic", "oracle", "rel_diff"]
    if with_image:
        columns += ["image", "image_rel_diff"]
    entries = [
        (a, b, t) for t in sec["times"] for a in sec["initial"] for b in sec["final"]
    ]
    rows = []
    if entries:
        dec = _decomposition(model, sec["spacing"], sec["extent"], sec["levels"], sec["refine"])

        def worker(entry):
            a, b, t = entry
            log_an = _log_amplitude(model, a, b, t)
            an = math.exp(log_an)
            orc = amplitude(dec, a, b, t)
            rel = abs(an - orc) / abs(orc)
            row = [a, b, t, log_an, an, orc, rel]
            if with_image:
                w = omega(model)
                direct = harmonic_log_kernel(model.mass, w, model.hbar, a, b, t)
                mirror = harmonic_log_kernel(model.mass, w, model.hbar, -a, b, t)
                image = math.exp(direct) - math.exp(mirror)
                row += [image, abs(an - image) / abs(image)]
            return row

        rows = _map_entries(worker, entries, threads)
    path = out_dir / "propagator.csv"
    _write_csv(path, columns, rows, _meta(cfg, seed))
    worst = max((r[6] for r in rows), default=0.0)
    click.echo(f"wrote {path} ({len(rows)} rows, max rel_diff {worst:.3e})")


def _run_spectrum(cfg, out_dir, threads, seed):
    model = cfg["model"]
    sec = cfg["section"]
    dec = _decomposition(model, sec["spacing"], sec["extent"], sec["levels"], sec["refine"])
    rows = [[i, float(e)] for i, e in enumerate(dec.energies)]
    path = out_dir / "spectrum.csv"
    _write_csv(path, ["level", "energy"], rows, _meta(cfg, seed))
    click.echo(f"wrote {path} ({len(rows)} levels, ground {dec.energies[0]:.10g})")


def _fit_rows(model, sec, times, decomposition, init_params):
    bounds = BoundarySet(initial=sec["initial"], final=sec["final"])
    if sec.get("points_per_unit"):
        ppu = sec["points_per_unit"]

        def grid_policy(t):
            return TimeGrid(t / model.hbar, ppu)
    else:
        n_int = sec.get("intervals") or 500

        def grid_policy(t):
            return TimeGrid(t / model.hbar, intervals=n_int)

    return sweep(
        model,
        bounds,
        sec["ansatz"],
        times,
        grid_policy=grid_policy,
        source=sec["source"],
        decomposition=decomposition,
        init=init_params,
        max_evaluations=sec["max_evaluations"],
    )


def _run_fit(cfg, out_dir, threads, seed):
    model = cfg["model"]
    sec = cfg["section"]
    decomposition = None
    if sec["source"] == "oracle":
        decomposition = _decomposition(
            model, sec["spacing"], sec["extent"], sec["levels"], sec["refine"]
        )
    results = _fit_rows(model, sec, sec["times"], decomposition, sec["init"])
    path = out_dir / "fit_results.csv"
    write_results_csv(results, path, header_comment=_meta(cfg, seed))

    errors = [r.relative_error for r in results]
    peak = int(np.argmax(errors))
    last = results[-1]
    products = {
        f"mass_v_{k}": last.params.mass * v
        for k, v in last.params.potential.coefficients.items()
    }
    onset = next(
        (r.time for r in results if r.relative_error > sec["divergence_threshold"]), None
    )
    summary = {
        "config_hash": f"sha256:{cfg['hash']}",
        "seed": seed,
        "source": sec["source"],
        "times": len(results),
        "final": {
            "time": last.time,
            "mass": last.params.mass,
            "coefficients": {str(k): v for k, v in last.params.potential.coefficients.items()},
            "products": products,
            "constant_term": constant_term(last),
            "converged": last.converged,
        },
        "peak_relative_error": {"time": results[peak].time, "value": errors[peak]},
        "divergence_onset": onset,
    }
    _write_json(out_dir / "fit_summary.json", summary)
    click.echo(
        f"wrote {path} and fit_summary.json "
        f"(peak rel err {errors[peak]:.3e} at T={results[peak].time:g})"
    )


def _run_flow(cfg, out_dir, threads, seed):
    model = cfg["model"]
    sec = cfg["section"]
    initial = sec["state"]
    grid_policy = default_grid_policy(sec["intervals"])
    trace = flow_run(
        initial,
        model,
        sec["beta_end"],
        dbeta=sec["dbeta"],
        grid_policy=grid_policy,
        mode=sec["mode"],
        record_stride=sec["record_stride"],
    )
    path = out_dir / "flow_trace.csv"
    write_trace_csv(trace, path, header_comment=_meta(cfg, seed))

    last = trace.states[-1]
    products = {
        f"mass_v_{k}": last.params.mass * v
        for k, v in last.params.potential.coefficients.items()
    }
    max_deficiency = max((d.deficiency for d in trace.diagnostics), default=0)
    summary = {
        "config_hash": f"sha256:{cfg['hash']}",
        "seed": seed,
        "mode": sec["mode"],
        "recorded_states": len(trace.states),
        "max_rank_deficiency": max_deficiency,
        "degenerate_directions_detected": max_deficiency > 0,
        "final": {
            "beta": last.beta,
            "mass": last.params.mass,
            "coefficients": {str(k): v for k, v in last.params.potential.coefficients.items()},
            "log_norm": last.log_norm,
            "products": products,
        },
    }

    if sec["compare_fit"] is not None:
        comp = dict(sec["compare_fit"])
        comp["ansatz"] = sorted(sec["coefficients"])
        comp["max_evaluations"] = comp.get("max_evaluations", 50000)
        states = trace.states[:: comp["stride"]]
        if states[-1] is not trace.states[-1]:
            states.append(trace.states[-1])
        times = [st.beta * model.hbar for st in states]
        decomposition = None
        if comp["source"] == "oracle":
            decomposition = _decomposition(
                model, comp["spacing"], comp["extent"], comp["levels"], comp["refine"]
            )
        fit_results = _fit_rows(model, comp, times, decomposition, None)
        names = ["mass"] + [f"v_{k}" for k in sorted(sec["coefficients"])]
        columns = ["beta"]
        for name in names:
            columns += [f"flow_{name}", f"fit_{name}", f"diff_{name}"]
        rows = []
        spread = {name: 0.0 for name in names}
        for st, fr in zip(states, fit_results):
            row = [st.beta]
            fvals = [st.params.mass] + [
                st.params.potential.coefficients[k] for k in sorted(sec["coefficients"])
            ]
            gvals = [fr.params.mass] + [
                fr.params.potential.coefficients.get(k, 0.0)
                for k in sorted(sec["coefficients"])
            ]
            for name, fv, gv in zip(names, fvals, gvals):
                row += [fv, gv, fv - gv]
                denom = max(abs(fv), abs(gv), 1e-12)
                spread[name] = max(spread[name], abs(fv - gv) / denom)
            rows.append(row)
        _write_csv(out_dir / "flow_vs_fit.csv", columns, rows, _meta(cfg, seed))
        summary["comparison"] = {"max_rel_diff": spread, "points": len(rows)}

    _write_json(out_dir / "flow_summary.json", summary)
    click.echo(
        f"wrote {path} and flow_summary.json "
        f"(beta {initial.beta:g} -> {last.beta:g}, deficiency {max_deficiency})"
    )


def _quantum_from_asymptotics(model, gamma_shift=0.0):
    """Long-time quantum action in the m~ = m gauge, optionally corrupted."""
    w = omega(model)
    gamma = gamma_index(model) + gamma_shift
    m, hbar = model.mass, model.hbar
    mv2 = 0.5 * m * m * w * w
    mvm2 = 0.5 * hbar**2 * (0.5 + gamma) ** 2
    energy = hbar * w * (1.0 + gamma)
    v2, vm2 = mv2 / m, mvm2 / m
    v0 = energy - 2.0 * math.sqrt(m * v2 * m * vm2) / m
    return ActionParams(
        mass=m,
        hbar=hbar,
        potential=PotentialSpec({0: v0, 2: v2, -2: vm2}),
        domain=Domain.HALF_LINE,
    )


def _chapman_kolmogorov_defect(model, t_half, a, b, spacing, extent):
    x = np.arange(spacing, extent + 0.5 * spacing, spacing)
    left = np.array([_log_amplitude(model, a, xi, t_half) for xi in x])
    right = np.array([_log_amplitude(model, xi, b, t_half) for xi in x])
    composed = np.trapezoid(np.exp(left + right), dx=spacing)
    direct = math.exp(_log_amplitude(model, a, b, 2.0 * t_half))
    return abs(composed - direct) / direct


def _run_verify(cfg, out_dir, threads, seed):
    model = cfg["model"]
    sec = cfg["section"]
    gs = ground_state(model)
    quantum = _quantum_from_asymptotics(model, sec["gamma_shift"])
    checks = []

    # modified Bessel recurrence I_{nu-1} - I_{nu+1} = (2 nu / z) I_nu
    worst = 0.0
    for nu in (1.0, 1.5, gs.gamma + 1.0, 3.25):
        for z in (0.3, 1.0, 7.5, 40.0, 150.0):
            lo = bessel_i(nu - 1.0, z).scaled_value
            mid = bessel_i(nu, z).scaled_value
            hi = bessel_i(nu + 1.0, z).scaled_value
            target = 2.0 * nu / z * mid
            worst = max(worst, abs((lo - hi) - target) / abs(target))
    checks.append(("bessel_recurrence", worst, 1e-9))

    half = bessel_i(0.5, 2.0)
    closed = math.sqrt(2.0 / (math.pi * 2.0)) * math.sinh(2.0) * math.exp(-2.0)
    checks.append(
        ("bessel_half_integer", abs(half.scaled_value - closed) / closed, 1e-12)
    )

    ck = _chapman_kolmogorov_defect(
        model,
        sec["composition_time"],
        sec["boundary"],
        sec["boundary"],
        sec["spacing"],
        sec["extent"],
    )
    checks.append(("chapman_kolmogorov", ck, 1e-6))

    # ground-state energy from the long-time decay of the diagonal amplitude
    t1, t2 = 6.0, 8.0
    la = _log_amplitude(model, sec["boundary"], sec["boundary"], t1)
    lb = _log_amplitude(model, sec["boundary"], sec["boundary"], t2)
    energy_est = model.hbar * (la - lb) / (t2 - t1)
    checks.append(("long_time_energy", abs(energy_est - gs.energy) / gs.energy, 1e-5))

    xs = np.linspace(0.05, 6.0, 120)
    resid = transformation_residual(model, quantum, xs)
    checks.append(("transformation_residual", float(np.max(np.abs(resid))), 1e-9))

    rebuilt = reconstruct_ground_state(quantum, xs)
    exact = gs.wavefunction(xs)
    checks.append(("ground_state_reconstruction", float(np.max(np.abs(rebuilt - exact))), 1e-10))

    mvm2 = quantum.mass * quantum.potential.coefficients[-2]
    gamma_rt = math.sqrt(2.0 * mvm2) / model.hbar - 0.5
    checks.append(
        ("asymptotic_product_round_trip", abs(gamma_rt - gs.gamma), 1e-12)
    )
    click.echo(f"asymptotic inverse-square product m~ v~_-2 = {mvm2:.5f}")

    failures = 0
    for name, measured, tol in checks:
        ok = measured <= tol
        failures += 0 if ok else 1
        click.echo(f"{name:32s} measured={measured:.3e} tol={tol:.1e} {'pass' if ok else 'FAIL'}")
    click.echo(f"verify: {len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        raise VerificationFailure(f"{failures} of {len(checks)} checks failed")


def _run_scales(cfg, out_dir, threads, seed):
    model = cfg["model"]
    sec = cfg["section"]
    gs = ground_state(model)
    sc = dynamical_scales(model, probability=sec["probability"])
    mv2, mvm2, energy = asymptotic_quantum_params(model)
    v0 = energy - 2.0 * math.sqrt(mv2 * mvm2) / model.mass
    payload = {
        "config_hash": f"sha256:{cfg['hash']}",
        "seed": seed,
        "omega": omega(model),
        "gamma": gs.gamma,
        "ground_energy": gs.energy,
        "time_scale": sc.time_scale,
        "length_scale": sc.length_scale,
        "probability": sec["probability"],
        "asymptotic_products": {"mass_v_2": mv2, "mass_v_-2": mvm2},
        "asymptotic_v_0": v0,
    }
    _write_json(out_dir / "scales.json", payload)
    click.echo(
        f"wrote scales.json (E_gr={gs.energy:.6g}, T_sc={sc.time_scale:.6g}, "
        f"L_sc={sc.length_scale:.6g})"
    )


# -------------------------------------------------------------------- driver


def _common_options(fn):
    fn = click.option("--seed", default=0, show_default=True, type=int,
                      help="Recorded in outputs; reserved for stochastic strategies.")(fn)
    fn = click.option("--threads", default=1, show_default=True, type=int,
                      help="Worker cap for independent table entries.")(fn)
    fn = click.option("--out", "out_dir", default=".", show_default=True,
                      type=click.Path(file_okay=False), help="Output directory.")(fn)
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(dir_okay=False), help="JSON experiment config.")(fn)
    return fn


def _invoke(command, worker, config_path, out_dir, threads, seed):
    try:
        cfg = load_config(config_path, command)
        if threads < 1:
            raise ConfigError("--threads must be >= 1")
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        worker(cfg, out, threads, seed)
    except (SolverError, VerificationFailure, ValueError, ArithmeticError, RuntimeError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Quantum-action laboratory: amplitudes, fits, flows and cross-checks."""


@main.command()
@_common_options
def propagator(config_path, out_dir, threads, seed):
    """Tabulate closed-form vs grid-oracle amplitudes on a boundary/time grid."""
    _invoke("propagator", _run_propagator, config_path, out_dir, threads, seed)


@main.command()
@_common_options
def spectrum(config_path, out_dir, threads, seed):
    """Write the low-lying spectrum of the discretised Hamiltonian."""
    _invoke("spectrum", _run_spectrum, config_path, out_dir, threads, seed)


@main.command()
@_common_options
def fit(config_path, out_dir, threads, seed):
    """Fit quantum-action parameters over a grid of transition times."""
    _invoke("fit", _run_fit, config_path, out_dir, threads, seed)


@main.command()
@_common_options
def flow(config_path, out_dir, threads, seed):
    """Integrate the parameter flow in beta, optionally against a fit."""
    _invoke("flow", _run_flow, config_path, out_dir, threads, seed)


@main.command()
@_common_options
def verify(config_path, out_dir, threads, seed):
    """Run the invariant suite and report measured tolerances."""
    _invoke("verify", _run_verify, config_path, out_dir, threads, seed)


@main.command()
@_common_options
def scales(config_path, out_dir, threads, seed):
    """Report characteristic scales and asymptotic products of a model."""
    _invoke("scales", _run_scales, config_path, out_dir, threads, seed)


if __name__ == "__main__":
    main()
