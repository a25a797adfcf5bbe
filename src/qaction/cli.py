"""Command-line driver: JSON experiment configs in, CSV curves and JSON summaries out.

Every subcommand reads a single JSON document (unknown keys rejected), runs
one experiment and writes its outputs under --out.  The first line of every
CSV is a comment embedding the sha256 hash of the config document, so any
result file can be traced back to the exact configuration that produced it.
Identical config and seed give bit-identical output. --threads is accepted
and validated (>= 1) but has no effect; it stays until the benchmark stops
passing it.

Exit codes: 0 success, 1 config validation error, 2 numerical failure.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .analytic import (
    _require_family,
    asymptotic_quantum_action,
    asymptotic_quantum_params,
    closed_form_kernel,
    dynamical_scales,
    ground_state,
    harmonic_log_kernel,
    reconstruct_ground_state,
    transformation_residual,
)
from .fit import BoundarySet, constant_term, equidistant, sweep, write_results_csv
from .flow import DEFAULT_DBETA, FlowState, write_trace_csv
from .flow import run as flow_run
from .model import ActionParams, Domain, PotentialSpec, omega, write_csv
from .oracle import amplitude, default_grid, kinetic_coupling, refine_energies, solve_spectrum
from .specfun import bessel_i, libm
from .trajectory import SolverError, neighbour_offset


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class VerificationFailure(RuntimeError):
    """One or more verify checks missed their tolerance."""


_TOP_KEYS = ("model", "propagator", "spectrum", "fit", "flow", "verify", "scales")
_SECTION_REQUIRED = {"propagator", "spectrum", "fit", "flow"}
DEFAULT_INTERVALS = 500  # trajectory intervals of a fit or flow whose config sets no mesh


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
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
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


def _point_set(value, where, allow_empty=False):
    """A tuple of floats: explicit list or {start, stop, count}."""
    if isinstance(value, dict):
        _check_keys(value, ("start", "stop", "count"), ("start", "stop", "count"), where)
        count = _int(value["count"], f"{where}.count", minimum=1)
        start = _float(value["start"], f"{where}.start")
        stop = _float(value["stop"], f"{where}.stop")
        return _built(functools.partial(equidistant, start, stop, count), where)
    return tuple(_float_list(value, where, allow_empty))


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


def _require_finite_powers(model: ActionParams, exponents, points, where):
    """Positive half-line points at which x**k is finite for every negative
    exponent k of the model and of the action (`exponents`) evaluated there."""
    _require_positive(model, points, where)
    if model.domain is not Domain.HALF_LINE:
        return
    negative = sorted(k for k in {*model.potential.coefficients, *exponents} if k < 0)
    for x in points:
        for k in negative:
            try:
                finite = math.isfinite(float(x) ** k)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"{where}: x^{k} overflows at {x}, too close to 0")


def _require_exponents(model: ActionParams, exponents, where):
    """Fit and flow vary every coefficient of their exponents, so the model's
    rules must hold with each one non-zero: unit coefficients stand for them."""
    _built(
        lambda: ActionParams(
            model.mass, model.hbar, PotentialSpec(dict.fromkeys(exponents, 1.0)), model.domain
        ),
        where,
    )


def _action(section, where, hbar, domain, coefficients=None) -> ActionParams:
    """The action of `section`'s mass and of `coefficients`, by default its own."""
    if coefficients is None:
        coefficients = _coefficients(section["coefficients"], f"{where}.coefficients")
    mass = _float(section["mass"], f"{where}.mass")
    return _built(lambda: ActionParams(mass, hbar, PotentialSpec(coefficients), domain), where)


def _model_from(payload) -> ActionParams:
    _check_keys(
        payload, ("mass", "hbar", "domain", "coefficients"), ("mass", "coefficients"), "model"
    )
    hbar = _float(payload.get("hbar", 1.0), "model.hbar")
    domain = _built(lambda: Domain(payload.get("domain", Domain.HALF_LINE.value)), "model.domain")
    return _action(payload, "model", hbar, domain)


def _require_closed_form(model: ActionParams, where):
    try:
        closed_form_kernel(model)
    except ValueError as exc:
        raise ConfigError(
            f"{where} needs a model with a closed-form amplitude "
            "(half-line x^2 + x^-2 family, or a full-line oscillator)"
        ) from exc


def _oracle_keys(section, where):
    out = {
        "spacing": _float(section.get("spacing", 2e-3), f"{where}.spacing"),
        "extent": _float(section.get("extent", 12.0), f"{where}.extent"),
        "levels": _int(section.get("levels", 160), f"{where}.levels", minimum=1),
        "refine": section.get("refine", True),
    }
    if not isinstance(out["refine"], bool):
        raise ConfigError(f"{where}.refine must be a boolean")
    if out["spacing"] <= 0 or out["extent"] <= out["spacing"]:
        raise ConfigError(f"{where}: oracle grid needs 0 < spacing < extent")
    return out


def _oracle_grids(keys, model, all_levels):
    """The fine grid of the oracle keys and, with refine, its Richardson
    partner at twice the spacing, checked against the eigensolves on them.

    Each grid needs 100 nodes and a finite kinetic coupling, and the fine
    one room for `levels`. With all_levels the command solves every level on
    the partner too (spectrum, oracle-source fits); the propagator solves
    there only the levels its smallest time keeps, so that count is checked
    when it solves.
    """
    spacings = (keys["spacing"], 2.0 * keys["spacing"])[: 2 if keys["refine"] else 1]
    grids = [
        _built(functools.partial(default_grid, model.domain, h, keys["extent"]),
               f"oracle grid at spacing {h:g}")
        for h in spacings
    ]
    for grid in grids:
        _built(functools.partial(kinetic_coupling, model, grid.spacing),
               f"oracle grid at spacing {grid.spacing:g}")
    for grid in grids if all_levels else grids[:1]:
        if keys["levels"] > grid.n_points - 2:
            raise ConfigError(
                f"levels {keys['levels']} exceeds {grid.n_points - 2}, the most the "
                f"{grid.n_points}-node oracle grid at spacing {grid.spacing:g} holds"
            )
    return tuple(grids)


def _endpoints(section, model, where, grids=None, exponents=()):
    """The initial and final point sets, positive on the half-line with finite
    negative powers of the model and of `exponents`, and, given the oracle
    grids, on the span of the fine one."""
    grid = grids[0] if grids else None
    out = {}
    for key in ("initial", "final"):
        out[key] = _point_set(section[key], f"{where}.{key}")
        _require_finite_powers(model, exponents, out[key], f"{where}.{key}")
        outside = [x for x in out[key] if grid and not grid.x_min <= x <= grid.x_max]
        if outside:
            raise ConfigError(
                f"{where}.{key} point {outside[0]} lies outside the oracle grid "
                f"[{grid.x_min}, {grid.x_max}]"
            )
    return out


def _amplitude_table(section, model, where, ansatz):
    """Source, oracle keys and grids, and boundary set of a fitted amplitude
    table, shared by fit and flow.compare_fit."""
    source = section.get("source", "analytic")
    if source not in ("analytic", "oracle"):
        raise ConfigError(f"{where}.source must be 'analytic' or 'oracle'")
    if source == "analytic":
        _require_closed_form(model, f"{where} with analytic source")
    out = _oracle_keys(section, where)
    out["source"] = source
    out["grids"] = _oracle_grids(out, model, all_levels=True) if source == "oracle" else None
    ends = _endpoints(section, model, where, out["grids"], ansatz)
    out["bounds"] = _built(functools.partial(BoundarySet, **ends), where)
    return out


def _validate_propagator(section, model):
    _check_keys(
        section,
        ("initial", "final", "times", "spacing", "extent", "levels", "refine"),
        ("initial", "final", "times"),
        "propagator",
    )
    _require_closed_form(model, "propagator")
    out = _oracle_keys(section, "propagator")
    out["grids"] = _oracle_grids(out, model, all_levels=False)
    out.update(_endpoints(section, model, "propagator", out["grids"]))
    out["times"] = _point_set(section["times"], "propagator.times", allow_empty=True)
    if any(t <= 0 for t in out["times"]):
        raise ConfigError("propagator.times must be positive")
    return out


def _validate_spectrum(section, model):
    _check_keys(section, ("levels", "spacing", "extent", "refine"), (), "spectrum")
    out = _oracle_keys(section, "spectrum")
    out["grids"] = _oracle_grids(out, model, all_levels=True)
    return out


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
            "init",
            "divergence_threshold",
        ),
        ("ansatz", "initial", "final", "times"),
        "fit",
    )
    if not isinstance(section["ansatz"], list) or not section["ansatz"]:
        raise ConfigError("fit.ansatz must be a non-empty list of exponents")
    ansatz = sorted({_int(k, "fit.ansatz entry") for k in section["ansatz"]})
    _require_exponents(model, ansatz, "fit.ansatz")
    out = _amplitude_table(section, model, "fit", ansatz)
    out["ansatz"] = ansatz
    out["times"] = _point_set(section["times"], "fit.times")
    if any(t <= 0 for t in out["times"]):
        raise ConfigError("fit.times must be positive")
    if "points_per_unit" in section and "intervals" in section:
        raise ConfigError("fit: give either points_per_unit or intervals, not both")
    if "points_per_unit" in section:
        ppu = _float(section["points_per_unit"], "fit.points_per_unit")
        if not ppu > 0.0:
            raise ConfigError("fit.points_per_unit must be positive")
        # N = T / dt at each time, and at least the 2 fit.intervals asks for
        out["intervals"] = []
        for t in out["times"]:
            n = t / model.hbar * ppu
            if not math.isfinite(n):
                raise ConfigError(f"fit.points_per_unit {ppu:g} gives no finite interval "
                                  f"count at T = {t:g}")
            n = round(n)
            if n < 2:
                raise ConfigError(f"fit.points_per_unit {ppu:g} gives {n} interval"
                                  f"{'' if n == 1 else 's'} at T = {t:g}; a fit needs at least 2")
            out["intervals"].append(n)
    else:
        n = _int(section.get("intervals", DEFAULT_INTERVALS), "fit.intervals", minimum=2)
        out["intervals"] = [n] * len(out["times"])
    out["divergence_threshold"] = _float(
        section.get("divergence_threshold", 1e-2), "fit.divergence_threshold"
    )
    out["init"] = None
    if "init" in section:
        init = section["init"]
        _check_keys(init, ("mass", "coefficients"), ("mass", "coefficients"), "fit.init")
        coeffs = _coefficients(init["coefficients"], "fit.init.coefficients")
        if not set(coeffs) <= set(ansatz):
            raise ConfigError("fit.init.coefficients must only use ansatz exponents")
        out["init"] = _action(init, "fit.init", model.hbar, model.domain,
                              {k: coeffs.get(k, 0.0) for k in ansatz})
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
        "coefficients": _coefficients(init["coefficients"], "flow.initial.coefficients"),
        "log_norm": _float(init.get("log_norm", 0.0), "flow.initial.log_norm"),
        "initial_point": _float(section["initial_point"], "flow.initial_point"),
        "final_points": _point_set(section["final_points"], "flow.final_points"),
        "beta_end": _float(section["beta_end"], "flow.beta_end"),
        "dbeta": _float(section.get("dbeta", DEFAULT_DBETA), "flow.dbeta"),
        "intervals": _int(section.get("intervals", DEFAULT_INTERVALS), "flow.intervals", minimum=2),
        "record_stride": _int(section.get("record_stride", 1), "flow.record_stride", minimum=1),
    }
    if out["beta"] <= 0 or out["beta_end"] < out["beta"]:
        raise ConfigError("flow needs 0 < initial.beta <= beta_end")
    if not out["dbeta"] > 0.0:
        raise ConfigError("flow.dbeta must be positive")
    if out["beta"] + out["dbeta"] == out["beta"]:
        raise ConfigError(f"flow.dbeta {out['dbeta']:g} leaves initial.beta unchanged")
    _require_exponents(model, out["coefficients"], "flow.initial.coefficients")
    _require_finite_powers(
        model, out["coefficients"], [out["initial_point"]], "flow.initial_point"
    )
    # d_xx is the difference quotient over [x - h, x + h], h = neighbour_offset(x),
    # so x - h must stay in the domain
    _require_positive(
        model, [x - neighbour_offset(x) for x in out["final_points"]],
        "flow.final_points less their neighbour offset 1e-3 max(1, |x|)",
    )
    params = _action(init, "flow.initial", model.hbar, model.domain, out["coefficients"])
    out["state"] = _built(
        lambda: FlowState(
            beta=out["beta"],
            params=params,
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
            ("initial", "final", "source", "stride", "spacing", "extent", "levels", "refine"),
            ("initial", "final"),
            "flow.compare_fit",
        )
        compare = _amplitude_table(sub, model, "flow.compare_fit", out["coefficients"])
        compare["stride"] = _int(sub.get("stride", 1), "flow.compare_fit.stride", minimum=1)
        compare["ansatz"] = out["state"].exponents()  # the flow's, at its mesh (see _run_flow)
    out["compare_fit"] = compare
    return out


def _validate_verify(section, model):
    _check_keys(
        section,
        ("gamma_shift", "spacing", "extent", "composition_time", "boundary"),
        (),
        "verify",
    )
    _built(functools.partial(_require_family, model), "verify")
    out = {
        "gamma_shift": _float(section.get("gamma_shift", 0.0), "verify.gamma_shift"),
        "spacing": _float(section.get("spacing", 5e-4), "verify.spacing"),
        "extent": _float(section.get("extent", 10.0), "verify.extent"),
        "composition_time": _float(section.get("composition_time", 0.5), "verify.composition_time"),
        "boundary": _float(section.get("boundary", 1.0), "verify.boundary"),
    }
    if not 0.0 < out["spacing"] < out["extent"]:
        raise ConfigError("verify grid needs 0 < spacing < extent")
    # the composition grid np.arange(spacing, extent + spacing / 2, spacing)
    # must fit one float array of at most sys.maxsize bytes
    nodes = (out["extent"] - 0.5 * out["spacing"]) / out["spacing"]
    if not 8.0 * nodes < sys.maxsize:
        raise ConfigError(
            f"verify grid at spacing {out['spacing']:g}: node count {nodes:.3g} of "
            f"[{out['spacing']:g}, {out['extent']:g}] exceeds the largest array"
        )
    if not out["composition_time"] > 0.0:
        raise ConfigError("verify.composition_time must be positive")
    if not 0.0 < out["boundary"] < out["extent"]:
        raise ConfigError("verify.boundary must lie in (0, extent)")
    return out


def _validate_scales(section, model):
    _check_keys(section, ("probability",), (), "scales")
    _built(functools.partial(_require_family, model), "scales")
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


def _write_json(path, payload):
    """payload as JSON; a non-finite number fails before anything is written."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path.name} not written: a result is not finite") from exc
    path.write_text(text + "\n", encoding="utf-8")


def _decomposition(model, grids, levels, vectors=True, t_min=None):
    """The oracle on the loader's grids: the fine one, refined by its partner if any."""
    fine = solve_spectrum(model, grids[0], levels, vectors, t_min)
    if len(grids) == 1:
        return fine
    # the Richardson partner contributes energies only, of the levels kept
    coarse = solve_spectrum(model, grids[1], len(fine.energies), vectors=False)
    return refine_energies(coarse, fine)


def _rel_diff(value, reference):
    """|value - reference| / |reference|; a zero reference is a numerical failure."""
    with np.errstate(divide="raise", invalid="raise"):
        return abs(value - reference) / abs(reference)


# ---------------------------------------------------------------- subcommands


def _run_propagator(cfg, out_dir, seed):
    model = cfg["model"]
    sec = cfg["section"]
    with_image = (
        model.domain is Domain.HALF_LINE
        and model.potential.coefficients.get(-2, 0.0) == 0.0
    )
    columns = ["initial", "final", "time", "log_analytic", "analytic", "oracle", "rel_diff"]
    if with_image:
        columns += ["image", "image_rel_diff"]
    rows = []
    kept = 0
    if sec["times"]:
        # only the levels the smallest time can see; sec["levels"] caps them
        dec = _decomposition(model, sec["grids"], sec["levels"], t_min=min(sec["times"]))
        kept = len(dec.energies)
        kernel = closed_form_kernel(model)
        initial = np.array(sec["initial"])[:, None]
        final = np.array(sec["final"])[None, :]
        a, b = np.broadcast_arrays(initial, final)
        w = omega(model) if with_image else None
        for t in sec["times"]:
            log_an = kernel(initial, final, t)
            an = libm(math.exp, log_an)
            orc = amplitude(dec, initial, final, t)
            table = [a, b, np.full(a.shape, t), log_an, an, orc, _rel_diff(an, orc)]
            if with_image:
                direct = harmonic_log_kernel(model.mass, w, model.hbar, initial, final, t)
                mirror = harmonic_log_kernel(model.mass, w, model.hbar, -initial, final, t)
                image = libm(math.exp, direct) - libm(math.exp, mirror)
                table += [image, _rel_diff(an, image)]
            rows += np.stack([c.ravel() for c in table], axis=1).tolist()
    path = out_dir / "propagator.csv"
    write_csv(path, columns, rows, _meta(cfg, seed))
    worst = max((r[6] for r in rows), default=0.0)
    print(
        f"wrote {path} ({len(rows)} rows, max rel_diff {worst:.3e}, "
        f"{kept} of {sec['levels']} levels)",
        flush=True,
    )


def _run_spectrum(cfg, out_dir, seed):
    model = cfg["model"]
    sec = cfg["section"]
    dec = _decomposition(model, sec["grids"], sec["levels"], vectors=False)
    rows = [[i, float(e)] for i, e in enumerate(dec.energies)]
    path = out_dir / "spectrum.csv"
    write_csv(path, ["level", "energy"], rows, _meta(cfg, seed))
    print(f"wrote {path} ({len(rows)} levels, ground {dec.energies[0]:.10g})", flush=True)


def _fit_rows(model, sec, times, intervals, init):
    decomposition = None
    if sec["source"] == "oracle":
        decomposition = _decomposition(model, sec["grids"], sec["levels"])
    return sweep(model, sec["bounds"], sec["ansatz"], times, intervals, decomposition, init)


def _final_block(params, **extra):
    """The `final` block of a summary: mass, coefficients and m v_k products."""
    coeffs = params.potential.coefficients
    return {
        "mass": params.mass,
        "coefficients": {str(k): v for k, v in coeffs.items()},
        "products": {f"mass_v_{k}": params.mass * v for k, v in coeffs.items()},
        **extra,
    }


def _run_fit(cfg, out_dir, seed):
    model = cfg["model"]
    sec = cfg["section"]
    results = _fit_rows(model, sec, sec["times"], sec["intervals"], sec["init"])
    errors = [r.relative_error for r in results]
    peak = int(np.argmax(errors))
    last = results[-1]
    onset = next(
        (r.time for r in results if r.relative_error > sec["divergence_threshold"]), None
    )
    summary = {
        "config_hash": f"sha256:{cfg['hash']}",
        "seed": seed,
        "source": sec["source"],
        "times": len(results),
        "final": _final_block(
            last.params,
            time=last.time,
            constant_term=constant_term(last),
            converged=last.converged,
        ),
        "peak_relative_error": {"time": results[peak].time, "value": errors[peak]},
        "divergence_onset": onset,
    }
    # the summary refuses a non-finite result before any file is written
    _write_json(out_dir / "fit_summary.json", summary)
    path = out_dir / "fit_results.csv"
    write_results_csv(results, path, header_comment=_meta(cfg, seed))
    print(
        f"wrote {path} and fit_summary.json "
        f"(peak rel err {errors[peak]:.3e} at T={results[peak].time:g})",
        flush=True,
    )


def _run_flow(cfg, out_dir, seed):
    model = cfg["model"]
    sec = cfg["section"]
    initial = sec["state"]
    trace = flow_run(
        initial,
        model,
        sec["beta_end"],
        dbeta=sec["dbeta"],
        intervals=sec["intervals"],
        record_stride=sec["record_stride"],
    )
    last = trace.states[-1]
    max_deficiency = max((d.deficiency for d in trace.diagnostics), default=0)
    summary = {
        "config_hash": f"sha256:{cfg['hash']}",
        "seed": seed,
        "mode": "min_norm",  # how the ln Z~ / v~_0 degeneracy is resolved
        "recorded_states": len(trace.states),
        "rejected_steps": trace.rejected_steps,
        "path_solves": trace.path_solves,
        "newton_iterations": trace.newton_iterations,
        "line_search_halvings": trace.line_search_halvings,
        "max_rank_deficiency": max_deficiency,
        "degenerate_directions_detected": max_deficiency > 0,
        "final": _final_block(last.params, beta=last.beta, log_norm=last.log_norm),
    }

    if sec["compare_fit"] is not None:
        comp = sec["compare_fit"]
        states = trace.states[:: comp["stride"]]
        if states[-1] is not trace.states[-1]:
            states.append(trace.states[-1])
        times = [st.beta * model.hbar for st in states]
        # the comparison fits take the flow's mesh at every time
        fit_results = _fit_rows(model, comp, times, [sec["intervals"]] * len(times), None)
        exponents = comp["ansatz"]
        # raw v_0 is a gauge choice shared with ln Z~; both sides compare the
        # invariant v_0 - hbar ln Z~ / T, which for the flow is v_0 - ln Z~ / beta
        names = ["mass"] + [f"v_{k}" if k else "constant_term" for k in exponents]
        columns = ["beta"]
        for name in names:
            columns += [f"flow_{name}", f"fit_{name}", f"diff_{name}"]
        rows = []
        spread = {name: 0.0 for name in names}
        for st, fr in zip(states, fit_results):
            row = [st.beta]
            flow_coeffs = st.params.potential.coefficients
            fit_coeffs = fr.params.potential.coefficients
            fvals = [st.params.mass] + [
                flow_coeffs[k] - st.log_norm / st.beta if k == 0 else flow_coeffs[k]
                for k in exponents
            ]
            gvals = [fr.params.mass] + [
                constant_term(fr) if k == 0 else fit_coeffs.get(k, 0.0) for k in exponents
            ]
            for name, fv, gv in zip(names, fvals, gvals):
                row += [fv, gv, fv - gv]
                denom = max(abs(fv), abs(gv), 1e-12)
                spread[name] = max(spread[name], abs(fv - gv) / denom)
            rows.append(row)
        summary["comparison"] = {"max_rel_diff": spread, "points": len(rows)}

    # the summary refuses a non-finite result before any file is written
    _write_json(out_dir / "flow_summary.json", summary)
    path = out_dir / "flow_trace.csv"
    write_trace_csv(trace, path, header_comment=_meta(cfg, seed))
    if sec["compare_fit"] is not None:
        write_csv(out_dir / "flow_vs_fit.csv", columns, rows, _meta(cfg, seed))
    print(
        f"wrote {path} and flow_summary.json "
        f"(beta {initial.beta:g} -> {last.beta:g}, deficiency {max_deficiency})",
        flush=True,
    )


def _chapman_kolmogorov_defect(kernel, t_half, a, b, spacing, extent):
    x = np.arange(spacing, extent + 0.5 * spacing, spacing)
    left = kernel(a, x, t_half)
    right = kernel(x, b, t_half)
    composed = np.trapezoid(np.exp(left + right), dx=spacing)
    direct = math.exp(kernel(a, b, 2.0 * t_half))
    return abs(composed - direct) / direct


def _run_verify(cfg, out_dir, seed):
    model = cfg["model"]
    sec = cfg["section"]
    gs = ground_state(model)
    kernel = closed_form_kernel(model)
    quantum = asymptotic_quantum_action(model, sec["gamma_shift"])
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
        kernel,
        sec["composition_time"],
        sec["boundary"],
        sec["boundary"],
        sec["spacing"],
        sec["extent"],
    )
    checks.append(("chapman_kolmogorov", ck, 1e-6))

    # ground-state energy from the long-time decay of the diagonal amplitude
    t1, t2 = 6.0, 8.0
    la = kernel(sec["boundary"], sec["boundary"], t1)
    lb = kernel(sec["boundary"], sec["boundary"], t2)
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
    print(f"asymptotic inverse-square product m~ v~_-2 = {mvm2:.5f}", flush=True)

    failures = 0
    for name, measured, tol in checks:
        ok = measured <= tol
        failures += 0 if ok else 1
        print(
            f"{name:32s} measured={measured:.3e} tol={tol:.1e} {'pass' if ok else 'FAIL'}",
            flush=True,
        )
    print(f"verify: {len(checks) - failures}/{len(checks)} checks passed", flush=True)
    if failures:
        raise VerificationFailure(f"{failures} of {len(checks)} checks failed")


def _run_scales(cfg, out_dir, seed):
    model = cfg["model"]
    sec = cfg["section"]
    gs = ground_state(model)
    sc = dynamical_scales(model, probability=sec["probability"])
    mv2, mvm2, _ = asymptotic_quantum_params(model)
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
        "asymptotic_v_0": asymptotic_quantum_action(model).potential.coefficients[0],
    }
    _write_json(out_dir / "scales.json", payload)
    print(
        f"wrote scales.json (E_gr={gs.energy:.6g}, T_sc={sc.time_scale:.6g}, "
        f"L_sc={sc.length_scale:.6g})",
        flush=True,
    )


# -------------------------------------------------------------------- driver


def _common_options(fn):
    fn = click.option("--seed", default=0, show_default=True, type=int,
                      help="Recorded in outputs; reserved for stochastic strategies.")(fn)
    fn = click.option("--threads", default=1, show_default=True, type=int,
                      help="No effect; must be >= 1.")(fn)
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
        print(f"config error: {exc}", file=sys.stderr, flush=True)
        sys.exit(1)
    except MemoryError as exc:
        print(f"config error: MemoryError: {exc}", file=sys.stderr, flush=True)
        sys.exit(1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        worker(cfg, out, seed)
    except (SolverError, VerificationFailure, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr, flush=True)
        sys.exit(2)
    except MemoryError as exc:
        print(f"numerical failure: MemoryError: {exc}", file=sys.stderr, flush=True)
        sys.exit(2)


@click.group()
def main():
    """Quantum-action laboratory: amplitudes, fits, flows and cross-checks."""


_COMMANDS = {
    "propagator": (
        _run_propagator, "Tabulate closed-form vs grid-oracle amplitudes on a boundary/time grid."
    ),
    "spectrum": (_run_spectrum, "Write the low-lying spectrum of the discretised Hamiltonian."),
    "fit": (_run_fit, "Fit quantum-action parameters over a grid of transition times."),
    "flow": (_run_flow, "Integrate the parameter flow in beta, optionally against a fit."),
    "verify": (_run_verify, "Run the invariant suite and report measured tolerances."),
    "scales": (_run_scales, "Report characteristic scales and asymptotic products of a model."),
}
for _name, (_worker, _help) in _COMMANDS.items():
    main.command(_name, help=_help)(_common_options(functools.partial(_invoke, _name, _worker)))


if __name__ == "__main__":
    main()
