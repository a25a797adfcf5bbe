"""Global fit of quantum-action parameters to transition-amplitude tables.

A table of amplitudes G(x_f, T; x_i) over a boundary grid is matched by
Z~ exp(-Sigma~), where Sigma~ is the trajectory action of a trial parameter
set. The match runs in the log domain with ln Z~ profiled out in closed form,
leaving a least-squares problem in (mass, coefficients); the reported
relative error goes back to the linear domain,
sum |G - Z~ e^-Sigma| / sum |G|.

The search is Levenberg-Marquardt (Gauss-Newton with adaptive damping) on
the exact Jacobian: by stationarity the partials of each solved path's
action in the mass and the coefficients are total derivatives, so they come
from the paths of a residual evaluation at no extra BVP solve. It steps only
along the directions of the truncated singular value decomposition of that
Jacobian; a direction the table does not determine is left where the
continuation put it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import closed_form_kernel
from .model import ActionParams, Domain, write_csv
from .oracle import SpectralDecomposition, amplitude
from .specfun import libm
from .trajectory import (
    Paths,
    SolverError,
    TimeGrid,
    action_values,
    parameter_partials,
    resampled,
    solve_paths,
)

# Residual evaluations a slice may spend. The ten configs/fit_*.json take 3 to
# 306 per slice, so no checked-in fit comes near it.
MAX_EVALUATIONS = 50000
_SCALE_FLOOR = 0.01
# Singular directions of the scaled, centred Jacobian below TRUNCATION * s_max
# are not determined by the table, and the fit does not move along them.
# Measured at the optimum of every slice of the ten configs/fit_*.json: the
# well-posed slices have s_min / s_max >= 3.6e-6 (fit_boundary_windows_far at
# T = 0.5), the flat-valley ones (the boundary windows at T >= 2) 9.7e-8 down
# to 9e-10, and the two T = 3 fits of test_boundary_set_dependence_fades_with_time
# 1.6e-7 and 1.5e-7. Cutoffs of 3e-8, 1e-6 and 3e-6 passed the fit and
# acceptance tests; at 1e-9 and 1e-12 the boundary-set test failed (mass gap
# 0.186 at T = 3 against 0.071 at T = 0.5): the fit walked down a flat valley.
# A cutoff from the mesh error, keeping s_i > (4/3) |r_N - r_2N|, dropped a
# determined direction of fit_boundary_windows_near at T = 1 (s_min 1.44e-5
# against 1.52e-5): the objective rose from 8.0e-17 to 1.3e-11 and the
# relative error from 2.9e-9 to 1.2e-6.
TRUNCATION = 1e-6
# The search stops, converged, once a step moves no scaled coordinate by more
# than STEP_TOL, or once a full Gauss-Newton step could lower the objective
# by no more than GAIN_TOL of itself.
STEP_TOL = 1e-10
GAIN_TOL = 1e-12
# Initial damping, relative to s_max^2. A continuation start is close to the
# optimum: the benchmark's sweeps take 4 evaluations per slice from 1e-6 and
# 7 to 9 from the textbook 1e-3, over the ten fit configs 1,226 against 1,465.
DAMPING_START = 1e-6
# parameter_uncertainty: a larger component along a dropped direction is not rounding
_FLAT_COMPONENT = 1e-8
# An oracle amplitude at most FLOOR times S = sum_n |psi_n(a) psi_n(b) w_n|,
# the size of the terms its spectral sum adds up, is rounding noise of either
# sign, and build_table rejects it. Over every oracle table that the tests and
# configs/*.json build, the noise entry (the standard model at (0.05, 9.0,
# T=0.5)) sits at 1.6e-14 S, 6e4 below FLOOR, and the smallest valid entry
# (flow_quartic_compare at T=0.5) at 4.8e-5 S, 5e4 above it.
FLOOR = 1e-9


@dataclass(frozen=True)
class BoundarySet:
    """Initial and final spatial boundary points of the amplitude table."""

    initial: tuple[float, ...]
    final: tuple[float, ...]

    def __post_init__(self):
        initial = tuple(float(v) for v in self.initial)
        final = tuple(float(v) for v in self.final)
        if not initial or not final:
            raise ValueError("boundary sets must be non-empty")
        for vals, name in ((initial, "initial"), (final, "final")):
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name} boundary points must be distinct")
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} boundary points must be finite")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)

    def require_domain(self, domain: Domain):
        if domain is Domain.HALF_LINE and any(
            v <= 0.0 for v in self.initial + self.final
        ):
            raise ValueError("half-line boundary points must be positive")

    def pairs(self) -> list[tuple[float, float]]:
        return [(a, b) for a in self.initial for b in self.final]


@dataclass(frozen=True)
class AmplitudeTable:
    """Amplitudes (and their logs) for every boundary pair at one time."""

    model: ActionParams
    bounds: BoundarySet
    time: float
    log_entries: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        return np.exp(self.log_entries)


def equidistant(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Endpoint-inclusive uniform points, the layout used by the table configs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return (0.5 * (lo + hi),)
    return tuple(np.linspace(lo, hi, count).tolist())


def build_table(
    model: ActionParams,
    bounds: BoundarySet,
    time: float,
    decomposition: SpectralDecomposition | None = None,
) -> AmplitudeTable:
    """Tabulate ln G over the boundary grid.

    The amplitudes come from the grid oracle when a decomposition is given,
    and from the closed-form kernel of the model when it is None. An oracle
    amplitude at most FLOOR times the size of its spectral sum's terms
    raises ValueError.
    """
    if not (time > 0.0):
        raise ValueError("time must be positive")
    bounds.require_domain(model.domain)
    initial, final = np.array(bounds.initial)[:, None], np.array(bounds.final)[None, :]
    if decomposition is None:
        logs = closed_form_kernel(model)(initial, final, time)
    else:
        values, sizes = amplitude(decomposition, initial, final, time, resolution=True)
        below = np.argwhere(values <= FLOOR * sizes)  # row-major: the first pair of a loop
        if len(below):
            i, j = below[0]
            raise ValueError(
                f"oracle amplitude at ({bounds.initial[i]}, {bounds.final[j]}, T={time}) "
                "fell below the roundoff floor; shrink the boundary span or the time"
            )
        logs = libm(math.log, values)
    return AmplitudeTable(model=model, bounds=bounds, time=time, log_entries=logs)


@dataclass(frozen=True)
class FitResult:
    time: float
    params: ActionParams
    log_norm: float
    relative_error: float
    objective: float
    converged: bool
    evaluations: int
    grid: TimeGrid
    # paths solved at params; sweep starts its next slice from them, and keeps None
    paths: Paths | None = field(compare=False, repr=False)


class _Objective:
    """Profiled log-domain least squares over the boundary pairs."""

    def __init__(
        self,
        table: AmplitudeTable,
        exponents: list[int],
        init: ActionParams,
        grid: TimeGrid,
        start: Paths | None = None,
    ):
        self.table = table
        self.exponents = exponents
        self.grid = grid
        self.pairs = table.bounds.pairs()
        self.log_g = table.log_entries.ravel()
        self.start = start
        self.center = np.array(init.values(exponents), dtype=float)
        self.scales = np.maximum(np.abs(self.center), _SCALE_FLOOR)
        # every column but v_0's, which centring makes exactly zero
        self.free = np.array([k != 0 for k in [None] + exponents])

    def params_from(self, y: np.ndarray) -> ActionParams | None:
        p = self.center + np.asarray(y) * self.scales
        if p[0] <= 0.0 or not np.all(np.isfinite(p)):
            return None
        return self.table.model.with_values(p, self.exponents)

    def evaluate(self, q: ActionParams) -> tuple[np.ndarray, float, Paths]:
        """Residuals, ln Z~ and the solved paths at q: one batch of BVP solves.

        They start from `start` (see resampled) and replace it once solved.
        """
        start = None if self.start is None else resampled(self.start, self.grid)
        self.start = paths = solve_paths(q, self.pairs, self.grid, start)
        sig = action_values(q, paths)
        log_norm = float(np.mean(self.log_g + sig))
        return self.log_g + sig - log_norm, log_norm, paths

    def jacobian(self, q: ActionParams, paths: Paths) -> np.ndarray:
        """Exact d residuals / d y at the solved paths of q, without the v_0 column."""
        d_mass, d_coeff = parameter_partials(q, paths)
        jac = np.column_stack([d_mass] + [d_coeff[k] for k in self.exponents])
        jac = jac[:, self.free] * self.scales[self.free]
        return jac - jac.mean(axis=0)


def _directions(jac: np.ndarray):
    """Thin SVD of jac and the mask of its directions kept by TRUNCATION."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    return u, s, vt, s > TRUNCATION * s[0]


def fit_at_time(
    table: AmplitudeTable,
    ansatz,
    init: ActionParams,
    intervals: int,
    max_evaluations: int = MAX_EVALUATIONS,
    start: Paths | None = None,
) -> FitResult:
    """Levenberg-Marquardt fit of (mass, v_k for k in ansatz) at one time slice.

    Every path is solved on TimeGrid(T / hbar, intervals) of the table's time
    T. The first evaluation starts from `start`, paths solved at another time
    (see _Objective.evaluate). The search starts at init, works in units of
    the initial parameter scales and steps along the kept directions of the
    exact Jacobian (see TRUNCATION). v_0 keeps its value from init bit for
    bit: the profiled ln Z~ absorbs it exactly. An evaluation is one batch of
    BVP solves of every boundary pair; max_evaluations caps them per slice,
    and a spent budget ends the search with converged = False. The fit
    converges when a step falls below STEP_TOL or a full Gauss-Newton step
    could gain no more than GAIN_TOL of the objective.
    """
    exponents = sorted(int(k) for k in ansatz)
    if len(set(exponents)) != len(exponents):
        raise ValueError("ansatz exponents must be distinct")
    if max_evaluations < 1:
        raise ValueError("max_evaluations must be >= 1: the start is one evaluation")
    grid = TimeGrid(table.time / table.model.hbar, intervals)
    objective = _Objective(table, exponents, init, grid, start)
    y = np.zeros(len(objective.center))
    best = objective.params_from(y)
    if best is None:
        raise SolverError("fit start is outside the valid parameter region")
    residuals, log_norm, paths = objective.evaluate(best)
    cost = float(residuals @ residuals)
    evaluations, converged, moved, damping = 1, False, True, None
    while True:
        if moved:  # the Jacobian and its directions at the new point
            u, s, vt, kept = _directions(objective.jacobian(best, paths))
            u, s, vt = u[:, kept], s[kept], vt[kept]
            gain = u.T @ residuals
            if gain @ gain <= GAIN_TOL * cost:
                converged = True
                break
            if damping is None:
                damping = DAMPING_START * s[0] ** 2
            growth = 2.0
        step = np.zeros_like(y)
        step[objective.free] = -(vt.T @ (s / (s * s + damping) * gain))
        if np.max(np.abs(step)) <= STEP_TOL:
            converged = True
            break
        if evaluations >= max_evaluations:
            break
        trial = objective.params_from(y + step)
        trial_cost = math.inf
        if trial is not None:
            evaluations += 1
            try:
                trial_res, trial_norm, trial_paths = objective.evaluate(trial)
                trial_cost = float(trial_res @ trial_res)
            except SolverError:
                pass
        moved = trial_cost < cost
        if moved:
            # Nielsen's update from the gain ratio: actual over predicted reduction
            left = damping / (s * s + damping) * gain
            rho = (cost - trial_cost) / float(gain @ gain - left @ left)
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            y, best, cost = y + step, trial, trial_cost
            residuals, log_norm, paths = trial_res, trial_norm, trial_paths
        else:
            damping *= growth
            growth *= 2.0
    # residual = ln G - ln(Z~ e^-Sigma), so the model amplitude in the linear
    # domain is exp(ln G - residual)
    g = np.exp(objective.log_g)
    g_model = np.exp(objective.log_g - residuals)
    rel = float(np.sum(np.abs(g - g_model)) / np.sum(np.abs(g)))
    return FitResult(
        time=table.time,
        params=best,
        log_norm=log_norm,
        relative_error=rel,
        objective=cost,
        converged=converged,
        evaluations=evaluations,
        grid=grid,
        paths=paths,
    )


def sweep(
    model: ActionParams,
    bounds: BoundarySet,
    ansatz,
    times,
    intervals,
    decomposition: SpectralDecomposition | None = None,
    init: ActionParams | None = None,
) -> list[FitResult]:
    """Fit every time in sequence, starting each from the optimum of its predecessor.

    The tables come from the grid oracle when a decomposition is given and
    from the closed form when it is None (see build_table). The slice at
    times[i] is solved on intervals[i] intervals (see fit_at_time) and may
    spend MAX_EVALUATIONS residual evaluations.
    """
    exponents = sorted(int(k) for k in ansatz)
    if init is None:
        init = model.with_values(model.values(exponents), exponents)
    results = []
    current, start = init, None
    for t, n in zip(times, intervals, strict=True):
        table = build_table(model, bounds, float(t), decomposition)
        result = fit_at_time(table, exponents, current, n, start=start)
        current, start = result.params, result.paths
        results.append(replace(result, paths=None))
    return results


def parameter_uncertainty(result: FitResult, table: AmplitudeTable) -> dict[str, float]:
    """Heuristic 1-sigma spreads from the Gauss-Newton Hessian at the optimum.

    J is the fit's Jacobian at result.params (_Objective.jacobian): the exact
    partials of each pair's action, scaled and centred over the pairs as the
    profiled ln Z~ centres the residuals. The covariance estimate is
    s^2 (J^T J)^+ over the directions the fit keeps (TRUNCATION), with s^2 the
    residual variance. v_0, whose centred column is exactly zero, and any
    parameter with more than rounding along a dropped direction are reported
    as infinite; the others keep the finite sum over the kept directions.
    """
    exponents = result.params.potential.exponents()
    objective = _Objective(table, exponents, result.params, result.grid)
    res0, _, paths = objective.evaluate(result.params)
    _, s, vt, kept = _directions(objective.jacobian(result.params, paths))
    dof = max(len(res0) - len(objective.center) - 1, 1)
    variance = float(res0 @ res0) / dof
    # components of an orthonormal basis at rounding level are noise
    flat = np.any(np.abs(vt[~kept]) > _FLAT_COMPONENT, axis=0)
    spread = np.sqrt(variance * np.sum((vt[kept] / s[kept, None]) ** 2, axis=0))
    sigmas = np.full(len(objective.center), math.inf)
    sigmas[objective.free] = np.where(flat, math.inf, spread * objective.scales[objective.free])
    names = ["mass"] + [f"v_{k}" for k in exponents]
    return {name: float(v) for name, v in zip(names, sigmas)}


def constant_term(result: FitResult) -> float:
    """Constant potential coefficient with the normalisation folded in.

    At a single time the fit only constrains v_0 - hbar ln Z~ / T: shifting
    v_0 by c and ln Z~ by c T / hbar leaves every residual unchanged, so the
    raw v_0 sits wherever the optimiser left it. This reports the invariant
    combination, i.e. the constant term in the Z~ = 1 convention of the
    plain objective sum |G - exp(-Sigma~)|.
    """
    raw = result.params.potential.coefficients.get(0, 0.0)
    return raw - result.params.hbar * result.log_norm / result.time


def write_results_csv(results: list[FitResult], path, header_comment: str):
    """One row per fitted time; columns cover every exponent seen in the sweep."""
    exponents = sorted({k for r in results for k in r.params.potential.coefficients})
    cols = ["T", "mass"] + [f"v_{k}" for k in exponents] + [
        "log_norm",
        "relative_error",
        "objective",
        "converged",
        "evaluations",
    ]
    rows = [
        [r.time]
        + r.params.values(exponents)
        + [r.log_norm, r.relative_error, r.objective, r.converged, r.evaluations]
        for r in results
    ]
    write_csv(path, cols, rows, header_comment)
