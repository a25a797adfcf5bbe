"""Global fit of quantum-action parameters to transition-amplitude tables.

A table of amplitudes G(x_f, T; x_i) over a boundary grid is matched by
Z~ exp(-Sigma~), where Sigma~ is the trajectory action of a trial parameter
set. The match runs in the log domain with ln Z~ profiled out in closed form,
leaving a derivative-free simplex search over (mass, coefficients); the
reported relative error goes back to the linear domain,
sum |G - Z~ e^-Sigma| / sum |G|.

The simplex search is a transcription of scipy 1.17.1's Nelder-Mead
(`scipy.optimize._optimize._minimize_neldermead`) for the options the fit
uses, so its iterates do not depend on the installed scipy and a fit does not
import scipy.optimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import closed_form_kernel
from .model import ActionParams, Domain, PotentialSpec, write_csv
from .oracle import SpectralDecomposition, amplitude
from .specfun import libm
from .trajectory import (
    SolverError,
    TimeGrid,
    Trajectory,
    action_values,
    path_sensitivities,
    solve_cached,
)

MAX_EVALUATIONS = 50000
SIMPLEX_TOL = 1e-10
VALUE_TOL = 1e-14
_SCALE_FLOOR = 0.01


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
    source: str

    @property
    def entries(self) -> np.ndarray:
        return np.exp(self.log_entries)


def equidistant(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Endpoint-inclusive uniform points, the layout used by the table configs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return (0.5 * (lo + hi),)
    return tuple(np.linspace(lo, hi, count))


def build_table(
    model: ActionParams,
    bounds: BoundarySet,
    time: float,
    source: str = "analytic",
    decomposition: SpectralDecomposition | None = None,
) -> AmplitudeTable:
    """Tabulate ln G over the boundary grid from the chosen amplitude source."""
    if not (time > 0.0):
        raise ValueError("time must be positive")
    bounds.require_domain(model.domain)
    initial, final = np.array(bounds.initial)[:, None], np.array(bounds.final)[None, :]
    if source == "analytic":
        logs = closed_form_kernel(model)(initial, final, time)
    elif source == "oracle":
        if decomposition is None:
            raise ValueError("oracle source needs a spectral decomposition")
        values = amplitude(decomposition, initial, final, time)
        below = np.argwhere(values <= 0.0)  # row-major: the first pair of a loop
        if len(below):
            i, j = below[0]
            raise ValueError(
                f"oracle amplitude at ({bounds.initial[i]}, {bounds.final[j]}, T={time}) "
                "fell below the roundoff floor; shrink the boundary span or the time"
            )
        logs = libm(math.log, values)
    else:
        raise ValueError(f"unknown amplitude source {source!r}")
    return AmplitudeTable(model=model, bounds=bounds, time=time, log_entries=logs, source=source)


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


class _Objective:
    """Profiled log-domain least squares over the boundary pairs."""

    def __init__(
        self,
        table: AmplitudeTable,
        exponents: list[int],
        init: ActionParams,
        grid: TimeGrid,
        cache: dict | None = None,
    ):
        self.table = table
        self.exponents = exponents
        self.grid = grid
        self.hbar = table.model.hbar
        self.domain = table.model.domain
        self.pairs = table.bounds.pairs()
        self.log_g = table.log_entries.ravel()
        self.cache: dict[int, Trajectory] = cache if cache is not None else {}
        coeffs = init.potential.coefficients
        self.center = np.array(
            [init.mass] + [coeffs.get(k, 0.0) for k in exponents], dtype=float
        )
        self.scales = np.maximum(np.abs(self.center), _SCALE_FLOOR)

    def params_from(self, y: np.ndarray) -> ActionParams | None:
        p = self.center + np.asarray(y) * self.scales
        if p[0] <= 0.0 or not np.all(np.isfinite(p)):
            return None
        return ActionParams(
            mass=float(p[0]),
            hbar=self.hbar,
            potential=PotentialSpec({k: float(v) for k, v in zip(self.exponents, p[1:])}),
            domain=self.domain,
        )

    def actions(self, q: ActionParams) -> np.ndarray:
        return action_values(q, solve_cached(q, self.pairs, self.grid, self.cache))

    def residuals(self, q: ActionParams) -> tuple[np.ndarray, float]:
        sig = self.actions(q)
        log_norm = float(np.mean(self.log_g + sig))
        return self.log_g + sig - log_norm, log_norm

    def __call__(self, y: np.ndarray) -> float:
        q = self.params_from(y)
        if q is None:
            return math.inf
        try:
            res, _ = self.residuals(q)
        except SolverError:
            return math.inf
        return float(res @ res)


def _initial_simplex(n: int, center: np.ndarray, spread: float) -> np.ndarray:
    simplex = np.tile(center, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += spread
    return simplex


class _BudgetSpent(Exception):
    """An objective call was refused because the evaluation budget is spent."""


def _nelder_mead(func, simplex, max_evaluations: int) -> tuple[np.ndarray, int, bool]:
    """Minimise func from an (n + 1, n) simplex; return (x, evaluations, converged).

    A line-for-line transcription of scipy 1.17.1's `_minimize_neldermead`
    with an initial simplex, xatol = SIMPLEX_TOL, fatol = VALUE_TOL, maxfev =
    max_evaluations and no other option, so its iterates and counts are
    scipy's bit for bit. converged is scipy's status 0: the tolerances were
    met before the budget ran out.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full((n + 1,), np.inf, dtype=float)
    evaluations = 0

    def call(x):
        # the budget is checked before the call, and func gets its own copy
        nonlocal evaluations
        if evaluations >= max_evaluations:
            raise _BudgetSpent
        evaluations += 1
        return func(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    while evaluations < max_evaluations:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= SIMPLEX_TOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= VALUE_TOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = call(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], evaluations, evaluations < max_evaluations


def fit_at_time(
    table: AmplitudeTable,
    ansatz,
    init: ActionParams,
    grid: TimeGrid,
    max_evaluations: int = MAX_EVALUATIONS,
    cache: dict | None = None,
) -> FitResult:
    """Simplex fit of (mass, v_k for k in ansatz) at one time slice.

    The search works in units of the initial parameter scales, restarts once
    from its own optimum, and flags convergence when the scaled simplex
    diameter falls below 1e-10 within the evaluation budget. Each pass is
    `_nelder_mead`, scipy 1.17.1's Nelder-Mead transcribed, so a fit gives
    the bits that `scipy.optimize.minimize(method="Nelder-Mead")` of that
    version gave.
    """
    exponents = sorted(int(k) for k in ansatz)
    if len(set(exponents)) != len(exponents):
        raise ValueError("ansatz exponents must be distinct")
    beta = table.time / table.model.hbar
    if not math.isclose(grid.duration, beta, rel_tol=1e-9):
        raise ValueError(
            f"grid duration {grid.duration} does not match beta = T/hbar = {beta}"
        )
    objective = _Objective(table, exponents, init, grid, cache=cache)
    n = len(objective.center)
    y = np.zeros(n)
    total_evals = 0
    converged = False
    for spread in (0.05, 0.01):
        budget = max_evaluations - total_evals
        if budget <= n + 2:
            break
        y, evals, converged = _nelder_mead(objective, _initial_simplex(n, y, spread), budget)
        total_evals += evals
    best = objective.params_from(y)
    if best is None:
        raise SolverError("fit wandered into an invalid parameter region")
    residuals, log_norm = objective.residuals(best)
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
        objective=float(residuals @ residuals),
        converged=converged,
        evaluations=total_evals,
        grid=grid,
    )


def sweep(
    model: ActionParams,
    bounds: BoundarySet,
    ansatz,
    times,
    grid_policy=None,
    source: str = "analytic",
    decomposition: SpectralDecomposition | None = None,
    init: ActionParams | None = None,
    max_evaluations: int = MAX_EVALUATIONS,
) -> list[FitResult]:
    """Fit every time in sequence, warm-starting each from its predecessor."""
    exponents = sorted(int(k) for k in ansatz)
    if grid_policy is None:
        def grid_policy(t: float) -> TimeGrid:
            return TimeGrid(t / model.hbar, intervals=500)

    if init is None:
        coeffs = {k: model.potential.coefficients.get(k, 0.0) for k in exponents}
        init = ActionParams(
            mass=model.mass,
            hbar=model.hbar,
            potential=PotentialSpec(coeffs),
            domain=model.domain,
        )
    results = []
    cache: dict[int, Trajectory] = {}
    current = init
    for t in times:
        table = build_table(model, bounds, float(t), source=source, decomposition=decomposition)
        result = fit_at_time(
            table,
            exponents,
            current,
            grid_policy(float(t)),
            max_evaluations=max_evaluations,
            cache=cache,
        )
        results.append(result)
        current = result.params
    return results


def parameter_uncertainty(result: FitResult, table: AmplitudeTable) -> dict[str, float]:
    """Heuristic 1-sigma spreads from the Gauss-Newton Hessian at the optimum.

    J is the exact Jacobian of the profiled residual vector: the partials
    d_mass and d_coeff of each pair's action from path_sensitivities, which
    stationarity makes total derivatives, centred over the pairs as the
    profiled ln Z~ centres the residuals. The covariance estimate is
    s^2 (J^T J)^-1 with s^2 the residual variance. A parameter with a non-zero
    component along a direction of negligible curvature is reported as
    infinite; the others keep the finite sum over the curved directions.
    """
    exponents = sorted(result.params.potential.coefficients)
    objective = _Objective(table, exponents, result.params, result.grid)
    names = ["mass"] + [f"v_{k}" for k in exponents]
    n = len(objective.center)
    res0, _ = objective.residuals(result.params)
    trajs = [objective.cache[idx] for idx in range(len(objective.pairs))]
    sens = path_sensitivities(result.params, trajs)
    jac = np.column_stack([sens.d_mass] + [sens.d_coeff[k] for k in exponents])
    jac -= jac.mean(axis=0)
    hess = jac.T @ jac
    dof = max(len(res0) - n - 1, 1)
    variance = float(res0 @ res0) / dof
    sigmas = {}
    evals, evecs = np.linalg.eigh(hess)
    cutoff = max(evals[-1], 0.0) * 1e-13
    flat = evals <= cutoff
    inv_diag = 1.0 / np.where(flat, 1.0, evals)
    for i, name in enumerate(names):
        if np.any(evecs[i, flat] != 0.0):  # the parameter moves along a flat direction
            sigmas[name] = math.inf
            continue
        total = float(np.sum(np.where(flat, 0.0, evecs[i, :] ** 2 * inv_diag)))
        sigmas[name] = math.sqrt(variance * total) if math.isfinite(total) else math.inf
    return sigmas


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


def write_results_csv(results: list[FitResult], path, header_comment: str | None = None):
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
        [r.time, r.params.mass]
        + [r.params.potential.coefficients.get(k, 0.0) for k in exponents]
        + [r.log_norm, r.relative_error, r.objective, r.converged, r.evaluations]
        for r in results
    ]
    write_csv(path, cols, rows, header_comment)
