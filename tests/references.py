"""Independent checks of the trajectory solver and the flow, used only by the tests.

Each re-solves or recombines what the package computes in one pass: the
conserved Euclidean energy of a path, the duration derivative of the action
by finite differences, the two neighbour paths behind d_xx, d_xx from three
Jacobi solves, the fit
objective as one number, the flow rates with v~_0 pinned, and the
gauge-invariant mix of flow rates that the ln Z~ / v~_0 degeneracy leaves
well defined.
"""

import math

import numpy as np

from qaction.flow import StepDiagnostics
from qaction.model import (
    ActionParams,
    evaluate_potential,
    potential_second_derivative,
    potential_value,
)
from qaction.trajectory import (
    Paths,
    SolverError,
    TimeGrid,
    Trajectory,
    _solve_tridiagonal,
    action_value,
    neighbour_offset,
    solve_bvp,
    solve_paths,
)


def conserved_energy_drift(params: ActionParams, traj: Trajectory) -> float:
    """Spread (max - min) of the Euclidean energy along the trajectory.

    E_i = (m / 2 hbar^2) v_i^2 - V(x_i) with centred velocities; the drift of
    a converged trajectory vanishes with the square of the grid step.
    """
    if len(traj.positions) != traj.grid.n_points:
        raise ValueError("trajectory does not match its grid")
    if traj.grid.n_points < 3:
        return 0.0
    step = traj.grid.step
    x = traj.positions
    vel = (x[2:] - x[:-2]) / (2.0 * step)
    energy = params.mass * vel**2 / (2.0 * params.hbar**2) - potential_value(
        params.potential, x[1:-1]
    )
    return float(np.max(energy) - np.min(energy))


def with_duration(grid: TimeGrid, duration: float) -> TimeGrid:
    """Same interval count, new duration; keeps refinement studies smooth."""
    return TimeGrid(duration, intervals=grid.intervals)


def time_derivative_fd(
    params: ActionParams,
    start: float,
    end: float,
    grid: TimeGrid,
    delta: float = 1e-4,
    guess=None,
) -> float:
    """Central finite difference of the action over duration +/- delta.

    Re-solves both perturbed problems on grids with the same interval count,
    providing an independent check of the d_time sensitivity.
    """
    plus = solve_bvp(params, start, end, with_duration(grid, grid.duration + delta), guess=guess)
    minus = solve_bvp(params, start, end, with_duration(grid, grid.duration - delta), guess=guess)
    return (action_value(params, plus) - action_value(params, minus)) / (2.0 * delta)


def neighbour_pair(
    params: ActionParams,
    traj: Trajectory,
    offset: float | None = None,
) -> Paths:
    """Solve the two bracketing problems at end +/- h, warm-started from traj.

    The lower path is row 0 of the returned Paths, the upper one row 1.

    The difference quotient of their endpoint momenta is the d_xx that
    path_sensitivities computes from traj alone; these re-solves check it.
    """
    if offset is None:
        offset = neighbour_offset(traj.end)
    return solve_paths(
        params,
        [(traj.start, traj.end - offset), (traj.start, traj.end + offset)],
        traj.grid,
        np.stack([traj.positions, traj.positions]),
    )


def three_solve_d_xx(params: ActionParams, x: np.ndarray, step: float) -> np.ndarray:
    """d_xx of path_sensitivities for the rows of x, with y3 solved rather than eliminated.

    The three Jacobi systems J y1 = -(m/dt^2) e_last, J y2 = hbar^2 V''' y1^2
    and J y3 = hbar^2 (3 V''' y1 y2 + V'''' y1^3), each solved by its own gtsv
    call on the stacked rows of x, and p' + (h^2 / 6) p''' from y1_last and
    y3_last.
    """
    spec, m, hbar2 = params.potential, params.mass, params.hbar**2
    inner, ends = x[:, 1:-1], x[:, -1]
    coupling = m / step**2
    diag = -2.0 * coupling - hbar2 * potential_second_derivative(spec, inner)
    v3 = hbar2 * evaluate_potential(spec, inner, 3)
    v4 = hbar2 * evaluate_potential(spec, inner, 4)
    y1 = np.zeros(inner.shape)
    y1[:, -1:] = -coupling
    _solve_tridiagonal(coupling, diag, y1)
    y2 = _solve_tridiagonal(coupling, diag, v3 * y1**2)
    y3 = _solve_tridiagonal(coupling, diag, 3.0 * v3 * y1 * y2 + v4 * y1**3)
    y1_last, y3_last = (y1[:, -1], y3[:, -1]) if inner.shape[1] else (0.0, 0.0)
    scale = m / (hbar2 * step)
    first = scale * (1.0 - y1_last) + 0.5 * step * potential_second_derivative(spec, ends)
    third = -scale * y3_last + 0.5 * step * evaluate_potential(spec, ends, 4)
    return first + neighbour_offset(ends) ** 2 / 6.0 * third


def sum_of_squares(objective, y: np.ndarray) -> float:
    """The fit objective (a fit._Objective) at scaled coordinates y as one number.

    The sum of squared residuals, or inf outside the parameter region and
    where a solve fails: the scalar cost the fit's old Nelder-Mead search took.
    """
    q = objective.params_from(y)
    if q is None:
        return math.inf
    try:
        res = objective.evaluate(q)[0]
    except SolverError:
        return math.inf
    return float(res @ res)


def invariant_combination(beta: float, rates: np.ndarray, exponents: list[int]) -> float:
    """Gauge-invariant mix -d ln Z~/d beta + beta d v~_0/d beta."""
    if 0 not in exponents:
        raise ValueError("combination defined only when the ansatz has a constant term")
    idx = 2 + exponents.index(0)
    return -float(rates[0]) + beta * float(rates[idx])


def pinned_v0_rates(a_mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, StepDiagnostics]:
    """Flow rates with d v~_0 / d beta frozen at zero, plus their diagnostics.

    The other resolution of the ln Z~ / v~_0 degeneracy that flow.solve_rates
    resolves by minimum norm: the constant column is dropped before the
    least-squares solve. Both give the same invariant_combination.
    """
    n_unknowns = a_mat.shape[1]
    # column order is [ln Z~, mass, v_k ascending]; find the v_0 column
    pinned = None
    for col in range(2, n_unknowns):
        if np.allclose(np.diff(a_mat[:, col]), 0.0, atol=1e-13):
            pinned = col
            break
    if pinned is None:
        raise ValueError("pinning v_0 needs a constant ansatz column")
    keep = [c for c in range(n_unknowns) if c != pinned]
    sub = a_mat[:, keep]
    sol, residual, rank, svals = np.linalg.lstsq(sub, rhs, rcond=None)
    rates = np.zeros(n_unknowns)
    rates[keep] = sol
    fitted = a_mat @ rates
    res_norm = float(np.max(np.abs(fitted - rhs)))
    deficiency = a_mat.shape[1] - 1 - rank
    if deficiency > 0 and len(svals) > deficiency:
        condition = float(svals[0] / svals[-1 - deficiency])
    elif len(svals) > 0:
        condition = float(svals[0] / svals[-1])
    else:
        condition = math.inf
    diag = StepDiagnostics(
        beta=math.nan,
        dbeta=math.nan,
        residual_norm=res_norm,
        condition=condition,
        rank=int(rank),
        deficiency=int(deficiency),
    )
    return rates, diag
