"""Independent checks of the trajectory solver and the flow, used only by the tests.

Each re-solves or recombines what the package computes in one pass: the
conserved Euclidean energy of a path, the duration derivative of the action
by finite differences, the two neighbour paths behind d_xx, and the
gauge-invariant mix of flow rates that the ln Z~ / v~_0 degeneracy leaves
well defined.
"""

import numpy as np

from qaction.model import ActionParams, potential_value
from qaction.trajectory import (
    TimeGrid,
    Trajectory,
    _check_traj,
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
    _check_traj(traj.grid.n_points, traj)
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
    return TimeGrid(duration, grid.points_per_unit, grid.intervals)


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
) -> tuple[Trajectory, Trajectory]:
    """Solve the two bracketing problems at end +/- h, warm-started from traj.

    The difference quotient of their endpoint momenta is the d_xx that
    path_sensitivities computes from traj alone; these re-solves check it.
    """
    if offset is None:
        offset = neighbour_offset(traj.end)
    lo, hi = solve_paths(
        params,
        [(traj.start, traj.end - offset), (traj.start, traj.end + offset)],
        traj.grid,
        [traj, traj],
    )
    return lo, hi


def invariant_combination(beta: float, rates: np.ndarray, exponents: list[int]) -> float:
    """Gauge-invariant mix -d ln Z~/d beta + beta d v~_0/d beta."""
    if 0 not in exponents:
        raise ValueError("combination defined only when the ansatz has a constant term")
    idx = 2 + exponents.index(0)
    return -float(rates[0]) + beta * float(rates[idx])
