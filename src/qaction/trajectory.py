"""Euclidean classical trajectories of an action on a uniform time grid.

The discrete equation of motion

    m (x_{i+1} - 2 x_i + x_{i-1}) / dt^2 = hbar^2 V'(x_i)

is the exact stationarity condition of the trapezoid action used by
action_value, so every first derivative reported by sensitivities is the
exact partial of the discrete action and matches finite differences of
re-solved problems to truncation error. The second endpoint derivative d_xx
is the central difference of the endpoint momentum over the two neighbours
at end +/- neighbour_offset(end), computed from the solved path alone. Times
are measured in inverse-temperature units (duration = T / hbar); with
hbar = 1 they coincide with Euclidean time.

The Newton steps of the relaxation and the Jacobi equations behind d_xx solve
with the same Newton matrix J = tridiag(m/dt^2, -2m/dt^2 - hbar^2 V''(x_i),
m/dt^2), always on the paths stacked with zero couplings between them. A
Newton step is one LAPACK gtsv call (_solve_tridiagonal). The three Jacobi
solves share one pttrf factor L D L^T of -J, one pttrs call each, and fall
back to three gtsv calls when -J is not positive definite (_jacobi_solver).
The routines are scipy's own, bound by qaction.lapack. A singular J raises
SolverError wherever it is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lapack import dgtsv, dpttrf, dpttrs
from .model import (
    ActionParams,
    Domain,
    evaluate_potential,
    potential_derivative,
    potential_second_derivative,
)

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 200
# Paths relaxed together by solve_paths. A block of 32 paths on 500 intervals
# keeps 0.6 MB of work arrays, and 0.4 MB more during a Newton solve. On a
# 2-vCPU Xeon, blocks of 16 to 60 paths gave the same flow stage time (about
# 20 ms for 30 final points), so larger blocks would only add memory.
BLOCK_PATHS = 32


class SolverError(RuntimeError):
    """Raised when the relaxation solver cannot reach its tolerance.

    solve_paths raises it for the first path that fails and returns nothing
    of its batch.
    """


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid over [0, duration].

    It has `intervals` intervals or round(duration * points_per_unit) of
    them; exactly one of the two is given.
    """

    duration: float
    points_per_unit: float | None = None
    intervals: int | None = None

    def __post_init__(self):
        if not (self.duration > 0.0) or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive, got {self.duration}")
        if (self.intervals is None) == (self.points_per_unit is None):
            raise ValueError("a grid needs one of intervals and points_per_unit")
        if self.intervals is None:
            if not (self.points_per_unit > 0.0):
                raise ValueError("points_per_unit must be positive")
            object.__setattr__(
                self, "intervals", max(1, int(round(self.duration * self.points_per_unit)))
            )
        elif self.intervals < 1:
            raise ValueError("intervals must be >= 1")

    @property
    def step(self) -> float:
        return self.duration / self.intervals

    @property
    def n_points(self) -> int:
        return self.intervals + 1

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.n_points)


@dataclass(frozen=True)
class Trajectory:
    grid: TimeGrid
    start: float
    end: float
    positions: np.ndarray
    iterations: int
    step_norm: float
    el_residual: float


@dataclass(frozen=True)
class ActionSensitivities:
    """Exact partials of the discrete action at solved trajectories.

    From path_sensitivities every field holds one entry per trajectory (an
    array, or a dict of arrays by exponent); from sensitivities, its batch of
    one, plain floats.
    """

    d_mass: np.ndarray
    d_coeff: dict[int, np.ndarray]
    d_time: np.ndarray
    d_x: np.ndarray
    d_xx: np.ndarray

    def row(self, i: int) -> "ActionSensitivities":
        """The partials of trajectory i alone, as floats."""
        return ActionSensitivities(
            d_mass=float(self.d_mass[i]),
            d_coeff={k: float(v[i]) for k, v in self.d_coeff.items()},
            d_time=float(self.d_time[i]),
            d_x=float(self.d_x[i]),
            d_xx=float(self.d_xx[i]),
        )


def _solve_tridiagonal(coupling: float, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve tridiag(coupling, diag[i], coupling) y[i] = rhs[i] for every row i, in place in rhs.

    rhs is C-contiguous; diag keeps its values. One gtsv call solves the
    stacked system with zero couplings between rows. Each row then meets
    exactly the eliminations of its own solve, unless a zero pivot stops the
    sweep or an inf or NaN crosses a row boundary (0 * inf is not 0), so a
    finite result equals the rows' solves alone bit for bit. A 1x1 system is
    a division. A zero pivot raises SolverError.
    """
    if rhs.size <= 1:  # gtsv rejects empty bands
        if np.any(diag == 0.0):
            raise SolverError("singular Newton matrix (zero pivot)")
        return np.divide(rhs, diag, out=rhs)
    n_int = rhs.shape[-1]
    bands = np.full((2, rhs.size - 1), coupling)
    bands[:, n_int - 1 :: n_int] = 0.0
    info = dgtsv(bands[0], diag.reshape(-1), bands[1], rhs.reshape(-1), 1, 0, 1, 1)[-1]
    if info != 0:
        raise SolverError(f"singular Newton matrix (gtsv info {info})")
    return rhs


def _initial_positions(grid: TimeGrid, start: float, end: float, guess) -> np.ndarray:
    if guess is None:
        return np.linspace(start, end, grid.n_points)
    if isinstance(guess, Trajectory) and guess.grid.n_points == grid.n_points:
        # np.interp returns the node values exactly where the nodes coincide
        x = guess.positions.copy()
    elif isinstance(guess, Trajectory):
        src_t = np.linspace(0.0, 1.0, guess.grid.n_points)
        dst_t = np.linspace(0.0, 1.0, grid.n_points)
        x = np.interp(dst_t, src_t, guess.positions)
    else:
        x = np.asarray(guess, dtype=float).copy()
        if len(x) != grid.n_points:
            raise ValueError(f"guess has {len(x)} points, grid needs {grid.n_points}")
    x[0], x[-1] = start, end
    return x


class _Relaxation:
    """State and work buffers of one block of paths in solve_paths.

    Rows are paths. The first len(ids) rows of every buffer belong to the
    paths still iterating, in input order (ids maps them back); a converged
    path leaves by compaction. Kernels write into five buffers with out=, so
    a batch holds a fixed set of arrays of its own size:
    accepted and trial positions, trial residuals, the Newton step and a
    scratch array. Between iterations `delta` holds the right-hand side
    -r(x) of the accepted iterate, which the tridiagonal solve turns into the
    step in place; the diagonal of the Newton matrix goes into the trial
    residuals, which the line search fills only afterwards.
    """

    def __init__(self, params: ActionParams, grid: TimeGrid, pairs: list, x: np.ndarray):
        n_paths, n_points = x.shape
        n_int = n_points - 2
        m, step = params.mass, grid.step
        self.grid, self.pairs = grid, pairs
        self.half_line = params.domain is Domain.HALF_LINE
        self.spec = params.potential
        self.mass, self.hbar2, self.step2 = m, params.hbar**2, step**2
        self.diag_shift, self.off_diag = -2.0 * m / step**2, m / step**2
        self.x, self.x_try = x, np.empty_like(x)
        self.resid_try, self.delta, self.tmp = (np.empty((n_paths, n_int)) for _ in range(3))
        self.ids = np.arange(n_paths)
        self.res_norm = self.max_abs(self.residual(x, self.resid_try))
        np.negative(self.resid_try, out=self.delta)
        self.delta_norm = np.full(n_paths, np.nan)
        self.done: dict[int, Trajectory] = {}

    def residual(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """m (x_{i+1} - 2 x_i + x_{i-1}) / dt^2 - hbar^2 V'(x_i) for the rows of x."""
        tmp = self.tmp[: len(x)]
        inner = x[:, 1:-1]
        evaluate_potential(self.spec, inner, 1, out, tmp)
        np.multiply(out, self.hbar2, out=out)
        np.multiply(inner, 2.0, out=tmp)
        np.subtract(x[:, 2:], tmp, out=tmp)
        np.add(tmp, x[:, :-2], out=tmp)
        np.divide(tmp, self.step2, out=tmp)
        np.multiply(tmp, self.mass, out=tmp)
        return np.subtract(tmp, out, out=out)

    def max_abs(self, a: np.ndarray) -> np.ndarray:
        """Row-wise max norm."""
        return np.abs(a, out=self.tmp[: len(a)]).max(axis=1)

    def newton_steps(self) -> np.ndarray:
        """Newton updates of the iterating paths from one stacked tridiagonal solve.

        The solve runs in place on `delta`. If it meets a zero pivot or gives
        an inf or NaN, which may have crossed a path boundary, each path is
        solved alone, as before batching, and the first singular one raises
        SolverError.
        """
        rows = len(self.ids)
        x, delta = self.x[:rows], self.delta[:rows]
        diag = evaluate_potential(self.spec, x[:, 1:-1], 2, self.resid_try[:rows], self.tmp[:rows])
        np.multiply(diag, self.hbar2, out=diag)
        np.subtract(self.diag_shift, diag, out=diag)
        try:
            stacked = np.isfinite(_solve_tridiagonal(self.off_diag, diag, delta)).all()
        except SolverError:
            stacked = False
        if not stacked:
            np.negative(self.residual(x, delta), out=delta)  # the solve consumed -r(x)
            for row in range(rows):
                _solve_tridiagonal(self.off_diag, diag[row : row + 1], delta[row : row + 1])
        return delta

    def iterate(self, iteration: int) -> bool:
        """One damped Newton iteration of every iterating path; False once none is left."""
        rows = len(self.ids)
        delta = self.newton_steps()
        self.delta_norm = delta_norm = self.max_abs(delta)
        res_norm = self.res_norm
        scale = np.ones(rows)
        step_norm = np.full(rows, np.nan)
        pending = np.arange(rows)
        while pending.size:
            # with out=, mode="clip" writes in place; the default mode buffers a copy
            trial = np.take(self.x, pending, axis=0, out=self.x_try[: pending.size], mode="clip")
            shift = np.take(delta, pending, axis=0, out=self.tmp[: pending.size], mode="clip")
            np.multiply(shift, scale[pending, None], out=shift)
            np.add(trial[:, 1:-1], shift, out=trial[:, 1:-1])
            retry = pending[:0]
            if self.half_line:
                negative = np.any(trial[:, 1:-1] <= 0.0, axis=1)
                if negative.any():
                    retry = pending[negative]
                    for row in retry:
                        scale[row] *= 0.5
                        if scale[row] < 1e-14:
                            raise SolverError(
                                "step underflow keeping iterate positive "
                                f"(residual {res_norm[row]:.3e})"
                            )
                    pending, trial = pending[~negative], trial[~negative]
            resid_try = self.residual(trial, self.resid_try[: pending.size])
            res_try = self.max_abs(resid_try)
            sc = scale[pending]
            accept = (res_try < res_norm[pending] * (1.0 - 1e-4 * sc)) | (
                sc * delta_norm[pending] <= DEFAULT_TOL
            )
            taken = pending[accept]
            if taken.size == rows:  # every path took its full step: no copies
                self.x, self.x_try = self.x_try, self.x
                np.negative(resid_try, out=delta)
            else:
                self.x[taken] = trial[accept]
                self.delta[taken] = -resid_try[accept]
            res_norm[taken] = res_try[accept]
            step_norm[taken] = sc[accept] * delta_norm[taken]
            for row in pending[~accept]:
                scale[row] *= 0.5
                if scale[row] < 1e-14:
                    raise SolverError(
                        f"line search stalled at residual {res_norm[row]:.3e} "
                        f"after {iteration} iterations"
                    )
            pending = np.sort(np.concatenate([retry, pending[~accept]]))

        converged = step_norm <= DEFAULT_TOL
        for row in np.flatnonzero(converged):
            path = int(self.ids[row])
            start, end = self.pairs[path]
            self.done[path] = Trajectory(
                self.grid, start, end, self.x[row].copy(), iteration,
                float(step_norm[row]), float(res_norm[row]),
            )
        keep = ~converged
        if not keep.all():
            kept = np.flatnonzero(keep)
            np.take(self.x, kept, axis=0, out=self.x_try[: kept.size], mode="clip")
            np.take(self.delta, kept, axis=0, out=self.resid_try[: kept.size], mode="clip")
            self.x, self.x_try = self.x_try, self.x
            self.delta, self.resid_try = self.resid_try, self.delta
            self.ids, self.res_norm, self.delta_norm = (
                self.ids[keep], res_norm[keep], delta_norm[keep]
            )
        return len(self.ids) > 0

    def result(self, max_iter: int) -> list[Trajectory]:
        """Trajectories in input order; a path still iterating did not converge."""
        if len(self.ids):
            raise SolverError(
                f"no convergence in {max_iter} iterations; "
                f"last residual {self.res_norm[0]:.3e}, last step {self.delta_norm[0]:.3e}"
            )
        return [self.done[i] for i in range(len(self.pairs))]


def solve_paths(
    params: ActionParams,
    pairs,
    grid: TimeGrid,
    guesses=None,
    max_iter: int = MAX_ITERATIONS,
) -> list[Trajectory]:
    """Damped Newton relaxation for a batch of two-point problems on one grid.

    Each (start, end) pair of `pairs` is solved from its entry of `guesses`
    (None, a Trajectory or an array; all None when omitted). Convergence of a
    path is declared when its Newton update falls below DEFAULT_TOL in the max
    norm; on the half-line every iterate is kept strictly positive by step halving.

    The paths share one tridiagonal solve per Newton iteration: the stacked
    system of all unconverged paths, with zero couplings between them. The
    line search and the convergence test run per path, and a converged path
    leaves the batch. Every path therefore takes exactly the iterates it
    would take alone: positions, iteration counts and residuals equal those
    of solving the pairs one at a time, bit for bit.

    Paths are relaxed in consecutive blocks of at most BLOCK_PATHS, which
    bounds the work arrays of a call whatever the number of pairs: five of
    BLOCK_PATHS x n_points floats, and three more while the tridiagonal
    solve runs (its two bands and a copy of the diagonal).

    The first path that fails raises SolverError at once, and nothing of the
    batch is returned: a singular Newton matrix, a line search that stalls or
    cannot keep the iterate positive, or, after max_iter iterations, the first
    path still iterating. Bad boundary points or guesses raise ValueError.
    """
    pairs = list(pairs)
    guesses = [None] * len(pairs) if guesses is None else list(guesses)
    if len(guesses) != len(pairs):
        raise ValueError(f"{len(guesses)} guesses for {len(pairs)} boundary pairs")
    if params.domain is Domain.HALF_LINE and any(a <= 0.0 or b <= 0.0 for a, b in pairs):
        raise ValueError("boundary points must be positive on the half-line")
    if grid.n_points == 2:
        x = _start_positions(params, grid, pairs, guesses)
        return [Trajectory(grid, a, b, row.copy(), 0, 0.0, 0.0) for (a, b), row in zip(pairs, x)]
    solved: list[Trajectory] = []
    for first in range(0, len(pairs), BLOCK_PATHS):
        block = slice(first, first + BLOCK_PATHS)
        x = _start_positions(params, grid, pairs[block], guesses[block])
        work = _Relaxation(params, grid, pairs[block], x)
        for iteration in range(1, max_iter + 1):
            if not work.iterate(iteration):
                break
        solved += work.result(max_iter)
    return solved


def solve_cached(params: ActionParams, pairs, grid: TimeGrid, cache: dict) -> list[Trajectory]:
    """solve_paths warm-started from cache[j] for pair j; what it solves goes back into cache.

    The cache is updated only on success: a SolverError leaves it as it was.
    """
    pairs = list(pairs)
    trajs = solve_paths(params, pairs, grid, [cache.get(j) for j in range(len(pairs))])
    cache.update(enumerate(trajs))
    return trajs


def _start_positions(params: ActionParams, grid: TimeGrid, pairs, guesses) -> np.ndarray:
    x = np.empty((len(pairs), grid.n_points))
    for row, ((start, end), guess) in enumerate(zip(pairs, guesses)):
        x[row] = _initial_positions(grid, start, end, guess)
    if params.domain is Domain.HALF_LINE:
        for row in np.flatnonzero(np.any(x[:, 1:-1] <= 0.0, axis=1)):
            x[row, 1:-1] = np.abs(x[row, 1:-1]) + 1e-12
    return x


def solve_bvp(
    params: ActionParams,
    start: float,
    end: float,
    grid: TimeGrid,
    guess=None,
    max_iter: int = MAX_ITERATIONS,
) -> Trajectory:
    """Damped Newton relaxation for one two-point boundary problem.

    The batch of one of solve_paths: convergence is declared when the Newton
    update falls below DEFAULT_TOL in the max norm; on the half-line every
    iterate is kept strictly positive by step halving. Non-convergence raises
    SolverError.
    """
    return solve_paths(params, [(start, end)], grid, [guess], max_iter=max_iter)[0]


def _check_traj(grid_points: int, traj: Trajectory):
    if len(traj.positions) != grid_points:
        raise ValueError("trajectory does not match its grid")


def action_value(params: ActionParams, traj: Trajectory) -> float:
    """Dimensionless trapezoid action of a solved trajectory.

    sum_i dt [ (m / 2 hbar^2) ((x_{i+1}-x_i)/dt)^2 + (V(x_i)+V(x_{i+1}))/2 ].
    """
    _check_traj(traj.grid.n_points, traj)
    return float(_trapezoid_actions(params, traj.positions, traj.grid.step))


def action_values(params: ActionParams, trajs) -> np.ndarray:
    """action_value of trajectories on one grid, computed row-wise on their stack.

    Row sums of a C-contiguous array equal the sums of the rows alone, so each
    entry equals action_value of its trajectory bit for bit.
    """
    trajs = list(trajs)
    if not trajs:
        return np.empty(0)
    grid, x = _stack(trajs)
    return _trapezoid_actions(params, x, grid.step)


def _stack(trajs: list[Trajectory]) -> tuple[TimeGrid, np.ndarray]:
    """The one time grid of trajectories and their positions as the rows of one array."""
    grid = trajs[0].grid
    for traj in trajs:
        if traj.grid != grid:
            raise ValueError("trajectories must share one time grid")
        _check_traj(grid.n_points, traj)
    return grid, np.stack([t.positions for t in trajs])


def _kinetic_sums(x: np.ndarray) -> np.ndarray:
    """Row sums of (x_{i+1} - x_i)^2."""
    dx = np.diff(x, axis=-1)
    return np.sum(dx * dx, axis=-1)


def _powers(params: ActionParams, x: np.ndarray) -> dict[int, np.ndarray]:
    """x^k for every exponent k != 0 of the potential, each computed once."""
    return {k: np.power(x, k) for k in params.potential.coefficients if k != 0}


def _trapezoid_sums(params: ActionParams, x: np.ndarray, powers=None):
    """Row sums of (x_{i+1} - x_i)^2 and of V(x_i) + V(x_{i+1}), the two sums of the action.

    V is summed from `powers` (see _powers) when given, else from x.
    """
    v = evaluate_potential(params.potential, x, 0, powers=powers)
    return _kinetic_sums(x), np.sum(v[..., :-1] + v[..., 1:], axis=-1)


def _trapezoid_actions(params: ActionParams, x: np.ndarray, step: float):
    kinetic_sum, potential_sum = _trapezoid_sums(params, x)
    kinetic = params.mass * kinetic_sum / (2.0 * params.hbar**2 * step)
    return kinetic + step * potential_sum * 0.5


def sensitivities(params: ActionParams, traj: Trajectory) -> ActionSensitivities:
    """Partial derivatives of the action at fixed trajectory.

    The batch of one of path_sensitivities.
    """
    return path_sensitivities(params, [traj]).row(0)


def path_sensitivities(params: ActionParams, trajs) -> ActionSensitivities:
    """Partial derivatives of the action at fixed trajectories, row-wise on their stack.

    Stationarity makes the fixed-trajectory partials equal to total
    derivatives of the solved action. The trajectories share one grid. d_xx
    is the central difference quotient of the endpoint momentum over
    end +/- neighbour_offset(end), in closed form (see _endpoint_curvature).
    Row sums of a C-contiguous stack equal the sums of the rows alone, and
    the stacked tangent solves equal those of each path alone, so every
    entry equals that of the trajectory on its own, bit for bit. A singular
    tangent system or a non-finite d_xx raises SolverError.
    """
    trajs = list(trajs)
    if not trajs:
        raise ValueError("need at least one trajectory")
    grid, x = _stack(trajs)
    step, n_int = grid.step, grid.intervals
    m, hbar = params.mass, params.hbar
    powers = _powers(params, x)
    kinetic_sum, potential_sum = _trapezoid_sums(params, x, powers)
    pot_sum = potential_sum * 0.5
    d_mass, d_coeff = _parameter_partials(params, x, step, kinetic_sum, powers)
    del powers  # not held through the Jacobi solves, where the memory of a stage peaks
    # exact derivative of the discrete action with respect to duration at
    # fixed interval count: minus the mean interval energy
    d_time = (pot_sum - m * kinetic_sum / (2.0 * hbar**2 * step**2)) / n_int
    return ActionSensitivities(
        d_mass=d_mass,
        d_coeff=d_coeff,
        d_time=d_time,
        d_x=_endpoint_momenta(params, x, step),
        d_xx=_endpoint_curvature(params, x, step),
    )


def parameter_partials(params: ActionParams, trajs) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """d_mass and d_coeff of path_sensitivities, bit for bit, without its endpoint derivatives.

    The fit's Jacobian needs only these, so it skips the Jacobi solves behind d_xx.
    """
    grid, x = _stack(list(trajs))
    return _parameter_partials(params, x, grid.step, _kinetic_sums(x), _powers(params, x))


def _parameter_partials(params: ActionParams, x: np.ndarray, step: float, kinetic_sum, powers):
    """Partials of the action in the mass and in each coefficient, per row of x.

    powers holds x^k by exponent (see _powers).
    """
    n, n_int = x.shape[0], x.shape[1] - 1
    d_mass = kinetic_sum / (2.0 * params.hbar**2 * step)
    d_coeff = {}
    for k in sorted(params.potential.coefficients):
        if k == 0:
            d_coeff[k] = np.full(n, step * n_int)
        else:
            p = powers[k]
            d_coeff[k] = step * np.sum(p[:, :-1] + p[:, 1:], axis=1) * 0.5
    return d_mass, d_coeff


def _endpoint_momenta(params: ActionParams, x: np.ndarray, step: float) -> np.ndarray:
    """Exact partial of the discrete action with respect to the endpoint, per row of x."""
    slope = (x[:, -1] - x[:, -2]) / step
    return params.mass * slope / params.hbar**2 + 0.5 * step * potential_derivative(
        params.potential, x[:, -1]
    )


def _endpoint_curvature(params: ActionParams, x: np.ndarray, step: float) -> np.ndarray:
    """(p(x_f + h) - p(x_f - h)) / 2h of the endpoint momentum p, without re-solving.

    Rows of x are solved paths and h = neighbour_offset(x_f). The quotient is
    p' + (h^2 / 6) p''' + O(h^4), and both derivatives follow from the
    variational (Jacobi) equations of the discrete equation of motion. With
    J = tridiag(m/dt^2, -2m/dt^2 - hbar^2 V''(x_i), m/dt^2), the Newton
    matrix of the solved path, the derivatives y_k = d^k x_i / dx_f^k of the
    interior points solve

        J y1 = -(m/dt^2) e_last
        J y2 = hbar^2 V'''(x) y1^2
        J y3 = hbar^2 (3 V'''(x) y1 y2 + V''''(x) y1^3)

    and p' = m (1 - y1_last) / (hbar^2 dt) + (dt/2) V''(x_f),
    p''' = -m y3_last / (hbar^2 dt) + (dt/2) V''''(x_f). The three systems
    share one factor of J (see _jacobi_solver).
    """
    spec, m, hbar2 = params.potential, params.mass, params.hbar**2
    inner, ends = x[:, 1:-1], x[:, -1]
    coupling = m / step**2
    # J's diagonal outlives the factor only where the gtsv fallback needs it:
    # a flow stage's memory peaks in these solves
    solve = _jacobi_solver(
        coupling, -2.0 * coupling - hbar2 * potential_second_derivative(spec, inner)
    )
    v3 = hbar2 * evaluate_potential(spec, inner, 3)
    v4 = hbar2 * evaluate_potential(spec, inner, 4)
    y1 = np.zeros(inner.shape)
    y1[:, -1:] = -coupling
    solve(y1)
    y2 = solve(v3 * y1**2)
    # 3.0 * v3 * y1 * y2 + v4 * y1**3, with one temporary fewer
    rhs = 3.0 * v3 * y1
    rhs *= y2
    cube = y1**3
    cube *= v4
    rhs += cube
    y3 = solve(rhs)
    # a path of one interval has no interior points to move
    y1_last, y3_last = (y1[:, -1], y3[:, -1]) if inner.shape[1] else (0.0, 0.0)
    scale = m / (hbar2 * step)
    first = scale * (1.0 - y1_last) + 0.5 * step * potential_second_derivative(spec, ends)
    third = -scale * y3_last + 0.5 * step * evaluate_potential(spec, ends, 4)
    h = np.array([neighbour_offset(float(end)) for end in ends])
    d_xx = first + h**2 / 6.0 * third
    if not np.isfinite(d_xx).all():
        raise SolverError("tangent solve gave a non-finite d_xx")
    return d_xx


def _jacobi_solver(coupling: float, diag: np.ndarray):
    """A solve(rhs) of J y = rhs, in place in the C-contiguous rhs, for the rows of diag.

    J = tridiag(coupling, diag[i], coupling) for every row i, stacked with
    zero couplings between rows as in _solve_tridiagonal. pttrf factors -J
    once as L D L^T, and each solve is one pttrs call on -rhs. Where J is
    diagonally dominant, as for V'' >= 0, the pivots of D are the negated gtsv
    pivots of J bit for bit, and so is the last entry of a solve whose
    right-hand side is zero but there. If a pivot is not positive, or the
    system has one unknown or none, each solve is a _solve_tridiagonal call,
    which raises SolverError for a singular J.
    """
    if diag.size > 1:
        n_int = diag.shape[-1]
        off = np.full(diag.size - 1, -coupling)
        off[n_int - 1 :: n_int] = 0.0
        d, e, info = dpttrf(np.negative(diag).reshape(-1), off, 1, 1)
        if info == 0:

            def solve(rhs: np.ndarray) -> np.ndarray:
                dpttrs(d, e, np.negative(rhs, out=rhs).reshape(-1), 1)
                return rhs

            return solve
    return lambda rhs: _solve_tridiagonal(coupling, diag, rhs)


def neighbour_offset(x: float) -> float:
    """Half-width h of the central difference behind d_xx at endpoint x."""
    return 1e-3 * max(1.0, abs(x))
