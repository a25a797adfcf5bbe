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

A batch of paths on one grid travels as one Paths record, one path per row,
which solve_paths fills from one start array (see resampled).

The Newton steps of the relaxation and the Jacobi equations behind d_xx solve
with the same Newton matrix J = tridiag(m/dt^2, -2m/dt^2 - hbar^2 V''(x_i),
m/dt^2), always on the paths stacked with zero couplings between them. A
Newton step factors -J = L D L^T with one LAPACK pttrf call and solves with
one pttrs call (_factor). Where -J is not positive definite, or the step is
not finite, each path is solved alone: pttrf and pttrs where its own -J is
positive definite, else gtsv (_solve_each). The two Jacobi solves behind
d_xx share one pttrf factor of -J at the solved positions, one pttrs call
each, and fall back to _solve_each in the same way (_jacobi_solver).
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
    """Uniform grid of `intervals` intervals over [0, duration]."""

    duration: float
    intervals: int

    def __post_init__(self):
        if not (self.duration > 0.0) or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.intervals < 1:
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
    """One solved path; el_residual is that of the iterate its last step was taken from."""

    grid: TimeGrid
    start: float
    end: float
    positions: np.ndarray
    iterations: int
    step_norm: float
    el_residual: float


@dataclass(frozen=True, eq=False)
class Paths:
    """Solved paths on one grid, stacked: row i of positions is path i.

    positions is n x grid.n_points and C-contiguous; iterations, step_norm,
    el_residual and line_search_halvings hold one entry per path. el_residual
    is the max-norm residual of the iterate a path's last step was taken
    from: a full Newton step within DEFAULT_TOL ends the relaxation without
    evaluating the residual it lands on. line_search_halvings counts the
    step halvings of the line search, those that keep an iterate positive
    included.
    """

    grid: TimeGrid
    positions: np.ndarray
    iterations: np.ndarray
    step_norm: np.ndarray
    el_residual: np.ndarray
    line_search_halvings: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i: int) -> Trajectory:
        """Path i as the Trajectory solve_bvp returns; its positions are a view of row i."""
        x = self.positions[i]
        return Trajectory(self.grid, float(x[0]), float(x[-1]), x, int(self.iterations[i]),
                          float(self.step_norm[i]), float(self.el_residual[i]))


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


def _solve_each(coupling: float, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve tridiag(coupling, diag[i], coupling) y[i] = rhs[i] row by row, in place in rhs.

    Each row as if alone: pttrf and pttrs where its -J is positive definite,
    else gtsv (_solve_tridiagonal), which raises SolverError for a singular J.
    """
    for row in range(len(rhs)):
        one = slice(row, row + 1)
        pivots, lower = np.negative(diag[one]), np.empty_like(diag[one])
        if _factor(pivots, coupling, lower):
            dpttrs(pivots[0], lower[0, :-1], np.negative(rhs[row], out=rhs[row]), 1)
        else:
            _solve_tridiagonal(coupling, diag[one], rhs[one])
    return rhs


def _factor(pivots: np.ndarray, coupling: float, lower: np.ndarray) -> bool:
    """Factor -J = L D L^T in place with one pttrf call on the stacked rows.

    -J = tridiag(-coupling, pivots[i], -coupling) for every row i, stacked
    with zero couplings between rows; pivots holds -J's diagonal and receives
    D, and lower (of the same shape) receives the subdiagonal of L, 0 in each
    row's last column. A row boundary meets a zero coupling, so each row gets
    the bits of its own factor. False, with both arrays partly overwritten,
    if a pivot is not positive (NaN passes), or if the system has one unknown
    or none, which pttrf does not take.
    """
    if pivots.size <= 1:
        return False
    lower.fill(-coupling)
    lower[:, -1] = 0.0
    return dpttrf(pivots.reshape(-1), lower.reshape(-1)[:-1], 1, 1)[-1] == 0


class _Relaxation:
    """State and work buffers of one block of paths in solve_paths.

    Rows are paths. The first len(ids) rows of every buffer belong to the
    paths still iterating, in input order; ids holds their rows in the Paths
    of the batch, where a converged path is written as it leaves by
    compaction. Kernels write into five buffers with out=, so a batch holds
    a fixed set of arrays of its own size: accepted and trial positions,
    trial residuals, the Newton step and a scratch array. Between iterations
    `delta` holds the right-hand side -r(x) of the accepted iterate, which
    the Newton solve turns into the step in place; while it solves, the
    trial residuals hold the factor's D and the scratch array its L.
    """

    def __init__(self, params: ActionParams, grid: TimeGrid, x: np.ndarray, first: int):
        n_paths, n_points = x.shape
        n_int = n_points - 2
        m, step = params.mass, grid.step
        self.half_line = params.domain is Domain.HALF_LINE
        self.spec = params.potential
        self.mass, self.hbar2, self.step2 = m, params.hbar**2, step**2
        self.diag_shift, self.off_diag = -2.0 * m / step**2, m / step**2
        self.x, self.x_try = x, np.empty_like(x)
        self.resid_try, self.delta, self.tmp = (np.empty((n_paths, n_int)) for _ in range(3))
        self.ids = np.arange(first, first + n_paths)
        self.res_norm = self.max_abs(self.residual(x, self.resid_try))
        np.negative(self.resid_try, out=self.delta)
        self.delta_norm = np.full(n_paths, np.nan)

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

    def negated_diagonal(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """-J's diagonal 2m/dt^2 + hbar^2 V''(x_i) for the rows of x, J's negated bit for bit."""
        diag = evaluate_potential(self.spec, x[:, 1:-1], 2, out, self.tmp[: len(x)])
        np.multiply(diag, self.hbar2, out=diag)
        return np.subtract(diag, self.diag_shift, out=diag)

    def newton_steps(self) -> np.ndarray:
        """Newton updates of the iterating paths, in place in `delta`.

        One pttrf factor of the stacked -J and one pttrs solve. If a pivot is
        not positive, or the step has an inf or NaN, which may have crossed a
        path boundary, each path is solved alone: pttrf and pttrs where its
        -J is positive definite, else gtsv, and the first singular J raises
        SolverError (_solve_each).
        """
        rows = len(self.ids)
        x, delta = self.x[:rows], self.delta[:rows]
        pivots, lower = self.resid_try[:rows], self.tmp[:rows]
        if _factor(self.negated_diagonal(x, pivots), self.off_diag, lower):
            np.negative(delta, out=delta)  # -J step = r(x)
            dpttrs(pivots.reshape(-1), lower.reshape(-1)[:-1], delta.reshape(-1), 1)
            if np.isfinite(delta).all():
                return delta
        # pttrf overwrote -J's diagonal, and the solve may have consumed -r(x)
        diag = np.negative(self.negated_diagonal(x, pivots), out=pivots)
        np.negative(self.residual(x, delta), out=delta)
        return _solve_each(self.off_diag, diag, delta)

    def halve(self, rows, scale: np.ndarray, halvings: np.ndarray, message: str) -> None:
        """Halve the step scale of each of rows and count it in halvings; a scale
        below 1e-14 raises SolverError(message formatted with the row's residual)."""
        for row in rows:
            scale[row] *= 0.5
            halvings[self.ids[row]] += 1
            if scale[row] < 1e-14:
                raise SolverError(message.format(self.res_norm[row]))

    def iterate(self, iteration: int, out: Paths) -> bool:
        """One damped Newton iteration of every iterating path; False once none is left.

        A path that converges is written to its row of out. A full step
        within DEFAULT_TOL is the last one: it is taken without a line search
        and without the residual it lands on, unless it would leave the
        half-line.
        """
        rows = len(self.ids)
        delta = self.newton_steps()
        self.delta_norm = delta_norm = self.max_abs(delta)
        res_norm = self.res_norm
        halvings = out.line_search_halvings
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
                    self.halve(retry, scale, halvings,
                               "step underflow keeping iterate positive (residual {:.3e})")
                    pending, trial = pending[~negative], trial[~negative]
            sc = scale[pending]
            last = (sc == 1.0) & (delta_norm[pending] <= DEFAULT_TOL)
            if last.any():
                done = pending[last]
                self.x[done] = trial[last]
                step_norm[done] = delta_norm[done]
                pending, trial, sc = pending[~last], trial[~last], sc[~last]
                if not pending.size:
                    pending = retry
                    continue
            resid_try = self.residual(trial, self.resid_try[: pending.size])
            res_try = self.max_abs(resid_try)
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
            self.halve(pending[~accept], scale, halvings,
                       f"line search stalled at residual {{:.3e}} after {iteration} iterations")
            pending = np.sort(np.concatenate([retry, pending[~accept]]))

        converged = step_norm <= DEFAULT_TOL
        if converged.any():
            done = np.flatnonzero(converged)
            ids = self.ids[done]
            out.positions[ids] = self.x[done]
            out.iterations[ids] = iteration
            out.step_norm[ids] = step_norm[done]
            out.el_residual[ids] = res_norm[done]
            keep = ~converged
            kept = np.flatnonzero(keep)
            np.take(self.x, kept, axis=0, out=self.x_try[: kept.size], mode="clip")
            np.take(self.delta, kept, axis=0, out=self.resid_try[: kept.size], mode="clip")
            self.x, self.x_try = self.x_try, self.x
            self.delta, self.resid_try = self.resid_try, self.delta
            self.ids, self.res_norm, self.delta_norm = (
                self.ids[keep], res_norm[keep], delta_norm[keep]
            )
        return len(self.ids) > 0


def solve_paths(
    params: ActionParams,
    pairs,
    grid: TimeGrid,
    start: np.ndarray | None = None,
    max_iter: int = MAX_ITERATIONS,
) -> Paths:
    """Damped Newton relaxation for a batch of two-point problems on one grid.

    Path i solves pairs[i] = (start, end) from row i of `start`, an array of
    len(pairs) x grid.n_points positions that is only read, with its ends
    replaced, or from the straight line when `start` is None. Convergence of
    a path is declared when its Newton update falls below DEFAULT_TOL in the
    max norm. A full Newton step that small is taken as it is, without a
    line search and without evaluating the residual it lands on, so the
    path returned is the Newton-corrected one; a damped step that small
    ends the relaxation too, at the iterate the line search accepted. On the
    half-line every iterate is kept strictly positive by step halving.

    The paths share one factor and solve per Newton iteration (see
    _Relaxation.newton_steps): the stacked system of all unconverged paths,
    with zero couplings between them. The line search and the convergence
    test run per path, and a converged path leaves the batch. Every path
    therefore takes exactly the iterates it would take alone: positions,
    iteration counts, residuals and halvings equal those of solving the
    pairs one at a time, bit for bit.

    Paths are relaxed in consecutive blocks of at most BLOCK_PATHS, which
    bounds the work arrays of a call whatever the number of pairs: five of
    BLOCK_PATHS x n_points floats.

    The first path that fails raises SolverError at once, and nothing of the
    batch is returned: a singular Newton matrix, a line search that stalls or
    cannot keep the iterate positive, or, after max_iter iterations, the first
    path still iterating. Bad boundary points or a start of the wrong shape
    raise ValueError.
    """
    ends = np.array(pairs, dtype=float).reshape(len(pairs), 2)
    n = len(ends)
    if start is not None and np.shape(start) != (n, grid.n_points):
        raise ValueError(f"start has shape {np.shape(start)}, the paths need {(n, grid.n_points)}")
    if params.domain is Domain.HALF_LINE and np.any(ends <= 0.0):
        raise ValueError("boundary points must be positive on the half-line")
    if grid.n_points == 2:
        return _stacked(grid, ends)
    paths = None
    for first in range(0, max(n, 1), BLOCK_PATHS):
        block = slice(first, first + BLOCK_PATHS)
        if start is None:  # by row: one path with equal ends changes a batched linspace
            x = np.array([np.linspace(a, b, grid.n_points) for a, b in ends[block]])
            x = x.reshape(-1, grid.n_points)  # no pairs, one empty block
        else:
            x = np.array(start[block], dtype=float)
            x[:, 0], x[:, -1] = ends[block, 0], ends[block, 1]
        if params.domain is Domain.HALF_LINE:
            for row in np.flatnonzero(np.any(x[:, 1:-1] <= 0.0, axis=1)):
                x[row, 1:-1] = np.abs(x[row, 1:-1]) + 1e-12
        work = _Relaxation(params, grid, x, first)
        if paths is None:
            # After the first block's work arrays: malloc returns memory only
            # from the top of its heap, so outputs below the work arrays gave
            # their pages back after every solve. A flow_march pass then took
            # 46,500 minor page faults against 14,200-17,100, and 0.08 s more system time.
            paths = _stacked(grid, np.empty((n, grid.n_points)))
        for iteration in range(1, max_iter + 1):
            if not work.iterate(iteration, paths):
                break
        if len(work.ids):  # the first path still iterating did not converge
            raise SolverError(
                f"no convergence in {max_iter} iterations; last residual "
                f"{work.res_norm[0]:.3e}, last step {work.delta_norm[0]:.3e}"
            )
    return paths


def _stacked(grid: TimeGrid, positions: np.ndarray) -> Paths:
    """Paths of these positions with zero counts, step norms and residuals."""
    n = len(positions)
    return Paths(grid, positions, np.zeros(n, dtype=int), np.zeros(n), np.zeros(n),
                 np.zeros(n, dtype=int))


def resampled(paths, grid: TimeGrid) -> np.ndarray:
    """The positions of paths (a Paths, or a Trajectory as one row) as a start on grid.

    The positions themselves on the same point count, else each row interpolated in t / duration.
    """
    x = np.atleast_2d(paths.positions)
    if x.shape[1] == grid.n_points:
        return x
    src_t, dst_t = np.linspace(0.0, 1.0, x.shape[1]), np.linspace(0.0, 1.0, grid.n_points)
    return np.array([np.interp(dst_t, src_t, row) for row in x])


def solve_bvp(
    params: ActionParams,
    start: float,
    end: float,
    grid: TimeGrid,
    guess=None,
    max_iter: int = MAX_ITERATIONS,
) -> Trajectory:
    """Damped Newton relaxation for one two-point boundary problem.

    The batch of one of solve_paths, started from `guess`: None for the
    straight line, a solved Trajectory (see resampled) or an array of
    grid.n_points positions. Convergence is declared when the Newton update
    falls below DEFAULT_TOL in the max norm; on the half-line every iterate
    is kept strictly positive by step halving. Non-convergence raises
    SolverError.
    """
    guess = resampled(guess, grid) if isinstance(guess, Trajectory) else guess
    rows = None if guess is None else np.reshape(guess, (1, -1))
    return solve_paths(params, [(start, end)], grid, rows, max_iter=max_iter)[0]


def action_value(params: ActionParams, traj: Trajectory) -> float:
    """Dimensionless trapezoid action of a solved trajectory.

    sum_i dt [ (m / 2 hbar^2) ((x_{i+1}-x_i)/dt)^2 + (V(x_i)+V(x_{i+1}))/2 ].
    """
    return float(_trapezoid_actions(params, traj.positions, traj.grid.step))


def action_values(params: ActionParams, paths: Paths) -> np.ndarray:
    """action_value of each path, computed row-wise on the stack.

    Row sums of a C-contiguous array equal the sums of the rows alone, so each
    entry equals action_value of its path bit for bit.
    """
    return _trapezoid_actions(params, paths.positions, paths.grid.step)


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
    return path_sensitivities(params, _stacked(traj.grid, traj.positions[None, :])).row(0)


def path_sensitivities(params: ActionParams, paths: Paths) -> ActionSensitivities:
    """Partial derivatives of the action at fixed paths, row-wise on their stack.

    Stationarity makes the fixed-trajectory partials equal to total
    derivatives of the solved action. d_xx is the central difference
    quotient of the endpoint momentum over end +/- neighbour_offset(end), in
    closed form (see _endpoint_curvature). Row sums of a C-contiguous stack
    equal the sums of the rows alone, and the stacked tangent solves equal
    those of each path alone, so every entry equals that of the path on its
    own (sensitivities of paths[i]), bit for bit. A singular tangent system or a non-finite
    d_xx raises SolverError.
    """
    if not len(paths):
        raise ValueError("need at least one path")
    x, step, n_int = paths.positions, paths.grid.step, paths.grid.intervals
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


def parameter_partials(params: ActionParams, paths: Paths) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """d_mass and d_coeff of path_sensitivities, bit for bit, without its endpoint derivatives.

    The fit's Jacobian needs only these, so it skips the Jacobi solves behind d_xx.
    """
    x = paths.positions
    return _parameter_partials(params, x, paths.grid.step, _kinetic_sums(x), _powers(params, x))


def _parameter_partials(params: ActionParams, x: np.ndarray, step: float, kinetic_sum, powers):
    """Partials of the action in the mass and in each coefficient, per row of x.

    powers holds x^k by exponent (see _powers).
    """
    n, n_int = x.shape[0], x.shape[1] - 1
    d_mass = kinetic_sum / (2.0 * params.hbar**2 * step)
    d_coeff = {}
    for k in params.potential.exponents():
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
        J y2 = b2 = hbar^2 V'''(x) y1^2
        J y3 = b3 = hbar^2 (3 V'''(x) y1 y2 + V''''(x) y1^3)

    and p' = m (1 - y1_last) / (hbar^2 dt) + (dt/2) V''(x_f),
    p''' = -m y3_last / (hbar^2 dt) + (dt/2) V''''(x_f). J is symmetric, so
    y1 . b3 = (J y1) . y3 = -(m/dt^2) y3_last: y3_last is
    -(3 b2 . y2 + hbar^2 V'''' . y1^4) / (m/dt^2), and only y1 and y2 take a
    solve. The two share one factor of J (see _jacobi_solver).
    """
    spec, m, hbar2 = params.potential, params.mass, params.hbar**2
    inner, ends = x[:, 1:-1], x[:, -1]
    coupling = m / step**2
    # J's diagonal outlives the factor only where the fallback needs it:
    # a flow stage's memory peaks in these solves
    solve = _jacobi_solver(
        coupling, -2.0 * coupling - hbar2 * potential_second_derivative(spec, inner)
    )
    y1 = np.zeros(inner.shape)
    y1[:, -1:] = -coupling
    solve(y1)
    square = y1 * y1
    b2 = hbar2 * evaluate_potential(spec, inner, 3)
    b2 *= square
    y2 = solve(b2.copy())
    # y1 . b3 = 3 b2 . y2 + hbar^2 V'''' . y1^4 row by row, in place
    square *= square
    square *= hbar2 * evaluate_potential(spec, inner, 4)
    y2 *= b2
    y2 *= 3.0
    y2 += square
    y3_last = -y2.sum(axis=1) / coupling
    # a path of one interval has no interior points to move
    y1_last = y1[:, -1] if inner.shape[1] else 0.0
    scale = m / (hbar2 * step)
    first = scale * (1.0 - y1_last) + 0.5 * step * potential_second_derivative(spec, ends)
    third = -scale * y3_last + 0.5 * step * evaluate_potential(spec, ends, 4)
    d_xx = first + neighbour_offset(ends) ** 2 / 6.0 * third
    if not np.isfinite(d_xx).all():
        raise SolverError("tangent solve gave a non-finite d_xx")
    return d_xx


def _jacobi_solver(coupling: float, diag: np.ndarray):
    """A solve(rhs) of J y = rhs, in place in the C-contiguous rhs, for the rows of diag.

    J = tridiag(coupling, diag[i], coupling) for every row i, stacked with
    zero couplings between rows as in _solve_tridiagonal. pttrf factors -J
    once (_factor), and each solve is one pttrs call on -rhs. Where J is
    diagonally dominant, as for V'' >= 0, the pivots of D are the negated
    gtsv pivots of J bit for bit, and so is the last entry of a solve whose
    right-hand side is zero but there. If a pivot is not positive, or the
    system has one unknown or none, each solve is a _solve_each call, which
    gives every row the bits of its own solve and raises SolverError for a
    singular J.
    """
    pivots, lower = np.negative(diag), np.empty_like(diag)
    if _factor(pivots, coupling, lower):
        d, e = pivots.reshape(-1), lower.reshape(-1)[:-1]

        def solve(rhs: np.ndarray) -> np.ndarray:
            dpttrs(d, e, np.negative(rhs, out=rhs).reshape(-1), 1)
            return rhs

        return solve
    return lambda rhs: _solve_each(coupling, diag, rhs)


def neighbour_offset(x):
    """Half-width h of the central difference behind d_xx at endpoint x (a float or an array)."""
    return 1e-3 * np.maximum(1.0, np.abs(x))
