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
m/dt^2), through one kernel (_solve_tridiagonal): one LAPACK gtsv call on the
paths stacked with zero couplings between them (scipy's own dgtsv, bound by
qaction.lapack). A singular J raises SolverError wherever it is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lapack import dgtsv
from .model import (
    ActionParams,
    Domain,
    PotentialSpec,
    _check_domain,
    potential_derivative,
    potential_higher_derivative,
    potential_second_derivative,
    potential_value,
)

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 200
# Paths relaxed together by solve_paths. A block of 32 paths on 500 intervals
# keeps 0.6 MB of work arrays, and 0.4 MB more during a Newton solve. On a 2-vCPU Xeon, blocks of 16 to 60 paths gave
# the same flow stage time (about 20 ms for 30 final points), so larger
# blocks would only add memory.
BLOCK_PATHS = 32


class SolverError(RuntimeError):
    """Raised when the relaxation solver cannot reach its tolerance.

    solve_paths attaches, as `solved`, the trajectories of the paths before
    the failed one: what a loop of solve_bvp calls would have finished.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.solved: list[Trajectory] = []


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid over [0, duration]; intervals defaults to round(duration * ppu)."""

    duration: float
    points_per_unit: float = 500.0
    intervals: int | None = None

    def __post_init__(self):
        if not (self.duration > 0.0) or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive, got {self.duration}")
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

    def with_duration(self, duration: float) -> "TimeGrid":
        """Same interval count, new duration; keeps refinement studies smooth."""
        return TimeGrid(duration, self.points_per_unit, self.intervals)


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


class _Derivatives:
    """V' and V'' of one potential, compiled once into (exponent, coefficient) terms.

    Evaluation keeps the term order and arithmetic of model._poly (zeros, then
    out + c * x**k per non-zero term), so its values equal those of
    potential_derivative and potential_second_derivative bit for bit.
    """

    def __init__(self, spec: PotentialSpec):
        coeffs = spec.coefficients
        self.spec = spec
        self.first = _nonzero((k - 1, k * v) for k, v in coeffs.items() if k != 0)
        self.second = _nonzero(
            (k - 2, k * (k - 1) * v) for k, v in coeffs.items() if k not in (0, 2)
        )
        self.second_shift = 2.0 * coeffs[2] if 2 in coeffs else None

    def _sum(self, terms, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        _check_domain(self.spec, x)
        out.fill(0.0)
        for k, c in terms:
            np.power(x, k, out=tmp)
            np.multiply(tmp, c, out=tmp)
            np.add(out, tmp, out=out)
        return out

    def first_into(self, x, out, tmp) -> np.ndarray:
        return self._sum(self.first, x, out, tmp)

    def second_into(self, x, out, tmp) -> np.ndarray:
        self._sum(self.second, x, out, tmp)
        if self.second_shift is not None:
            np.add(out, self.second_shift, out=out)
        return out


def _nonzero(terms) -> list[tuple[int, float]]:
    return [(k, c) for k, c in terms if c != 0.0]


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
    or failed path leaves by compaction. Kernels write into five buffers
    with out=, so a batch holds a fixed set of arrays of its own size:
    accepted and trial positions, trial residuals, the Newton step and a
    scratch array. Between iterations `delta` holds the right-hand side
    -r(x) of the accepted iterate, which the tridiagonal solve turns into the
    step in place; the diagonal of the Newton matrix goes into the trial
    residuals, which the line search fills only afterwards.
    """

    def __init__(
        self, params: ActionParams, grid: TimeGrid, pairs: list, x: np.ndarray, tol: float
    ):
        n_paths, n_points = x.shape
        n_int = n_points - 2
        m, step = params.mass, grid.step
        self.grid, self.pairs, self.tol = grid, pairs, tol
        self.half_line = params.domain is Domain.HALF_LINE
        self.derivatives = _Derivatives(params.potential)
        self.mass, self.hbar2, self.step2 = m, params.hbar**2, step**2
        self.diag_shift, self.off_diag = -2.0 * m / step**2, m / step**2
        self.x, self.x_try = x, np.empty_like(x)
        self.resid_try, self.delta, self.tmp = (np.empty((n_paths, n_int)) for _ in range(3))
        self.ids = np.arange(n_paths)
        self.res_norm = self.max_abs(self.residual(x, self.resid_try))
        np.negative(self.resid_try, out=self.delta)
        self.delta_norm = np.full(n_paths, np.nan)
        self.done: dict[int, Trajectory] = {}
        self.errors: dict[int, Exception] = {}

    def residual(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """m (x_{i+1} - 2 x_i + x_{i-1}) / dt^2 - hbar^2 V'(x_i) for the rows of x."""
        tmp = self.tmp[: len(x)]
        inner = x[:, 1:-1]
        self.derivatives.first_into(inner, out, tmp)
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

    def fail(self, row: int, exc: Exception):
        self.errors[int(self.ids[row])] = exc

    def limit(self) -> int:
        """Index of the first failed path; no later path needs solving."""
        return min(self.errors, default=len(self.pairs))

    def newton_steps(self) -> np.ndarray:
        """Newton updates of the iterating paths from one stacked tridiagonal solve.

        The solve runs in place on `delta`. If it meets a zero pivot or gives
        an inf or NaN, which may have crossed a path boundary, each path is
        solved alone, as before batching, and a singular one fails with
        SolverError.
        """
        rows = len(self.ids)
        x, delta = self.x[:rows], self.delta[:rows]
        diag = self.derivatives.second_into(x[:, 1:-1], self.resid_try[:rows], self.tmp[:rows])
        np.multiply(diag, self.hbar2, out=diag)
        np.subtract(self.diag_shift, diag, out=diag)
        try:
            stacked = np.isfinite(_solve_tridiagonal(self.off_diag, diag, delta)).all()
        except SolverError:
            stacked = False
        if not stacked:
            np.negative(self.residual(x, delta), out=delta)  # the solve consumed -r(x)
            for row in range(rows):
                try:
                    _solve_tridiagonal(self.off_diag, diag[row : row + 1], delta[row : row + 1])
                except SolverError as exc:
                    self.fail(row, exc)
        return delta

    def iterate(self, iteration: int) -> bool:
        """One damped Newton iteration of every iterating path; False once none is left."""
        rows = len(self.ids)
        delta = self.newton_steps()
        self.delta_norm = delta_norm = self.max_abs(delta)
        res_norm = self.res_norm
        scale = np.ones(rows)
        step_norm = np.full(rows, np.nan)
        pending = self._unfailed(np.arange(rows))
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
                            self.fail(row, SolverError(
                                "step underflow keeping iterate positive "
                                f"(residual {res_norm[row]:.3e})"
                            ))
                    pending, trial = pending[~negative], trial[~negative]
            resid_try = self.residual(trial, self.resid_try[: pending.size])
            res_try = self.max_abs(resid_try)
            sc = scale[pending]
            accept = (res_try < res_norm[pending] * (1.0 - 1e-4 * sc)) | (
                sc * delta_norm[pending] <= self.tol
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
                    self.fail(row, SolverError(
                        f"line search stalled at residual {res_norm[row]:.3e} "
                        f"after {iteration} iterations"
                    ))
            pending = self._unfailed(np.sort(np.concatenate([retry, pending[~accept]])))

        converged = step_norm <= self.tol
        for row in np.flatnonzero(converged):
            path = int(self.ids[row])
            start, end = self.pairs[path]
            self.done[path] = Trajectory(
                self.grid, start, end, self.x[row].copy(), iteration,
                float(step_norm[row]), float(res_norm[row]),
            )
        keep = ~converged & (self.ids < self.limit())
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

    def _unfailed(self, rows: np.ndarray) -> np.ndarray:
        return rows[self.ids[rows] < self.limit()]

    def result(self, max_iter: int) -> list[Trajectory]:
        """Trajectories in input order, or the first failure in input order."""
        for row in range(len(self.ids)):
            self.fail(row, SolverError(
                f"no convergence in {max_iter} iterations; "
                f"last residual {self.res_norm[row]:.3e}, last step {self.delta_norm[row]:.3e}"
            ))
        if self.errors:
            first = self.limit()
            exc = self.errors[first]
            if isinstance(exc, SolverError):
                exc.solved = [self.done[i] for i in range(first)]
            raise exc
        return [self.done[i] for i in range(len(self.pairs))]


def solve_paths(
    params: ActionParams,
    pairs,
    grid: TimeGrid,
    guesses=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> list[Trajectory]:
    """Damped Newton relaxation for a batch of two-point problems on one grid.

    Each (start, end) pair of `pairs` is solved from its entry of `guesses`
    (None, a Trajectory or an array; all None when omitted). Convergence of a
    path is declared when its Newton update falls below tol in the max norm;
    on the half-line every iterate is kept strictly positive by step halving.

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

    Non-convergence raises the SolverError of the first failed path in input
    order, carrying the trajectories of the paths before it in `solved`;
    paths after it are dropped as soon as it fails. Bad boundary points or
    guesses raise ValueError.
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
        work = _Relaxation(params, grid, pairs[block], x, tol)
        for iteration in range(1, max_iter + 1):
            if not work.iterate(iteration):
                break
        try:
            solved += work.result(max_iter)
        except SolverError as exc:
            exc.solved = solved + exc.solved
            raise
    return solved


def solve_cached(params: ActionParams, pairs, grid: TimeGrid, cache: dict) -> list[Trajectory]:
    """solve_paths warm-started from cache[j] for pair j; what it solves goes back into cache.

    On a SolverError the paths solved before the failed one are stored, as a
    loop of solve_bvp calls would have stored them, and the error is raised.
    """
    pairs = list(pairs)
    try:
        trajs = solve_paths(params, pairs, grid, [cache.get(j) for j in range(len(pairs))])
    except SolverError as exc:
        cache.update(enumerate(exc.solved))
        raise
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
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> Trajectory:
    """Damped Newton relaxation for one two-point boundary problem.

    The batch of one of solve_paths: convergence is declared when the Newton
    update falls below tol in the max norm; on the half-line every iterate is
    kept strictly positive by step halving. Non-convergence raises
    SolverError.
    """
    return solve_paths(params, [(start, end)], grid, [guess], tol=tol, max_iter=max_iter)[0]


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


def _trapezoid_actions(params: ActionParams, x: np.ndarray, step: float):
    dx = np.diff(x, axis=-1)
    kinetic = params.mass * np.sum(dx * dx, axis=-1) / (2.0 * params.hbar**2 * step)
    v = potential_value(params.potential, x)
    potential = step * np.sum(v[..., :-1] + v[..., 1:], axis=-1) * 0.5
    return kinetic + potential


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
    n, step, n_int = len(trajs), grid.step, grid.intervals
    m, hbar = params.mass, params.hbar
    dx = np.diff(x, axis=1)
    kinetic_sum = np.sum(dx * dx, axis=1)
    v = potential_value(params.potential, x)
    pot_sum = np.sum(v[:, :-1] + v[:, 1:], axis=1) * 0.5

    d_mass = kinetic_sum / (2.0 * hbar**2 * step)
    d_coeff = {}
    for k in sorted(params.potential.coefficients):
        if k == 0:
            d_coeff[k] = np.full(n, step * n_int)
        else:
            p = x**k
            d_coeff[k] = step * np.sum(p[:, :-1] + p[:, 1:], axis=1) * 0.5
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
    p''' = -m y3_last / (hbar^2 dt) + (dt/2) V''''(x_f).
    """
    spec, m, hbar2 = params.potential, params.mass, params.hbar**2
    inner, ends = x[:, 1:-1], x[:, -1]
    coupling = m / step**2
    diag = -2.0 * coupling - hbar2 * potential_second_derivative(spec, inner)
    v3 = hbar2 * potential_higher_derivative(spec, inner, 3)
    v4 = hbar2 * potential_higher_derivative(spec, inner, 4)
    y1 = np.zeros(inner.shape)
    y1[:, -1:] = -coupling
    _solve_tridiagonal(coupling, diag, y1)
    y2 = _solve_tridiagonal(coupling, diag, v3 * y1**2)
    y3 = _solve_tridiagonal(coupling, diag, 3.0 * v3 * y1 * y2 + v4 * y1**3)
    # a path of one interval has no interior points to move
    y1_last, y3_last = (y1[:, -1], y3[:, -1]) if inner.shape[1] else (0.0, 0.0)
    scale = m / (hbar2 * step)
    first = scale * (1.0 - y1_last) + 0.5 * step * potential_second_derivative(spec, ends)
    third = -scale * y3_last + 0.5 * step * potential_higher_derivative(spec, ends, 4)
    h = np.array([neighbour_offset(float(end)) for end in ends])
    d_xx = first + h**2 / 6.0 * third
    if not np.isfinite(d_xx).all():
        raise SolverError("tangent solve gave a non-finite d_xx")
    return d_xx


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
    plus = solve_bvp(params, start, end, grid.with_duration(grid.duration + delta), guess=guess)
    minus = solve_bvp(params, start, end, grid.with_duration(grid.duration - delta), guess=guess)
    return (action_value(params, plus) - action_value(params, minus)) / (2.0 * delta)


def neighbour_offset(x: float) -> float:
    """Half-width h of the central difference behind d_xx at endpoint x."""
    return 1e-3 * max(1.0, abs(x))


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
