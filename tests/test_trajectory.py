import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dptsv

from qaction import flow, trajectory
from qaction.fit import BoundarySet, _Objective, build_table
from qaction.flow import FlowState, PathHistory, StepRejected, assemble_system
from qaction.model import (
    ActionParams,
    Domain,
    PotentialSpec,
    potential_derivative,
    potential_second_derivative,
    potential_value,
)
from qaction.trajectory import (
    BLOCK_PATHS,
    SolverError,
    TimeGrid,
    Trajectory,
    _solve_tridiagonal,
    action_value,
    action_values,
    path_sensitivities,
    sensitivities,
    solve_bvp,
    solve_paths,
)
from references import (
    conserved_energy_drift,
    neighbour_pair,
    sum_of_squares,
    three_solve_d_xx,
    time_derivative_fd,
    with_duration,
)

HARMONIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE
)
STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))
QUARTIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, 4: 0.1}), domain=Domain.FULL_LINE
)


def harmonic_path(grid: TimeGrid) -> np.ndarray:
    t = grid.times()
    T = grid.duration
    return (np.sinh(T - t) + np.sinh(t)) / np.sinh(T)


def test_time_grid_properties():
    grid = TimeGrid(2.0, intervals=500)
    assert grid.intervals == 500
    assert grid.n_points == 501
    assert grid.step == pytest.approx(2.0 / 500)
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == pytest.approx(2.0)

    fixed = TimeGrid(0.4, intervals=800)
    assert fixed.intervals == 800
    shrunk = with_duration(fixed, 0.1)
    # refinement studies rely on the interval count staying put
    assert shrunk.intervals == 800 and shrunk.duration == 0.1

    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TimeGrid(bad, intervals=100)
    with pytest.raises(ValueError):
        TimeGrid(1.0, intervals=0)


def test_harmonic_nodes_match_closed_form():
    errs = {}
    for n in (500, 1000):
        grid = TimeGrid(1.0, intervals=n)
        traj = solve_bvp(HARMONIC, 1.0, 1.0, grid)
        errs[n] = float(np.max(np.abs(traj.positions - harmonic_path(grid))))
    assert errs[1000] <= 1e-8
    # node error is second order in the step
    assert 3.5 <= errs[500] / errs[1000] <= 4.5


def test_harmonic_action_closed_form():
    traj = solve_bvp(HARMONIC, 1.0, 1.0, TimeGrid(1.0, intervals=500))
    exact = (math.cosh(1.0) - 1.0) / math.sinh(1.0)
    assert action_value(HARMONIC, traj) == pytest.approx(exact, abs=1e-6)
    assert traj.step_norm <= 1e-12


def test_constant_path_at_potential_minimum():
    # 0.5 x^2 + 1/x^2 is stationary at x = 2^(1/4); the solver must sit still
    x_min = 2.0**0.25
    traj = solve_bvp(STANDARD, x_min, x_min, TimeGrid(1.7, intervals=300))
    npt.assert_allclose(traj.positions, x_min, rtol=0.0, atol=1e-12)
    v_min = 0.5 * x_min**2 + x_min**-2
    assert action_value(STANDARD, traj) == pytest.approx(1.7 * v_min, rel=1e-12)


def test_time_reversal_symmetry():
    grid = TimeGrid(1.3, intervals=400)
    fwd = solve_bvp(STANDARD, 0.8, 2.5, grid)
    bwd = solve_bvp(STANDARD, 2.5, 0.8, grid)
    npt.assert_allclose(fwd.positions, bwd.positions[::-1], rtol=0.0, atol=1e-11)
    assert action_value(STANDARD, fwd) == pytest.approx(action_value(STANDARD, bwd), rel=1e-12)


def _rebuilt(params: ActionParams, mass=None, coeff=None) -> ActionParams:
    coeffs = dict(params.potential.coefficients)
    if coeff is not None:
        k, value = coeff
        coeffs[k] = value
    return ActionParams(
        mass=params.mass if mass is None else mass,
        hbar=params.hbar,
        potential=PotentialSpec(coeffs),
        domain=params.domain,
    )


def test_sensitivities_match_finite_differences():
    rng = np.random.default_rng(29)
    cases = [HARMONIC, STANDARD, QUARTIC, _rebuilt(HARMONIC, coeff=(0, 0.2))]
    for params in cases:
        for _ in range(3):
            if params.domain is Domain.HALF_LINE:
                a, b = rng.uniform(0.6, 2.5, size=2)
            else:
                a, b = rng.uniform(-1.5, 1.5, size=2)
            t_len = rng.uniform(0.4, 2.0)
            grid = TimeGrid(t_len, intervals=800)
            traj = solve_bvp(params, a, b, grid)
            sens = sensitivities(params, traj)

            h = 1e-5
            sp = solve_bvp(params, a, b, grid, guess=traj)  # warm-start template
            m_plus = _rebuilt(params, mass=params.mass + h)
            m_minus = _rebuilt(params, mass=params.mass - h)
            fd_mass = (
                action_value(m_plus, solve_bvp(m_plus, a, b, grid, guess=sp))
                - action_value(m_minus, solve_bvp(m_minus, a, b, grid, guess=sp))
            ) / (2.0 * h)
            npt.assert_allclose(sens.d_mass, fd_mass, rtol=1e-6, atol=1e-9)

            for k, c in params.potential.coefficients.items():
                plus = _rebuilt(params, coeff=(k, c + h))
                minus = _rebuilt(params, coeff=(k, c - h))
                fd_c = (
                    action_value(plus, solve_bvp(plus, a, b, grid, guess=sp))
                    - action_value(minus, solve_bvp(minus, a, b, grid, guess=sp))
                ) / (2.0 * h)
                npt.assert_allclose(sens.d_coeff[k], fd_c, rtol=1e-6, atol=1e-9)

            hb = 1e-5 * max(1.0, abs(b))
            fd_x = (
                action_value(params, solve_bvp(params, a, b + hb, grid, guess=sp))
                - action_value(params, solve_bvp(params, a, b - hb, grid, guess=sp))
            ) / (2.0 * hb)
            npt.assert_allclose(sens.d_x, fd_x, rtol=1e-6, atol=1e-9)

            fd_t = time_derivative_fd(params, a, b, grid, guess=traj)
            npt.assert_allclose(sens.d_time, fd_t, rtol=1e-6, atol=1e-9)


def test_second_endpoint_derivative_matches_fd():
    grid = TimeGrid(1.3, intervals=800)
    traj = solve_bvp(STANDARD, 0.8, 2.5, grid)
    sens = sensitivities(STANDARD, traj)
    h = 1e-3
    s0 = action_value(STANDARD, traj)
    sp = action_value(STANDARD, solve_bvp(STANDARD, 0.8, 2.5 + h, grid, guess=traj))
    sm = action_value(STANDARD, solve_bvp(STANDARD, 0.8, 2.5 - h, grid, guess=traj))
    fd2 = (sp - 2.0 * s0 + sm) / h**2
    assert sens.d_xx == pytest.approx(fd2, rel=1e-6)


def test_d_coeff_constant_term_equals_duration():
    params = _rebuilt(HARMONIC, coeff=(0, 0.2))
    traj = solve_bvp(params, 0.4, 1.1, TimeGrid(0.9, intervals=200))
    sens = sensitivities(params, traj)
    assert sens.d_coeff[0] == pytest.approx(0.9, rel=1e-14)


def test_energy_drift_of_exact_and_converged_trajectories():
    # centred velocities leave an O(dt^2) spread even on the exact path
    d500 = conserved_energy_drift(
        HARMONIC, _sampled(harmonic_path, TimeGrid(1.0, intervals=500))
    )
    d2000 = conserved_energy_drift(
        HARMONIC, _sampled(harmonic_path, TimeGrid(1.0, intervals=2000))
    )
    assert d500 <= 2e-7
    assert d2000 <= 1e-8
    assert 14.0 <= d500 / d2000 <= 18.0  # second order: factor 16 per 4x refinement

    fine = solve_bvp(HARMONIC, 1.0, 1.0, TimeGrid(1.0, intervals=8000))
    assert conserved_energy_drift(HARMONIC, fine) <= 1e-8


def _sampled(path_fn, grid: TimeGrid) -> Trajectory:
    x = path_fn(grid)
    return Trajectory(grid, float(x[0]), float(x[-1]), x, 0, 0.0, 0.0)


def test_unconverged_trajectory_has_large_drift():
    grid = TimeGrid(1.0, intervals=400)
    straight = np.linspace(0.8, 2.5, grid.n_points)
    rough = Trajectory(grid, 0.8, 2.5, straight, 0, 1.0, 1.0)
    rough_drift = conserved_energy_drift(STANDARD, rough)
    assert rough_drift > 1e-4
    solved_drift = conserved_energy_drift(STANDARD, solve_bvp(STANDARD, 0.8, 2.5, grid))
    assert solved_drift < 1e-4 and rough_drift / solved_drift > 1e4


def test_warm_start_reuses_solution():
    grid = TimeGrid(1.3, intervals=400)
    cold = solve_bvp(STANDARD, 0.8, 2.5, grid)
    lo, hi = neighbour_pair(STANDARD, cold)
    assert lo.end == pytest.approx(2.5 - 2.5e-3) and hi.end == pytest.approx(2.5 + 2.5e-3)
    assert max(lo.iterations, hi.iterations) <= cold.iterations
    # resampling a coarse solution onto a finer grid must also converge fast
    fine = solve_bvp(STANDARD, 0.8, 2.5, TimeGrid(1.3, intervals=800), guess=cold)
    assert fine.iterations <= cold.iterations


def test_solver_validation_and_failure():
    grid = TimeGrid(1.0, intervals=50)
    with pytest.raises(ValueError):
        solve_bvp(STANDARD, -1.0, 2.0, grid)
    with pytest.raises(ValueError):
        solve_bvp(STANDARD, 1.0, 0.0, grid)
    with pytest.raises(ValueError):
        solve_bvp(STANDARD, 1.0, 2.0, grid, guess=np.ones(7))
    hard = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({4: 1.0}), domain=Domain.FULL_LINE
    )
    with pytest.raises(SolverError):
        solve_bvp(hard, -2.0, 2.0, TimeGrid(3.0, intervals=200), max_iter=1)


def test_action_is_stationary_under_perturbation():
    grid = TimeGrid(1.3, intervals=800)
    traj = solve_bvp(STANDARD, 0.8, 2.5, grid)
    s0 = action_value(STANDARD, traj)
    bump = np.sin(np.pi * grid.times() / grid.duration)

    def shifted(eps):
        moved = Trajectory(grid, traj.start, traj.end, traj.positions + eps * bump, 0, 0.0, 0.0)
        return action_value(STANDARD, moved) - s0

    d1, d2 = shifted(1e-3), shifted(2e-3)
    assert d1 > 0.0  # minimum, not saddle, for this potential
    assert d2 / d1 == pytest.approx(4.0, abs=0.01)


def test_two_point_grid_is_trivial():
    traj = solve_bvp(STANDARD, 1.0, 2.0, TimeGrid(0.5, intervals=1))
    npt.assert_allclose(traj.positions, [1.0, 2.0])
    assert traj.iterations == 0


# --- batched relaxation: bit-identity with one-path-at-a-time solves ---------


def _reference_solve(params, start, end, grid, guess=None, tol=1e-12, max_iter=200):
    """The damped Newton relaxation of one path, written out directly.

    Uses model's potential functions and scipy's LAPACK routines, one path at a
    time: each Newton step is dptsv (pttrf and pttrs) on -J, or gtsv through
    solve_banded where -J is not positive definite. A full step within tol is
    the last one, taken without the residual it lands on. Returns
    (trajectory, number of step halvings, those that keep the iterate
    positive included) or raises SolverError with the messages of
    solve_paths.
    """
    half_line = params.domain is Domain.HALF_LINE
    m, hbar, step = params.mass, params.hbar, grid.step

    def residual(x):
        lap = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / step**2
        return m * lap - hbar**2 * potential_derivative(params.potential, x[1:-1])

    if guess is None:
        x = np.linspace(start, end, grid.n_points)
    elif isinstance(guess, Trajectory):
        src_t = np.linspace(0.0, 1.0, guess.grid.n_points)
        x = np.interp(np.linspace(0.0, 1.0, grid.n_points), src_t, guess.positions)
    else:
        x = np.array(guess, dtype=float)
    x[0], x[-1] = start, end
    if half_line and np.any(x[1:-1] <= 0.0):
        x[1:-1] = np.abs(x[1:-1]) + 1e-12
    resid = residual(x)
    res_norm = float(np.max(np.abs(resid)))
    halvings = 0
    for iteration in range(1, max_iter + 1):
        diag = -2.0 * m / step**2 - hbar**2 * potential_second_derivative(
            params.potential, x[1:-1]
        )
        off = np.full(len(diag) - 1, m / step**2)
        _, _, delta, info = dptsv(-diag, -off, resid[:, None])
        delta = delta[:, 0]
        if info != 0:
            band = np.array([np.r_[0.0, off], diag, np.r_[off, 0.0]])
            delta = solve_banded((1, 1), band, -resid, check_finite=False)
        delta_norm = float(np.max(np.abs(delta)))
        scale = 1.0
        while True:
            trial = x[1:-1] + scale * delta
            if half_line and np.any(trial <= 0.0):
                halvings += 1
                scale *= 0.5
                if scale < 1e-14:
                    raise SolverError(
                        f"step underflow keeping iterate positive (residual {res_norm:.3e})"
                    )
                continue
            x_try = x.copy()
            x_try[1:-1] = trial
            if scale == 1.0 and delta_norm <= tol:
                return Trajectory(grid, start, end, x_try, iteration, delta_norm, res_norm), halvings
            resid_try = residual(x_try)
            res_try = float(np.max(np.abs(resid_try)))
            if res_try < res_norm * (1.0 - 1e-4 * scale) or scale * delta_norm <= tol:
                break
            halvings += 1
            scale *= 0.5
            if scale < 1e-14:
                raise SolverError(
                    f"line search stalled at residual {res_norm:.3e} after {iteration} iterations"
                )
        x, resid, res_norm = x_try, resid_try, res_try
        if scale * delta_norm <= tol:
            traj = Trajectory(grid, start, end, x, iteration, scale * delta_norm, res_norm)
            return traj, halvings
    raise SolverError(
        f"no convergence in {max_iter} iterations; last residual {res_norm:.3e}, "
        f"last step {delta_norm:.3e}"
    )


def _reference_action(params, traj):
    step = traj.grid.step
    dx = np.diff(traj.positions)
    kinetic = params.mass * float(np.sum(dx * dx)) / (2.0 * params.hbar**2 * step)
    v = potential_value(params.potential, traj.positions)
    return kinetic + step * float(np.sum(v[:-1] + v[1:])) * 0.5


def _assert_same_path(got, want):
    assert (got.start, got.end) == (want.start, want.end)
    assert np.array_equal(got.positions, want.positions)
    assert got.iterations == want.iterations
    assert got.step_norm == want.step_norm
    assert got.el_residual == want.el_residual


def _nudged(params, factor):
    return ActionParams(
        mass=params.mass * factor,
        hbar=params.hbar,
        potential=PotentialSpec({k: v * factor for k, v in params.potential.coefficients.items()}),
        domain=params.domain,
    )


@pytest.mark.parametrize("params", [HARMONIC, STANDARD], ids=["harmonic", "inverse_square"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_solve_paths_matches_per_path_solves(params, warm):
    rng = np.random.default_rng(11)
    low, high = (0.4, 3.0) if params.domain is Domain.HALF_LINE else (-1.5, 1.5)
    pairs = [tuple(rng.uniform(low, high, size=2)) for _ in range(7)]
    grid = TimeGrid(1.3, intervals=400)
    guesses = solve_paths(_nudged(params, 1.02), pairs, grid) if warm else None
    batch = solve_paths(params, pairs, grid, guesses.positions if warm else None)
    assert len(batch) == len(pairs)
    for idx, (a, b) in enumerate(pairs):
        guess = guesses[idx] if warm else None
        want, halvings = _reference_solve(params, a, b, grid, guess)
        _assert_same_path(batch[idx], want)
        assert batch.line_search_halvings[idx] == halvings
        _assert_same_path(solve_bvp(params, a, b, grid, guess=guess), want)
    if warm:
        assert max(batch.iterations) < max(guesses.iterations)


def test_action_values_match_action_value():
    grid = TimeGrid(1.3, intervals=400)
    trajs = solve_paths(STANDARD, [(0.8, 2.5), (1.0, 1.0), (2.0, 0.6)], grid)
    values = action_values(STANDARD, trajs)
    for traj, value in zip(trajs, values):
        assert value == action_value(STANDARD, traj) == _reference_action(STANDARD, traj)
    assert action_values(STANDARD, solve_paths(STANDARD, [], grid)).shape == (0,)


def test_batch_with_positivity_halving():
    # a negative quartic term makes V'' change sign, so a Newton step from
    # the flat guess overshoots below zero and must be halved
    params = ActionParams(1.0, 1.0, PotentialSpec({2: 0.1, -2: 0.004, 4: -0.8}))
    grid = TimeGrid(0.3, intervals=100)
    pairs = [(0.5, 0.6), (0.03, 0.07), (0.4, 0.2), (0.3, 0.5)]
    # the last guess crosses zero and is reflected into the half-line first
    guesses = [None, np.full(grid.n_points, 3.0), None, np.linspace(-0.5, 0.5, grid.n_points)]
    batch = solve_paths(params, pairs, grid, _starts(grid, pairs, guesses))
    halvings = []
    for traj, (a, b), guess in zip(batch, pairs, guesses):
        want, count = _reference_solve(params, a, b, grid, guess)
        _assert_same_path(traj, want)
        halvings.append(count)
    assert halvings[1] > 0 and halvings[0] == halvings[2] == 0
    assert batch.line_search_halvings.tolist() == halvings


def _starts(grid, pairs, guesses):
    """A start array for solve_paths: row i is guesses[i], or the straight line of
    pairs[i] where guesses[i] is None, as the start of a cold solve."""
    return np.array([
        np.linspace(a, b, grid.n_points) if guess is None else guess
        for (a, b), guess in zip(pairs, guesses)
    ])


def _assert_start_kept(start: np.ndarray, before: np.ndarray):
    """solve_paths only reads its start, failed or not: the same values, NaNs included."""
    assert np.array_equal(start, before, equal_nan=True)


def test_batch_with_failing_path():
    grid = TimeGrid(1.3, intervals=200)
    pairs = [(0.8, 2.5), (1.0, 1.2), (0.6, 1.9), (2.0, 2.2), (1.5, 0.7)]
    # a NaN start makes the line search stall at once (NaN residual)
    start = _starts(grid, pairs, [None, None, np.full(grid.n_points, np.nan), None, None])
    before = start.copy()
    with pytest.raises(SolverError) as batch_error:
        solve_paths(STANDARD, pairs, grid, start)
    with pytest.raises(SolverError) as path_error:
        _reference_solve(STANDARD, *pairs[2], grid, before[2])
    assert str(batch_error.value) == str(path_error.value)
    assert "after 1 iterations" in str(batch_error.value)
    _assert_start_kept(start, before)

    # non-convergence: warm paths finish within the budget, the cold one not
    warm = solve_paths(STANDARD, pairs, grid)
    start = _starts(grid, pairs, [warm[0].positions, warm[1].positions, None,
                                  warm[3].positions, warm[4].positions])
    with pytest.raises(SolverError, match="no convergence in 2 iterations") as batch_error:
        solve_paths(STANDARD, pairs, grid, start, max_iter=2)
    with pytest.raises(SolverError) as path_error:
        _reference_solve(STANDARD, *pairs[2], grid, max_iter=2)
    assert str(batch_error.value) == str(path_error.value)


def test_failure_in_a_later_block():
    grid = TimeGrid(0.8, intervals=100)
    ends = np.linspace(0.6, 3.0, BLOCK_PATHS + 6)
    pairs = [(1.1, float(b)) for b in ends]
    bad = BLOCK_PATHS + 3
    start = _starts(grid, pairs, [None] * len(pairs))
    start[bad] = np.nan
    before = start.copy()
    with pytest.raises(SolverError) as error:
        solve_paths(STANDARD, pairs, grid, start)
    with pytest.raises(SolverError) as path_error:
        _reference_solve(STANDARD, *pairs[bad], grid, before[bad])
    assert str(error.value) == str(path_error.value)
    # the first block was solved, but nothing of it reaches the start
    _assert_start_kept(start, before)
    full = solve_paths(STANDARD, pairs, grid)
    for traj, (a, b) in zip(full, pairs):
        _assert_same_path(traj, _reference_solve(STANDARD, a, b, grid)[0])


def test_singular_newton_matrix_raises_solver_error():
    # V'' = -2 / dt^2 zeroes the diagonal of J: tridiag(c, 0, c) is singular
    # for an odd number of interior points and regular for an even one
    for intervals in (4, 5, 6, 7):
        dt = 1.0 / intervals
        params = ActionParams(1.0, 1.0, PotentialSpec({2: -1.0 / dt**2}), domain=Domain.FULL_LINE)
        grid = TimeGrid(1.0, intervals=intervals)
        for pairs in ([(0.0, 1.0)], [(0.0, 1.0), (0.5, -0.3)]):
            if intervals % 2:
                assert len(solve_paths(params, pairs, grid)) == len(pairs)
                continue
            with pytest.raises(SolverError, match="singular"):
                solve_paths(params, pairs, grid)
    # V'' = -8 + 12 x^2 with dt = 0.5: J = tridiag(4, -12 x_i^2, 4) is singular
    # on the path at rest at 0; the warm starts of the paths around it stay
    params = ActionParams(1.0, 1.0, PotentialSpec({2: -4.0, 4: 1.0}), domain=Domain.FULL_LINE)
    grid = TimeGrid(2.0, intervals=4)
    pairs = [(0.3, 0.5), (0.0, 0.0), (0.2, 0.1)]
    start = _starts(grid, pairs, [solve_bvp(params, 0.3, 0.6, grid).positions, None,
                                  solve_bvp(params, 0.2, 0.2, grid).positions])
    before = start.copy()
    with pytest.raises(SolverError, match="singular"):
        solve_paths(params, pairs, grid, start)
    _assert_start_kept(start, before)


def test_one_point_zero_pivot_raises_solver_error():
    # a 1x1 system is a division; its zero pivot is as singular as gtsv's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular"):
            _solve_tridiagonal(1.0, np.zeros((1, 1)), np.ones((1, 1)))
        np.testing.assert_array_equal(
            _solve_tridiagonal(1.0, np.full((1, 1), 4.0), np.ones((1, 1))), [[0.25]]
        )


def test_solve_paths_validation():
    grid = TimeGrid(1.0, intervals=50)
    with pytest.raises(ValueError, match="positive"):
        solve_paths(STANDARD, [(1.0, 2.0), (1.0, -2.0)], grid)
    with pytest.raises(ValueError, match=r"start has shape \(2, 51\), the paths need \(1, 51\)"):
        solve_paths(STANDARD, [(1.0, 2.0)], grid, np.ones((2, grid.n_points)))
    assert len(solve_paths(STANDARD, [], grid)) == 0


def test_failed_fit_evaluation_leaves_cache_as_it_was():
    table = build_table(STANDARD, BoundarySet((1.0, 2.0), (1.2, 1.8, 2.6)), 1.0)
    grid = TimeGrid(1.0, intervals=200)
    init = ActionParams(1.0, 1.0, PotentialSpec({0: 0.0, 2: 0.5, -2: 1.0}))
    objective = _Objective(table, [0, 2, -2], init, grid)
    objective.evaluate(init)
    start = objective.start
    start.positions[3] = np.nan
    before = start.positions.copy()
    q = _nudged(init, 1.01)
    for idx, (a, b) in enumerate(objective.pairs):  # the first failure of a per-path loop
        try:
            _reference_solve(q, a, b, grid, before[idx])
        except SolverError as exc:
            message = str(exc)
            break
    with pytest.raises(SolverError) as error:
        objective.evaluate(q)
    assert str(error.value) == message
    assert objective.start is start
    _assert_start_kept(start.positions, before)
    assert sum_of_squares(objective, np.full(len(objective.center), 0.01)) == math.inf


@pytest.mark.parametrize("poisoned", [4], ids=["path"])
def test_failed_flow_stage_leaves_cache_as_it_was(poisoned):
    params = ActionParams(1.0, 1.0, PotentialSpec({0: 0.1, 2: 0.5, -2: 1.0}))
    state = FlowState(beta=1.0, params=params, log_norm=0.0, initial_point=1.5,
                      final_points=tuple(np.linspace(0.5, 3.0, 8)))
    grid = TimeGrid(1.0, intervals=200)
    start = assemble_system(state, STANDARD, 200)[2].positions
    start[poisoned] = np.nan
    before = start.copy()
    state = dataclasses.replace(state, params=_nudged(params, 1.01))
    for j, x_f in enumerate(state.final_points):  # the first failure of a per-point loop
        try:
            _reference_solve(state.params, 1.5, x_f, grid, before[j])
        except SolverError as exc:
            message = str(exc)
            break
    with pytest.raises(SolverError) as error:
        assemble_system(state, STANDARD, 200, start)
    assert str(error.value) == message
    _assert_start_kept(start, before)


def _history_snapshot(history):
    """The Paths a PathHistory holds, copies of their positions and its counts."""
    return (history.prev, history.last, history.prev.positions.copy(),
            history.last.positions.copy(), history.path_solves, history.newton_iterations)


def _assert_history_kept(history, snapshot):
    """The same Paths objects, their positions unchanged, and the same counts."""
    prev, last, prev_positions, last_positions, solves, iterations = snapshot
    assert history.prev is prev and history.last is last
    _assert_start_kept(prev.positions, prev_positions)
    _assert_start_kept(last.positions, last_positions)
    assert (history.path_solves, history.newton_iterations) == (solves, iterations)


def _history_state():
    params = ActionParams(1.0, 1.0, PotentialSpec({0: 0.1, 2: 0.5, -2: 1.0}))
    state = FlowState(beta=0.95, params=params, log_norm=0.0, initial_point=1.5,
                      final_points=tuple(np.linspace(0.5, 3.0, 8)))
    history = PathHistory()
    # stages at 0.95, 0.975, 0.975 and 1.0: the history keeps 0.975 and 1.0
    state, _ = flow.step(state, STANDARD, 0.05, 200, history)
    return state, history


@pytest.mark.parametrize("poisoned", ["last", "prev"])
def test_failed_flow_stage_leaves_history_as_it_was(poisoned):
    # a stage at beta_last starts from the last paths, a later one from their
    # extrapolation; a NaN path stalls the line search either way
    state, history = _history_state()
    assert [history.prev.grid.duration, history.last.grid.duration] == [0.975, 1.0]
    getattr(history, poisoned).positions[4] = np.nan
    beta = {"last": 1.0, "prev": 1.0125}[poisoned]
    starts = history.starts(beta)
    snapshot = _history_snapshot(history)
    grid = TimeGrid(beta, intervals=200)
    for j, x_f in enumerate(state.final_points):  # the first failure of a per-point loop
        try:
            _reference_solve(state.params, 1.5, x_f, grid, starts[j])
        except SolverError as exc:
            message = str(exc)
            break
    with pytest.raises(SolverError) as error:
        flow._rates_for(state, STANDARD, beta, flow._vector_of(state), 200, history)
    assert str(error.value) == message
    _assert_history_kept(history, snapshot)


def test_rejected_stage_leaves_history_as_it_was(monkeypatch):
    # k3 assembles its system but is rejected for its condition: the history
    # keeps what k1 and k2 put there
    state, history = _history_state()
    real_solve_rates = flow.solve_rates
    stages = []

    def third_rejected(a_mat, rhs):
        rates, diag = real_solve_rates(a_mat, rhs)
        stages.append(_history_snapshot(history))
        if len(stages) == 3:
            diag = dataclasses.replace(diag, condition=math.inf)
        return rates, diag

    monkeypatch.setattr(flow, "solve_rates", third_rejected)
    with pytest.raises(StepRejected, match="condition inf"):
        flow.step(state, STANDARD, 0.05, 200, history)
    _assert_history_kept(history, stages[2])
    assert [history.prev.grid.duration, history.last.grid.duration] == [1.0, 1.025]
    assert history.path_solves == 6 * len(state.final_points)


def test_a_stage_at_beta_last_leaves_the_paths_it_starts_from_unchanged():
    # at beta_last the history hands its last positions themselves to
    # solve_paths; the stage must only read them, and the previous ones too
    state, history = _history_state()
    last, prev = history.last, history.prev
    assert history.starts(1.0) is last.positions
    last_before, prev_before = last.positions.copy(), prev.positions.copy()
    flow._rates_for(state, STANDARD, 1.0, flow._vector_of(state), 200, history)
    assert history.prev is prev and history.last is not last
    assert np.array_equal(last.positions, last_before)
    assert np.array_equal(prev.positions, prev_before)


# V'' = -8 + 12 x^2 is about -8 near 0, where -J = tridiag(-c, 2c + V'', -c)
# has a negative pivot once c = m / dt^2 < 4
DOUBLE_WELL = ActionParams(1.0, 1.0, PotentialSpec({2: -4.0, 4: 1.0}), domain=Domain.FULL_LINE)


def _jacobi_case(case):
    """(params, positions of the paths, step)."""
    if case == "definite":  # V'' > 0 keeps J diagonally dominant: the factor gives the gtsv bits
        grid = TimeGrid(1.0, intervals=500)
        paths = solve_paths(STANDARD, [(1.5, 0.5), (1.5, 2.0), (0.8, 3.0)], grid)
        return STANDARD, paths.positions, grid.step
    x = np.array([[0.1, 0.0, 0.05, -0.02, 0.1, 0.2], [0.3, 0.2, 0.1, 0.0, -0.1, -0.1]])
    return DOUBLE_WELL, x, 0.6


def _counted_solves(monkeypatch):
    """Count the gtsv and pttrs calls of trajectory from here on."""
    calls = {"gtsv": 0, "pttrs": 0}
    real_gtsv, real_pttrs = trajectory._solve_tridiagonal, trajectory.dpttrs

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(trajectory, "_solve_tridiagonal", counted("gtsv", real_gtsv))
    monkeypatch.setattr(trajectory, "dpttrs", counted("pttrs", real_pttrs))
    return calls


@pytest.mark.parametrize("case", ["definite", "indefinite"])
def test_jacobi_solves_share_one_factor_or_fall_back_to_gtsv(case, monkeypatch):
    # two solves, y3_last from the symmetry of J, give the bits of three;
    # the fallback solves each path alone
    params, x, step = _jacobi_case(case)
    want = three_solve_d_xx(params, x, step)
    calls = _counted_solves(monkeypatch)
    got = trajectory._endpoint_curvature(params, x, step)
    assert calls == ({"gtsv": 0, "pttrs": 2} if case == "definite"
                     else {"gtsv": 2 * len(x), "pttrs": 0})
    assert np.array_equal(got, want)


def test_objective_residuals_match_per_path_loop():
    table = build_table(STANDARD, BoundarySet((1.0, 2.0), (1.2, 1.8, 2.6)), 1.0)
    grid = TimeGrid(1.0, intervals=300)
    init = ActionParams(1.0, 1.0, PotentialSpec({0: 0.0, 2: 0.5, -2: 1.0}))
    objective = _Objective(table, [0, 2, -2], init, grid)
    cache = {}
    rng = np.random.default_rng(5)
    for _ in range(4):
        q = objective.params_from(rng.uniform(-0.05, 0.05, size=len(objective.center)))
        residuals, log_norm, _ = objective.evaluate(q)
        sig = np.empty(len(objective.pairs))
        for idx, (a, b) in enumerate(objective.pairs):
            cache[idx], _ = _reference_solve(q, a, b, grid, cache.get(idx))
            sig[idx] = _reference_action(q, cache[idx])
        want_norm = float(np.mean(objective.log_g + sig))
        assert log_norm == want_norm
        assert np.array_equal(residuals, objective.log_g + sig - want_norm)


def test_a_first_full_step_within_tol_ends_without_its_residual(monkeypatch):
    # restarted from its own solution, every path converges in one full step,
    # which is taken without evaluating the residual it lands on
    grid = TimeGrid(1.3, intervals=400)
    pairs = [(0.8, 2.5), (1.0, 1.2), (2.0, 0.6)]
    solved = solve_paths(STANDARD, pairs, grid)
    calls = []
    real_residual = trajectory._Relaxation.residual

    def counted(self, x, out):
        calls.append(len(x))
        return real_residual(self, x, out)

    monkeypatch.setattr(trajectory._Relaxation, "residual", counted)
    again = solve_paths(STANDARD, pairs, grid, solved.positions)
    assert calls == [len(pairs)]  # the residual of the start, and none after the step
    assert again.iterations.tolist() == [1, 1, 1]
    assert np.all(again.step_norm <= trajectory.DEFAULT_TOL)
    assert again.line_search_halvings.tolist() == [0, 0, 0]
    for idx, (a, b) in enumerate(pairs):
        want, halvings = _reference_solve(STANDARD, a, b, grid, solved.positions[idx])
        _assert_same_path(again[idx], want)
        # el_residual is that of the start, the iterate the step was taken from
        assert want.el_residual == np.max(np.abs(_reference_residual(STANDARD, solved[idx])))


def _reference_residual(params, traj):
    x, step = traj.positions, traj.grid.step
    lap = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / step**2
    return params.mass * lap - params.hbar**2 * potential_derivative(params.potential, x[1:-1])


def test_jacobi_fallback_solves_each_path_as_alone(monkeypatch):
    # -J is indefinite on the first and last rows and positive definite, but
    # not diagonally dominant, on the middle one: the fallback factors that
    # row alone, so every row gets the bits of its own d_xx
    x = np.array([[0.1, 0.0, 0.05, -0.02, 0.1, 0.2],
                  [0.8, 0.81, 0.8, 0.79, 0.8, 0.82],
                  [0.3, 0.2, 0.1, 0.0, -0.1, -0.1]])
    alone = [trajectory._endpoint_curvature(DOUBLE_WELL, x[i : i + 1], 0.6)[0] for i in range(3)]
    calls = _counted_solves(monkeypatch)
    got = trajectory._endpoint_curvature(DOUBLE_WELL, x, 0.6)
    assert calls == {"gtsv": 2 * 2, "pttrs": 2}
    assert got.tolist() == alone


def test_batch_mixing_gtsv_and_factored_steps_matches_paths_alone(monkeypatch):
    # on the double well -J is indefinite near 0 for a coarse step, so the
    # outer paths take every Newton step by gtsv, while -J of the middle one
    # stays positive definite; each path, d_xx included, is the path alone
    grid = TimeGrid(2.4, intervals=4)
    pairs = [(0.1, 0.2), (1.8, 2.2), (0.3, -0.1)]
    calls = _counted_solves(monkeypatch)
    batch = solve_paths(DOUBLE_WELL, pairs, grid)
    assert calls["gtsv"] == sum(batch.iterations[[0, 2]])  # one per row of each fallback
    d_xx = path_sensitivities(DOUBLE_WELL, batch).d_xx
    for idx, (a, b) in enumerate(pairs):
        want, halvings = _reference_solve(DOUBLE_WELL, a, b, grid)
        _assert_same_path(batch[idx], want)
        assert batch.line_search_halvings[idx] == halvings
        alone = solve_paths(DOUBLE_WELL, [(a, b)], grid)
        assert np.array_equal(alone.positions[0], batch.positions[idx])
        assert sensitivities(DOUBLE_WELL, alone[0]).d_xx == d_xx[idx]
