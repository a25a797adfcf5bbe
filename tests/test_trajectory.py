import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import solve_banded

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
    sensitivities,
    solve_bvp,
    solve_cached,
    solve_paths,
)
from references import (
    conserved_energy_drift,
    neighbour_pair,
    sum_of_squares,
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
    grid = TimeGrid(2.0, points_per_unit=250.0)
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
            TimeGrid(bad)
    with pytest.raises(ValueError):
        TimeGrid(1.0, points_per_unit=0.0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, intervals=0)
    with pytest.raises(ValueError, match="one of intervals and points_per_unit"):
        TimeGrid(1.0, points_per_unit=250.0, intervals=100)


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

    Uses model's potential functions and scipy's solve_banded, one path at a
    time. Returns (trajectory, number of positivity halvings) or raises
    SolverError with the messages of solve_paths.
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
        band = np.zeros((3, len(x) - 2))
        band[0, 1:] = m / step**2
        band[2, :-1] = m / step**2
        band[1, :] = -2.0 * m / step**2 - hbar**2 * potential_second_derivative(
            params.potential, x[1:-1]
        )
        delta = solve_banded((1, 1), band, -resid, check_finite=False, overwrite_b=True)
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
            resid_try = residual(x_try)
            res_try = float(np.max(np.abs(resid_try)))
            if res_try < res_norm * (1.0 - 1e-4 * scale) or scale * delta_norm <= tol:
                break
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


def _poisoned(grid):
    """A guess that makes the line search stall at once (NaN residual)."""
    return Trajectory(grid, 1.0, 1.0, np.full(grid.n_points, np.nan), 0, 0.0, 0.0)


@pytest.mark.parametrize("params", [HARMONIC, STANDARD], ids=["harmonic", "inverse_square"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_solve_paths_matches_per_path_solves(params, warm):
    rng = np.random.default_rng(11)
    low, high = (0.4, 3.0) if params.domain is Domain.HALF_LINE else (-1.5, 1.5)
    pairs = [tuple(rng.uniform(low, high, size=2)) for _ in range(7)]
    grid = TimeGrid(1.3, intervals=400)
    guesses = solve_paths(_nudged(params, 1.02), pairs, grid) if warm else None
    batch = solve_paths(params, pairs, grid, guesses)
    assert len(batch) == len(pairs)
    for idx, (a, b) in enumerate(pairs):
        guess = guesses[idx] if warm else None
        want, _ = _reference_solve(params, a, b, grid, guess)
        _assert_same_path(batch[idx], want)
        _assert_same_path(solve_bvp(params, a, b, grid, guess=guess), want)
    if warm:
        assert max(t.iterations for t in batch) < max(t.iterations for t in guesses)


def test_action_values_match_action_value():
    grid = TimeGrid(1.3, intervals=400)
    trajs = solve_paths(STANDARD, [(0.8, 2.5), (1.0, 1.0), (2.0, 0.6)], grid)
    values = action_values(STANDARD, trajs)
    for traj, value in zip(trajs, values):
        assert value == action_value(STANDARD, traj) == _reference_action(STANDARD, traj)
    assert action_values(STANDARD, []).shape == (0,)
    other = solve_bvp(STANDARD, 0.8, 2.5, TimeGrid(1.0, intervals=400))
    with pytest.raises(ValueError, match="one time grid"):
        action_values(STANDARD, [trajs[0], other])


def test_batch_with_positivity_halving():
    # a negative quartic term makes V'' change sign, so a Newton step from
    # the flat guess overshoots below zero and must be halved
    params = ActionParams(1.0, 1.0, PotentialSpec({2: 0.1, -2: 0.004, 4: -0.8}))
    grid = TimeGrid(0.3, intervals=100)
    pairs = [(0.5, 0.6), (0.03, 0.07), (0.4, 0.2), (0.3, 0.5)]
    # the last guess crosses zero and is reflected into the half-line first
    guesses = [None, np.full(grid.n_points, 3.0), None, np.linspace(-0.5, 0.5, grid.n_points)]
    batch = solve_paths(params, pairs, grid, guesses)
    halvings = []
    for traj, (a, b), guess in zip(batch, pairs, guesses):
        want, count = _reference_solve(params, a, b, grid, guess)
        _assert_same_path(traj, want)
        halvings.append(count)
    assert halvings[1] > 0 and halvings[0] == halvings[2] == 0


def _assert_cache_kept(cache: dict, before: dict):
    """A failed solve_cached leaves the same keys and the same objects."""
    assert cache.keys() == before.keys()
    assert all(cache[key] is before[key] for key in before)


def test_batch_with_failing_path():
    grid = TimeGrid(1.3, intervals=200)
    pairs = [(0.8, 2.5), (1.0, 1.2), (0.6, 1.9), (2.0, 2.2), (1.5, 0.7)]
    cache = {2: _poisoned(grid)}
    before = dict(cache)
    with pytest.raises(SolverError) as batch_error:
        solve_cached(STANDARD, pairs, grid, cache)
    with pytest.raises(SolverError) as path_error:
        _reference_solve(STANDARD, *pairs[2], grid, before[2])
    assert str(batch_error.value) == str(path_error.value)
    assert "after 1 iterations" in str(batch_error.value)
    _assert_cache_kept(cache, before)

    # non-convergence: warm paths finish within the budget, the cold one not
    warm = solve_paths(STANDARD, pairs, grid)
    guesses = [warm[0], warm[1], None, warm[3], warm[4]]
    with pytest.raises(SolverError, match="no convergence in 2 iterations") as batch_error:
        solve_paths(STANDARD, pairs, grid, guesses, max_iter=2)
    with pytest.raises(SolverError) as path_error:
        _reference_solve(STANDARD, *pairs[2], grid, max_iter=2)
    assert str(batch_error.value) == str(path_error.value)


def test_failure_in_a_later_block():
    grid = TimeGrid(0.8, intervals=100)
    ends = np.linspace(0.6, 3.0, BLOCK_PATHS + 6)
    pairs = [(1.1, float(b)) for b in ends]
    bad = BLOCK_PATHS + 3
    cache = {bad: _poisoned(grid)}
    before = dict(cache)
    with pytest.raises(SolverError) as error:
        solve_cached(STANDARD, pairs, grid, cache)
    with pytest.raises(SolverError) as path_error:
        _reference_solve(STANDARD, *pairs[bad], grid, before[bad])
    assert str(error.value) == str(path_error.value)
    # the first block was solved, but nothing of the failed batch is stored
    _assert_cache_kept(cache, before)
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
    cache = {0: solve_bvp(params, 0.3, 0.6, grid), 2: solve_bvp(params, 0.2, 0.2, grid)}
    before = dict(cache)
    with pytest.raises(SolverError, match="singular"):
        solve_cached(params, pairs, grid, cache)
    _assert_cache_kept(cache, before)


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
    with pytest.raises(ValueError, match="guesses"):
        solve_paths(STANDARD, [(1.0, 2.0)], grid, [None, None])
    assert solve_paths(STANDARD, [], grid) == []


def test_failed_fit_evaluation_leaves_cache_as_it_was():
    table = build_table(STANDARD, BoundarySet((1.0, 2.0), (1.2, 1.8, 2.6)), 1.0)
    grid = TimeGrid(1.0, intervals=200)
    init = ActionParams(1.0, 1.0, PotentialSpec({0: 0.0, 2: 0.5, -2: 1.0}))
    objective = _Objective(table, [0, 2, -2], init, grid)
    objective.evaluate(init)
    objective.cache[3] = _poisoned(grid)
    before = dict(objective.cache)
    q = _nudged(init, 1.01)
    for idx, (a, b) in enumerate(objective.pairs):  # the first failure of a per-path loop
        try:
            _reference_solve(q, a, b, grid, before.get(idx))
        except SolverError as exc:
            message = str(exc)
            break
    with pytest.raises(SolverError) as error:
        objective.evaluate(q)
    assert str(error.value) == message
    _assert_cache_kept(objective.cache, before)
    assert sum_of_squares(objective, np.full(len(objective.center), 0.01)) == math.inf


@pytest.mark.parametrize("poisoned", [4], ids=["path"])
def test_failed_flow_stage_leaves_cache_as_it_was(poisoned):
    params = ActionParams(1.0, 1.0, PotentialSpec({0: 0.1, 2: 0.5, -2: 1.0}))
    state = FlowState(beta=1.0, params=params, log_norm=0.0, initial_point=1.5,
                      final_points=tuple(np.linspace(0.5, 3.0, 8)))
    grid = TimeGrid(1.0, intervals=200)
    cache = {}
    assemble_system(state, STANDARD, 200, cache)
    cache[poisoned] = _poisoned(grid)
    before = dict(cache)
    state = dataclasses.replace(state, params=_nudged(params, 1.01))
    for j, x_f in enumerate(state.final_points):  # the first failure of a per-point loop
        try:
            _reference_solve(state.params, 1.5, x_f, grid, before.get(j))
        except SolverError as exc:
            message = str(exc)
            break
    with pytest.raises(SolverError) as error:
        assemble_system(state, STANDARD, 200, cache)
    assert str(error.value) == message
    _assert_cache_kept(cache, before)


def _history_snapshot(history):
    """The lists a PathHistory holds, their paths and its counts."""
    return (history.prev, history.last, list(history.prev), list(history.last),
            history.path_solves, history.newton_iterations)


def _assert_history_kept(history, snapshot):
    prev, last, prev_paths, last_paths, solves, iterations = snapshot
    assert history.prev is prev and history.last is last
    assert len(prev) == len(prev_paths) and all(a is b for a, b in zip(prev, prev_paths))
    assert len(last) == len(last_paths) and all(a is b for a, b in zip(last, last_paths))
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
    assert [history.prev[0].grid.duration, history.last[0].grid.duration] == [0.975, 1.0]
    paths = list(getattr(history, poisoned))
    paths[4] = _poisoned(paths[4].grid)
    setattr(history, poisoned, paths)
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
    assert [history.prev[0].grid.duration, history.last[0].grid.duration] == [1.0, 1.025]
    assert history.path_solves == 6 * len(state.final_points)


# V'' = -8 + 12 x^2 is about -8 near 0, where -J = tridiag(-c, 2c + V'', -c)
# has a negative pivot once c = m / dt^2 < 4
DOUBLE_WELL = ActionParams(1.0, 1.0, PotentialSpec({2: -4.0, 4: 1.0}), domain=Domain.FULL_LINE)


def _jacobi_case(case):
    """(params, positions of the paths, step)."""
    if case == "definite":  # V'' > 0 keeps J diagonally dominant: the factor gives the gtsv bits
        grid = TimeGrid(1.0, intervals=500)
        paths = solve_paths(STANDARD, [(1.5, 0.5), (1.5, 2.0), (0.8, 3.0)], grid)
        return STANDARD, np.stack([p.positions for p in paths]), grid.step
    x = np.array([[0.1, 0.0, 0.05, -0.02, 0.1, 0.2], [0.3, 0.2, 0.1, 0.0, -0.1, -0.1]])
    return DOUBLE_WELL, x, 0.6


@pytest.mark.parametrize("case", ["definite", "indefinite"])
def test_jacobi_solves_share_one_factor_or_fall_back_to_gtsv(case, monkeypatch):
    params, x, step = _jacobi_case(case)
    with monkeypatch.context() as patched:  # each Jacobi system solved by its own gtsv call
        patched.setattr(trajectory, "_jacobi_solver",
                        lambda c, diag: lambda rhs: _solve_tridiagonal(c, diag, rhs))
        want = trajectory._endpoint_curvature(params, x, step)
    calls = {"gtsv": 0, "pttrs": 0}
    real_gtsv, real_pttrs = trajectory._solve_tridiagonal, trajectory.dpttrs

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(trajectory, "_solve_tridiagonal", counted("gtsv", real_gtsv))
    monkeypatch.setattr(trajectory, "dpttrs", counted("pttrs", real_pttrs))
    got = trajectory._endpoint_curvature(params, x, step)
    assert calls == ({"gtsv": 0, "pttrs": 3} if case == "definite" else {"gtsv": 3, "pttrs": 0})
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
