import math

import numpy as np
import pytest

from qaction import flow
from qaction.fit import equidistant
from qaction.flow import (
    FlowState,
    FlowTrace,
    StepDiagnostics,
    StepRejected,
    assemble_system,
    run,
    solve_rates,
    step,
    write_trace_csv,
)
from scipy.linalg import solve_banded

from qaction.model import (
    ActionParams,
    Domain,
    PotentialSpec,
    evaluate_potential,
    potential_derivative,
    potential_second_derivative,
    potential_value,
)
from qaction.trajectory import (
    Paths,
    SolverError,
    TimeGrid,
    path_sensitivities,
    sensitivities,
    solve_paths,
)
from references import invariant_combination, neighbour_pair, pinned_v0_rates

HARMONIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE
)
STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))


def harmonic_state(beta=1.0):
    # exact normalisation of the euclidean oscillator kernel
    log_norm = 0.5 * math.log(1.0 / (2.0 * math.pi * math.sinh(beta)))
    return FlowState(
        beta=beta,
        params=HARMONIC,
        log_norm=log_norm,
        initial_point=0.2,
        final_points=equidistant(-1.0, 1.5, 8),
    )


def test_flow_state_validation():
    with pytest.raises(ValueError):
        FlowState(beta=0.0, params=HARMONIC, log_norm=0.0, initial_point=0.2,
                  final_points=equidistant(-1.0, 1.5, 8))
    with pytest.raises(ValueError, match="final points"):
        FlowState(beta=1.0, params=HARMONIC, log_norm=0.0, initial_point=0.2,
                  final_points=(1.0, 2.0, 3.0))
    assert harmonic_state().exponents() == [2]


def test_grid_policy(monkeypatch):
    # every stage of a step solves on the same interval count, at its own beta
    grids = []
    real_assemble = flow.assemble_system

    def recording(state, classical, intervals, start=None):
        grids.append((state.beta, intervals))
        return real_assemble(state, classical, intervals, start)

    monkeypatch.setattr(flow, "assemble_system", recording)
    step(harmonic_state(), HARMONIC, 0.5, intervals=300)
    assert [beta for beta, _ in grids] == [1.0, 1.25, 1.25, 1.5]
    assert [intervals for _, intervals in grids] == [300] * 4


def test_assemble_requires_matching_hbar():
    other = ActionParams(mass=1.0, hbar=2.0, potential=PotentialSpec({2: 0.5}),
                         domain=Domain.FULL_LINE)
    with pytest.raises(ValueError, match="hbar"):
        assemble_system(harmonic_state(), other, 200)


def test_harmonic_action_is_stationary():
    # exact quantum action: every row consistent, only ln Z~ flows
    state = harmonic_state()
    a_mat, rhs, _ = assemble_system(state, HARMONIC, 500)
    rates, diag = solve_rates(a_mat, rhs)
    exact_rate = -0.5 / math.tanh(1.0)
    assert rates[0] == pytest.approx(exact_rate, abs=2e-6)
    assert abs(rates[1]) < 1e-5  # mass
    assert abs(rates[2]) < 1e-5  # v_2
    assert diag.residual_norm < 1e-9
    assert diag.deficiency == 0


def test_harmonic_log_norm_evolution():
    state = harmonic_state()
    trace = run(state, HARMONIC, 1.2, dbeta=0.02, intervals=500, record_stride=1)
    last = trace.states[-1]
    assert last.beta == pytest.approx(1.2, abs=1e-12)
    exact_shift = -0.5 * (math.log(math.sinh(1.2)) - math.log(math.sinh(1.0)))
    assert last.log_norm - state.log_norm == pytest.approx(exact_shift, abs=2e-7)
    assert last.params.mass == pytest.approx(1.0, abs=1e-6)
    assert last.params.potential.coefficients[2] == pytest.approx(0.5, abs=1e-6)
    assert [round(s.beta, 10) for s in trace.states] == [
        round(1.0 + 0.02 * i, 10) for i in range(11)
    ]


def test_constant_ansatz_degeneracy_and_invariant():
    # fitted (not exact) parameters: rows disagree, but the gauge direction
    # between ln Z~ and v_0 is exact and the physical rates do not depend on
    # how it is resolved
    state = FlowState(
        beta=0.35,
        params=ActionParams(
            mass=0.99994533,
            hbar=1.0,
            potential=PotentialSpec({0: 1.1676274, 2: 0.4998810, -2: 1.2280919}),
        ),
        log_norm=0.0,
        initial_point=10.0,
        final_points=equidistant(0.2, 7.0, 30),
    )
    a_mat, rhs, _ = assemble_system(state, STANDARD, 500)
    r_min, d_min = solve_rates(a_mat, rhs)
    r_pin, d_pin = pinned_v0_rates(a_mat, rhs)
    assert d_min.deficiency == 1 and d_min.rank == 4
    assert d_pin.deficiency == 0 and d_pin.rank == 4
    exps = state.exponents()
    i_min = invariant_combination(0.35, r_min, exps)
    i_pin = invariant_combination(0.35, r_pin, exps)
    assert abs(i_min - i_pin) < 1e-10
    assert i_min == pytest.approx(1.4316340443, abs=1e-6)
    # physical rates agree; only the split differs
    assert abs(r_min[1] - r_pin[1]) < 1e-10
    for col, k in enumerate(exps):
        if k == 0:
            continue
        assert abs(r_min[2 + col] - r_pin[2 + col]) < 1e-10
    v0_col = 2 + exps.index(0)
    assert r_pin[v0_col] == 0.0
    assert abs(r_min[v0_col]) > 0.1
    with pytest.raises(ValueError):
        invariant_combination(0.35, r_min, [2, -2])


def test_solve_rates_synthetic_diagnostics():
    rng = np.random.default_rng(53)
    for _ in range(5):
        n = 9
        a_mat = np.column_stack([
            -np.ones(n),
            rng.normal(size=n),
            np.full(n, 0.7),  # constant column, parallel to the first
            rng.normal(size=n),
        ])
        rhs = rng.normal(size=n)
        r_min, d_min = solve_rates(a_mat, rhs)
        r_pin, d_pin = pinned_v0_rates(a_mat, rhs)
        assert d_min.deficiency == 1 and d_pin.deficiency == 0
        np.testing.assert_allclose(a_mat @ r_min, a_mat @ r_pin, atol=1e-12)
        assert abs(-r_min[0] + 0.7 * r_min[2] - (-r_pin[0])) < 1e-12
    no_const = np.column_stack([-np.ones(4), np.arange(4.0), np.arange(4.0) ** 2])
    with pytest.raises(ValueError, match="constant"):
        pinned_v0_rates(no_const, np.zeros(4))


def test_ill_conditioned_system_is_rejected():
    # x^2, x^4, x^6 over a hair-thin window: columns nearly collinear
    narrow = ActionParams(
        mass=1.0,
        hbar=1.0,
        potential=PotentialSpec({2: 0.5, 4: 0.05, 6: 0.005}),
        domain=Domain.FULL_LINE,
    )
    state = FlowState(beta=0.8, params=narrow, log_norm=0.0, initial_point=2.0,
                      final_points=equidistant(2.0, 2.0005, 8))
    with pytest.raises(StepRejected, match="condition"):
        step(state, narrow, 0.01, intervals=300)
    # halving cannot fix conditioning; run gives up after the retry budget
    with pytest.raises(SolverError, match="rejected"):
        run(state, narrow, 0.9, dbeta=0.01, intervals=300, record_stride=1)


def test_run_endpoint_handling():
    state = harmonic_state()
    trivial = run(state, HARMONIC, state.beta, intervals=500, record_stride=1)
    assert trivial.states == [state] and trivial.diagnostics == []
    with pytest.raises(ValueError):
        run(state, HARMONIC, 0.5, intervals=500, record_stride=1)
    # a fractional last step lands exactly on beta_end
    trace = run(state, HARMONIC, 1.03, dbeta=0.02, intervals=300, record_stride=1)
    assert trace.states[-1].beta == pytest.approx(1.03, abs=1e-12)
    assert len(trace.diagnostics) == len(trace.states) - 1
    d = trace.diagnostics[0]
    assert d.beta == pytest.approx(1.0) and d.dbeta == pytest.approx(0.02)


def test_run_rejects_a_dbeta_that_cannot_advance_beta(monkeypatch):
    # each of these looped forever; the step budget fails the test instead
    calls = []
    real_step = flow.step

    def budgeted(state, classical, dbeta, *args, **kwargs):
        calls.append(dbeta)
        if len(calls) > 20:
            raise RuntimeError("run kept stepping")
        return real_step(state, classical, dbeta, *args, **kwargs)

    monkeypatch.setattr(flow, "step", budgeted)
    state = harmonic_state()
    for dbeta in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="dbeta must be positive"):
            run(state, HARMONIC, 1.5, dbeta=dbeta, intervals=100, record_stride=1)
    with pytest.raises(SolverError, match="flow step 1e-300 leaves beta=1.0000 unchanged"):
        run(state, HARMONIC, 1.5, dbeta=1e-300, intervals=100, record_stride=1)
    assert calls == []


def test_run_halved_below_the_spacing_of_floats_raises(monkeypatch):
    attempts = []

    def rejected(state, classical, dbeta, *args, **kwargs):
        attempts.append(dbeta)
        raise StepRejected("condition beyond the limit")

    monkeypatch.setattr(flow, "step", rejected)
    # 1 + 2^-52 is the float after 1, and 1 + 2^-53 rounds back to 1
    with pytest.raises(SolverError, match="unchanged"):
        run(harmonic_state(), HARMONIC, 1.5, dbeta=2.0**-51, intervals=500, record_stride=1)
    assert attempts == [2.0**-51, 2.0**-52]


def test_write_trace_csv(tmp_path):
    s0 = harmonic_state()
    s1 = FlowState(beta=1.1, params=HARMONIC, log_norm=s0.log_norm - 0.07,
                   initial_point=0.2, final_points=s0.final_points)
    diag = StepDiagnostics(beta=1.0, dbeta=0.1, residual_norm=1e-9,
                           condition=12.0, rank=3, deficiency=0)
    trace = FlowTrace(states=[s0, s1], diagnostics=[diag])
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, header_comment="run=demo")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# run=demo"
    assert lines[1] == "beta,mass,v_2,log_norm,residual_norm,condition,rank,deficiency"
    first = lines[2].split(",")
    assert float(first[0]) == 1.0 and first[-2:] == ["-1", "-1"]
    assert math.isnan(float(first[-4]))
    second = lines[3].split(",")
    assert float(second[0]) == 1.1
    assert float(second[-4]) == 1e-9 and second[-2:] == ["3", "0"]


# --- stacked assembly: bit-identity with the point-by-point loop -------------


def _reference_partials(params, traj):
    """(d_mass, d_coeff, d_time, d_x, d_xx) of one final point, written out directly."""
    step, n_int = traj.grid.step, traj.grid.intervals
    m, hbar = params.mass, params.hbar

    def momentum(t):
        x = t.positions
        slope = (x[-1] - x[-2]) / t.grid.step
        return m * slope / hbar**2 + 0.5 * t.grid.step * potential_derivative(
            params.potential, x[-1]
        )

    x = traj.positions
    dx = np.diff(x)
    kinetic_sum = float(np.sum(dx * dx))
    v = potential_value(params.potential, x)
    pot_sum = float(np.sum(v[:-1] + v[1:])) * 0.5
    d_coeff = {}
    for k in sorted(params.potential.coefficients):
        if k == 0:
            d_coeff[k] = step * n_int
        else:
            p = x**k
            d_coeff[k] = step * float(np.sum(p[:-1] + p[1:])) * 0.5
    d_mass = kinetic_sum / (2.0 * hbar**2 * step)
    d_time = (pot_sum - m * kinetic_sum / (2.0 * hbar**2 * step**2)) / n_int
    return d_mass, d_coeff, d_time, momentum(traj), _reference_d_xx(params, traj)


def _reference_d_xx(params, traj):
    """p' + (h^2 / 6) p''' of one path from its Jacobi equations, one solve_banded each."""
    spec, m, hbar2, step = params.potential, params.mass, params.hbar**2, traj.grid.step
    inner, x_f = traj.positions[1:-1], traj.positions[-1]
    coupling = m / step**2
    band = np.empty((3, len(inner)))
    band[0] = band[2] = coupling
    band[1] = -2.0 * coupling - hbar2 * potential_second_derivative(spec, inner)
    v3 = hbar2 * evaluate_potential(spec, inner, 3)
    v4 = hbar2 * evaluate_potential(spec, inner, 4)
    e_last = np.zeros(len(inner))
    e_last[-1] = -coupling
    y1 = solve_banded((1, 1), band, e_last)
    y2 = solve_banded((1, 1), band, v3 * y1**2)
    y3 = solve_banded((1, 1), band, 3.0 * v3 * y1 * y2 + v4 * y1**3)
    scale = m / (hbar2 * step)
    first = scale * (1.0 - y1[-1]) + 0.5 * step * potential_second_derivative(spec, x_f)
    third = -scale * y3[-1] + 0.5 * step * evaluate_potential(spec, x_f, 4)
    h = 1e-3 * max(1.0, abs(x_f))
    return first + h * h / 6.0 * third


def _stage_paths(state, grid, start=None):
    pairs = [(state.initial_point, x_f) for x_f in state.final_points]
    return solve_paths(state.params, pairs, grid, start)


def _reference_assemble(state, classical, intervals, start=None):
    """assemble_system as a loop over final points, one row at a time."""
    exponents = state.exponents()
    a_mat = np.empty((len(state.final_points), 2 + len(exponents)))
    rhs = np.empty(len(state.final_points))
    hbar = classical.hbar
    paths = _stage_paths(state, TimeGrid(state.beta, intervals=intervals), start)
    for j, x_f in enumerate(state.final_points):
        d_mass, d_coeff, d_time, d_x, d_xx = _reference_partials(state.params, paths[j])
        a_mat[j, 0] = -1.0
        a_mat[j, 1] = d_mass
        for col, k in enumerate(exponents):
            a_mat[j, 2 + col] = d_coeff[k]
        rhs[j] = (
            -d_time
            - hbar**2 / (2.0 * classical.mass) * (d_x**2 - d_xx)
            + potential_value(classical.potential, x_f)
        )
    return a_mat, rhs, paths


QUARTIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, 4: 0.1}), domain=Domain.FULL_LINE
)
HEAVY = ActionParams(mass=1.3, hbar=0.7, potential=PotentialSpec({2: 0.45, -2: 0.8}))


def _fitted_state(initial_point=10.0):
    return FlowState(
        beta=0.35,
        params=ActionParams(
            mass=0.99994533,
            hbar=1.0,
            potential=PotentialSpec({0: 1.1676274, 2: 0.4998810, -2: 1.2280919}),
        ),
        log_norm=0.0,
        initial_point=initial_point,
        final_points=equidistant(0.2, 7.0, 30),
    )


ASSEMBLY_CASES = {
    "fitted_0_2_-2": (_fitted_state, STANDARD),
    # final point 6 has a d_x whose float square (libm pow) and array square
    # (a product) differ in the last bit on x86-64 glibc
    "fitted_from_10.5": (lambda: _fitted_state(10.5), STANDARD),
    "harmonic": (harmonic_state, HARMONIC),
    "ansatz_0_2_4": (
        lambda: FlowState(
            beta=0.8,
            params=ActionParams(
                mass=1.02, hbar=1.0, potential=PotentialSpec({0: 0.3, 2: 0.48, 4: 0.11}),
                domain=Domain.FULL_LINE,
            ),
            log_norm=0.1,
            initial_point=0.3,
            final_points=equidistant(-1.2, 1.6, 12),
        ),
        QUARTIC,
    ),
    "hbar_and_mass": (
        lambda: FlowState(
            beta=0.6,
            params=ActionParams(
                mass=1.25, hbar=0.7, potential=PotentialSpec({0: 0.2, 2: 0.4, -2: 0.9})
            ),
            log_norm=-0.2,
            initial_point=1.8,
            final_points=equidistant(0.4, 3.5, 10),
        ),
        HEAVY,
    ),
}


@pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
def test_assemble_system_matches_per_point_loop(case):
    make_state, classical = ASSEMBLY_CASES[case]
    state = make_state()
    a_mat, rhs, _ = assemble_system(state, classical, 500)
    want_a, want_rhs, _ = _reference_assemble(state, classical, 500)
    assert np.array_equal(a_mat, want_a)
    assert np.array_equal(rhs, want_rhs)


def test_sensitivities_is_the_batch_of_one():
    state = _fitted_state()
    grid = TimeGrid(0.35, intervals=500)
    paths = _stage_paths(state, grid)
    rows = path_sensitivities(state.params, paths)
    for j, traj in enumerate(paths):
        one = sensitivities(state.params, traj)
        assert one == rows.row(j)
        d_mass, d_coeff, d_time, d_x, d_xx = _reference_partials(state.params, traj)
        assert (one.d_mass, one.d_coeff, one.d_time, one.d_x, one.d_xx) == (
            d_mass, d_coeff, d_time, d_x, d_xx
        )


def test_path_sensitivities_validation():
    state = _fitted_state()
    grid = TimeGrid(0.35, intervals=100)
    with pytest.raises(ValueError, match="at least one"):
        path_sensitivities(state.params, solve_paths(state.params, [], grid))


@pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
def test_jacobi_d_xx_matches_neighbour_difference(case):
    # d_xx is (p(x + h) - p(x - h)) / 2h in closed form, p' + (h^2 / 6) p'''.
    # Re-solved neighbours give the same quotient up to the next Taylor term,
    # (h^4 / 120) p^(5), and their Newton tolerance of 1e-12 over 2h >= 2e-3:
    # 1e-8 relative covers both
    make_state, _ = ASSEMBLY_CASES[case]
    state = make_state()
    for intervals in (500, 1):  # one interval: no interior point to move
        paths = _stage_paths(state, TimeGrid(state.beta, intervals=intervals))
        got = path_sensitivities(state.params, paths).d_xx
        want = []
        for traj in paths:
            pair = neighbour_pair(state.params, traj)
            p_lower, p_upper = path_sensitivities(state.params, pair).d_x
            want.append((p_upper - p_lower) / (pair[1].end - pair[0].end))
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


# V'' = -8 + 12 x^2: at x = 0 the Newton-matrix diagonal -2m/dt^2 - hbar^2 V''
# vanishes for dt = 0.5
SINGULAR = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: -4.0, 4: 1.0}), domain=Domain.FULL_LINE
)


def _paths(duration, *rows):
    """Paths of the given positions over duration, one row each."""
    grid = TimeGrid(duration, intervals=len(rows[0]) - 1)
    n = len(rows)
    return Paths(grid, np.array(rows, dtype=float), np.ones(n, dtype=int), np.zeros(n), np.zeros(n),
                 np.zeros(n, dtype=int))


def test_singular_tangent_solve_raises_solver_error():
    one = [0.3, 0.0, 0.5]
    with pytest.raises(SolverError, match="singular"):  # the zero pivot of a 1x1 system
        path_sensitivities(SINGULAR, _paths(1.0, one))
    with pytest.raises(SolverError, match="singular"):  # zero pivot of the stacked gtsv
        path_sensitivities(SINGULAR, _paths(1.0, [0.3, 0.0, 0.7], one))
    with pytest.raises(SolverError, match="singular"):  # tridiag(4, 0, 4) of one path
        path_sensitivities(SINGULAR, _paths(2.0, [0.3, 0.0, 0.0, 0.0, 0.5]))
    with pytest.raises(SolverError, match="non-finite"):
        path_sensitivities(SINGULAR, _paths(1.0, [0.3, math.nan, 0.5]))


def test_run_counts_rejected_steps(monkeypatch):
    # a step longer than 0.2 is rejected as an ill-conditioned one would be, so
    # run halves every nominal 0.25 step but the last, which is 0.125 long;
    # the step sizes are binary fractions, so the betas equal those of a run
    # at 0.125
    state = harmonic_state()
    want = run(state, HARMONIC, 2.0, dbeta=0.125, intervals=300, record_stride=1)
    assert want.rejected_steps == 0
    real_step = flow.step
    rejections = []

    def limited(state, classical, dbeta, *args, **kwargs):
        if dbeta > 0.2:
            rejections.append(state.beta)
            raise StepRejected(f"condition beyond {flow.CONDITION_LIMIT:.0e}")
        return real_step(state, classical, dbeta, *args, **kwargs)

    monkeypatch.setattr(flow, "step", limited)
    trace = run(state, HARMONIC, 2.0, dbeta=0.25, intervals=300, record_stride=1)
    assert trace.rejected_steps == len(rejections) == 7
    assert trace.states == want.states and trace.diagnostics == want.diagnostics


def test_stages_start_from_the_extrapolation_of_the_last_two_betas(monkeypatch):
    # the starts each stage hands to assemble_system, against the paths that
    # the stages before it solved
    stages = []
    real_assemble = flow.assemble_system

    def recording(state, classical, intervals, start=None):
        before = None if start is None else start.copy()
        a_mat, rhs, paths = real_assemble(state, classical, intervals, start)
        # the stage only reads its start
        assert start is None or np.array_equal(start, before)
        stages.append((state.beta, start, paths))
        return a_mat, rhs, paths

    monkeypatch.setattr(flow, "assemble_system", recording)
    trace = run(harmonic_state(), HARMONIC, 1.1, dbeta=0.05, intervals=100, record_stride=1)
    assert [beta for beta, _, _ in stages] == [
        1.0, 1.025, 1.025, 1.05, 1.05, 1.075, 1.075, 1.1
    ]
    kept = []  # (beta, solved paths) of the last two stages at distinct betas
    for beta, start, solved in stages:
        if not kept:
            assert start is None
        elif len(kept) == 1 or beta == kept[-1][0]:
            assert start is kept[-1][1].positions
        else:
            (b_prev, prev), (b_last, last) = kept
            for j in range(len(last)):
                want = [
                    x_last + (beta - b_last) / (b_last - b_prev) * (x_last - x_prev)
                    for x_last, x_prev in zip(last.positions[j].tolist(),
                                              prev.positions[j].tolist())
                ]
                assert start[j].tolist() == want
        kept = kept[:-1] if kept and kept[-1][0] == beta else kept[-1:]
        kept.append((beta, solved))
    assert trace.path_solves == len(stages) * len(harmonic_state().final_points)
    assert trace.newton_iterations == sum(
        path.iterations for _, _, solved in stages for path in solved
    )
    assert trace.line_search_halvings == sum(
        int(solved.line_search_halvings.sum()) for _, _, solved in stages
    )


def test_flow_solver_counts_repeat():
    state = _fitted_state()
    traces = [
        run(state, STANDARD, state.beta + 3 * 3.75e-3, dbeta=3.75e-3, intervals=300,
            record_stride=1)
        for _ in range(2)
    ]
    counts = [(t.path_solves, t.newton_iterations, t.line_search_halvings) for t in traces]
    assert counts[0] == counts[1]
    assert counts[0][0] == 3 * 4 * 30
    assert counts[0][0] <= counts[0][1] <= 3 * counts[0][0]


def test_flow_run_matches_per_point_loop(monkeypatch):
    state = _fitted_state()
    beta_end = state.beta + 3 * 3.75e-3
    trace = run(state, STANDARD, beta_end, dbeta=3.75e-3, intervals=300, record_stride=1)
    monkeypatch.setattr(flow, "assemble_system", _reference_assemble)
    want = run(state, STANDARD, beta_end, dbeta=3.75e-3, intervals=300, record_stride=1)
    assert len(trace.states) == len(want.states) == 4
    assert trace.diagnostics == want.diagnostics
    for got, ref in zip(trace.states, want.states):
        assert got.beta == ref.beta and got.log_norm == ref.log_norm
        assert got.params == ref.params
