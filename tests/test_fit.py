import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from qaction.fit import (
    MAX_EVALUATIONS,
    BoundarySet,
    _Objective,
    build_table,
    constant_term,
    equidistant,
    fit_at_time,
    parameter_uncertainty,
    sweep,
    write_results_csv,
)
from qaction.model import ActionParams, Domain, PotentialSpec
from qaction.oracle import SpatialGrid, amplitude, refine_energies, solve_spectrum
from qaction.trajectory import SolverError, TimeGrid
from references import sum_of_squares

STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))
HARMONIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE
)
BOUNDS = BoundarySet(equidistant(1.0, 2.0, 2), equidistant(1.2, 2.6, 4))


def standard_init(*exponents):
    coeffs = {k: STANDARD.potential.coefficients.get(k, 0.0) for k in exponents}
    return ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec(coeffs))


@pytest.fixture(scope="module")
def standard_table():
    return build_table(STANDARD, BOUNDS, 1.0)


@pytest.fixture(scope="module")
def standard_fit(standard_table):
    return fit_at_time(
        standard_table, [0, 2, -2], standard_init(0, 2, -2), 300
    )


def test_boundary_set_validation():
    with pytest.raises(ValueError):
        BoundarySet((), (1.0,))
    with pytest.raises(ValueError):
        BoundarySet((1.0, 1.0), (2.0,))
    with pytest.raises(ValueError):
        BoundarySet((1.0,), (math.inf,))
    bs = BoundarySet((1.0, 2.0), (3.0,))
    assert bs.pairs() == [(1.0, 3.0), (2.0, 3.0)]
    with pytest.raises(ValueError):
        bs_neg = BoundarySet((-1.0,), (2.0,))
        bs_neg.require_domain(Domain.HALF_LINE)


def test_equidistant():
    assert equidistant(1.0, 2.0, 1) == (1.5,)
    pts = equidistant(0.5, 3.0, 6)
    assert pts[0] == 0.5 and pts[-1] == 3.0
    npt.assert_allclose(np.diff(pts), 0.5)
    with pytest.raises(ValueError):
        equidistant(0.0, 1.0, 0)


def test_build_table_sources_agree(standard_table):
    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3), 160)
    coarse = solve_spectrum(STANDARD, SpatialGrid.from_spacing(1e-2, 12.0, 1e-2), 160)
    dec = refine_energies(coarse, fine)
    oracle_table = build_table(STANDARD, BOUNDS, 1.0, decomposition=dec)
    rel = np.abs(np.exp(oracle_table.log_entries - standard_table.log_entries) - 1.0)
    assert np.max(rel) <= 1e-5
    assert np.all(oracle_table.entries > 0)


def test_build_table_symmetry_and_small_time():
    sym = BoundarySet(equidistant(0.8, 2.2, 4), equidistant(0.8, 2.2, 4))
    table = build_table(STANDARD, sym, 0.7)
    npt.assert_allclose(table.log_entries, table.log_entries.T, atol=1e-12)
    # short times stay finite through the log-domain path
    small = build_table(
        STANDARD, BoundarySet(equidistant(4.0, 5.0, 2), equidistant(0.5, 3.0, 10)), 0.05
    )
    assert np.all(np.isfinite(small.log_entries))
    assert np.all(small.entries > 0)
    assert small.log_entries.min() < -100.0


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table(STANDARD, BOUNDS, 0.0)
    quartic = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({2: 1.0, 4: 0.01}), domain=Domain.FULL_LINE
    )
    with pytest.raises(ValueError, match="oracle"):
        build_table(quartic, BoundarySet((-1.0,), (1.0,)), 1.0)


def test_oracle_amplitude_below_floor_rejected():
    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3), 160)
    # far-separated endpoints drive the spectral sum below roundoff
    bad = BoundarySet((0.05,), (9.0,))
    with pytest.raises(ValueError, match="roundoff floor"):
        build_table(STANDARD, bad, 0.5, decomposition=fine)


def test_oracle_positive_noise_is_rejected():
    # far-separated endpoints at a short time: the true amplitudes are ~1e-65,
    # and the spectral sums come out as positive noise about 1e-14 of the size
    # of their terms; a floor at zero took them as ln G ~ -45
    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3), 160)
    bounds = BoundarySet((0.05, 0.1, 0.2), (9.5,))
    initial = np.array(bounds.initial)[:, None]
    values, sizes = amplitude(fine, initial, 9.5, 0.3, resolution=True)
    assert np.all(values > 0.0) and np.all(values < 1e-12 * sizes)
    with pytest.raises(ValueError, match=r"roundoff floor") as err:
        build_table(STANDARD, bounds, 0.3, decomposition=fine)
    assert "(0.05, 9.5, T=0.3)" in str(err.value)


def test_harmonic_fit_recovers_classical_action():
    shifted = ActionParams(
        mass=1.1, hbar=1.0, potential=PotentialSpec({2: 0.45}), domain=Domain.FULL_LINE
    )
    bounds = BoundarySet(equidistant(-1.0, 1.0, 2), equidistant(-0.5, 1.5, 4))
    for t in (0.5, 1.0, 2.0):
        table = build_table(HARMONIC, bounds, t)
        result = fit_at_time(table, [2], shifted, 500)
        assert result.relative_error <= 1e-8
        assert result.converged
        # the tiny mesh bias is absorbed by the parameters
        assert result.params.mass == pytest.approx(1.0, abs=5e-6)
        assert result.params.potential.coefficients[2] == pytest.approx(0.5, abs=5e-6)


def test_fit_at_time_rejects_a_bad_mesh_or_ansatz(standard_table):
    with pytest.raises(ValueError):
        fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), 0)
    with pytest.raises(ValueError):
        fit_at_time(standard_table, [2, 2, -2], standard_init(2, -2), 300)


def test_monotone_improvement_and_idempotence(standard_table, standard_fit):
    grid = TimeGrid(1.0, intervals=300)
    from qaction.fit import _Objective

    start = _Objective(standard_table, [-2, 0, 2], standard_init(0, 2, -2), grid)
    res = start.evaluate(start.params_from(np.zeros(4)))[0]
    assert standard_fit.objective <= res @ res + 1e-15
    again = fit_at_time(standard_table, [0, 2, -2], standard_fit.params, 300)
    c1 = standard_fit.params.potential.coefficients
    c2 = again.params.potential.coefficients
    assert abs(again.params.mass - standard_fit.params.mass) < 1e-8
    assert all(abs(c2[k] - c1[k]) < 1e-8 for k in c1)


def test_scaling_consistency(standard_table, standard_fit):
    c = 3.7
    scaled_table = dataclasses.replace(
        standard_table, log_entries=standard_table.log_entries + math.log(c)
    )
    scaled = fit_at_time(
        scaled_table, [0, 2, -2], standard_init(0, 2, -2), 300
    )
    assert scaled.log_norm - standard_fit.log_norm == pytest.approx(math.log(c), abs=1e-8)
    assert scaled.params.mass == pytest.approx(standard_fit.params.mass, abs=1e-8)
    c1 = standard_fit.params.potential.coefficients
    c2 = scaled.params.potential.coefficients
    assert all(c2[k] == pytest.approx(c1[k], abs=1e-8) for k in c1)


def test_constant_term_is_gauge_invariant(standard_table):
    intervals = 300
    base = fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), intervals)
    nudged_init = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({0: 0.3, 2: 0.5, -2: 1.0})
    )
    nudged = fit_at_time(standard_table, [0, 2, -2], nudged_init, intervals)
    # raw v0 follows the seed; the normalised combination does not
    raw_gap = abs(
        nudged.params.potential.coefficients[0] - base.params.potential.coefficients[0]
    )
    assert raw_gap > 0.005
    assert constant_term(nudged) == pytest.approx(constant_term(base), abs=5e-4)


def test_oracle_equivalence(standard_table):
    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3), 160)
    coarse = solve_spectrum(STANDARD, SpatialGrid.from_spacing(1e-2, 12.0, 1e-2), 160)
    dec = refine_energies(coarse, fine)
    oracle_table = build_table(STANDARD, BOUNDS, 1.0, decomposition=dec)
    intervals = 300
    ra = fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), intervals)
    ro = fit_at_time(oracle_table, [0, 2, -2], standard_init(0, 2, -2), intervals)
    assert ro.params.mass == pytest.approx(ra.params.mass, rel=1e-3)
    ca, co = ra.params.potential.coefficients, ro.params.potential.coefficients
    for k in (2, -2):
        assert co[k] == pytest.approx(ca[k], rel=1e-3)


def test_sweep_continuation_and_csv(tmp_path):
    times = [0.5, 0.8, 1.2]
    results = sweep(STANDARD, BOUNDS, [0, 2, -2], times, [500] * len(times))
    assert [r.time for r in results] == times
    assert all(r.converged for r in results)
    assert all(r.relative_error < 5e-3 for r in results)
    path = tmp_path / "fits.csv"
    write_results_csv(results, path, header_comment="check=1")
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "# check=1"
    assert rows[1] == "T,mass,v_-2,v_0,v_2,log_norm,relative_error,objective,converged,evaluations"
    assert len(rows) == 2 + len(times)
    first = rows[2].split(",")
    assert float(first[0]) == 0.5
    assert first[-2] == "1"


def test_boundary_set_dependence_fades_with_time():
    # single near-origin initial point, two different final windows
    init = standard_init(0, 2, -2)
    gaps = {}
    for t in (0.5, 3.0):
        fitted = {}
        for lo, hi in ((2.0, 3.0), (5.0, 6.0)):
            bs = BoundarySet((0.3,), equidistant(lo, hi, 8))
            table = build_table(STANDARD, bs, t)
            fitted[lo] = fit_at_time(
                table, [0, 2, -2], init, 500
            ).params
        near, far = fitted[2.0], fitted[5.0]
        cn, cf = near.potential.coefficients, far.potential.coefficients
        gaps[t] = {
            "mass": abs(far.mass / near.mass - 1.0),
            "v_2": abs(cf[2] / cn[2] - 1.0),
            "v_-2": abs(cf[-2] / cn[-2] - 1.0),
            "mv_2": abs(far.mass * cf[2] / (near.mass * cn[2]) - 1.0),
            "mv_-2": abs(far.mass * cf[-2] / (near.mass * cn[-2]) - 1.0),
        }
    # strong dependence in the short-time regime, fading by T=3
    assert gaps[0.5]["v_2"] >= 0.2
    for key in gaps[3.0]:
        assert gaps[3.0][key] < gaps[0.5][key]
    assert gaps[3.0]["mv_2"] <= 0.01
    assert gaps[3.0]["mv_-2"] <= 0.01


def test_parameter_uncertainty_cases(standard_table):
    intervals = 300
    # exact fit: curvature floor, essentially zero spread
    bounds = BoundarySet(equidistant(-1.0, 1.0, 2), equidistant(-0.5, 1.5, 4))
    htab = build_table(HARMONIC, bounds, 1.0)
    hfit = fit_at_time(
        htab,
        [2],
        ActionParams(mass=1.1, hbar=1.0, potential=PotentialSpec({2: 0.45}), domain=Domain.FULL_LINE),
        intervals,
    )
    hu = parameter_uncertainty(hfit, htab)
    assert hu["mass"] < 1e-8 and hu["v_2"] < 1e-8

    # v0 is exactly degenerate with ln Z~: singular Hessian reported as infinity
    degen = fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), intervals)
    du = parameter_uncertainty(degen, standard_table)
    assert math.isinf(du["v_0"])
    # the flat direction is v_0 alone: the other spreads stay finite, with no 0 * inf
    assert all(0.0 < du[name] < math.inf for name in ("mass", "v_-2", "v_2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parameter_uncertainty(degen, standard_table) == du

    # without the flat direction the spreads are finite and positive
    r = fit_at_time(standard_table, [2, -2], standard_init(2, -2), intervals)
    u = parameter_uncertainty(r, standard_table)
    assert all(0.0 < v < 1.0 for v in u.values())

    # a quartic term over this narrow window is nearly degenerate with x^2
    r4 = fit_at_time(standard_table, [2, -2, 4], standard_init(2, -2, 4), intervals)
    u4 = parameter_uncertainty(r4, standard_table)
    v4 = r4.params.potential.coefficients[4]
    assert u4["v_4"] >= 0.5 * abs(v4)  # fitted weight compatible with zero
    assert u4["v_-2"] > u["v_-2"]  # degeneracy inflates the shared directions


def test_oracle_table_matches_per_pair_loop():
    from scalar_transcriptions import scalar_amplitude

    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(1e-2, 12.0, 1e-2), 120)
    bounds = BoundarySet(equidistant(0.5, 2.0, 3), equidistant(1.2, 3.0, 5))
    table = build_table(STANDARD, bounds, 0.8, decomposition=fine)
    loop = np.empty((3, 5))
    for i, a in enumerate(bounds.initial):
        for j, b in enumerate(bounds.final):
            loop[i, j] = math.log(scalar_amplitude(fine, a, b, 0.8))
    assert np.array_equal(table.log_entries, loop)


def test_oracle_floor_error_names_first_pair_in_row_major_order(monkeypatch):
    import qaction.fit

    values = np.ones((len(BOUNDS.initial), len(BOUNDS.final)))
    values[0, 3] = -1e-22  # first in row-major order
    values[1, 0] = 0.0  # first in column-major order
    monkeypatch.setattr(
        qaction.fit, "amplitude", lambda dec, a, b, time, resolution: (values, np.ones_like(values))
    )
    with pytest.raises(ValueError, match="roundoff floor") as err:
        build_table(STANDARD, BOUNDS, 1.0, decomposition=object())
    assert f"({BOUNDS.initial[0]}, {BOUNDS.final[3]}, T=1.0)" in str(err.value)


# Where the Nelder-Mead search that the fit used before (scipy 1.17.1's
# simplex, transcribed) ended on standard_fit's table: the reference the
# Levenberg-Marquardt search must match.
NELDER_MEAD_STANDARD = {
    "mass": 0.9736036741488816,
    "coefficients": {-2: 1.9360851878209882, 0: 0.000846937628253852, 2: 0.54139379666286},
    "log_norm": -0.6421501801241785,
    "objective": 3.680923849618254e-05,
}
PAPER_WINDOWS = BoundarySet(equidistant(4.0, 5.0, 2), equidistant(0.5, 3.0, 10))


def test_jacobian_matches_central_differences_of_residuals(standard_table):
    grid = TimeGrid(1.0, intervals=300)
    objective = _Objective(standard_table, [-2, 0, 2], standard_init(0, 2, -2), grid)
    y = np.array([0.02, -0.03, 0.0, 0.01])
    q = objective.params_from(y)
    _, _, paths = objective.evaluate(q)
    jac = objective.jacobian(q, paths)
    assert jac.shape == (len(objective.pairs), 3)  # no v_0 column
    h = 1e-5
    columns = []
    for j in np.flatnonzero(objective.free):
        e = np.zeros_like(y)
        e[j] = h
        plus = objective.evaluate(objective.params_from(y + e))[0]
        minus = objective.evaluate(objective.params_from(y - e))[0]
        columns.append((plus - minus) / (2.0 * h))
    npt.assert_allclose(jac, np.column_stack(columns), rtol=0, atol=1e-7 * np.abs(jac).max())
    # centring over the pairs: every column sums to zero, as the residuals do
    npt.assert_allclose(jac.sum(axis=0), 0.0, atol=1e-12 * np.abs(jac).max())


def test_v0_keeps_its_start_value_bit_for_bit(standard_table):
    intervals = 300
    for v0 in (0.0, 0.3, -1.7e-3):
        init = ActionParams(1.0, 1.0, PotentialSpec({0: v0, 2: 0.5, -2: 1.0}))
        result = fit_at_time(standard_table, [0, 2, -2], init, intervals)
        assert result.converged
        assert result.params.potential.coefficients[0] == v0


def test_standard_fit_reaches_the_nelder_mead_optimum(standard_fit):
    ref = NELDER_MEAD_STANDARD
    assert standard_fit.converged
    assert standard_fit.objective <= ref["objective"] * (1.0 + 1e-6)
    assert standard_fit.params.mass == pytest.approx(ref["mass"], rel=1e-6)
    coeffs = standard_fit.params.potential.coefficients
    for k in (2, -2):
        assert coeffs[k] == pytest.approx(ref["coefficients"][k], rel=1e-6)
    nm_constant = ref["coefficients"][0] - ref["log_norm"]
    assert constant_term(standard_fit) == pytest.approx(nm_constant, rel=1e-6)
    assert standard_fit.evaluations <= 20  # Nelder-Mead took 751


def test_spent_budget_is_not_converged(standard_table, standard_fit):
    intervals = 300
    init = standard_init(0, 2, -2)
    for budget in (1, 2, 3):
        result = fit_at_time(standard_table, [0, 2, -2], init, intervals, max_evaluations=budget)
        assert (result.evaluations, result.converged) == (budget, False)
        assert result.objective >= standard_fit.objective
    # the budget counts every evaluation, the starting point's included
    enough = fit_at_time(
        standard_table, [0, 2, -2], init, intervals, max_evaluations=standard_fit.evaluations
    )
    assert enough.converged and enough.evaluations == standard_fit.evaluations


def test_evaluations_per_slice_on_the_paper_windows():
    times = [0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    results = sweep(
        STANDARD, PAPER_WINDOWS, [0, 2, -2], times, [100] * len(times),
    )
    assert all(r.converged for r in results)
    # Nelder-Mead took about 700 per slice
    assert max(r.evaluations for r in results) <= 60


def test_parameter_uncertainty_verdict_at_both_optima(standard_table, standard_fit):
    # the search's own optimum and the Nelder-Mead one, which sit 1e-9 apart
    ref = NELDER_MEAD_STANDARD
    nelder_mead = dataclasses.replace(
        standard_fit,
        params=ActionParams(ref["mass"], 1.0, PotentialSpec(ref["coefficients"])),
        log_norm=ref["log_norm"],
        objective=ref["objective"],
    )
    spreads = [parameter_uncertainty(r, standard_table) for r in (standard_fit, nelder_mead)]
    for sigmas in spreads:
        assert math.isinf(sigmas["v_0"])  # exactly degenerate with ln Z~
        assert all(0.0 < sigmas[name] < 0.1 for name in ("mass", "v_-2", "v_2"))
    for name in ("mass", "v_-2", "v_2"):
        assert spreads[0][name] == pytest.approx(spreads[1][name], rel=1e-6)


# The checks below carry the ids of the checks of the Nelder-Mead search that
# the Levenberg-Marquardt one replaced, and hold the new search to the same
# contracts on the same problems: the optimum of scipy's Nelder-Mead on the
# fit objective, a budget that runs out early, a budget that runs out in a
# run of rejected steps, and an objective with an infinite region.


@pytest.fixture(scope="module")
def small_objective(standard_table):
    # a fresh objective per search: its trajectory cache warm-starts each solve
    init = standard_init(0, 2, -2)
    return lambda: _Objective(standard_table, [-2, 0, 2], init, TimeGrid(1.0, intervals=100))


def small_fit(objective, budget=MAX_EVALUATIONS):
    """fit_at_time on objective's table and grid, from its start."""
    start = objective.params_from(np.zeros(len(objective.center)))
    return fit_at_time(
        objective.table, objective.exponents, start, objective.grid.intervals,
        max_evaluations=budget,
    )


def scipy_nelder_mead(objective, budget):
    """scipy's Nelder-Mead on objective from the fit's start, at the old fit's options."""
    from scipy.optimize import minimize

    simplex = np.vstack([np.zeros(4), 0.05 * np.eye(4)])
    options = {"xatol": 1e-10, "fatol": 1e-14, "maxfev": budget, "initial_simplex": simplex}
    res = minimize(lambda y: sum_of_squares(objective, y), simplex[0], method="Nelder-Mead",
                   options=options)
    return res.x, res.fun, bool(res.status == 0)


def y_distance(objective, a, b):
    def coordinates(q):
        coeffs = q.potential.coefficients
        return np.array([q.mass] + [coeffs[k] for k in objective.exponents]) / objective.scales

    return float(np.linalg.norm(coordinates(a) - coordinates(b)))


@pytest.mark.parametrize("budget", [*range(5, 40), 57, 100, 200, 333, 1000])
def test_nelder_mead_matches_scipy_on_fit_objective(small_objective, budget):
    free = small_fit(small_objective())
    result = small_fit(small_objective(), budget)
    x, value, nm_converged = scipy_nelder_mead(small_objective(), budget)
    # at every budget the search is at least as far down as scipy's
    assert result.objective <= value * (1.0 + 1e-6)
    assert result.evaluations <= budget
    assert result.converged == (budget >= free.evaluations)
    if result.converged:  # a budget the search does not spend changes no bit
        assert result == free
    if budget == 1000:  # about 470 evaluations bring scipy's search to its tolerances
        assert nm_converged
        objective = small_objective()
        q = objective.params_from(x)
        log_norm = objective.evaluate(q)[1]
        assert result.params.mass == pytest.approx(q.mass, rel=1e-6)
        for k in (2, -2):
            assert result.params.potential.coefficients[k] == pytest.approx(
                q.potential.coefficients[k], rel=1e-6
            )
        nm_constant = q.potential.coefficients[0] - log_norm
        assert constant_term(result) == pytest.approx(nm_constant, rel=1e-6)


@pytest.mark.parametrize("budget", range(5))
def test_nelder_mead_budget_smaller_than_simplex(small_objective, budget):
    # fewer evaluations than the five vertices of a simplex in four parameters
    objective = small_objective()
    if budget == 0:  # the start itself is one evaluation
        with pytest.raises(ValueError, match="max_evaluations"):
            small_fit(objective, budget)
        return
    result = small_fit(objective, budget)
    assert (result.evaluations, result.converged) == (budget, False)
    # the reported objective is the objective at the reported parameters
    residuals, log_norm, _ = small_objective().evaluate(result.params)
    assert (float(residuals @ residuals), log_norm) == (result.objective, result.log_norm)
    start = objective.params_from(np.zeros(len(objective.center)))
    if budget == 1:
        assert result.params == start
    else:
        assert result.objective < small_fit(small_objective(), budget - 1).objective


@pytest.mark.parametrize("budget", range(12))
def test_nelder_mead_budget_ending_inside_a_shrink(small_objective, budget, monkeypatch):
    """The solver fails at the first four trial points: four rejected steps.

    Each rejection raises the damping, which shortens the next step towards
    the start, as a shrink pulls a simplex towards its best vertex.
    """
    objective = small_objective()
    start = objective.params_from(np.zeros(len(objective.center)))
    free = small_fit(small_objective())
    start_cost = small_fit(small_objective(), 1).objective
    evaluate = _Objective.evaluate
    calls = []

    def failing(self, q):
        calls.append(q)
        if 2 <= len(calls) <= 5:
            raise SolverError("trial point refused")
        return evaluate(self, q)

    monkeypatch.setattr(_Objective, "evaluate", failing)
    unlimited = small_fit(objective)
    steps = [y_distance(objective, q, start) for q in calls[1:5]]
    assert all(a > b > 0.0 for a, b in zip(steps, steps[1:]))
    assert unlimited.converged and unlimited.evaluations > free.evaluations + 4
    assert unlimited.objective == pytest.approx(free.objective, rel=1e-9)
    calls.clear()
    if budget == 0:
        with pytest.raises(ValueError, match="max_evaluations"):
            small_fit(objective, budget)
        return
    result = small_fit(small_objective(), budget)
    # a refused trial counts against the budget as any other evaluation
    assert len(calls) == result.evaluations == min(budget, unlimited.evaluations)
    assert result.converged == (budget >= unlimited.evaluations)
    if budget <= 5:  # nothing but the start has been accepted
        assert result.params == start and not result.converged
    else:
        assert result.objective < start_cost


@pytest.mark.parametrize("budget", [*range(3, 60, 4), 2000])
def test_nelder_mead_objective_with_an_inf_region(small_objective, budget, monkeypatch):
    """The solver fails inside a ball around the first full step of the search.

    The ball takes half the way from that point to the optimum, so the
    optimum is outside it, and the search must step around it.
    """
    init = ActionParams(1.5, 1.0, PotentialSpec({0: 0.0, 2: 0.3, -2: 1.5}))
    objective = _Objective(small_objective().table, [-2, 0, 2], init, TimeGrid(1.0, intervals=100))
    evaluate = _Objective.evaluate
    calls = []

    def recording(self, q):
        calls.append(q)
        return evaluate(self, q)

    monkeypatch.setattr(_Objective, "evaluate", recording)
    free = small_fit(objective)
    first = calls[1]
    radius = 0.5 * y_distance(objective, free.params, first)
    fenced = []

    def fenced_off(self, q):
        calls.append(q)
        if y_distance(objective, q, first) < radius:
            fenced.append(q)
            raise SolverError("inside the fence")
        return evaluate(self, q)

    monkeypatch.setattr(_Objective, "evaluate", fenced_off)
    calls.clear()
    result = small_fit(objective, budget)
    assert fenced and calls[1] is fenced[0]  # the first step is refused
    assert result.evaluations == len(calls) <= budget
    assert math.isfinite(result.objective)
    assert y_distance(objective, result.params, first) >= radius
    if budget == 2000:
        assert result.converged and result.evaluations < budget
        assert result.objective == pytest.approx(free.objective, rel=1e-9)
        assert result.params.mass == pytest.approx(free.params.mass, rel=1e-8)
