import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from qaction.fit import (
    SIMPLEX_TOL,
    VALUE_TOL,
    BoundarySet,
    _initial_simplex,
    _nelder_mead,
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
from qaction.trajectory import TimeGrid

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
        standard_table, [0, 2, -2], standard_init(0, 2, -2), TimeGrid(1.0, intervals=300)
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
    oracle_table = build_table(STANDARD, BOUNDS, 1.0, source="oracle", decomposition=dec)
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
    with pytest.raises(ValueError):
        build_table(STANDARD, BOUNDS, 1.0, source="mystery")
    with pytest.raises(ValueError):
        build_table(STANDARD, BOUNDS, 1.0, source="oracle")
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
        build_table(STANDARD, bad, 0.5, source="oracle", decomposition=fine)


def test_harmonic_fit_recovers_classical_action():
    shifted = ActionParams(
        mass=1.1, hbar=1.0, potential=PotentialSpec({2: 0.45}), domain=Domain.FULL_LINE
    )
    bounds = BoundarySet(equidistant(-1.0, 1.0, 2), equidistant(-0.5, 1.5, 4))
    for t in (0.5, 1.0, 2.0):
        table = build_table(HARMONIC, bounds, t)
        result = fit_at_time(table, [2], shifted, TimeGrid(t, intervals=500))
        assert result.relative_error <= 1e-8
        assert result.converged
        # the tiny mesh bias is absorbed by the parameters
        assert result.params.mass == pytest.approx(1.0, abs=5e-6)
        assert result.params.potential.coefficients[2] == pytest.approx(0.5, abs=5e-6)


def test_grid_duration_must_match_table_time(standard_table):
    with pytest.raises(ValueError):
        fit_at_time(
            standard_table, [0, 2, -2], standard_init(0, 2, -2), TimeGrid(0.9, intervals=300)
        )
    with pytest.raises(ValueError):
        fit_at_time(
            standard_table, [2, 2, -2], standard_init(2, -2), TimeGrid(1.0, intervals=300)
        )


def test_monotone_improvement_and_idempotence(standard_table, standard_fit):
    grid = TimeGrid(1.0, intervals=300)
    from qaction.fit import _Objective

    start = _Objective(standard_table, [-2, 0, 2], standard_init(0, 2, -2), grid)
    assert standard_fit.objective <= start(np.zeros(4)) + 1e-15
    again = fit_at_time(standard_table, [0, 2, -2], standard_fit.params, grid)
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
        scaled_table, [0, 2, -2], standard_init(0, 2, -2), TimeGrid(1.0, intervals=300)
    )
    assert scaled.log_norm - standard_fit.log_norm == pytest.approx(math.log(c), abs=1e-8)
    assert scaled.params.mass == pytest.approx(standard_fit.params.mass, abs=1e-8)
    c1 = standard_fit.params.potential.coefficients
    c2 = scaled.params.potential.coefficients
    assert all(c2[k] == pytest.approx(c1[k], abs=1e-8) for k in c1)


def test_constant_term_is_gauge_invariant(standard_table):
    grid = TimeGrid(1.0, intervals=300)
    base = fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), grid)
    nudged_init = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({0: 0.3, 2: 0.5, -2: 1.0})
    )
    nudged = fit_at_time(standard_table, [0, 2, -2], nudged_init, grid)
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
    oracle_table = build_table(STANDARD, BOUNDS, 1.0, source="oracle", decomposition=dec)
    grid = TimeGrid(1.0, intervals=300)
    ra = fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), grid)
    ro = fit_at_time(oracle_table, [0, 2, -2], standard_init(0, 2, -2), grid)
    assert ro.params.mass == pytest.approx(ra.params.mass, rel=1e-3)
    ca, co = ra.params.potential.coefficients, ro.params.potential.coefficients
    for k in (2, -2):
        assert co[k] == pytest.approx(ca[k], rel=1e-3)


def test_sweep_continuation_and_csv(tmp_path):
    times = [0.5, 0.8, 1.2]
    results = sweep(STANDARD, BOUNDS, [0, 2, -2], times, source="analytic")
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
                table, [0, 2, -2], init, TimeGrid(t, intervals=500)
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
    grid = TimeGrid(1.0, intervals=300)
    # exact fit: curvature floor, essentially zero spread
    bounds = BoundarySet(equidistant(-1.0, 1.0, 2), equidistant(-0.5, 1.5, 4))
    htab = build_table(HARMONIC, bounds, 1.0)
    hfit = fit_at_time(
        htab,
        [2],
        ActionParams(mass=1.1, hbar=1.0, potential=PotentialSpec({2: 0.45}), domain=Domain.FULL_LINE),
        grid,
    )
    hu = parameter_uncertainty(hfit, htab)
    assert hu["mass"] < 1e-8 and hu["v_2"] < 1e-8

    # v0 is exactly degenerate with ln Z~: singular Hessian reported as infinity
    degen = fit_at_time(standard_table, [0, 2, -2], standard_init(0, 2, -2), grid)
    du = parameter_uncertainty(degen, standard_table)
    assert math.isinf(du["v_0"])
    # the flat direction is v_0 alone: the other spreads stay finite, with no 0 * inf
    assert all(0.0 < du[name] < math.inf for name in ("mass", "v_-2", "v_2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parameter_uncertainty(degen, standard_table) == du

    # without the flat direction the spreads are finite and positive
    r = fit_at_time(standard_table, [2, -2], standard_init(2, -2), grid)
    u = parameter_uncertainty(r, standard_table)
    assert all(0.0 < v < 1.0 for v in u.values())

    # a quartic term over this narrow window is nearly degenerate with x^2
    r4 = fit_at_time(standard_table, [2, -2, 4], standard_init(2, -2, 4), grid)
    u4 = parameter_uncertainty(r4, standard_table)
    v4 = r4.params.potential.coefficients[4]
    assert u4["v_4"] >= 0.5 * abs(v4)  # fitted weight compatible with zero
    assert u4["v_-2"] > u["v_-2"]  # degeneracy inflates the shared directions


def test_oracle_table_matches_per_pair_loop():
    from scalar_transcriptions import scalar_amplitude

    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(1e-2, 12.0, 1e-2), 120)
    bounds = BoundarySet(equidistant(0.5, 2.0, 3), equidistant(1.2, 3.0, 5))
    table = build_table(STANDARD, bounds, 0.8, source="oracle", decomposition=fine)
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
    monkeypatch.setattr(qaction.fit, "amplitude", lambda dec, a, b, time: values)
    with pytest.raises(ValueError, match="roundoff floor") as err:
        build_table(STANDARD, BOUNDS, 1.0, source="oracle", decomposition=object())
    assert f"({BOUNDS.initial[0]}, {BOUNDS.final[3]}, T=1.0)" in str(err.value)


# _nelder_mead against the scipy routine it transcribes, at the fit's options


def scipy_nelder_mead(func, simplex, budget):
    from scipy.optimize import minimize

    res = minimize(
        func,
        simplex[0],
        method="Nelder-Mead",
        options={
            "xatol": SIMPLEX_TOL,
            "fatol": VALUE_TOL,
            "maxfev": budget,
            "initial_simplex": simplex,
        },
    )
    return res.x, res.nfev, bool(res.status == 0)


def assert_same_search(make_func, simplex, budget):
    """Both searches on fresh objectives: the same bits of x, count and verdict."""
    x, evaluations, converged = _nelder_mead(make_func(), simplex, budget)
    ref_x, ref_evaluations, ref_converged = scipy_nelder_mead(make_func(), simplex, budget)
    assert x.tobytes() == ref_x.tobytes()
    assert (evaluations, converged) == (ref_evaluations, ref_converged)
    return x, evaluations, converged


@pytest.fixture(scope="module")
def small_objective(standard_table):
    # a fresh objective per search: its trajectory cache warm-starts each solve
    init = standard_init(0, 2, -2)
    return lambda: _Objective(standard_table, [-2, 0, 2], init, TimeGrid(1.0, intervals=100))


@pytest.mark.parametrize("budget", [*range(5, 40), 57, 100, 200, 333, 1000])
def test_nelder_mead_matches_scipy_on_fit_objective(small_objective, budget):
    simplex = _initial_simplex(4, np.zeros(4), 0.05)
    _, evaluations, converged = assert_same_search(small_objective, simplex, budget)
    assert converged == (evaluations < budget)
    assert converged or budget < 1000  # about 350 evaluations reach the tolerances


@pytest.mark.parametrize("budget", range(5))
def test_nelder_mead_budget_smaller_than_simplex(small_objective, budget):
    # vertices past the budget stay at inf and sort last
    simplex = _initial_simplex(4, np.zeros(4), 0.05)
    x, evaluations, converged = assert_same_search(small_objective, simplex, budget)
    assert (evaluations, converged) == (budget, False)
    assert any(np.array_equal(x, vertex) for vertex in simplex)


def plateau(simplex, calls):
    """0, 1, 2 on the three vertices and 10 elsewhere: the first step must shrink."""
    values = {tuple(v): float(i) for i, v in enumerate(simplex)}

    def func(x):
        calls.append(x)
        return values.get(tuple(x), 10.0)

    return func


@pytest.mark.parametrize("budget", range(12))
def test_nelder_mead_budget_ending_inside_a_shrink(budget):
    simplex = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    calls = []
    _nelder_mead(plateau(simplex, calls), simplex, 100)
    # 3 vertices, a reflection, an inside contraction, then the shrink moves
    # both other vertices halfway to the best one: calls 6 and 7
    assert np.array_equal(calls[3], [1.0, -1.0])
    assert np.array_equal(calls[4], [0.25, 0.5])
    assert np.array_equal(calls[5], [0.5, 0.0]) and np.array_equal(calls[6], [0.0, 0.5])
    assert_same_search(lambda: plateau(simplex, []), simplex, budget)


def fenced_rosenbrock(calls):
    """Rosenbrock inside the disc of radius 1.5, inf outside it.

    It scribbles on its argument, which is harmless only if every call gets
    a copy of the vertex.
    """

    def func(x):
        calls.append(x.copy())
        value = math.inf if x @ x > 2.25 else 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        x[:] = np.nan
        return float(value)

    return func


@pytest.mark.parametrize("budget", [*range(3, 60, 4), 2000])
def test_nelder_mead_objective_with_an_inf_region(budget):
    simplex = np.array([[-1.2, 1.0], [-0.6, 1.0], [-1.2, 1.6]])  # the last vertex is fenced off
    calls = []
    x, evaluations, converged = assert_same_search(
        lambda: fenced_rosenbrock(calls), simplex, budget
    )
    assert any(c @ c > 2.25 for c in calls)
    if budget == 2000:
        assert converged and evaluations < budget
        npt.assert_allclose(x, [1.0, 1.0], atol=1e-8)
