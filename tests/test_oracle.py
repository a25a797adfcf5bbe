import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import eigh_tridiagonal

from qaction.analytic import euclidean_log_amplitude
from qaction.model import ActionParams, Domain, PotentialSpec
from qaction.oracle import (
    BLOCK,
    BRACKET,
    GROUP,
    VISIBLE_EFOLDS,
    SpatialGrid,
    _norm,
    _polish,
    amplitude,
    default_grid,
    discretize,
    refine_energies,
    solve_spectrum,
    spectrum,
)

STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))
HARMONIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE
)


def standard_pair(spacing=5e-3, extent=12.0, levels=160):
    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(spacing, extent, spacing), levels)
    coarse = solve_spectrum(
        STANDARD, SpatialGrid.from_spacing(2 * spacing, extent, 2 * spacing), levels
    )
    return fine, refine_energies(coarse, fine)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(1.0, 0.5, 200)
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 1.0, 50)  # too coarse to resolve anything
    grid = SpatialGrid.from_spacing(5e-3, 12.0, 5e-3)
    assert grid.spacing == pytest.approx(5e-3, rel=1e-12)
    assert default_grid(Domain.HALF_LINE, 5e-3, 12.0).x_min == pytest.approx(5e-3)
    assert default_grid(Domain.FULL_LINE, 5e-3, 12.0).x_min == pytest.approx(-12.0)


def test_discretize_rejects_bad_grids():
    with pytest.raises(ValueError):
        discretize(STANDARD, SpatialGrid.from_spacing(-1.0, 12.0, 1e-2))
    # a grid point absurdly close to the wall overflows the centrifugal term
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        discretize(STANDARD, SpatialGrid(1e-300, 12.0, 2400))


def test_box_spectrum():
    free = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({0: 0.0}), domain=Domain.FULL_LINE
    )
    h = 5e-3
    dec = solve_spectrum(free, SpatialGrid.from_spacing(-6.0, 6.0, h), 4)
    # implicit Dirichlet walls sit one spacing outside the stored nodes
    length = 12.0 + 2.0 * h
    box = np.array([(n * math.pi / length) ** 2 / 2.0 for n in range(1, 5)])
    npt.assert_allclose(dec.energies, box, rtol=1e-5)


def test_harmonic_ground_energy():
    dec = solve_spectrum(HARMONIC, SpatialGrid.from_spacing(-12.0, 12.0, 1e-2), 6)
    assert dec.energies[0] == pytest.approx(0.5, abs=1e-5)
    # discretisation error grows roughly with E^2, so the tower is looser
    npt.assert_allclose(dec.energies[:4], [0.5, 1.5, 2.5, 3.5], atol=1e-4)
    # a coarser, shorter grid still lands E_0 within 1e-4
    coarse = solve_spectrum(HARMONIC, SpatialGrid.from_spacing(-10.0, 10.0, 2e-2), 3)
    assert coarse.energies[0] == pytest.approx(0.5, abs=1e-4)


def test_parity_alternation_on_symmetric_grid():
    dec = solve_spectrum(HARMONIC, SpatialGrid.from_spacing(-12.0, 12.0, 1e-2), 4)
    for n in range(4):
        psi = dec.wavefunctions[:, n]
        dev = psi - psi[::-1] if n % 2 == 0 else psi + psi[::-1]
        assert np.max(np.abs(dev)) <= 1e-10


def test_standard_ground_energy():
    # gamma = 3/2 ground level at hbar*omega*(1 + gamma) = 2.5
    dec = solve_spectrum(STANDARD, SpatialGrid.from_spacing(1e-3, 12.0, 5e-3), 8)
    assert dec.energies[0] == pytest.approx(2.5, abs=5e-4)
    # evenly spaced tower above it
    npt.assert_allclose(np.diff(dec.energies[:6]), 2.0, atol=5e-4)


def test_half_line_harmonic_keeps_odd_states():
    g0 = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 0.0}))
    dec = solve_spectrum(g0, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3), 3)
    npt.assert_allclose(dec.energies, [1.5, 3.5, 5.5], atol=5e-4)


def test_ground_energy_refinement_is_second_order():
    errs = {}
    for h in (2e-2, 1e-2, 5e-3):
        dec = solve_spectrum(STANDARD, SpatialGrid.from_spacing(h, 12.0, h), 4)
        errs[h] = abs(dec.energies[0] - 2.5)
    assert 3.5 <= errs[2e-2] / errs[1e-2] <= 4.5
    assert 3.5 <= errs[1e-2] / errs[5e-3] <= 4.5
    fine, refined = standard_pair()
    assert abs(refined.energies[0] - 2.5) < abs(fine.energies[0] - 2.5)
    assert refined.energies[0] == pytest.approx(2.5, abs=1e-7)


def test_refine_energies_validates_spacing_ratio():
    a = solve_spectrum(STANDARD, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3), 4)
    b = solve_spectrum(STANDARD, SpatialGrid.from_spacing(4e-3, 12.0, 4e-3), 4)
    with pytest.raises(ValueError):
        refine_energies(b, a)


def test_eigenpair_quality():
    grid = SpatialGrid.from_spacing(5e-3, 12.0, 5e-3)
    op = discretize(STANDARD, grid)
    dec = spectrum(op, 40)
    assert np.all(np.diff(dec.energies) > 0)
    gram = dec.wavefunctions.T @ dec.wavefunctions * grid.spacing
    assert np.max(np.abs(gram - np.eye(40))) <= 1e-10
    # backward error scales with the operator norm ~ 1/spacing^2
    h_norm = float(np.max(np.abs(op.diagonal)) + 2.0 * np.max(np.abs(op.off_diagonal)))
    worst = 0.0
    for n in range(40):
        v = dec.wavefunctions[:, n]
        hv = op.diagonal * v
        hv[:-1] += op.off_diagonal * v[1:]
        hv[1:] += op.off_diagonal * v[:-1]
        worst = max(worst, float(np.max(np.abs(hv - dec.energies[n] * v))))
    assert worst <= max(1e-13 * h_norm, 1e-9)


def test_spectrum_state_count_validation():
    op = discretize(STANDARD, SpatialGrid.from_spacing(1e-2, 12.0, 1e-2))
    with pytest.raises(ValueError):
        spectrum(op, 0)
    with pytest.raises(ValueError):
        spectrum(op, op.grid.n_points)


def test_amplitude_cross_validates_closed_form():
    fine, refined = standard_pair()
    for a, b, t in ((1.0, 2.0, 1.0), (0.7, 1.3, 0.5), (1.234567, 2.87, 2.0)):
        exact = math.exp(euclidean_log_amplitude(STANDARD, a, b, t))
        assert amplitude(fine, a, b, t) == pytest.approx(exact, rel=1e-5)
        assert amplitude(refined, a, b, t) == pytest.approx(exact, rel=1e-5)
    # refined energies carry the long-time branch
    exact4 = math.exp(euclidean_log_amplitude(STANDARD, 1.0, 2.0, 4.0))
    assert amplitude(refined, 1.0, 2.0, 4.0) == pytest.approx(exact4, rel=1e-5)


def test_amplitude_symmetry():
    _, refined = standard_pair(levels=120)
    rng = np.random.default_rng(41)
    for _ in range(10):
        a, b = rng.uniform(0.3, 5.0, size=2)
        t = rng.uniform(0.3, 2.0)
        fwd = amplitude(refined, a, b, t)
        bwd = amplitude(refined, b, a, t)
        assert abs(fwd - bwd) <= 1e-12 * max(1.0, abs(fwd))


def test_long_time_ground_state_dominance():
    fine, refined = standard_pair()
    psi0_a = _psi0(refined, 1.0)
    psi0_b = _psi0(refined, 2.0)
    deviations = {}
    for t in (4.0, 8.0):
        lead = psi0_a * psi0_b * math.exp(-refined.energies[0] * t)
        deviations[t] = abs(amplitude(refined, 1.0, 2.0, t) / lead - 1.0)
    # correction decays like exp(-2 hbar omega T); 1e-6 needs T around 7
    assert deviations[8.0] <= 1e-6
    assert deviations[4.0] == pytest.approx(math.exp(8.0) * deviations[8.0], rel=0.3)


def _psi0(dec, point):
    from qaction.oracle import _interpolate_states

    return float(_interpolate_states(dec, point)[0])


def test_short_time_growth_and_truncation_guard():
    fine, _ = standard_pair()
    values = [amplitude(fine, 1.0, 1.0, t) for t in (1.0, 0.5, 0.2, 0.1)]
    assert all(later > earlier for earlier, later in zip(values, values[1:]))
    completeness = float(np.sum(fine.wavefunctions[_node(fine, 1.0), :] ** 2))
    assert values[-1] < completeness
    few = spectrum(discretize(STANDARD, SpatialGrid.from_spacing(5e-3, 12.0, 5e-3)), 10)
    with pytest.raises(ValueError, match="retain more states"):
        amplitude(few, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        amplitude(fine, 1.0, 13.0, 1.0)  # endpoint outside the grid
    with pytest.raises(ValueError):
        amplitude(fine, 1.0, 1.0, 0.0)


def _node(dec, point):
    return int(round((point - dec.grid.x_min) / dec.grid.spacing))


def test_chapman_kolmogorov_on_grid():
    fine, refined = standard_pair(levels=160)
    g = refined.grid
    x = g.nodes()
    psi = refined.wavefunctions
    t1, t2 = 0.7, 1.1
    w1 = np.exp(-refined.energies * t1)
    w2 = np.exp(-refined.energies * t2)
    w12 = np.exp(-refined.energies * (t1 + t2))
    idx_a, idx_b = _node(refined, 1.0), _node(refined, 2.0)
    k1 = psi @ (w1 * psi[idx_a, :])  # G(x, t1; a) on every node
    k2 = psi @ (w2 * psi[idx_b, :])
    composed = float(np.sum(k1 * k2)) * g.spacing
    direct = float(np.sum(psi[idx_a, :] * w12 * psi[idx_b, :]))
    assert abs(composed - direct) <= 1e-8


def test_quartic_ground_energy_stable_under_refinement():
    quartic = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({2: 1.0, 4: 0.01}), domain=Domain.FULL_LINE
    )

    def refined(h):
        c = solve_spectrum(quartic, SpatialGrid.from_spacing(-12.0, 12.0, 2 * h), 12)
        f = solve_spectrum(quartic, SpatialGrid.from_spacing(-12.0, 12.0, h), 12)
        return refine_energies(c, f).energies[0]

    e1, e2 = refined(1e-2), refined(5e-3)
    assert abs(e1 - e2) <= 1e-6
    # omega' = sqrt(2 v2 / m), E0 ~ hbar omega'/2 plus a small quartic shift
    assert e2 == pytest.approx(0.7108116, abs=1e-6)


IMAGE = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}))
QUARTIC = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: 1.0, 4: 0.01}), domain=Domain.FULL_LINE
)


@pytest.mark.parametrize("spacing", [2e-3, 4e-3])
@pytest.mark.parametrize("levels", [160, 40])
@pytest.mark.parametrize("params", [STANDARD, IMAGE, QUARTIC], ids=["family", "image", "quartic"])
def test_energies_only_spectrum_matches_with_vectors(params, levels, spacing):
    # 3,000 or 6,000 nodes on either domain, as on the command line's half-line grids
    extent = 12.0 if params.domain is Domain.HALF_LINE else 6.0
    grid = default_grid(params.domain, spacing=spacing, extent=extent)
    bare = solve_spectrum(params, grid, levels, vectors=False)
    assert bare.wavefunctions is None
    assert np.array_equal(bare.energies, solve_spectrum(params, grid, levels).energies)


@pytest.mark.parametrize("spacing", [2e-3, 5e-3])
@pytest.mark.parametrize("params", [STANDARD, IMAGE, QUARTIC], ids=["family", "image", "quartic"])
def test_spectrum_equals_scipy_index_selection(params, spacing):
    # scipy's index selection bisected to convergence: the spectrum matches it to a
    # quarter ulp |T|, never worse than scipy's default tolerance does
    extent = 12.0 if params.domain is Domain.HALF_LINE else 6.0
    operator = discretize(params, default_grid(params.domain, spacing=spacing, extent=extent))
    d, e = operator.diagonal, operator.off_diagonal
    ulp_norm = np.finfo(float).eps * _norm(operator)
    # the lowest 160 and 40 levels, and a cap of 20 that binds at t_min = 0.4
    for levels, t_min in ((160, None), (40, None), (20, 0.4)):
        select = {"select": "i", "select_range": (0, levels - 1)}
        exact, states = eigh_tridiagonal(d, e, tol=1e-300, **select)
        default = eigh_tridiagonal(d, e, True, **select)
        dec = spectrum(operator, levels, t_min=t_min)
        error = np.max(np.abs(dec.energies - exact))
        # measured: 0.07 ulp |T| at spacing 2e-3, 0.09 at 5e-3
        assert error <= 0.25 * ulp_norm
        assert error <= np.max(np.abs(default - exact))
        unit = dec.wavefunctions * math.sqrt(operator.grid.spacing)
        signs = np.sign(np.sum(unit * states, axis=0))
        # measured: at most 4.2e-13
        npt.assert_allclose(unit * signs, states, rtol=0.0, atol=1e-11)
        bare = spectrum(operator, levels, vectors=False, t_min=t_min)
        assert np.array_equal(bare.energies, dec.energies)


# V = -2 x^2 + 0.1 x^4: the lowest levels come in tunnel pairs, split by 2.1e-7,
# 3.7e-5 and 2.6e-3, all within GROUP brackets (7.5e-3 each) of each other
DOUBLE_WELL = ActionParams(
    mass=1.0, hbar=1.0, potential=PotentialSpec({2: -2.0, 4: 0.1}), domain=Domain.FULL_LINE
)


def test_double_well_pairs_are_polished_as_groups():
    operator = discretize(DOUBLE_WELL, default_grid(Domain.FULL_LINE, spacing=2e-3, extent=8.0))
    d, e = operator.diagonal, operator.off_diagonal
    exact, states = eigh_tridiagonal(d, e, tol=1e-300, select="i", select_range=(0, 11))
    splits = np.diff(exact)[[0, 2, 4]]
    assert np.all(splits < GROUP * BRACKET * _norm(operator))
    npt.assert_allclose(splits, [2.1e-7, 3.7e-5, 2.6e-3], rtol=0.05)
    dec = spectrum(operator, 12)
    ulp_norm = np.finfo(float).eps * _norm(operator)
    assert np.max(np.abs(dec.energies - exact)) <= 0.25 * ulp_norm
    unit = dec.wavefunctions * math.sqrt(operator.grid.spacing)
    assert np.max(np.abs(unit.T @ unit - np.eye(12))) <= 1e-9
    # a nearly degenerate pair fixes its plane, not each vector: compare projectors
    for first in (0, 2, 4):
        pair = slice(first, first + 2)
        mine = unit[:, pair] @ unit[:, pair].T
        theirs = states[:, pair] @ states[:, pair].T
        assert np.max(np.abs(mine - theirs)) <= 1e-12


def test_spectrum_is_deterministic_and_levels_do_not_depend_on_their_block(monkeypatch):
    import qaction.oracle

    operator = discretize(STANDARD, default_grid(STANDARD.domain, spacing=2e-3, extent=12.0))
    first, second = spectrum(operator, 160, t_min=0.4), spectrum(operator, 160, t_min=0.4)
    assert np.array_equal(first.energies, second.energies)
    assert np.array_equal(first.wavefunctions, second.wavefunctions)
    # one polish of 8 bisection values in one stack against eight polishes of one
    w = eigh_tridiagonal(operator.diagonal, operator.off_diagonal, True, select="i",
                         select_range=(0, 7))
    monkeypatch.setattr(qaction.oracle, "BLOCK", 8)
    energies, states = _polish(operator, w, vectors=True)
    monkeypatch.undo()
    assert BLOCK < 8
    default_energies, default_states = _polish(operator, w, vectors=True)
    assert np.array_equal(default_energies, energies)
    assert np.array_equal(default_states, states)
    for n in range(8):
        alone, state = _polish(operator, w[n : n + 1], vectors=True)
        assert alone[0] == energies[n]
        assert np.array_equal(state[:, 0], states[:, n])


def test_energies_only_spectrum_holds_no_vector_array():
    import tracemalloc

    operator = discretize(STANDARD, default_grid(STANDARD.domain, spacing=2e-3, extent=12.0))
    vectors = operator.grid.n_points * 160 * 8  # bytes of the N x 160 vector array
    tracemalloc.start()
    try:
        spectrum(operator, 160, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < vectors / 4


def test_polish_failures_raise_linalg_error(monkeypatch):
    import qaction.oracle

    operator = discretize(STANDARD, default_grid(STANDARD.domain, spacing=5e-3, extent=12.0))
    monkeypatch.setattr(qaction.oracle, "MAX_SOLVES", 2)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 2 solves"):
        spectrum(operator, 10)
    monkeypatch.undo()
    # brackets far narrower than the polish's accuracy: a converged level lies outside
    monkeypatch.setattr(qaction.oracle, "BRACKET", 1e-24)
    with pytest.raises(np.linalg.LinAlgError, match="left its bracket"):
        spectrum(operator, 10, vectors=False)


def test_energies_only_richardson_partner():
    fine = solve_spectrum(STANDARD, SpatialGrid.from_spacing(1e-2, 12.0, 1e-2), 120)
    coarse_grid = SpatialGrid.from_spacing(2e-2, 12.0, 2e-2)
    refined = refine_energies(solve_spectrum(STANDARD, coarse_grid, 120, vectors=False), fine)
    reference = refine_energies(solve_spectrum(STANDARD, coarse_grid, 120), fine)
    assert np.array_equal(refined.energies, reference.energies)
    assert np.array_equal(refined.wavefunctions, reference.wavefunctions)
    assert amplitude(refined, 1.0, 2.0, 1.0) == amplitude(reference, 1.0, 2.0, 1.0)
    # no wavefunctions anywhere: the refined decomposition has none either
    bare = refine_energies(
        solve_spectrum(STANDARD, coarse_grid, 120, vectors=False),
        solve_spectrum(STANDARD, fine.grid, 120, vectors=False),
    )
    assert bare.wavefunctions is None
    assert np.array_equal(bare.energies, reference.energies)
    with pytest.raises(ValueError, match="wavefunctions"):
        amplitude(bare, 1.0, 2.0, 1.0)


# v_2 = 312.5: omega = 25, so the levels sit 50 apart, above 9 hbar / t_min at
# t_min = 0.4, and only the ground level and one more are visible there
STEEP = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 312.5, -2: 1.0}))


@pytest.mark.parametrize(
    "params, t_min, extent, kept",
    [(STANDARD, 0.4, 12.0, 45), (IMAGE, 0.5, 12.0, 38), (STEEP, 0.4, 3.0, 3)],
    ids=["family", "image", "steep"],
)
def test_visible_levels_end_at_first_level_past_threshold(params, t_min, extent, kept):
    operator = discretize(params, default_grid(params.domain, spacing=5e-3, extent=extent))
    dec = spectrum(operator, 160, t_min=t_min)
    assert len(dec.energies) == kept == dec.wavefunctions.shape[1]
    efolds = (dec.energies - dec.energies[0]) * t_min / params.hbar
    assert efolds[-2] <= VISIBLE_EFOLDS < efolds[-1]
    # the same levels as a full solve, to its bisection noise
    full = spectrum(operator, 160)
    npt.assert_allclose(dec.energies, full.energies[:kept], rtol=1e-11)
    signs = np.sign(np.sum(dec.wavefunctions * full.wavefunctions[:, :kept], axis=0))
    npt.assert_allclose(dec.wavefunctions * signs, full.wavefunctions[:, :kept], atol=1e-10)
    bare = spectrum(operator, 160, vectors=False, t_min=t_min)
    assert bare.wavefunctions is None and np.array_equal(bare.energies, dec.energies)


def test_binding_cap_solves_the_lowest_levels():
    operator = discretize(STANDARD, default_grid(STANDARD.domain, spacing=5e-3, extent=12.0))
    capped = spectrum(operator, 20, t_min=0.4)
    plain = spectrum(operator, 20)
    assert np.array_equal(capped.energies, plain.energies)
    assert np.array_equal(capped.wavefunctions, plain.wavefunctions)
    # at t_min = 0.4 the rule keeps 45 levels: a cap of 44 binds, 45 does not
    bound = spectrum(operator, 44, vectors=False, t_min=0.4)
    assert np.array_equal(bound.energies, spectrum(operator, 44, vectors=False).energies)
    assert len(spectrum(operator, 45, t_min=0.4).energies) == 45
    # at t_min = 0.01 the rule would keep far more than 60 levels
    tiny = spectrum(operator, 60, vectors=False, t_min=0.01)
    assert np.array_equal(tiny.energies, spectrum(operator, 60, vectors=False).energies)
    for bad in (0.0, -0.4):
        with pytest.raises(ValueError, match="t_min"):
            spectrum(operator, 20, t_min=bad)


def test_steep_spectrum_keeps_first_invisible_level_for_truncation_check():
    grid = default_grid(STEEP.domain, spacing=2e-3, extent=3.0)
    fine = solve_spectrum(STEEP, grid, 160, t_min=0.4)
    coarse_grid = default_grid(STEEP.domain, spacing=4e-3, extent=3.0)
    coarse = solve_spectrum(STEEP, coarse_grid, len(fine.energies), vectors=False)
    refined = refine_energies(coarse, fine)
    assert len(refined.energies) == 3
    for a, b, t in ((0.2, 0.25, 0.4), (0.3, 0.4, 0.4), (0.3, 0.4, 1.0)):
        exact = math.exp(euclidean_log_amplitude(STEEP, a, b, t))
        assert amplitude(refined, a, b, t) == pytest.approx(exact, rel=5e-5)
    # without the first invisible level the tail at t_min is 2e-9
    visible = dataclasses.replace(
        refined, energies=refined.energies[:2], wavefunctions=refined.wavefunctions[:, :2]
    )
    with pytest.raises(ValueError, match="retain more states"):
        amplitude(visible, 0.2, 0.25, 0.4)


def test_array_amplitude_keeps_the_bits_of_one_entry_calls():
    from scalar_transcriptions import scalar_amplitude

    _, refined = standard_pair(spacing=1e-2, levels=120)
    g, h = refined.grid, refined.grid.spacing
    # interior and on-node points, and both ends, where the 4-point stencil
    # is clamped to the first and last nodes
    a = np.array([0.37, g.x_min + 100 * h, 2.5 + 0.3 * h, g.x_min, g.x_min + 0.5 * h])
    b = np.array([1.0, g.x_min + 1.5 * h, g.x_max - 0.5 * h, g.x_max, 7.0, g.x_min + 250 * h])
    for t in (0.5, 2.0):
        got = amplitude(refined, a[:, None], b[None, :], t)
        assert got.shape == (len(a), len(b))
        want = np.array([[scalar_amplitude(refined, x, y, t) for y in b] for x in a])
        assert np.array_equal(got, want)
        one = np.array([[amplitude(refined, float(x), float(y), t) for y in b] for x in a])
        assert np.array_equal(got, one)
        # a 1-D column against a scalar endpoint
        assert np.array_equal(amplitude(refined, a, float(b[2]), t), want[:, 2])
    scalar = amplitude(refined, 1.0, 2.0, 1.0)
    assert type(scalar) is float
    assert scalar == scalar_amplitude(refined, 1.0, 2.0, 1.0)
