"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured numbers
next to their tolerances. The suite is self-contained: every reference value
is either a closed form evaluated here or an independently computed oracle.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qaction.analytic import (
    dynamical_scales,
    euclidean_log_amplitude,
    ground_state,
    harmonic_log_kernel,
    reconstruct_ground_state,
)
from qaction.fit import (
    BoundarySet,
    build_table,
    constant_term,
    equidistant,
    fit_at_time,
    sweep,
)
from qaction.flow import FlowState, assemble_system, solve_rates
from qaction.flow import run as flow_run
from qaction.model import ActionParams, Domain, PotentialSpec, omega
from qaction.oracle import amplitude, default_grid, refine_energies, solve_spectrum
from qaction.specfun import bessel_i
from qaction.trajectory import TimeGrid, action_value, sensitivities, solve_bvp
from references import conserved_energy_drift, invariant_combination, pinned_v0_rates

STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))
POINTS = (0.5, 1.0, 2.0, 3.0)
TIMES = (0.2, 0.4, 1.0, 2.0, 4.0)
SWEEP_TIMES = [0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
PAPER_BOUNDS = BoundarySet(equidistant(4.0, 5.0, 2), equidistant(0.5, 3.0, 10))


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def classical_init(model, exponents):
    coeffs = {k: model.potential.coefficients.get(k, 0.0) for k in exponents}
    return ActionParams(
        mass=1.0, hbar=model.hbar, potential=PotentialSpec(coeffs), domain=model.domain
    )


@pytest.fixture(scope="module")
def standard_sweep():
    start = time.time()
    results = sweep(STANDARD, PAPER_BOUNDS, [0, 2, -2], SWEEP_TIMES, [500] * len(SWEEP_TIMES))
    return results, time.time() - start


def test_criterion_01_propagator_cross_validation():
    start = time.time()
    fine = solve_spectrum(
        STANDARD, default_grid(Domain.HALF_LINE, spacing=2.5e-3, extent=12.0), 160
    )
    coarse = solve_spectrum(
        STANDARD, default_grid(Domain.HALF_LINE, spacing=5e-3, extent=12.0), 160
    )
    worst = 0.0
    for a in POINTS:
        for b in POINTS:
            for t in TIMES:
                analytic = math.exp(euclidean_log_amplitude(STANDARD, a, b, t))
                # second-order grid errors cancel in the 2:1 extrapolation
                oracle = (4.0 * amplitude(fine, a, b, t) - amplitude(coarse, a, b, t)) / 3.0
                worst = max(worst, abs(analytic - oracle) / oracle)
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed <= 60.0
    report(1, ok, f"oracle cross-check max rel diff {worst:.3e} (tol 1e-5), {elapsed:.0f} s")
    assert worst <= 1e-5
    assert elapsed <= 60.0


def test_criterion_02_image_formula_identity():
    free = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}))
    w = omega(free)
    worst = 0.0
    for a in POINTS:
        for b in POINTS:
            for t in TIMES:
                direct = math.exp(euclidean_log_amplitude(free, a, b, t))
                image = math.exp(harmonic_log_kernel(1.0, w, 1.0, a, b, t)) - math.exp(
                    harmonic_log_kernel(1.0, w, 1.0, -a, b, t)
                )
                worst = max(worst, abs(direct - image) / abs(image))
    ok = worst <= 1e-10
    report(2, ok, f"g=0 image identity max rel diff {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_03_ground_state_energy():
    gs = ground_state(STANDARD)
    closed_ok = gs.energy == 2.5

    dec = solve_spectrum(
        STANDARD, default_grid(Domain.HALF_LINE, spacing=5e-3, extent=12.0), 20
    )
    oracle_dev = abs(dec.energies[0] - 2.5)
    oracle_ok = oracle_dev <= 5e-4

    # log-ratio at the node of the first excited state, where the leading
    # e^{-(E_1-E_0)T} contamination vanishes
    node = math.sqrt((1.0 + gs.gamma) * STANDARD.hbar / (STANDARD.mass * omega(STANDARD)))
    ratio = euclidean_log_amplitude(STANDARD, node, node, 3.0) - euclidean_log_amplitude(
        STANDARD, node, node, 4.0
    )
    fk_dev = abs(ratio - 2.5)
    fk_ok = fk_dev <= 1e-4

    ok = closed_ok and oracle_ok and fk_ok
    report(
        3,
        ok,
        f"E_gr closed {gs.energy}, oracle dev {oracle_dev:.2e} (tol 5e-4), "
        f"log-ratio dev {fk_dev:.2e} (tol 1e-4)",
    )
    assert closed_ok
    assert oracle_ok
    assert fk_ok


def test_criterion_04_dynamical_scales():
    sc = dynamical_scales(STANDARD, probability=0.95)
    time_ok = sc.time_scale == 0.4
    length_dev = abs(sc.length_scale - 2.35)
    length_ok = length_dev <= 0.01
    ok = time_ok and length_ok
    report(4, ok, f"T_sc {sc.time_scale}, L_sc {sc.length_scale:.6f} (2.35 +- 0.01)")
    assert time_ok
    assert length_ok


def test_criterion_05_short_time_fit_is_classical():
    bounds = BoundarySet(equidistant(3.5, 5.0, 2), equidistant(3.0, 4.5, 4))
    table = build_table(STANDARD, bounds, 0.05)
    result = fit_at_time(
        table, [2, -2], classical_init(STANDARD, [2, -2]), 500
    )
    coeffs = result.params.potential.coefficients
    devs = {
        "mass": abs(result.params.mass - 1.0),
        "v_2": abs(coeffs[2] / 0.5 - 1.0),
        "v_-2": abs(coeffs[-2] - 1.0),
    }
    worst = max(devs.values())
    ok = worst <= 0.01
    report(5, ok, f"T=0.05 fit max param deviation {worst:.3%} from classical (tol 1%)")
    assert ok, devs


def test_criterion_06_asymptotic_products(standard_sweep):
    results, elapsed = standard_sweep
    at4 = next(r for r in results if r.time == 4.0)
    coeffs = at4.params.potential.coefficients
    mv2 = at4.params.mass * coeffs[2]
    mvm2 = at4.params.mass * coeffs[-2]
    v0 = constant_term(at4)
    devs = (abs(mv2 / 0.5 - 1.0), abs(mvm2 / 2.0 - 1.0), abs(v0 / 0.5 - 1.0))
    ok = max(devs) <= 0.02 and elapsed <= 600.0
    report(
        6,
        ok,
        f"T=4: m~v~2={mv2:.5f}, m~v~-2={mvm2:.5f}, v~0={v0:.5f} "
        f"(each within 2%), sweep {elapsed:.0f} s (limit 600)",
    )
    assert max(devs) <= 0.02, devs
    assert elapsed <= 600.0


def test_criterion_07_error_curve_shape(standard_sweep):
    results, _ = standard_sweep
    errors = {r.time: r.relative_error for r in results}
    start_ok = errors[0.1] < 1e-4
    peak_time = max(errors, key=errors.get)
    peak = errors[peak_time]
    peak_ok = 0.4 <= peak_time <= 2.0 and 1e-4 <= peak <= 1e-2
    mid = [errors[t] for t in (2.0, 2.5, 3.0, 3.5)]
    tail_ok = all(a > b for a, b in zip(mid, mid[1:])) and all(
        errors[t] < errors[2.0] for t in (2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    )
    # the slight rise after T=3.5 is the fixed-N_t mesh floor: on a converged
    # mesh the decay continues
    table = build_table(STANDARD, PAPER_BOUNDS, 5.0)
    refined = fit_at_time(
        table, [0, 2, -2], results[-1].params, 2000
    )
    floor_ok = refined.relative_error < errors[3.5]
    ok = start_ok and peak_ok and tail_ok and floor_ok
    report(
        7,
        ok,
        f"err(0.1)={errors[0.1]:.2e}, peak {peak:.2e} at T={peak_time}, "
        f"decaying past T=2, converged-mesh err(5)={refined.relative_error:.2e}",
    )
    assert start_ok
    assert peak_ok
    assert tail_ok
    assert floor_ok


def test_criterion_08_strong_coupling_product():
    strong = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 5.0}))
    table = build_table(strong, PAPER_BOUNDS, 4.0)
    result = fit_at_time(
        table, [0, 2, -2], classical_init(strong, [0, 2, -2]), 500
    )
    mvm2 = result.params.mass * result.params.potential.coefficients[-2]
    dev = abs(mvm2 / 6.851 - 1.0)
    ok = dev <= 0.01
    report(8, ok, f"g=5 fit m~v~-2 = {mvm2:.4f} vs 6.851 (dev {dev:.3%}, tol 1%)")
    assert ok


def test_criterion_09_quartic_flow_vs_fit():
    quartic = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({2: 1.0, 4: 0.01}), domain=Domain.FULL_LINE
    )
    fine = solve_spectrum(quartic, default_grid(Domain.FULL_LINE, spacing=5e-3, extent=8.0), 60)
    coarse = solve_spectrum(quartic, default_grid(Domain.FULL_LINE, spacing=1e-2, extent=8.0), 60)
    dec = refine_energies(coarse, fine)
    bounds = BoundarySet(equidistant(-1.5, -0.5, 2), equidistant(0.2, 1.8, 10))
    ansatz = [0, 2, 4]

    def fitted(t, init):
        table = build_table(quartic, bounds, t, decomposition=dec)
        return fit_at_time(table, ansatz, init, 500)

    base = fitted(0.5, classical_init(quartic, ansatz))
    state = FlowState(
        beta=0.5,
        params=base.params,
        log_norm=base.log_norm,
        initial_point=-1.0,
        final_points=equidistant(0.2, 2.2, 10),
    )
    trace = flow_run(state, quartic, 4.0, dbeta=0.01, intervals=500, record_stride=1)
    by_beta = {round(s.beta, 9): s for s in trace.states}
    worst = 0.0
    init = base.params
    for beta in (1.0, 2.0, 3.0, 4.0):
        flowed = by_beta[beta].params
        direct = fitted(beta, init)
        init = direct.params
        worst = max(
            worst,
            abs(flowed.mass / direct.params.mass - 1.0),
            abs(
                flowed.potential.coefficients[2] / direct.params.potential.coefficients[2]
                - 1.0
            ),
        )
    ok = worst <= 0.02
    report(9, ok, f"quartic flow vs fit: max m~/v~2 deviation {worst:.3%} over beta in [0.5,4] (tol 2%)")
    assert ok


def test_criterion_10_flow_stability():
    def initial(v2):
        return FlowState(
            beta=0.35,
            params=ActionParams(
                mass=0.99994533,
                hbar=1.0,
                potential=PotentialSpec({0: 1.1676274, 2: v2, -2: 1.2280919}),
            ),
            log_norm=0.0,
            initial_point=10.0,
            final_points=equidistant(0.2, 7.0, 30),
        )

    finals = []
    for v2 in (0.47, 0.4998810, 0.52):
        trace = flow_run(
            initial(v2), STANDARD, 3.0, dbeta=7.5e-3,
            intervals=500, record_stride=1000,
        )
        params = trace.states[-1].params
        finals.append(
            (params.mass, params.potential.coefficients[2], params.potential.coefficients[-2])
        )
    spread = lambda i: max(v[i] for v in finals) - min(v[i] for v in finals)
    s_mass, s_v2, s_vm2 = spread(0), spread(1), spread(2)
    p_v2 = [m * v2 for m, v2, _ in finals]
    p_vm2 = [m * vm2 for m, _, vm2 in finals]
    v2_ok = s_v2 <= 1e-2
    mass_ok = s_mass <= 1e-3
    vm2_ok = s_vm2 <= 1e-3
    ok = v2_ok and mass_ok and vm2_ok
    report(
        10,
        ok,
        f"beta=3 spreads: v~2 {s_v2:.2e} (tol 1e-2), m~ {s_mass:.2e} and v~-2 {s_vm2:.2e} "
        f"(tol 1e-3 each); product spreads m~v~2 {max(p_v2)-min(p_v2):.2e}, "
        f"m~v~-2 {max(p_vm2)-min(p_vm2):.2e}",
    )
    assert v2_ok
    # the individual m~ and v~-2 spreads sit on the slowly contracting mass
    # gauge mode and plateau near 1.5e-3 / 3.5e-3 at beta=3 (mesh and step
    # converged); the gauge-invariant products collapse to ~1e-4
    assert mass_ok
    assert vm2_ok


def test_criterion_11_property_suite():
    checks = {}

    # sensitivities vs finite differences
    grid = TimeGrid(1.4, intervals=400)
    traj = solve_bvp(STANDARD, 0.8, 2.1, grid)
    sens = sensitivities(STANDARD, traj)
    h = 1e-5

    def action_of(params, start=0.8, end=2.1):
        return action_value(params, solve_bvp(params, start, end, grid))

    worst_fd = 0.0
    m_hi = ActionParams(mass=1.0 + h, hbar=1.0, potential=STANDARD.potential)
    m_lo = ActionParams(mass=1.0 - h, hbar=1.0, potential=STANDARD.potential)
    fd_mass = (action_of(m_hi) - action_of(m_lo)) / (2 * h)
    worst_fd = max(worst_fd, abs(fd_mass / sens.d_mass - 1.0))
    for k in (2, -2):
        base = dict(STANDARD.potential.coefficients)
        hi = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({**base, k: base[k] + h}))
        lo = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({**base, k: base[k] - h}))
        fd = (action_of(hi) - action_of(lo)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd / sens.d_coeff[k] - 1.0))
    checks["sensitivities_vs_fd"] = (worst_fd, 1e-6)

    # conserved-energy drift on a converged trajectory
    harmonic = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE
    )
    drift_traj = solve_bvp(harmonic, -0.7, 1.1, TimeGrid(2.0, intervals=8000))
    checks["energy_drift"] = (conserved_energy_drift(harmonic, drift_traj), 1e-8)

    # Chapman-Kolmogorov with analytic kernels
    spacing = 5e-4
    xs = np.arange(spacing, 10.0, spacing)
    left = euclidean_log_amplitude(STANDARD, 1.0, xs, 0.5)
    right = euclidean_log_amplitude(STANDARD, xs, 1.0, 0.5)
    composed = np.trapezoid(np.exp(left + right), dx=spacing)
    direct = math.exp(euclidean_log_amplitude(STANDARD, 1.0, 1.0, 1.0))
    checks["chapman_kolmogorov"] = (abs(composed - direct) / direct, 1e-6)

    # Bessel recurrence I_{nu-1} - I_{nu+1} = (2 nu / z) I_nu
    worst_b = 0.0
    for nu in (1.0, 1.5, 2.5, 3.25):
        for z in (0.3, 1.0, 7.5, 40.0, 150.0):
            lo = bessel_i(nu - 1.0, z).scaled_value
            mid = bessel_i(nu, z).scaled_value
            hi = bessel_i(nu + 1.0, z).scaled_value
            target = 2.0 * nu / z * mid
            worst_b = max(worst_b, abs((lo - hi) - target) / abs(target))
    checks["bessel_recurrence"] = (worst_b, 1e-9)

    # ground state rebuilt from the asymptotic quantum parameters
    gs = ground_state(STANDARD)
    quantum = ActionParams(
        mass=1.0,
        hbar=1.0,
        potential=PotentialSpec({0: 2.5 - 2.0, 2: 0.5, -2: 2.0}),
        domain=Domain.HALF_LINE,
    )
    probe = np.linspace(0.05, 6.0, 120)
    rebuilt = reconstruct_ground_state(quantum, probe)
    checks["ground_state_reconstruction"] = (
        float(np.max(np.abs(rebuilt - gs.wavefunction(probe)))),
        1e-10,
    )

    # rank deficiency of the constant ansatz direction, invariant combination
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
    r_pin, _ = pinned_v0_rates(a_mat, rhs)
    gap = abs(
        invariant_combination(0.35, r_min, state.exponents())
        - invariant_combination(0.35, r_pin, state.exponents())
    )
    checks["flow_degeneracy_detected"] = (float(1 - d_min.deficiency), 0.5)
    checks["flow_invariant_combination"] = (gap, 1e-10)

    failures = {k: v for k, v in checks.items() if v[0] > v[1]}
    ok = not failures
    detail = ", ".join(f"{k} {m:.1e}<={t:.0e}" for k, (m, t) in checks.items())
    report(11, ok, detail)
    assert ok, failures


def test_criterion_12_documented_exclusions():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    exists = readme.is_file()
    text = readme.read_text(encoding="utf-8").lower() if exists else ""
    needed = ["error bars", "t = 15", "boundary dependence"]
    missing = [phrase for phrase in needed if phrase not in text]
    ok = exists and not missing
    report(12, ok, f"README exclusions documented ({'all present' if ok else missing})")
    assert exists
    assert not missing, missing
