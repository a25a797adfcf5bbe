import math
import tracemalloc

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from qaction.analytic import (
    _require_family,
    asymptotic_quantum_action,
    asymptotic_quantum_params,
    closed_form_kernel,
    dynamical_scales,
    euclidean_log_amplitude,
    gamma_index,
    ground_state,
    harmonic_log_kernel,
    reconstruct_ground_state,
    transformation_residual,
)
from qaction.model import ActionParams, Domain, PotentialSpec
from qaction.specfun import _CHUNK
from scalar_transcriptions import scalar_log_kernel

mp.mp.dps = 40

STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))


def family(mass=1.0, hbar=1.0, v2=0.5, g=1.0):
    return ActionParams(mass=mass, hbar=hbar, potential=PotentialSpec({2: v2, -2: g}))


def mp_log_kernel(params, a, b, time):
    """Arbitrary-precision evaluation of the closed-form kernel."""
    m = mp.mpf(params.mass)
    hb = mp.mpf(params.hbar)
    v2 = mp.mpf(params.potential.coefficients[2])
    g = mp.mpf(params.potential.coefficients.get(-2, 0.0))
    w = mp.sqrt(2 * v2 / m)
    gam = mp.sqrt(1 + 8 * m * g / hb**2) / 2
    a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(time)
    sh = mp.sinh(w * t)
    pref = m * w * mp.sqrt(a * b) / (hb * sh)
    expo = -(m * w / (2 * hb)) * (a**2 + b**2) * mp.cosh(w * t) / sh
    z = m * w * a * b / (hb * sh)
    return float(mp.log(pref) + expo + mp.log(mp.besseli(gam, z)))


def test_gamma_index_values():
    assert gamma_index(STANDARD) == pytest.approx(1.5, abs=1e-15)
    assert gamma_index(family(g=5.0)) == pytest.approx(0.5 * math.sqrt(41.0), rel=1e-15)
    assert gamma_index(family(g=0.0)) == pytest.approx(0.5)
    # hbar enters through 8 m g / hbar^2
    assert gamma_index(family(hbar=2.0, g=1.0)) == pytest.approx(
        0.5 * math.sqrt(1.0 + 8.0 / 4.0)
    )


def test_family_validation():
    with pytest.raises(ValueError):
        gamma_index(
            ActionParams(1.0, 1.0, PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE)
        )
    with pytest.raises(ValueError):
        gamma_index(ActionParams(1.0, 1.0, PotentialSpec({2: 0.5, 4: 0.1})))
    with pytest.raises(ValueError):
        euclidean_log_amplitude(STANDARD, -1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        euclidean_log_amplitude(STANDARD, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("v2, g", [(math.nan, 1.0), (0.5, math.nan)], ids=["v_2", "v_-2"])
def test_nan_coefficient_is_outside_the_family(v2, g):
    params = family(v2=v2, g=g)
    with pytest.raises(ValueError, match="family requires"):
        _require_family(params)
    with pytest.raises(ValueError, match="family requires"):
        ground_state(params)
    with pytest.raises(ValueError, match="no closed-form"):
        closed_form_kernel(params)


def test_log_amplitude_matches_reference_over_parameter_sweep():
    rng = np.random.default_rng(19)
    cases = [STANDARD, family(g=5.0), family(mass=1.7, hbar=0.9, v2=1.2, g=0.3), family(g=0.0)]
    for params in cases:
        for _ in range(6):
            a = rng.uniform(0.2, 4.0)
            b = rng.uniform(0.2, 4.0)
            t = 10.0 ** rng.uniform(-1.3, 0.8)
            got = euclidean_log_amplitude(params, a, b, t)
            assert got == pytest.approx(mp_log_kernel(params, a, b, t), rel=1e-12, abs=1e-12)


def test_log_amplitude_long_time_branch():
    # kernel argument underflows sinh; the explicit two-term series takes over
    for t in (25.0, 60.0, 200.0):
        got = euclidean_log_amplitude(STANDARD, 1.0, 2.0, t)
        assert got == pytest.approx(mp_log_kernel(STANDARD, 1.0, 2.0, t), rel=1e-12)
    # decay rate approaches the ground-state energy
    e_est = euclidean_log_amplitude(STANDARD, 1.0, 1.0, 30.0) - euclidean_log_amplitude(
        STANDARD, 1.0, 1.0, 31.0
    )
    assert e_est == pytest.approx(2.5, rel=1e-12)


def test_kernel_symmetry_in_endpoints():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(0.3, 3.0, size=2)
        t = rng.uniform(0.1, 3.0)
        assert euclidean_log_amplitude(STANDARD, a, b, t) == pytest.approx(
            euclidean_log_amplitude(STANDARD, b, a, t), rel=1e-14
        )


def test_harmonic_kernel_against_reference():
    rng = np.random.default_rng(23)
    for _ in range(12):
        m = rng.uniform(0.5, 2.0)
        w = rng.uniform(0.5, 2.0)
        hb = rng.uniform(0.5, 1.5)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.1, 5.0)
        sh = mp.sinh(mp.mpf(w) * t)
        want = mp.sqrt(m * w / (2 * mp.pi * hb * sh)) * mp.exp(
            -m * w * ((a**2 + b**2) * mp.cosh(mp.mpf(w) * t) - 2 * a * b) / (2 * hb * sh)
        )
        got = harmonic_log_kernel(m, w, hb, a, b, t)
        assert got == pytest.approx(float(mp.log(want)), rel=1e-12, abs=1e-12)


def test_image_formula_at_zero_coupling():
    # with g = 0 the half-line kernel is the odd-image combination of the
    # full-line oscillator kernel
    params = family(g=0.0)
    for a, b, t in ((0.5, 1.0, 0.4), (1.0, 2.0, 1.0), (2.0, 3.0, 2.5)):
        direct = math.exp(harmonic_log_kernel(1.0, 1.0, 1.0, a, b, t))
        mirror = math.exp(harmonic_log_kernel(1.0, 1.0, 1.0, -a, b, t))
        image = direct - mirror
        got = math.exp(euclidean_log_amplitude(params, a, b, t))
        assert got == pytest.approx(image, rel=1e-10)


def test_ground_state_energy_and_norm():
    gs = ground_state(STANDARD)
    assert gs.energy == 2.5
    assert gs.gamma == 1.5
    norm, _ = quad(lambda x: gs.wavefunction(x) ** 2, 0.0, 20.0, epsabs=1e-12)
    assert norm == pytest.approx(1.0, abs=1e-9)
    # closed-form normalisation constant: 2 (m w / hbar)^(gamma+1) / Gamma(gamma+1)
    want = 2.0 / math.gamma(2.5)
    assert gs.norm_constant == pytest.approx(want, rel=1e-14)


def test_feynman_kac_projection_at_long_time():
    # e^{E_gr T / hbar} G(a, b, T) -> psi(a) psi(b); excited corrections decay
    # like e^{-2 omega T}, negligible at T = 30
    gs = ground_state(STANDARD)
    for a, b in ((0.7, 1.3), (1.0, 1.0), (2.0, 0.5)):
        log_g = euclidean_log_amplitude(STANDARD, a, b, 30.0)
        want = math.log(gs.wavefunction(a) * gs.wavefunction(b))
        assert log_g + 2.5 * 30.0 == pytest.approx(want, abs=1e-12)


def test_dynamical_scales_standard_model():
    sc = dynamical_scales(STANDARD, probability=0.95)
    assert sc.time_scale == pytest.approx(0.4, abs=1e-15)
    # independent root: P(L) = gammainc(gamma+1, L^2 m w / hbar) = 0.95
    lam_ref = math.sqrt(
        float(mp.findroot(lambda q: mp.gammainc(mp.mpf("2.5"), 0, q, regularized=True) - mp.mpf("0.95"), 5.0))
    )
    assert sc.length_scale == pytest.approx(lam_ref, abs=1e-8)
    assert sc.length_scale == pytest.approx(2.3527109569, abs=1e-6)


def mp_length_scale(params, probability):
    """L with P(gamma + 1, m omega L^2 / hbar) = probability, in 40 digits."""
    m, hbar = mp.mpf(params.mass), mp.mpf(params.hbar)
    w = mp.sqrt(2 * mp.mpf(params.potential.coefficients[2]) / m)
    gam = mp.sqrt(1 + 8 * m * mp.mpf(params.potential.coefficients[-2]) / hbar**2) / 2
    p = mp.mpf(probability)

    def excess(q):
        return mp.gammainc(gam + 1, 0, q, regularized=True) - p

    # 60 bisections of ln u bracket the root; the secant method polishes it
    lo, hi = mp.log(mp.mpf("1e-30")), mp.log(mp.mpf(200))
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mp.exp(mid)) < 0 else (lo, mid)
    u = mp.findroot(excess, mp.exp((lo + hi) / 2))
    return float(mp.sqrt(u * hbar / (m * w)))


@pytest.mark.parametrize("g", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("mass", [1.0, 1.3])
def test_dynamical_scales_length_matches_incomplete_gamma_root(g, hbar, mass):
    params = family(mass=mass, hbar=hbar, g=g)
    for probability in (1e-9, 0.5, 0.95, 1.0 - 1e-9):
        got = dynamical_scales(params, probability).length_scale
        assert got == pytest.approx(mp_length_scale(params, probability), abs=1e-13), probability


def test_dynamical_scales_probability_monotone():
    lo = dynamical_scales(STANDARD, probability=0.5).length_scale
    hi = dynamical_scales(STANDARD, probability=0.99).length_scale
    assert lo < hi


def test_asymptotic_products_standard_and_strong_coupling():
    mv2, mvm2, energy = asymptotic_quantum_params(STANDARD)
    assert mv2 == pytest.approx(0.5, abs=1e-15)
    assert mvm2 == pytest.approx(2.0, abs=1e-14)
    assert energy == pytest.approx(2.5, abs=1e-14)
    mv2, mvm2, energy = asymptotic_quantum_params(family(g=5.0))
    assert mv2 == pytest.approx(0.5, abs=1e-15)
    assert mvm2 == pytest.approx(6.8507809, abs=1e-6)
    assert energy == pytest.approx(1.0 + 0.5 * math.sqrt(41.0), rel=1e-14)


def test_transformation_residual_vanishes_for_asymptotic_action():
    xs = np.linspace(0.05, 8.0, 200)
    for params in (STANDARD, family(g=5.0), family(mass=1.3, hbar=0.8, v2=0.9, g=0.4)):
        resid = transformation_residual(params, asymptotic_quantum_action(params), xs)
        assert np.max(np.abs(resid)) < 1e-9


def test_transformation_residual_detects_mismatch():
    wrong = asymptotic_quantum_action(STANDARD)
    bumped = ActionParams(
        mass=wrong.mass,
        hbar=wrong.hbar,
        potential=PotentialSpec(
            {**wrong.potential.coefficients, -2: wrong.potential.coefficients[-2] * 1.05}
        ),
    )
    resid = transformation_residual(STANDARD, bumped, np.linspace(0.1, 5.0, 80))
    assert np.max(np.abs(resid)) > 1e-2


def test_reconstruction_matches_ground_state():
    gs = ground_state(STANDARD)
    xs = np.linspace(0.05, 6.0, 150)
    rebuilt = reconstruct_ground_state(asymptotic_quantum_action(STANDARD), xs)
    npt.assert_allclose(rebuilt, gs.wavefunction(xs), atol=1e-10)


def test_reconstruction_outside_the_family_raises():
    # quadrature of a general potential is not offered: only closed forms
    quartic = ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, 4: 0.1}),
        domain=Domain.FULL_LINE,
    )
    mixed = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -4: 0.3}))
    for params in (quartic, mixed):
        with pytest.raises(ValueError, match="no closed-form ground state"):
            reconstruct_ground_state(params, np.array([0.5, 1.0, 1.8]))


@pytest.mark.parametrize(
    "g, boundary, t_half", [(1.0, 1.0, 0.5), (5.0, 1.0, 0.5), (1.0, 0.97, 0.51)]
)
def test_array_kernel_on_chapman_kolmogorov_grid(g, boundary, t_half):
    # the verify composition grid (spacing 5e-4, extent 10), both orientations
    params = family(g=g)
    x = np.arange(5e-4, 10.0 + 0.5 * 5e-4, 5e-4)
    left = euclidean_log_amplitude(params, boundary, x, t_half)
    right = euclidean_log_amplitude(params, x, boundary, t_half)
    assert np.array_equal(left, [scalar_log_kernel(params, boundary, xi, t_half) for xi in x])
    assert np.array_equal(right, [scalar_log_kernel(params, xi, boundary, t_half) for xi in x])


def test_array_kernel_matches_scalar_on_every_branch():
    rng = np.random.default_rng(23)
    cases = [STANDARD, family(g=5.0), family(mass=1.7, hbar=0.9, v2=1.2, g=0.3), family(g=0.0)]
    branches = set()
    for params in cases:
        w = math.sqrt(2.0 * params.potential.coefficients[2] / params.mass)
        crossover = max(30.0, 2.0 * gamma_index(params) ** 2)
        for t in 10.0 ** rng.uniform(-2.5, 1.8, 12):
            a = 10.0 ** rng.uniform(-3.0, 1.2, 40)
            b = 10.0 ** rng.uniform(-3.0, 1.2, 40)
            got = euclidean_log_amplitude(params, a[:, None], b[None, :], t)
            want = [[scalar_log_kernel(params, ai, bj, t) for bj in b] for ai in a]
            assert got.shape == (40, 40)
            assert np.array_equal(got, want)
            z = params.mass * w * np.outer(a, b) / (params.hbar * math.sinh(w * t))
            branches.update(np.where(z > crossover, "asymptotic", "series")[z >= math.exp(-30.0)])
            if (z < math.exp(-30.0)).any():
                branches.add("one_term")
        # scalar endpoints give a float with the same bits
        got = euclidean_log_amplitude(params, 1.3, 2.1, 0.7)
        assert type(got) is float and got == scalar_log_kernel(params, 1.3, 2.1, 0.7)
    assert branches == {"one_term", "series", "asymptotic"}


def test_array_kernel_rejects_non_positive_input():
    x = np.linspace(0.1, 3.0, 50)
    for bad in (0.0, -0.2, math.nan):
        y = x.copy()
        y[17] = bad
        with pytest.raises(ValueError):
            euclidean_log_amplitude(STANDARD, 1.0, y, 0.5)
        with pytest.raises(ValueError):
            euclidean_log_amplitude(STANDARD, y[:, None], x[None, :], 0.5)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            euclidean_log_amplitude(STANDARD, x, x, t)


def test_closed_form_kernel_dispatch():
    x = np.linspace(0.2, 3.0, 7)
    image = ActionParams(1.0, 1.0, PotentialSpec({2: 0.5}))
    for params in (STANDARD, image):
        kernel = closed_form_kernel(params)
        want = euclidean_log_amplitude(params, x[:, None], x[None, :], 0.8)
        assert np.array_equal(kernel(x[:, None], x[None, :], 0.8), want)
    oscillator = ActionParams(1.0, 1.0, PotentialSpec({2: 0.5}), domain=Domain.FULL_LINE)
    y = np.linspace(-2.0, 2.0, 9)
    got = closed_form_kernel(oscillator)(y[:, None], y[None, :], 0.8)
    want = [[harmonic_log_kernel(1.0, 1.0, 1.0, a, b, 0.8) for b in y] for a in y]
    assert np.array_equal(got, want)
    for params in (
        ActionParams(1.0, 1.0, PotentialSpec({2: 0.5, 4: 0.1})),
        ActionParams(1.0, 1.0, PotentialSpec({2: 0.5, 4: 0.1}), domain=Domain.FULL_LINE),
        ActionParams(1.0, 1.0, PotentialSpec({0: 0.3, 2: 0.5, -2: 1.0})),
    ):
        with pytest.raises(ValueError, match="no closed-form"):
            closed_form_kernel(params)


@pytest.mark.parametrize(
    "coefficients, domain",
    [
        ({2: 0.5, -2: -0.1}, Domain.HALF_LINE),
        ({-2: 1.0}, Domain.HALF_LINE),
        ({2: -0.5, -2: 1.0}, Domain.HALF_LINE),
        ({2: 0.0}, Domain.FULL_LINE),
        ({2: -0.5}, Domain.FULL_LINE),
    ],
    ids=["negative_inverse_square", "no_x2", "negative_x2", "full_line_zero_x2",
         "full_line_negative_x2"],
)
def test_closed_form_kernel_rejects_members_without_amplitude(coefficients, domain):
    params = ActionParams(1.0, 1.0, PotentialSpec(coefficients), domain=domain)
    with pytest.raises(ValueError, match="no closed-form"):
        closed_form_kernel(params)


@pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_array_kernel_across_bessel_chunks(size):
    # at T = 0.25 the Bessel argument b / sinh(0.25) passes the seam at b = 7.6:
    # even positions below it, odd ones above, so every chunk holds both branches
    rng = np.random.default_rng(size)
    b = rng.uniform(1e-3, 7.0, size)
    b[1::2] = rng.uniform(8.0, 20.0, size // 2)
    want = np.array([scalar_log_kernel(STANDARD, 1.0, bi, 0.25) for bi in b])
    assert np.array_equal(euclidean_log_amplitude(STANDARD, 1.0, b, 0.25), want)
    # a 2-D broadcast of both endpoints keeps its shape and the bits
    a = np.array([1.0, 0.5])
    got = euclidean_log_amplitude(STANDARD, a[:, None], b[None, :], 0.25)
    assert got.shape == (2, size)
    assert np.array_equal(got[0], want)
    assert np.array_equal(got[1], [scalar_log_kernel(STANDARD, 0.5, bi, 0.25) for bi in b])


def test_array_kernel_working_memory_is_bounded():
    # The kernel holds a few full-length arrays of its own (about five) while
    # log_bessel_i works through one chunk at a time, with about a hundred
    # chunk-length rows of block arrays. Without the chunks the block arrays
    # span the whole input: 87.6 MiB here, against a bound of 14.2 MiB.
    n = 200_000
    b = np.linspace(1e-3, 12.0, n)
    itemsize = b.dtype.itemsize
    bound = (8 * n + 128 * _CHUNK) * itemsize
    tracemalloc.start()
    try:
        euclidean_log_amplitude(STANDARD, 1.0, b, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)
