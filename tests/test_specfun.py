import math

import mpmath as mp
import numpy as np
import pytest

from qaction.specfun import (
    _CHUNK,
    _log_iv_asymptotic,
    _log_iv_series,
    asymptotic_crossover,
    bessel_i,
    ln_gamma,
    log_bessel_i,
    regularised_gamma,
)
from scalar_transcriptions import scalar_log_iv

mp.mp.dps = 40


def mp_log_iv(nu, z):
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(z))))


def test_ln_gamma_matches_reference():
    for x in (0.5, 1.0, 1.5, 2.5, 4.0, 10.25, 120.0):
        assert ln_gamma(x) == pytest.approx(float(mp.loggamma(x)), rel=1e-14, abs=1e-14)


def test_ln_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ln_gamma(x)


def test_bessel_matches_mpmath_across_orders_and_arguments():
    orders = (0.0, 0.5, 1.0, 1.5, 2.0, 0.5 * math.sqrt(41.0), 6.5)
    args = (1e-8, 1e-3, 0.5, 2.0, 10.0, 29.0, 31.0, 80.0, 1000.0, 9000.0)
    for nu in orders:
        for z in args:
            got = bessel_i(nu, z)
            want = mp_log_iv(nu, z)
            assert got.log_value == pytest.approx(want, rel=1e-13, abs=1e-13), (nu, z)
            assert got.scaled_value == pytest.approx(
                float(mp.exp(mp_log_iv(nu, z) - z)), rel=1e-12
            )


def test_half_integer_closed_form():
    # I_{1/2}(z) = sqrt(2 / (pi z)) sinh z
    for z in (0.3, 1.0, 4.0, 25.0):
        want = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
        assert bessel_i(0.5, z).log_value == pytest.approx(math.log(want), rel=1e-13)


def test_recurrence_identity():
    # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z), scaled values share e^-z
    rng = np.random.default_rng(11)
    for _ in range(60):
        nu = rng.uniform(1.0, 6.0)
        z = 10.0 ** rng.uniform(-2, 3)
        lo = bessel_i(nu - 1.0, z).scaled_value
        mid = bessel_i(nu, z).scaled_value
        hi = bessel_i(nu + 1.0, z).scaled_value
        target = 2.0 * nu / z * mid
        assert abs((lo - hi) - target) <= 1e-9 * abs(target)


def test_branch_seam_is_continuous():
    for nu in (0.0, 1.5, 3.0):
        seam = asymptotic_crossover(nu)
        below = bessel_i(nu, seam * (1 - 1e-9)).log_value
        above = bessel_i(nu, seam * (1 + 1e-9)).log_value
        ref_b = mp_log_iv(nu, seam * (1 - 1e-9))
        ref_a = mp_log_iv(nu, seam * (1 + 1e-9))
        assert below == pytest.approx(ref_b, rel=1e-12)
        assert above == pytest.approx(ref_a, rel=1e-12)


@pytest.mark.parametrize("nu", np.linspace(0.0, 10.0, 21).tolist() + [0.5 * math.sqrt(30.0)])
def test_series_and_asymptotic_branches_agree_at_the_seam(nu):
    # both expansions at the crossover itself, where the rule switches between
    # them; 0.5 sqrt(30) is where the crossover leaves its floor of 30
    seam = np.array([asymptotic_crossover(nu)])
    series = _log_iv_series(nu, seam)[0]
    asymptotic = _log_iv_asymptotic(nu, seam)[0]
    assert abs(math.expm1(series - asymptotic)) <= 1e-10


def test_scaled_and_log_forms_consistent():
    rng = np.random.default_rng(3)
    for _ in range(40):
        nu = rng.uniform(0.0, 8.0)
        z = 10.0 ** rng.uniform(-6, 3.5)
        res = bessel_i(nu, z)
        assert res.scaled_value == pytest.approx(math.exp(res.log_value - z), rel=1e-13)


def test_zero_argument_edge():
    assert bessel_i(0.0, 0.0).scaled_value == 1.0
    assert bessel_i(0.0, 0.0).log_value == 0.0
    res = bessel_i(1.5, 0.0)
    assert res.scaled_value == 0.0
    assert res.log_value == -math.inf


def test_invalid_inputs():
    with pytest.raises(ValueError):
        bessel_i(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_i(1.0, -1.0)
    with pytest.raises(ValueError):
        bessel_i(math.nan, 1.0)


def test_crossover_rule():
    assert asymptotic_crossover(0.0) == 30.0
    assert asymptotic_crossover(5.0) == 50.0


def _seam_arguments(nu, rng):
    seam = asymptotic_crossover(nu)
    fixed = [0.0, 1e-300, 1e-8, 0.3, seam * (1 - 1e-9), seam, seam * (1 + 1e-9), 2.0 * seam, 9000.0]
    below = seam * rng.uniform(0.0, 1.0, 2000)
    near = seam * rng.uniform(1.0, 1.2, 1000)  # the slowest expansions, past one block of terms
    above = seam * 10.0 ** rng.uniform(0.0, 2.5, 3000)
    return np.concatenate([fixed, below, near, above])


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 0.5 * math.sqrt(41.0), 4.75, 9.0])
def test_log_bessel_i_matches_scalar_transcription(nu):
    z = _seam_arguments(nu, np.random.default_rng(int(nu * 100)))
    want = np.array([scalar_log_iv(nu, zi) for zi in z])
    assert np.array_equal(log_bessel_i(nu, z), want)
    # in any order and shape, and bessel_i is the batch of one
    perm = np.random.default_rng(1).permutation(z.size)
    assert np.array_equal(log_bessel_i(nu, z[perm].reshape(-1, 3)), want[perm].reshape(-1, 3))
    for zi, wi in zip(z[::37], want[::37]):
        res = bessel_i(nu, zi)
        assert res.log_value == wi
        assert res.scaled_value == math.exp(wi - zi)


def test_log_bessel_i_rejects_bad_elements():
    good = np.array([0.5, 2.0, 40.0])
    for bad in (-1.0, math.nan, math.inf):
        z = good.copy()
        z[1] = bad
        with pytest.raises(ValueError):
            log_bessel_i(1.5, z)
    with pytest.raises(ValueError):
        log_bessel_i(-0.5, good)


def _alternating_seam_arguments(nu, size, rng):
    # even positions below the seam, odd ones above: every chunk of two or more
    # elements holds both branches
    seam = asymptotic_crossover(nu)
    z = seam * rng.uniform(0.0, 1.0, size)
    z[1::2] = seam * 10.0 ** rng.uniform(0.0, 1.5, size // 2)
    return z


@pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_log_bessel_i_chunks_keep_the_bits(size):
    nu = 2.5
    z = _alternating_seam_arguments(nu, size, np.random.default_rng(size))
    assert (z > asymptotic_crossover(nu)).sum() == size // 2
    want = np.array([scalar_log_iv(nu, zi) for zi in z])
    assert np.array_equal(log_bessel_i(nu, z), want)
    # a 2-D broadcast view (stride 0) and a transposed copy keep shape and bits
    got = log_bessel_i(nu, np.broadcast_to(z, (3, size)))
    assert got.shape == (3, size) and np.array_equal(got, np.broadcast_to(want, (3, size)))
    got = log_bessel_i(nu, np.stack([z, z[::-1]]).T)
    assert got.shape == (size, 2) and np.array_equal(got, np.stack([want, want[::-1]]).T)


def mp_regularised_gamma(a, u):
    lower = mp.gammainc(mp.mpf(a), 0, mp.mpf(u), regularized=True)
    upper = mp.gammainc(mp.mpf(a), mp.mpf(u), mp.inf, regularized=True)
    return float(lower), float(upper)


@pytest.mark.parametrize("a", [1.5, 2.5, 4.2, 6.17])
def test_regularised_gamma_matches_mpmath(a):
    # both sides of u = a + 1, where the series hands over to the continued
    # fraction, and both tails. The front factor exp(a ln u - u - ln Gamma(a))
    # carries the rounding of its exponent, so the bound grows with it.
    for u in (1e-12, 1e-4, 0.3, a, a + 1.0 - 1e-9, a + 1.0, 2.0 * a + 3.0, 40.0, 300.0):
        lower, upper = regularised_gamma(a, u)
        want_lower, want_upper = mp_regularised_gamma(a, u)
        rel = 4e-16 * (10.0 + abs(a * math.log(u) - u))
        assert lower == pytest.approx(want_lower, rel=rel, abs=1e-300), u
        assert upper == pytest.approx(want_upper, rel=rel, abs=1e-300), u
    assert regularised_gamma(a, 0.0) == (0.0, 1.0)


def test_regularised_gamma_rejects_bad_arguments():
    for a, u in ((0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            regularised_gamma(a, u)
