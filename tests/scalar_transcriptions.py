"""Scalar transcriptions of the closed-form kernel, the Bessel routine and the
oracle amplitude.

The package evaluates all three on arrays. These one-point versions are the
references the array results must reproduce bit for bit: the kernel and the
Bessel routine in plain math module arithmetic, the amplitude as the 1-D
spectral sum of one endpoint pair.
"""

import math

import numpy as np

from qaction.oracle import _interpolate_states


def scalar_log_iv(nu, z):
    """ln I_nu(z), one argument at a time."""
    if z == 0.0:
        return 0.0 if nu == 0.0 else -math.inf
    if z > max(30.0, 2.0 * nu * nu):
        mu = 4.0 * nu * nu
        term = 1.0
        total = 1.0
        prev = math.inf
        for k in range(1, 200):
            term *= ((2.0 * k - 1.0) ** 2 - mu) / (8.0 * k * z)
            if abs(term) >= prev:
                break
            total += term
            prev = abs(term)
            if abs(term) < 1e-17 * abs(total):
                break
        return z + math.log(total) - 0.5 * math.log(2.0 * math.pi * z)
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    for k in range(20000):
        term *= q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if term < 1e-17 * total:
            break
    return nu * math.log(0.5 * z) - math.lgamma(nu + 1.0) + math.log(total)


def scalar_log_kernel(params, a, b, time):
    """ln G_E(b, T; a, 0) of the x^2 + x^-2 family, one point at a time."""
    m, hbar = params.mass, params.hbar
    w = math.sqrt(2.0 * params.potential.coefficients[2] / m)
    gamma = 0.5 * math.sqrt(1.0 + 8.0 * m * params.potential.coefficients.get(-2, 0.0) / hbar**2)
    u = w * time

    def log_sinh(v):
        if v > 350.0:
            return v - math.log(2.0) + math.log1p(-math.exp(-2.0 * v))
        return math.log(math.sinh(v))

    coth = 1.0 / math.tanh(u)
    log_z = math.log(m * w * a * b / hbar) - log_sinh(u)
    if log_z < -30.0:
        log_bessel = gamma * (log_z - math.log(2.0)) - math.lgamma(gamma + 1.0) + math.log1p(
            math.exp(2.0 * log_z) / (4.0 * (gamma + 1.0))
        )
    else:
        log_bessel = scalar_log_iv(gamma, math.exp(log_z))
    return (
        math.log(m * w / hbar)
        + 0.5 * math.log(a * b)
        - log_sinh(u)
        - m * w * (a * a + b * b) * coth / (2.0 * hbar)
        + log_bessel
    )


def scalar_amplitude(dec, a, b, time):
    """The oracle's spectral sum G(b, time; a) for one pair of endpoints."""
    psi_a = _interpolate_states(dec, a)
    psi_b = _interpolate_states(dec, b)
    weights = np.exp(-(dec.energies - dec.energies[0]) * time / dec.hbar)
    scale = math.exp(-float(dec.energies[0]) * time / dec.hbar)
    return scale * float(np.sum(psi_a * psi_b * weights))
