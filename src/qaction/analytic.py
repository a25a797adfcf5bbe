"""Closed-form amplitudes, ground state and asymptotics for the solvable family.

Everything here refers to the half-line potential V(x) = v2 x^2 + v_-2 x^-2
(v2 > 0, v_-2 >= 0, infinite wall at the origin), whose Euclidean kernel,
spectrum and ground state are all elementary in terms of the Bessel order

    gamma = (1/2) sqrt(1 + 8 m v_-2 / hbar^2),

plus the full-line harmonic kernel used as an independent cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    ActionParams,
    Domain,
    omega,
    potential_derivative,
    potential_minimum,
    potential_value,
)
from .specfun import libm, ln_gamma, log_bessel_i, regularised_gamma

_MAX_INVERSE_STEPS = 200


@dataclass(frozen=True)
class GroundState:
    """Ground-state energy, normalisation constant and wavefunction scales."""

    energy: float
    norm_constant: float
    gamma: float
    mass: float
    omega: float
    hbar: float

    def wavefunction(self, x):
        """psi_gr(x) = sqrt(Z0) x^(1/2+gamma) exp(-m omega x^2 / 2 hbar)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("ground-state wavefunction lives on x > 0")
        out = np.sqrt(self.norm_constant) * x ** (0.5 + self.gamma) * np.exp(
            -self.mass * self.omega * x**2 / (2.0 * self.hbar)
        )
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DynamicalScales:
    """Characteristic time and length extracted from the ground state."""

    time_scale: float
    length_scale: float


def _require_family(params: ActionParams) -> tuple[float, float]:
    """Return (omega, g) after checking params is the solvable family."""
    extra = {
        k: v for k, v in params.potential.coefficients.items() if k not in (2, -2) and v != 0.0
    }
    if extra:
        raise ValueError(
            f"closed forms exist only for the x^2 + x^-2 family, got extra terms {sorted(extra)}"
        )
    v2 = params.potential.coefficients.get(2, 0.0)
    if not v2 > 0.0:
        raise ValueError("family requires v_2 > 0")
    g = params.potential.coefficients.get(-2, 0.0)
    if not g >= 0.0:
        raise ValueError("family requires v_-2 >= 0")
    if params.domain is not Domain.HALF_LINE:
        raise ValueError("the solvable family is defined on the half-line")
    return omega(params), g


def gamma_index(params: ActionParams) -> float:
    """Bessel order gamma = (1/2) sqrt(1 + 8 m g / hbar^2) of the kernel."""
    _, g = _require_family(params)
    return _gamma(params, g)


def _gamma(params: ActionParams, g: float) -> float:
    return 0.5 * math.sqrt(1.0 + 8.0 * params.mass * g / params.hbar**2)


def _log_sinh(u: float) -> float:
    # ln sinh u without overflow for large u
    if u > 350.0:
        return u - math.log(2.0) + math.log1p(-math.exp(-2.0 * u))
    return math.log(math.sinh(u))


def euclidean_log_amplitude(params: ActionParams, a, b, time: float):
    """ln G_E(b, T; a, 0) for the solvable family.

    G_E = [m omega sqrt(ab) / (hbar sinh(omega T))]
          * exp(-(m omega / 2 hbar)(a^2 + b^2) coth(omega T))
          * I_gamma(m omega a b / (hbar sinh(omega T))).

    a and b may be arrays, broadcast against each other, at one time T; every
    element has the bits of a call with its own scalar endpoints, and scalar
    endpoints give a float.
    """
    w, g = _require_family(params)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not ((a > 0.0).all() and (b > 0.0).all()):
        raise ValueError("endpoints must be positive on the half-line")
    if not (time > 0.0):
        raise ValueError("time must be positive")
    gamma = _gamma(params, g)
    m, hbar = params.mass, params.hbar
    u = w * time
    coth = 1.0 / math.tanh(u)
    log_sinh = _log_sinh(u)
    log_z = libm(math.log, m * w * a * b / hbar) - log_sinh
    log_bessel = np.empty(log_z.shape)
    tiny = log_z < -30.0
    if tiny.any():
        # kernel argument far below the series scale: one explicit term suffices
        lz = log_z[tiny]
        log_bessel[tiny] = gamma * (lz - math.log(2.0)) - ln_gamma(gamma + 1.0) + libm(
            math.log1p, libm(math.exp, 2.0 * lz) / (4.0 * (gamma + 1.0))
        )
    if not tiny.all():
        log_bessel[~tiny] = log_bessel_i(gamma, libm(math.exp, log_z[~tiny]))
    out = (
        math.log(m * w / hbar)
        + 0.5 * libm(math.log, a * b)
        - log_sinh
        - m * w * (a * a + b * b) * coth / (2.0 * hbar)
        + log_bessel
    )
    return float(out) if out.ndim == 0 else out


def harmonic_log_kernel(
    mass: float, freq: float, hbar: float, a: float, b: float, time: float
) -> float:
    """ln of the full-line oscillator kernel, for image-formula cross-checks.

    G_HO = sqrt(m omega / (2 pi hbar sinh(omega T)))
           * exp(-m omega [(a^2+b^2) cosh(omega T) - 2ab] / (2 hbar sinh(omega T))).

    a and b may be arrays, broadcast against each other, at one time T.
    """
    if not (time > 0.0):
        raise ValueError("time must be positive")
    u = freq * time
    coth = 1.0 / math.tanh(u)
    csch_ab = mass * freq * a * b / (hbar * math.sinh(u)) if u < 350.0 else 0.0
    return (
        0.5 * (math.log(mass * freq / (2.0 * math.pi * hbar)) - _log_sinh(u))
        - mass * freq * (a * a + b * b) * coth / (2.0 * hbar)
        + csch_ab
    )


def closed_form_kernel(params: ActionParams):
    """The closed-form ln G(b, T; a) of a model, as a function of (a, b, time).

    The half-line x^2 + x^-2 family maps to euclidean_log_amplitude and the
    full-line harmonic oscillator to harmonic_log_kernel; both take array
    endpoints at one time. Any other model, and any member with v_2 <= 0 or a
    half-line v_-2 < 0, has no closed form: ValueError.
    """
    no_closed_form = "no closed-form amplitude for this model; use the oracle source"
    if params.domain is Domain.HALF_LINE:
        try:
            _require_family(params)
        except ValueError as exc:
            raise ValueError(no_closed_form) from exc
        return lambda a, b, time: euclidean_log_amplitude(params, a, b, time)
    coeffs = params.potential.coefficients
    if coeffs.get(2, 0.0) > 0.0 and {k for k, v in coeffs.items() if v != 0.0} <= {2}:
        w = omega(params)
        return lambda a, b, time: harmonic_log_kernel(params.mass, w, params.hbar, a, b, time)
    raise ValueError(no_closed_form)


def ground_state(params: ActionParams) -> GroundState:
    """Exact ground state of the family.

    E_gr = hbar omega (1 + gamma),
    Z0 = [2 m omega / (hbar Gamma(gamma+1))] (m omega / hbar)^gamma.
    """
    w, g = _require_family(params)
    gamma = _gamma(params, g)
    m, hbar = params.mass, params.hbar
    scale = m * w / hbar
    norm = 2.0 * scale * math.exp(gamma * math.log(scale) - ln_gamma(gamma + 1.0))
    return GroundState(
        energy=hbar * w * (1.0 + gamma),
        norm_constant=norm,
        gamma=gamma,
        mass=m,
        omega=w,
        hbar=hbar,
    )


def dynamical_scales(params: ActionParams, probability: float) -> DynamicalScales:
    """T_sc = hbar / E_gr and the length containing `probability` of |psi_gr|^2.

    |psi_gr|^2 is proportional to x^(2 gamma + 1) exp(-s x^2), s = m omega / hbar,
    so the probability within L is P(gamma + 1, s L^2), the regularised lower
    incomplete gamma function; L_sc = sqrt(u / s) at its inverse u.
    """
    gs = ground_state(params)
    if not (0.0 < probability < 1.0):
        raise ValueError("probability must lie in (0, 1)")
    u = _inverse_regularised_gamma(gs.gamma + 1.0, probability)
    return DynamicalScales(
        time_scale=params.hbar / gs.energy,
        length_scale=math.sqrt(u * gs.hbar / (gs.mass * gs.omega)),
    )


def _inverse_regularised_gamma(a: float, p: float) -> float:
    """The u with P(a, u) = p, for 0 < p < 1.

    Newton steps on P(a, u) - p, whose derivative is u^(a-1) e^-u / Gamma(a),
    kept in a bracket of the root: a step that would leave it is replaced by
    bisection. Above p = 1/2 the residual is taken as (1 - p) - Q(a, u), which
    keeps its small tail exact.
    """

    def residual(u):
        lower, upper = regularised_gamma(a, u)
        return lower - p if p <= 0.5 else (1.0 - p) - upper

    lo, hi = 0.0, a
    while residual(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    u = hi
    log_gamma_a = ln_gamma(a)
    for _ in range(_MAX_INVERSE_STEPS):
        r = residual(u)
        if r < 0.0:
            lo = u
        else:
            hi = u
        slope = math.exp((a - 1.0) * math.log(u) - u - log_gamma_a)
        step = r / slope if slope > 0.0 else math.inf
        if abs(step) <= 4.0 * sys.float_info.epsilon * u:
            return u - step
        u -= step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    raise RuntimeError(f"inverse incomplete gamma failed to converge for a={a}, p={p}")


def asymptotic_quantum_params(
    params: ActionParams, gamma_shift: float = 0.0
) -> tuple[float, float, float]:
    """Long-time limits (m~ v~_2, m~ v~_-2, E_gr) of the quantum action.

    m~ v~_2 = m^2 omega^2 / 2,
    m~ v~_-2 = (hbar^2 / 2)(1/2 + gamma)^2,
    E_gr = hbar omega (1 + gamma).

    Note the ordering: the x^2 product equals m^2 omega^2 / 2 (0.5 for the
    standard parameter point) regardless of the coupling; the inverse-square
    product carries the gamma dependence. Any listing that attaches the
    gamma-dependent number to the x^2 slot has the two labels swapped.
    A nonzero gamma_shift evaluates all three at gamma + gamma_shift.
    """
    w, g = _require_family(params)
    gamma = _gamma(params, g) + gamma_shift
    m, hbar = params.mass, params.hbar
    return (
        0.5 * m * m * w * w,
        0.5 * hbar**2 * (0.5 + gamma) ** 2,
        hbar * w * (1.0 + gamma),
    )


def asymptotic_quantum_action(params: ActionParams, gamma_shift: float = 0.0) -> ActionParams:
    """Long-time quantum action in the m~ = m gauge.

    v~_0 = E_gr - 2 sqrt(m~ v~_2 m~ v~_-2) / m~ puts the minimum of V~ at E_gr.
    A nonzero gamma_shift builds a deliberately wrong action for the checks.
    """
    mv2, mvm2, energy = asymptotic_quantum_params(params, gamma_shift)
    m = params.mass
    v0 = energy - 2.0 * math.sqrt(mv2 * mvm2) / m
    # the family lives on the half-line (_require_family), so params keeps its domain
    return params.with_values([m, v0, mv2 / m, mvm2 / m], (0, 2, -2))


def transformation_residual(
    classical: ActionParams, quantum: ActionParams, x
) -> float | np.ndarray:
    """Pointwise defect of the map between classical and quantum potentials.

    2 m (V(x) - E_gr) should equal
    2 m~ (V~ - V~_min) - (hbar/2) d/dx[2 m~ (V~ - V~_min)] / sqrt(2 m~ (V~ - V~_min))
    with the sign of the square root fixed by sgn(x - x~_min); the return value
    is lhs - rhs.
    """
    gs = ground_state(classical)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("transformation defined on x > 0")
    xmin, vmin = potential_minimum(quantum.potential)
    two_mu = 2.0 * quantum.mass * (potential_value(quantum.potential, x) - vmin)
    two_mu = np.maximum(two_mu, 0.0)
    d_two_mu = 2.0 * quantum.mass * potential_derivative(quantum.potential, x)
    lhs = 2.0 * classical.mass * (potential_value(classical.potential, x) - gs.energy)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = np.where(
            two_mu > 0.0,
            0.5 * classical.hbar * d_two_mu / np.sqrt(two_mu) * np.sign(x - xmin),
            0.0,
        )
    out = lhs - (two_mu - correction)
    return float(out) if out.ndim == 0 else out


def reconstruct_ground_state(params: ActionParams, x):
    """Ground-state shape exp(-|int_{x_min}^x sqrt(2 m (V - V_min))| / hbar).

    For the two-term family the integral is elementary and yields
    x^beta exp(-alpha x^2 / 2) with alpha = sqrt(2 m v_2)/hbar and
    beta = sqrt(2 m v_-2)/hbar; any other potential raises ValueError.
    The result is scaled to unit L2 norm on the domain.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    coeffs = {k: v for k, v in params.potential.coefficients.items() if v != 0.0 and k != 0}
    if not (set(coeffs) <= {2, -2} and 2 in coeffs):
        raise ValueError(
            f"no closed-form ground state for exponents {sorted(coeffs)}: "
            "only the x^2 + x^-2 family has one"
        )
    xmin, _ = potential_minimum(params.potential)
    m, hbar = params.mass, params.hbar
    alpha = math.sqrt(2.0 * m * coeffs[2]) / hbar
    beta = math.sqrt(2.0 * m * coeffs.get(-2, 0.0)) / hbar
    if np.any(xs <= 0.0) and beta != 0.0:
        raise ValueError("reconstruction defined on x > 0")
    log_shape = beta * np.log(xs) - 0.5 * alpha * xs**2 if beta != 0.0 else -0.5 * alpha * xs**2
    # anchor at x_min so the un-normalised shape peaks at 1
    if xmin > 0.0:
        log_shape = log_shape - (beta * math.log(xmin) - 0.5 * alpha * xmin**2)
    if beta != 0.0:
        # L2 norm of x^beta e^{-alpha x^2/2} on (0, inf)
        log_sq_norm = ln_gamma(beta + 0.5) - (beta + 0.5) * math.log(alpha) - math.log(2.0)
    else:
        half = 0.5 if params.domain is Domain.HALF_LINE else 1.0
        log_sq_norm = math.log(math.sqrt(math.pi / alpha) * half)
    anchor = beta * math.log(xmin) - 0.5 * alpha * xmin**2 if xmin > 0.0 else 0.0
    log_shape = log_shape + anchor - 0.5 * log_sq_norm
    out = np.exp(log_shape)
    return float(out[0]) if scalar else out
