"""Log-gamma, the regularised incomplete gamma function and the modified
Bessel function I_nu for real order.

The propagator of the inverse-square family needs I_nu at non-integer orders
nu in [0, 10] over arguments spanning z ~ 1e-8 (long times) to z ~ 1e4 (short
times), always to relative accuracy better than 1e-10 and without overflow.
Both regimes are covered by classical expansions:

* ascending power series, DLMF 10.25.2, for small and moderate z;
* the large-argument asymptotic expansion, DLMF 10.40.1, beyond the
  crossover z > max(30, 2 nu^2).

Results are returned in exponentially scaled and logarithmic form so callers
can stay in the log domain. log_bessel_i evaluates one order over an array of
arguments with the bits of one-at-a-time evaluation, _CHUNK elements at a
time so that its working memory does not grow with the input; bessel_i is its
batch of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SERIES_RELATIVE_CUTOFF = 1e-17
_MAX_SERIES_TERMS = 20000
_MAX_ASYMPTOTIC_TERMS = 200
_TERMS_PER_BLOCK = 16
# elements per pass of log_bessel_i: each of its (chunk, 17) block arrays takes 0.27 MiB
_CHUNK = 2048
# A pass over few live elements takes _FEW_TERMS / live terms per block, at
# most _MAX_TERMS_PER_BLOCK, so a scalar call sums most arguments in one block.
# A pass over 64 or more keeps _TERMS_PER_BLOCK: wider blocks computed more
# terms past each element's last, and 1,000 arguments took twice as long.
_MAX_TERMS_PER_BLOCK = 64
_FEW_TERMS = 1024


@dataclass(frozen=True)
class BesselResult:
    """I_nu(z) in overflow-safe form.

    scaled_value is exp(-z) * I_nu(z); log_value is ln I_nu(z).
    """

    scaled_value: float
    log_value: float


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Thin validated wrapper over the C library routine, which is accurate to a
    few ulp over the whole positive axis.
    """
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def regularised_gamma(a: float, u: float) -> tuple[float, float]:
    """(P(a, u), Q(a, u)), the regularised lower and upper incomplete gamma functions.

    For a > 0 and u >= 0. Below u = a + 1 the power series (DLMF 8.7.1) gives
    P and Q = 1 - P; above it the continued fraction for Gamma(a, u) (DLMF
    8.9.2, in its even form, summed by the modified Lentz method) gives Q and
    P = 1 - Q. Whichever of the two is computed directly is accurate to a few
    ulp relative, including the small tail that 1 - P would lose.
    """
    a, u = float(a), float(u)
    if not (a > 0.0 and math.isfinite(a) and u >= 0.0 and math.isfinite(u)):
        raise ValueError(f"regularised_gamma requires a > 0 and u >= 0, got a={a}, u={u}")
    if u == 0.0:
        return 0.0, 1.0
    front = math.exp(a * math.log(u) - u - ln_gamma(a))
    eps = sys.float_info.epsilon
    if u < a + 1.0:
        # P = u^a e^-u / Gamma(a) * sum_n u^n / (a (a+1) ... (a+n))
        denom, term = a, 1.0 / a
        total = term
        for _ in range(_MAX_SERIES_TERMS):
            denom += 1.0
            term *= u / denom
            total += term
            if term < eps * total:
                lower = front * total
                return lower, 1.0 - lower
    else:
        # Q = u^a e^-u / Gamma(a) * 1/(u+1-a - 1(1-a)/(u+3-a - 2(2-a)/(u+5-a - ...)))
        tiny = sys.float_info.min / eps
        b = u + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        frac = d
        for i in range(1, _MAX_SERIES_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            c = c if abs(c) >= tiny else tiny
            frac *= d * c
            if abs(d * c - 1.0) < eps:
                upper = front * frac
                return 1.0 - upper, upper
    raise RuntimeError(f"incomplete gamma failed to converge for a={a}, u={u}")


def asymptotic_crossover(nu: float) -> float:
    """Argument above which the large-z expansion is used."""
    return max(30.0, 2.0 * nu * nu)


def bessel_i(nu: float, z: float) -> BesselResult:
    """Modified Bessel function I_nu(z) for nu >= 0, z >= 0.

    The batch of one of log_bessel_i. Branch selection follows
    asymptotic_crossover(nu); the two branches agree to better than 1e-10 at
    the seam, which the test suite pins down against an arbitrary-precision
    reference.
    """
    z = float(z)
    log_value = float(log_bessel_i(nu, z))
    return BesselResult(scaled_value=math.exp(log_value - z), log_value=log_value)


def libm(fn, x) -> np.ndarray:
    """fn from the math module applied to every element of x.

    numpy's vectorised exp and log differ from the C library in the last bit
    on some inputs; callers that must reproduce scalar math-module results
    bit for bit take their transcendentals through here.
    """
    x = np.asarray(x, dtype=float)
    # Python floats: the math module takes them without converting numpy scalars
    return np.fromiter(map(fn, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def log_bessel_i(nu: float, z) -> np.ndarray:
    """ln I_nu(z) for one order nu >= 0 and every element of z >= 0.

    Each element takes the branch asymptotic_crossover(nu) selects, and its
    sum stops on the term where a one-element loop would stop, so every
    result has the bits of an evaluation on its own. The flattened input runs
    through in chunks of _CHUNK elements, which bounds the block arrays of
    the sums whatever the size of z.
    """
    nu = float(nu)
    z = np.asarray(z, dtype=float)
    if nu < 0.0 or not math.isfinite(nu):
        raise ValueError(f"order must satisfy nu >= 0, got {nu}")
    ok = (z >= 0.0) & (z < math.inf)
    if not ok.all():
        raise ValueError(f"argument must satisfy z >= 0, got {z[~ok].flat[0]}")
    flat_z = z.reshape(-1)
    if z.size <= _CHUNK:
        return _log_iv_chunk(nu, flat_z).reshape(z.shape)
    out = np.empty(z.shape)
    flat_out = out.reshape(-1)
    for start in range(0, z.size, _CHUNK):
        flat_out[start : start + _CHUNK] = _log_iv_chunk(nu, flat_z[start : start + _CHUNK])
    return out


def _log_iv_chunk(nu: float, z: np.ndarray) -> np.ndarray:
    large = z > asymptotic_crossover(nu)
    small = ~large & (z > 0.0)
    if large.all():
        return _log_iv_asymptotic(nu, z)
    if small.all():
        return _log_iv_series(nu, z)
    out = np.full(z.shape, 0.0 if nu == 0.0 else -math.inf)
    if large.any():
        out[large] = _log_iv_asymptotic(nu, z[large])
    if small.any():
        out[small] = _log_iv_series(nu, z[small])
    return out


def _terms_per_block(live: int) -> int:
    """Terms per block for live elements: more than _TERMS_PER_BLOCK for a few."""
    return min(_MAX_TERMS_PER_BLOCK, max(_TERMS_PER_BLOCK, _FEW_TERMS // max(live, 1)))


def _running(term, run, numerator, denominator):
    """Terms and partial sums after each factor numerator / denominator,
    carried term and sum first.

    Running products and sums accumulate in sequence, so every column has
    the bits of the one-element loop `term *= factor; run += term`.
    """
    shape = np.broadcast_shapes(np.shape(numerator), np.shape(denominator))
    terms = np.empty((shape[0], shape[1] + 1))
    terms[:, 0] = term
    np.divide(numerator, denominator, out=terms[:, 1:])
    np.multiply.accumulate(terms, axis=1, out=terms)
    sums = terms.copy()
    sums[:, 0] = run
    np.add.accumulate(sums, axis=1, out=sums)
    return terms, sums


def _log_iv_series(nu: float, z: np.ndarray) -> np.ndarray:
    # I_nu(z) = (z/2)^nu / Gamma(nu+1) * sum_k t_k,
    # t_0 = 1, t_{k+1} = t_k * (z^2/4) / ((k+1)(nu+k+1)): all terms positive.
    # Terms run in blocks of _TERMS_PER_BLOCK; an element's sum is taken on its
    # first term below the cutoff.
    q = 0.25 * z * z
    total = np.empty(z.size)
    live = np.arange(z.size)
    term = run = 1.0
    k0 = 0
    while k0 < _MAX_SERIES_TERMS:
        k = np.arange(k0, min(k0 + _terms_per_block(live.size), _MAX_SERIES_TERMS), dtype=float)
        k0 += k.size
        terms, sums = _running(term, run, q[live, None], (k + 1.0) * (nu + k + 1.0))
        below = terms[:, 1:] < SERIES_RELATIVE_CUTOFF * sums[:, 1:]
        done = below.any(axis=1)
        total[live[done]] = sums[done, below.argmax(axis=1)[done] + 1]
        if done.all():
            break
        keep = ~done
        live, term, run = live[keep], terms[keep, -1], sums[keep, -1]
    else:
        raise RuntimeError(f"Bessel series failed to converge for nu={nu}, z={z[live[0]]}")
    return nu * libm(math.log, 0.5 * z) - math.lgamma(nu + 1.0) + libm(math.log, total)


def _log_iv_asymptotic(nu: float, z: np.ndarray) -> np.ndarray:
    # I_nu(z) ~ e^z / sqrt(2 pi z) * sum_k t_k with
    # t_0 = 1, t_k = t_{k-1} * ((2k-1)^2 - 4 nu^2) / (8 k z); truncated at the
    # smallest term, which bounds the error of the divergent tail. Blocks of
    # terms as in the series; a term that grows ends the sum before it.
    mu = 4.0 * nu * nu
    total = np.empty(z.size)
    live = np.arange(z.size)
    term = run = 1.0
    prev = math.inf
    k0 = 1
    while k0 < _MAX_ASYMPTOTIC_TERMS:
        k = np.arange(k0, min(k0 + _terms_per_block(live.size), _MAX_ASYMPTOTIC_TERMS), dtype=float)
        k0 += k.size
        terms, sums = _running(term, run, (2.0 * k - 1.0) ** 2 - mu, 8.0 * k * z[live, None])
        size = np.abs(terms)
        size[:, 0] = prev
        grew = size[:, 1:] >= size[:, :-1]
        stop = grew | (size[:, 1:] < SERIES_RELATIVE_CUTOFF * np.abs(sums[:, 1:]))
        done = stop.any(axis=1)
        first = stop.argmax(axis=1)[done]
        total[live[done]] = sums[done, first + 1 - grew[done, first]]
        if done.all():
            break
        keep = ~done
        live, term, run, prev = live[keep], terms[keep, -1], sums[keep, -1], size[keep, -1]
    else:
        total[live] = run
    return z + libm(math.log, total) - 0.5 * libm(math.log, 2.0 * math.pi * z)
