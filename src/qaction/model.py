"""Sparse polynomial potentials and the parameter sets built on them."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

ALLOWED_EXPONENTS = (-6, -4, -2, 0, 2, 4, 6)


class Domain(str, Enum):
    HALF_LINE = "half_line"
    FULL_LINE = "full_line"


@dataclass(frozen=True)
class PotentialSpec:
    """V(x) = sum_k v_k x^k with even exponents k in [-6, 6].

    Coefficient entries may be zero; the key set doubles as the fit ansatz.
    """

    coefficients: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, v in self.coefficients.items():
            k = int(k)
            if k not in ALLOWED_EXPONENTS:
                raise ValueError(
                    f"exponent {k} outside the allowed even set {ALLOWED_EXPONENTS}"
                )
            clean[k] = float(v)
        object.__setattr__(self, "coefficients", clean)

    def exponents(self) -> list[int]:
        return sorted(self.coefficients)

    def has_negative_exponents(self) -> bool:
        return any(k < 0 and v != 0.0 for k, v in self.coefficients.items())


@dataclass(frozen=True)
class ActionParams:
    """Mass, hbar, potential and domain of one (classical or quantum) action."""

    mass: float
    hbar: float
    potential: PotentialSpec
    domain: Domain = Domain.HALF_LINE

    def __post_init__(self):
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (self.hbar > 0.0) or not math.isfinite(self.hbar):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if self.potential.has_negative_exponents() and self.domain is not Domain.HALF_LINE:
            raise ValueError("negative-exponent coefficients require the half-line domain")


def potential_value(spec: PotentialSpec, x):
    """Evaluate V at x (scalar or array). x must avoid 0 when negative powers exist."""
    _check_domain(spec, x)
    return _poly(spec.coefficients, x)


def potential_derivative(spec: PotentialSpec, x):
    """Evaluate V'(x)."""
    _check_domain(spec, x)
    d = {k - 1: k * v for k, v in spec.coefficients.items() if k != 0}
    return _poly(d, x)


def potential_second_derivative(spec: PotentialSpec, x):
    """Evaluate V''(x); the relaxation solver needs it for its Jacobian."""
    _check_domain(spec, x)
    d = {k - 2: k * (k - 1) * v for k, v in spec.coefficients.items() if k not in (0, 2)}
    out = _poly(d, x)
    if 2 in spec.coefficients:
        out = out + 2.0 * spec.coefficients[2]
    return out


def potential_higher_derivative(spec: PotentialSpec, x, order: int):
    """Evaluate the order-th derivative of V; d_xx needs the third and fourth."""
    _check_domain(spec, x)
    # k (k - 1) ... (k - order + 1) v x^(k - order); the product is 0 for 0 <= k < order
    d = {
        k - order: math.prod(range(k - order + 1, k + 1)) * v
        for k, v in spec.coefficients.items()
    }
    return _poly(d, x)


def _poly(coeffs: dict[int, float], x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, v in coeffs.items():
        if v == 0.0:
            continue
        if k == 0:
            out = out + v
        else:
            out = out + v * x**k
    if out.ndim == 0:
        return float(out)
    return out


def _check_domain(spec: PotentialSpec, x):
    if any(k < 0 for k in spec.coefficients):
        if np.any(np.asarray(x) == 0.0):
            raise ValueError("x = 0 is singular for negative-exponent potentials")


def potential_minimum(spec: PotentialSpec, domain: Domain = Domain.HALF_LINE):
    """Return (x_min, V_min) of the potential on its domain.

    The two-term inverse-square family has the closed form
    x_min = (v_-2 / v_2)^(1/4), V_min = v_0 + 2 sqrt(v_2 v_-2); anything else
    falls back to a bracketed root-find on V'.
    """
    nz = {k: v for k, v in spec.coefficients.items() if v != 0.0 and k != 0}
    v0 = spec.coefficients.get(0, 0.0)
    if not nz:
        raise ValueError("potential has no x-dependent terms, minimum undefined")
    if any(v < 0.0 for v in nz.values()):
        raise ValueError("potential with negative coefficients is not bounded below")
    if set(nz) <= {2, -2} and 2 in nz and -2 in nz:
        xm = (nz[-2] / nz[2]) ** 0.25
        return xm, v0 + 2.0 * math.sqrt(nz[2] * nz[-2])
    if all(k > 0 for k in nz):
        return 0.0, v0
    # mixed positive/negative exponents: V diverges at both ends of (0, inf),
    # so V' changes sign exactly once for single-well members
    xs = np.logspace(-6, 6, 481)
    dv = potential_derivative(spec, xs)
    idx = np.nonzero(np.sign(dv[:-1]) * np.sign(dv[1:]) < 0)[0]
    if len(idx) == 0:
        raise ValueError("no interior minimum found for potential")
    lo, hi = xs[idx[0]], xs[idx[0] + 1]
    from scipy.optimize import brentq

    xm = brentq(lambda t: potential_derivative(spec, t), lo, hi, xtol=1e-14, rtol=1e-15)
    return float(xm), float(potential_value(spec, xm))


def omega(params: ActionParams) -> float:
    """Oscillator frequency via v_2 = m omega^2 / 2."""
    v2 = params.potential.coefficients.get(2, 0.0)
    if v2 <= 0.0:
        raise ValueError("omega requires a positive x^2 coefficient")
    return math.sqrt(2.0 * v2 / params.mass)


def write_csv(path, columns, rows, comment: str | None = None) -> None:
    """Header line and rows of bools/ints as integers, everything else as .17g.

    A given comment goes first, as a `# comment` line.
    """

    def cell(v):
        if isinstance(v, (int, np.integer)):  # bool is an int
            return str(int(v))
        return f"{float(v):.17g}"

    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def params_to_json(params: ActionParams) -> str:
    """Serialise to the JSON shape used by config files and CSV metadata."""
    payload = {
        "mass": params.mass,
        "hbar": params.hbar,
        "domain": params.domain.value,
        "coefficients": {str(k): v for k, v in sorted(params.potential.coefficients.items())},
    }
    return json.dumps(payload, sort_keys=True)


def params_from_json(text: str) -> ActionParams:
    """Inverse of params_to_json; rejects unknown keys and malformed entries."""
    payload = json.loads(text)
    return params_from_dict(payload)


def params_from_dict(payload: dict) -> ActionParams:
    if not isinstance(payload, dict):
        raise ValueError("parameter payload must be a JSON object")
    allowed = {"mass", "hbar", "domain", "coefficients"}
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = {"mass", "coefficients"} - set(payload)
    if missing:
        raise ValueError(f"missing parameter keys: {sorted(missing)}")
    coeffs = payload["coefficients"]
    if not isinstance(coeffs, dict):
        raise ValueError("coefficients must be a JSON object of exponent -> value")
    try:
        parsed = {int(k): float(v) for k, v in coeffs.items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad coefficient entry: {exc}") from None
    domain = Domain(payload.get("domain", Domain.HALF_LINE.value))
    return ActionParams(
        mass=float(payload["mass"]),
        hbar=float(payload.get("hbar", 1.0)),
        potential=PotentialSpec(parsed),
        domain=domain,
    )
