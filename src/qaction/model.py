"""Sparse polynomial potentials and the parameter sets built on them.

V and each of its derivatives come from one term list (potential_terms) and
one evaluator (evaluate_potential); the relaxation passes its own buffers to
the same evaluator. Order 2 adds its constant 2 v_2 after the other terms,
which keeps the bits of V'' that the Newton matrix has always used.
"""

from __future__ import annotations

import math
import sys
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
        if not sys.float_info.min <= self.hbar * self.hbar < math.inf:
            # hbar^2 enters every action and kernel; 0 or inf there is no model
            raise ValueError(f"hbar^2 must be a normal float, got hbar {self.hbar}")
        if self.potential.has_negative_exponents() and self.domain is not Domain.HALF_LINE:
            raise ValueError("negative-exponent coefficients require the half-line domain")


def potential_value(spec: PotentialSpec, x):
    """Evaluate V at x (scalar or array). x must avoid 0 when negative powers exist."""
    return evaluate_potential(spec, x, 0)


def potential_derivative(spec: PotentialSpec, x):
    """Evaluate V'(x)."""
    return evaluate_potential(spec, x, 1)


def potential_second_derivative(spec: PotentialSpec, x):
    """Evaluate V''(x); the relaxation solver needs it for its Jacobian."""
    return evaluate_potential(spec, x, 2)


def potential_terms(spec: PotentialSpec, order: int) -> list[tuple[int, float]]:
    """Non-zero (exponent, coefficient) terms of the order-th derivative of V.

    Entry k of the coefficient dict gives k (k - 1) ... (k - order + 1) v_k
    x^(k - order), in dict order; the product is 0 for 0 <= k < order. Order 2
    puts its constant 2 v_2 last, where the relaxation has always added it.
    """
    coeffs = spec.coefficients
    terms = [
        (k - order, math.prod(range(k - order + 1, k + 1)) * v)
        for k, v in coeffs.items()
        if order != 2 or k != 2
    ]
    if order == 2 and 2 in coeffs:
        terms.append((0, 2.0 * coeffs[2]))
    return [(k, c) for k, c in terms if c != 0.0]


def evaluate_potential(spec: PotentialSpec, x, order: int, out=None, tmp=None, powers=None):
    """The order-th derivative of V at x: the sum of potential_terms(spec, order).

    Zeros, then out + c x^k per term (out + c for the constant), written
    into out with tmp as scratch (both of x's shape), so a caller that passes
    its own buffers allocates nothing. Without them both are allocated, and
    scalar x gives a float. A caller that already holds x^k by exponent k
    passes them as `powers`; np.power(x, k) would give the same bits.
    """
    _check_domain(spec, x)
    x = np.asarray(x, dtype=float)
    if out is None:
        out, tmp = np.empty_like(x), np.empty_like(x)
    out.fill(0.0)
    for k, c in potential_terms(spec, order):
        if k == 0:  # c x^0 is c for every x, nan and inf too: one pass, not three
            np.add(out, c, out=out)
        else:
            base = np.power(x, k, out=tmp) if powers is None else powers[k]
            np.multiply(base, c, out=tmp)
            np.add(out, tmp, out=out)
    return float(out) if out.ndim == 0 else out


def _check_domain(spec: PotentialSpec, x):
    if any(k < 0 for k in spec.coefficients):
        if np.any(np.asarray(x) == 0.0):
            raise ValueError("x = 0 is singular for negative-exponent potentials")


def potential_minimum(spec: PotentialSpec):
    """Return (x_min, V_min) of the potential.

    The two-term inverse-square family has the closed form
    x_min = (v_-2 / v_2)^(1/4), V_min = v_0 + 2 sqrt(v_2 v_-2), and a potential
    of positive powers only has its minimum at the origin. Any other
    potential raises ValueError.
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
    raise ValueError(
        f"no closed-form minimum for exponents {sorted(nz)}: only the x^2 + x^-2 "
        "family and positive powers have one"
    )


def omega(params: ActionParams) -> float:
    """Oscillator frequency via v_2 = m omega^2 / 2."""
    v2 = params.potential.coefficients.get(2, 0.0)
    if v2 <= 0.0:
        raise ValueError("omega requires a positive x^2 coefficient")
    return math.sqrt(2.0 * v2 / params.mass)


def write_csv(path, columns, rows, comment: str) -> None:
    """A `# comment` line, the header line, then rows of bools/ints as integers
    and everything else as .17g.

    The comment is required: every CSV of the package starts with its meta line.
    """

    def cell(v):
        if isinstance(v, (int, np.integer)):  # bool is an int
            return str(int(v))
        return f"{float(v):.17g}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


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
