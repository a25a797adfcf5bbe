import math

import numpy as np
import numpy.testing as npt
import pytest

from qaction.model import (
    ALLOWED_EXPONENTS,
    ActionParams,
    Domain,
    PotentialSpec,
    evaluate_potential,
    omega,
    potential_derivative,
    potential_minimum,
    potential_second_derivative,
    potential_value,
)


def test_spec_canonicalises_keys_and_values():
    spec = PotentialSpec({2.0: 1, -2: 0.25})
    assert spec.coefficients == {2: 1.0, -2: 0.25}
    assert all(isinstance(k, int) for k in spec.coefficients)
    assert spec.exponents() == [-2, 2]


def test_spec_rejects_odd_and_out_of_range_exponents():
    for bad in (1, 3, -8, 8):
        with pytest.raises(ValueError):
            PotentialSpec({bad: 1.0})


def test_params_validation():
    with pytest.raises(ValueError):
        ActionParams(mass=-1.0, hbar=1.0, potential=PotentialSpec({2: 0.5}))
    with pytest.raises(ValueError):
        ActionParams(mass=1.0, hbar=0.0, potential=PotentialSpec({2: 0.5}))
    # inverse-square terms only make sense away from the origin
    with pytest.raises(ValueError):
        ActionParams(
            mass=1.0,
            hbar=1.0,
            potential=PotentialSpec({-2: 1.0, 2: 0.5}),
            domain=Domain.FULL_LINE,
        )
    # hbar^2 must be a normal float: it divides or multiplies every action
    for hbar in (1e200, 1e-200):
        with pytest.raises(ValueError, match="hbar"):
            ActionParams(mass=1.0, hbar=hbar, potential=PotentialSpec({2: 0.5}))
    # a zero coefficient on a negative power is still harmless on the full line
    ActionParams(
        mass=1.0, hbar=1.0, potential=PotentialSpec({-2: 0.0, 2: 0.5}),
        domain=Domain.FULL_LINE,
    )


def test_potential_evaluation_matches_direct_sum():
    spec = PotentialSpec({0: 0.3, 2: 0.5, -2: 1.25, 4: 0.01})
    x = np.array([0.3, 1.0, 2.7])
    expect = 0.3 + 0.5 * x**2 + 1.25 / x**2 + 0.01 * x**4
    npt.assert_allclose(potential_value(spec, x), expect, rtol=1e-15)
    assert potential_value(spec, 1.0) == pytest.approx(0.3 + 0.5 + 1.25 + 0.01)


def _reference_poly(coeffs, x):
    """Zeros, then out + v x**k per non-zero entry in dict order: the sum every
    derivative of V has always been evaluated with."""
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


def _reference_derivative(spec, x, order):
    """The order-th derivative of V, one formula per order as each was first written."""
    coeffs = spec.coefficients
    if order == 0:
        return _reference_poly(coeffs, x)
    if order == 1:
        return _reference_poly({k - 1: k * v for k, v in coeffs.items() if k != 0}, x)
    if order == 2:
        d = {k - 2: k * (k - 1) * v for k, v in coeffs.items() if k not in (0, 2)}
        out = _reference_poly(d, x)
        if 2 in coeffs:
            out = out + 2.0 * coeffs[2]
        return out
    d = {k - order: math.prod(range(k - order + 1, k + 1)) * v for k, v in coeffs.items()}
    return _reference_poly(d, x)


def _same_bits(a, b):
    if isinstance(b, float):
        return isinstance(a, float) and (a == b or (math.isnan(a) and math.isnan(b)))
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def test_evaluator_matches_reference_formulas_bit_for_bit():
    rng = np.random.default_rng(3)
    every = {k: float(rng.uniform(-2.0, 2.0)) for k in ALLOWED_EXPONENTS}
    every[4] = 0.0  # zero entries are skipped
    half_line = rng.uniform(0.05, 6.0, size=(4, 301))
    cases = [
        (PotentialSpec(every), half_line),
        # the quartic ansatz in a non-sorted key order: terms follow the dict
        (PotentialSpec({4: 0.01, -2: 1.3, 0: 0.3, 2: 0.5, -4: 0.02}), half_line),
        (PotentialSpec({0: 1.0, 2: 0.5, 6: 0.01}), rng.uniform(-3.0, 3.0, size=(3, 101))),
        (PotentialSpec({-2: 1.0}), rng.uniform(0.1, 3.0, size=(2, 11))),
        (PotentialSpec({2: 0.0, -6: 0.4}), rng.uniform(0.1, 3.0, size=50)),
        (PotentialSpec({}), rng.uniform(0.1, 3.0, size=5)),
    ]
    for spec, x in cases:
        for order in range(5):
            # the interior view x[..., 1:-1] is what the relaxation evaluates
            for points in (x, x[..., 1:-1], float(x.flat[1]), x.flat[3]):
                expect = _reference_derivative(spec, points, order)
                assert _same_bits(evaluate_potential(spec, points, order), expect)
            out = np.full(x.shape, np.nan)  # stale contents must not leak in
            tmp = np.full(x.shape, np.nan)
            got = evaluate_potential(spec, x, order, out, tmp)
            assert got is out
            assert _same_bits(got, _reference_derivative(spec, x, order))
        for public, order in ((potential_value, 0), (potential_derivative, 1),
                              (potential_second_derivative, 2)):
            assert _same_bits(public(spec, x), _reference_derivative(spec, x, order))


def test_evaluator_rejects_origin_on_both_paths():
    x = np.array([[0.5, 0.0, 1.0]])
    # a negative key rejects x = 0 even when its coefficient is zero
    for spec in (PotentialSpec({-2: 1.0, 2: 0.5}), PotentialSpec({-2: 0.0, 2: 0.5})):
        for order in range(5):
            with pytest.raises(ValueError, match="singular"):
                evaluate_potential(spec, x, order, np.empty_like(x), np.empty_like(x))
            with pytest.raises(ValueError, match="singular"):
                evaluate_potential(spec, x, order)
    assert evaluate_potential(PotentialSpec({2: 0.5}), 0.0, 0) == 0.0


def test_potential_rejects_origin_with_negative_powers():
    spec = PotentialSpec({-2: 1.0, 2: 0.5})
    with pytest.raises(ValueError):
        potential_value(spec, 0.0)
    with pytest.raises(ValueError):
        potential_derivative(spec, np.array([0.5, 0.0]))


def test_derivatives_against_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(25):
        coeffs = {
            k: rng.uniform(0.05, 2.0)
            for k in rng.choice([-4, -2, 0, 2, 4, 6], size=3, replace=False)
        }
        spec = PotentialSpec(coeffs)
        x = rng.uniform(0.4, 3.0)
        h = 1e-6
        fd1 = (potential_value(spec, x + h) - potential_value(spec, x - h)) / (2 * h)
        h2 = 1e-4
        fd2 = (
            potential_value(spec, x + h2)
            - 2 * potential_value(spec, x)
            + potential_value(spec, x - h2)
        ) / h2**2
        assert potential_derivative(spec, x) == pytest.approx(fd1, rel=1e-8)
        assert potential_second_derivative(spec, x) == pytest.approx(fd2, rel=1e-4)


def test_minimum_closed_form_inverse_square_family():
    spec = PotentialSpec({0: 0.25, 2: 0.5, -2: 2.0})
    xm, vm = potential_minimum(spec)
    assert xm == pytest.approx((2.0 / 0.5) ** 0.25)
    assert vm == pytest.approx(0.25 + 2.0 * math.sqrt(0.5 * 2.0))


def test_minimum_pure_positive_powers_sits_at_origin():
    xm, vm = potential_minimum(PotentialSpec({2: 1.0, 4: 0.01, 0: -1.0}))
    assert xm == 0.0
    assert vm == -1.0


def test_minimum_error_cases():
    with pytest.raises(ValueError):
        potential_minimum(PotentialSpec({0: 1.0}))
    with pytest.raises(ValueError):
        potential_minimum(PotentialSpec({2: -1.0, 4: 1.0}))
    # both signs of exponent outside the x^2 + x^-2 family: no closed form
    for coeffs in ({2: 0.7, -4: 0.3}, {2: 0.5, 4: 0.1, -2: 1.0}, {-2: 1.0}):
        with pytest.raises(ValueError, match="no closed-form minimum"):
            potential_minimum(PotentialSpec(coeffs))


def test_omega_definition():
    p = ActionParams(mass=2.0, hbar=1.0, potential=PotentialSpec({2: 1.0}))
    assert omega(p) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        omega(ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({0: 1.0})))
