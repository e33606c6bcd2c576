"""Bessel evaluations, Gauss-Legendre rules, and the Newton-form quadratic."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfar.embedding import _fit_quadratic
from embedfar.specialfun import gauss_legendre, hankel1

# H_nu^(1)(x) frozen from 50-digit mpmath evaluations.
HANKEL_REFERENCE = {
    (0, 0.5): 0.9384698072408129 - 0.44451873350670656j,
    (0, 1.0): 0.7651976865579666 + 0.08825696421567696j,
    (0, 5.0): -0.1775967713143383 - 0.30851762524903376j,
    (0, 50.0): 0.055812327669251816 - 0.09806499547007708j,
    (1, 0.5): 0.2422684576748739 - 1.471472392670243j,
    (1, 1.0): 0.4400505857449335 - 0.7812128213002887j,
    (1, 5.0): -0.32757913759146523 + 0.14786314339122683j,
    (1, 50.0): -0.09751182812517514 - 0.05679566856201477j,
}


def test_hankel_matches_frozen_reference():
    for (order, x), expected in HANKEL_REFERENCE.items():
        got = complex(hankel1(order, x))
        assert abs(got - expected) <= 1e-10 * abs(expected)


def test_hankel_matches_mpmath_scan():
    mpmath.mp.dps = 30
    xs = np.geomspace(0.011, 9.5e3, 40)
    for order in (0, 1):
        values = np.atleast_1d(hankel1(order, xs))
        for x, got in zip(xs, values):
            expected = complex(mpmath.hankel1(order, mpmath.mpf(float(x))))
            assert abs(complex(got) - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("order", [0, 1])
def test_hankel_matches_mpmath_on_assembly_range(order):
    # bem.assemble's arguments reach 14.1 at k = 10; the dense scan covers
    # them, and the fine one crosses 12, where a switch from an ascending
    # series to an asymptotic expansion would lose the most digits
    xs = np.concatenate(
        [np.geomspace(1e-4, 20.0, 400), np.linspace(11.5, 12.5, 101)]
    )
    values = hankel1(order, xs)
    with mpmath.workdps(30):
        expected = [complex(mpmath.hankel1(order, float(x))) for x in xs]
    worst = max(abs(complex(v) - e) / abs(e) for v, e in zip(values, expected))
    assert worst <= 1e-13


def test_hankel_wronskian_identity():
    # J_0(x) Y_1(x) - J_1(x) Y_0(x) = -2 / (pi x)
    for x in (0.1, 1.0, 10.0, 100.0):
        h0 = complex(hankel1(0, x))
        h1 = complex(hankel1(1, x))
        wronskian = h0.real * h1.imag - h1.real * h0.imag
        target = -2.0 / (math.pi * x)
        assert abs(wronskian - target) <= 1e-9 * abs(target)


def test_hankel_vectorized_matches_scalar():
    xs = np.array([0.3, 2.0, 11.5, 40.0])
    for order in (0, 1):
        vec = hankel1(order, xs)
        for x, v in zip(xs, vec):
            assert complex(hankel1(order, float(x))) == complex(v)


def test_hankel_small_argument_behaviour():
    h0 = complex(hankel1(0, 1e-6))
    assert abs(h0.real - 1.0) <= 1e-9
    assert h0.imag < -8.0  # (2/pi) log(x) divergence of Y_0
    h1 = complex(hankel1(1, 1e-6))
    assert h1.imag < -1e5  # -2/(pi x) divergence of Y_1
    assert abs(h1.real - 5e-7) <= 1e-9  # J_1(x) ~ x/2


def test_hankel_rejects_bad_arguments():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            hankel1(0, bad)
    with pytest.raises(ValueError):
        hankel1(2, 1.0)


def test_gauss_legendre_closed_forms():
    x1, w1 = gauss_legendre(1)
    assert np.allclose(x1, [0.0], atol=1e-15)
    assert np.allclose(w1, [2.0], atol=1e-14)
    x2, w2 = gauss_legendre(2)
    root = 1.0 / math.sqrt(3.0)
    assert np.allclose(x2, [-root, root], atol=1e-14)
    assert np.allclose(w2, [1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("n", [3, 8, 20, 64, 200])
def test_gauss_legendre_structure(n):
    x, w = gauss_legendre(n)
    assert len(x) == len(w) == n
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert np.all(np.abs(x) < 1.0)
    assert abs(float(np.sum(w)) - 2.0) <= 1e-14 * n
    assert np.allclose(x + x[::-1], 0.0, atol=1e-14)
    assert np.allclose(w - w[::-1], 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [5, 20])
def test_gauss_legendre_degree_exactness(n):
    x, w = gauss_legendre(n)
    for degree in range(2 * n):
        got = float(np.sum(w * x**degree))
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert abs(got - exact) <= 1e-13


def test_gauss_legendre_not_exact_past_degree():
    x, w = gauss_legendre(5)
    got = float(np.sum(w * x**10))
    assert abs(got - 2.0 / 11.0) > 1e-4


def test_gauss_legendre_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(201)


def _fit_distinct(nodes, values):
    """The quadratic through three distinct nodes (theta, theta0, theta0'),
    as the evaluator fits it; only the value at theta0 is read there."""
    (theta, th0, th1), (f_theta, f0, f1) = nodes, values
    return _fit_quadratic(theta, th0, th1, f_theta, [f0], f1)


def test_interpolates_parabola():
    q = _fit_distinct([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    for z in (0.0, 0.5, 1.0, 1.7, 2.0, 1.0 + 0.5j):
        assert abs(q(z) - z * z) <= 1e-13 * max(1.0, abs(z) ** 2)
    # three values fix a quadratic: z^2 at points off the nodes
    for z in (-1.0, 3.0, 10.0):
        assert abs(q(z) - z * z) <= 1e-13 * z * z


_complex_values = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40)
@given(st.lists(_complex_values, min_size=3, max_size=3))
def test_quadratics_are_reproduced_exactly(coeffs):
    a0, a1, a2 = coeffs

    def f(z):
        return a0 + a1 * z + a2 * z * z

    nodes = [-1.0, 0.4, 1.6]
    q = _fit_distinct(nodes, [f(z) for z in nodes])
    scale = max(1.0, abs(a0) + abs(a1) + abs(a2))
    for z in (-0.5, 0.9, 1.2 + 0.8j):
        assert abs(q(z) - f(z)) <= 1e-11 * scale
