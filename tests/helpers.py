"""Synthetic far fields with exact embedding identities.

A symmetric rank-one family D(theta, alpha) = T(theta) T(alpha), with T a
finite Fourier series, satisfies reciprocity and admits an exact embedding
with just two canonical angles: expanding Lambda(theta, alpha) T(theta)
T(alpha) in cos(p*theta) and a constant gives two linear conditions on the
coefficients, independent of theta.  The family therefore provides
closed-form oracles for the canonical system, the coefficient solvers, and
every branch of the stabilized evaluator, with no discretization error.
"""

import math

import numpy as np

from embedfar.embedding import (
    _CONFLUENT,
    _EXACT,
    DoublePoleInSimpleBranch,
    contour_eval,
    naive_eval,
    pole_environment,
    rect_contour,
)
from embedfar.specialfun import QuadraticInterpolant, quadratic_interpolate


class TrigFarField:
    """Finite Fourier series in theta with exact derivatives.

    Exposes value(theta, order) for real or complex theta and orders 0..2,
    the same surface as a solved far-field pattern.
    """

    def __init__(self, coefficients):
        self.coefficients = {
            int(j): complex(c) for j, c in coefficients.items()
        }

    def value(self, theta, order=0):
        # array arithmetic for every shape of theta, as in bem.FarField:
        # numpy's scalar complex arithmetic rounds differently
        theta = np.asarray(theta, dtype=np.complex128)
        flat = theta.ravel()
        out = np.zeros(flat.shape, dtype=np.complex128)
        for j, c in self.coefficients.items():
            out = out + c * (1j * j) ** order * np.exp(1j * j * flat)
        return out.reshape(theta.shape)[()]

    def scaled(self, factor):
        return TrigFarField(
            {j: factor * c for j, c in self.coefficients.items()}
        )

    def plus(self, other, weight=1.0):
        coeffs = dict(self.coefficients)
        for j, c in other.coefficients.items():
            coeffs[j] = coeffs.get(j, 0.0) + weight * c
        return TrigFarField(coeffs)


class TrigFarFields:
    """Several TrigFarField patterns behind the stacked surface of
    bem.FarField: value(theta, order) has shape shape(theta) + (n,), and
    len() and [m] give the patterns one at a time."""

    def __init__(self, fields):
        self.fields = list(fields)

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, m):
        return self.fields[m]

    def value(self, theta, order=0):
        return np.stack([f.value(theta, order) for f in self.fields], axis=-1)


def random_trig(rng, degree=3, scale=1.0):
    """Random complex Fourier series of the given degree."""
    return TrigFarField(
        {
            j: scale * complex(rng.standard_normal(), rng.standard_normal())
            for j in range(-degree, degree + 1)
        }
    )


def _pair_matrix(T, angles, p):
    t = np.array([complex(T.value(a)) for a in angles])
    return np.array([t, np.cos(p * np.asarray(angles)) * t])


def rank_one_family(p, rng, degree=3, angles=None):
    """Random symmetric family D = T(theta) T(alpha) and canonical data.

    Returns (T, angles, fields) where fields is a TrigFarFields stack and
    fields[m] is D(., angles[m]).  When no angles are given, two are drawn
    at random, rejecting pairs whose coefficient conditions are nearly
    dependent.
    """
    T = random_trig(rng, degree)
    if angles is None:
        while True:
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=2))
            if abs(np.linalg.det(_pair_matrix(T, angles, p))) > 0.1:
                break
    angles = np.asarray(angles, dtype=np.float64)
    fields = TrigFarFields(T.scaled(complex(T.value(a))) for a in angles)
    return T, angles, fields


def exact_coefficients(T, angles, p, alpha):
    """Closed-form embedding coefficients of the rank-one family."""
    ta = complex(T.value(alpha))
    rhs = np.array([ta, np.cos(p * float(alpha)) * ta])
    return np.linalg.solve(_pair_matrix(T, angles, p), rhs)


def true_value(T, theta, alpha):
    """D(theta, alpha) = T(theta) T(alpha) of the rank-one family."""
    return complex(T.value(theta)) * complex(T.value(alpha))


# The scalar dispatcher: one pole environment and separate numerator calls
# per point.  It is the oracle StabilizedEvaluator must reproduce, value for
# value and label for label.


def _scalar_residue_term(basis, b, chi, theta):
    p = basis.p
    s = math.sin(p * chi)
    if abs(s) <= 1e-12:
        raise DoublePoleInSimpleBranch(f"zero at {chi} is double")
    return basis.numerator(b, chi) / (p * (chi - theta) * s)


def _scalar_quadratic(basis, b, theta, env):
    th0, th1 = env.theta0, env.theta0_prime
    confluent = env.is_double or abs(th0 - th1) <= _CONFLUENT
    theta_hits_pole = abs(theta - th0) <= _CONFLUENT

    if theta_hits_pole and confluent:
        value = complex(basis.numerator(b, th0))
        slope = complex(basis.numerator(b, th0, order=1))
        half_curv = 0.5 * complex(basis.numerator(b, th0, order=2))
        return QuadraticInterpolant(
            newton_nodes=(th0, th0, th0),
            newton_coeffs=(value, slope, half_curv),
        )
    if theta_hits_pole or confluent:
        other = th1 if theta_hits_pole else theta
        nodes = [th0, other]
        vals = [basis.numerator(b, z) for z in nodes]
        return quadratic_interpolate(
            nodes,
            vals,
            derivative_node=th0,
            derivative_value=complex(basis.numerator(b, th0, order=1)),
        )
    nodes = [theta, th0, th1]
    vals = [basis.numerator(b, z) for z in nodes]
    return quadratic_interpolate(nodes, vals)


def _scalar_contour_value(evaluator, b, theta, alpha, xs, env):
    small_h = evaluator.cluster_threshold
    rho = _scalar_quadratic(evaluator.basis, b, theta, env)
    contour = rect_contour([theta] + xs, small_h)
    extra = []
    if env.theta0_prime not in xs and not env.is_double:
        gap = contour.horizontal_gap(env.theta0_prime)
        inside = contour.contains(complex(env.theta0_prime))
        if inside or gap < 0.5 * small_h:
            extra = [env.theta0_prime]
            contour = rect_contour([theta] + xs + extra, small_h)
    value = contour_eval(
        rho, theta, alpha, evaluator.basis.p, contour, evaluator.contour_order
    )
    return complex(value), extra


def scalar_dispatch(evaluator, theta, alpha):
    """(value, label) of the stabilized evaluator's rules at one point."""
    theta, alpha = float(theta), float(alpha)
    basis = evaluator.basis
    b = evaluator.coefficients(alpha)
    p = basis.p
    env = pole_environment(theta, alpha, p)
    th0, th1 = float(env.theta0), float(env.theta0_prime)
    d0 = abs(theta - th0)
    d01 = abs(th0 - th1)
    big_h, small_h = evaluator.near_threshold, evaluator.cluster_threshold

    if d0 >= big_h:
        return naive_eval(basis, b, theta, alpha), "naive"

    if d0 <= _EXACT and env.is_double:
        second = complex(basis.numerator(b, th0, order=2))
        return second / (-(p * p) * math.cos(p * th0)), "lhopital"

    if d0 < small_h:
        if env.is_double or d01 < small_h:
            xs = [th0] if env.is_double else [th0, th1]
            value, _ = _scalar_contour_value(evaluator, b, theta, alpha, xs, env)
            return value, "contour:full"
        value, pulled = _scalar_contour_value(evaluator, b, theta, alpha, [th0], env)
        if d01 < big_h and not pulled:
            value -= _scalar_residue_term(basis, b, th1, theta)
        return value, "contour:full"

    if env.is_double or d01 < small_h:
        xs = [th0] if env.is_double else [th0, th1]
        contour = rect_contour(xs, small_h)
        if contour.contains(complex(theta)) or contour.horizontal_gap(
            theta
        ) < 0.5 * small_h:
            value, _ = _scalar_contour_value(evaluator, b, theta, alpha, xs, env)
            return value, "contour:full"
        rho = _scalar_quadratic(basis, b, theta, env)
        correction = contour_eval(
            rho, theta, alpha, p, contour, evaluator.contour_order
        )
        return naive_eval(basis, b, theta, alpha) - complex(correction), "contour:pair"
    value = naive_eval(basis, b, theta, alpha)
    value -= _scalar_residue_term(basis, b, th0, theta)
    if d01 < big_h:
        value -= _scalar_residue_term(basis, b, th1, theta)
        return value, "residue:two"
    return value, "residue:single"


def scalar_sweep(evaluator, thetas, alpha):
    """scalar_dispatch at every point: (values, labels)."""
    pairs = [scalar_dispatch(evaluator, t, alpha) for t in thetas]
    values = np.array([complex(v) for v, _ in pairs])
    labels = np.array([label for _, label in pairs], dtype=object)
    return values, labels
