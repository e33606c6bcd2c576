"""Synthetic far fields with exact embedding identities.

A symmetric rank-one family D(theta, alpha) = T(theta) T(alpha), with T a
finite Fourier series, satisfies reciprocity and admits an exact embedding
with just two canonical angles: expanding Lambda(theta, alpha) T(theta)
T(alpha) in cos(p*theta) and a constant gives two linear conditions on the
coefficients, independent of theta.  The family therefore provides
closed-form oracles for the canonical system, the coefficient solvers, and
every branch of the stabilized evaluator, with no discretization error.
"""

import numpy as np


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
        theta = np.asarray(theta, dtype=np.complex128)
        out = np.zeros(theta.shape, dtype=np.complex128)
        for j, c in self.coefficients.items():
            out = out + c * (1j * j) ** order * np.exp(1j * j * theta)
        return out

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
