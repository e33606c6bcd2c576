"""Numerically stable evaluation of the far-field embedding formula.

For a rational shape with angle parameter p, the weight
    Lambda(theta, alpha) = cos(p theta) - (-1)^p cos(p alpha)
turns the far-field pattern into hat_D = Lambda * D, and the pattern for any
incidence alpha is a Lambda-weighted combination of a fixed set of canonical
patterns.  The naive quotient blows up near the real zeros of
Lambda(., alpha); this module removes the instability by explicit residue
corrections at well-separated zeros and by small rectangular contour
integrals (with a locally interpolated quadratic standing in for the
numerator) when the evaluation point and the zeros crowd together.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .specialfun import (
    QuadraticInterpolant,
    gauss_legendre,
    quadratic_interpolate,
)

DEFAULT_NEAR_THRESHOLD = 0.15  # outer radius H: below it, corrections kick in
DEFAULT_CLUSTER_THRESHOLD = 0.01  # inner radius h: below it, contours kick in
DEFAULT_CONTOUR_ORDER = 20

_EXACT = 1e-13
# Interpolation nodes closer than this are merged into derivative
# conditions: a Newton divided difference over a gap g amplifies the
# rounding noise of the numerator by 1/g^2, while merging costs an
# interpolation error of order g^2 times the third derivative.  Both
# stay near 1e-6 of the data scale at the crossover below.
_CONFLUENT = 1e-5
_TWO_PI = 2.0 * math.pi

# Relative data error is amplified by at most this constant (times
# (1 + 1/(2 h^2)) and the coefficient norm) anywhere on the real line.
STABILITY_CONSTANT = (
    128.0
    * (5.0 * math.pi + 4.0 * math.log(3.0 + math.pi**2 / 64.0))
    * (6.0 + math.pi**2 / 64.0)
    / math.pi**4
)


class PoleAtTheta(ZeroDivisionError):
    """Naive quotient evaluated exactly on a zero of the weight function."""


class PoleOnContour(RuntimeError):
    """A zero of the weight function lies on the integration contour."""


class DoublePoleInSimpleBranch(RuntimeError):
    """Simple-residue formula applied at a coalesced (double) zero."""


def reduce_angle(theta):
    """Map angles into [0, 2*pi)."""
    return np.mod(theta, _TWO_PI)


def angle_distance(a, b=0.0):
    """Distance on the circle, in [0, pi]."""
    d = np.mod(np.asarray(a) - b, _TWO_PI)
    return np.minimum(d, _TWO_PI - d)


def lambda_weight(theta, alpha, p, order=0):
    """Weight function Lambda(theta, alpha) and its theta-derivatives.

    theta may be real or complex, scalar or array; alpha is real.
    """
    theta = np.asarray(theta)
    if order == 0:
        sign = -1.0 if p % 2 == 0 else 1.0
        return np.cos(p * theta) + sign * np.cos(p * np.asarray(alpha))
    if order == 1:
        return -p * np.sin(p * theta)
    if order == 2:
        return -(p * p) * np.cos(p * theta)
    raise ValueError("order must be 0, 1 or 2")


def strip_half_width(p):
    """Half-width of the complex strip on which |Lambda| is provably
    bounded away from zero and above: log(3 + pi^2/64)/p."""
    return math.log(3.0 + math.pi**2 / 64.0) / p


def error_constant(coefficient_norm=1.0):
    """Worst-case input-to-output error amplification, up to the
    (1 + 1/(2 h^2)) contour factor."""
    return STABILITY_CONSTANT * coefficient_norm


@dataclass(frozen=True)
class PoleEnvironment:
    """Real zeros of Lambda(., alpha) relevant near one observation angle.

    theta0 is the nearest zero, theta0_prime the second nearest (equal to
    theta0 when that zero is double), theta_star the nearest coalescence
    point n*pi/p to theta0.  All values are unwrapped representatives chosen
    near the queried angle, not reduced mod 2*pi.
    """

    theta0: float
    theta0_prime: float
    theta_star: float
    is_double: bool


def pole_set(alpha, p):
    """All zeros of Lambda(., alpha) in [0, 2*pi).

    For even p the zeros are +-alpha + 2n pi/p; for odd p they shift by
    pi/p.
    """
    spacing = _TWO_PI / p
    offset = math.pi / p if p % 2 else 0.0
    zeros = []
    for sign in (1.0, -1.0):
        base = sign * alpha + offset
        n0 = math.floor((0.0 - base) / spacing)
        for n in range(n0, n0 + p + 2):
            z = base + n * spacing
            if -1e-12 <= z < _TWO_PI - 1e-12:
                zeros.append(reduce_angle(z))
    zeros.sort()
    dedup = []
    for z in zeros:
        if not dedup or abs(z - dedup[-1]) > 1e-12:
            dedup.append(z)
    # first and last may alias mod 2*pi
    if len(dedup) > 1 and abs(dedup[0] + _TWO_PI - dedup[-1]) < 1e-12:
        dedup.pop()
    return np.asarray(dedup)


def pole_environment(theta, alpha, p):
    """Nearest zeros of Lambda(., alpha) around theta; see PoleEnvironment."""
    theta = float(theta)
    spacing = _TWO_PI / p
    offset = math.pi / p if p % 2 else 0.0
    candidates = []
    for sign in (1.0, -1.0):
        base = sign * float(alpha) + offset
        n0 = round((theta - base) / spacing)
        for dn in (-1, 0, 1):
            candidates.append(base + (n0 + dn) * spacing)
    candidates.sort(key=lambda c: abs(c - theta))
    theta0 = candidates[0]

    nearest_lattice = round(theta0 * p / math.pi) * math.pi / p
    is_double = abs(theta0 - nearest_lattice) <= 1e-12
    if is_double:
        theta0_prime = theta0
    else:
        theta0_prime = next(
            c for c in candidates[1:] if abs(c - theta0) > 1e-12
        )
    return PoleEnvironment(
        theta0=theta0,
        theta0_prime=theta0_prime,
        theta_star=nearest_lattice,
        is_double=is_double,
    )


@dataclass
class EmbeddingBasis:
    """Canonical incident angles and their far-field patterns.

    far_fields is one stacked operator: far_fields.value(theta, order)
    returns D^(order)(theta, angles[m]) with shape shape(theta) + (m,) for
    real or complex theta and orders 0..2 (bem.FarField does).
    """

    p: int
    angles: np.ndarray
    far_fields: object

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if len(self.angles) != len(self.far_fields):
            raise ValueError("one far field per canonical angle required")

    def __len__(self):
        return len(self.angles)

    def hat_values(self, theta, order=0):
        """Weighted patterns hat_D(theta, alpha_m) = Lambda * D and their
        theta-derivatives (Leibniz rule), shape shape(theta) + (m,)."""
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        theta = np.asarray(theta)
        return sum(
            math.comb(order, j)
            * lambda_weight(theta[..., None], self.angles, self.p, order - j)
            * self.far_fields.value(theta, j)
            for j in range(order + 1)
        )

    def numerator(self, coefficients, theta, order=0):
        """sum_m b_m hat_D^(order)(theta, alpha_m), shape shape(theta)."""
        return self.hat_values(theta, order) @ np.asarray(coefficients)


def naive_eval(basis, coefficients, theta, alpha):
    """Direct embedding quotient; unstable near zeros of Lambda(., alpha).

    Raises PoleAtTheta when |Lambda(theta, alpha)| <= 1e-12.
    """
    lam = lambda_weight(theta, alpha, basis.p)
    if np.min(np.abs(lam)) <= 1e-12:
        raise PoleAtTheta(f"Lambda vanishes at theta={theta!r}")
    return basis.numerator(coefficients, theta) / lam


def _residue_term(basis, coefficients, chi, theta):
    """Simple-pole residue correction numerator(chi) / (p (chi - theta)
    sin(p chi)) at one zero chi of Lambda."""
    p = basis.p
    s = math.sin(p * chi)
    if abs(s) <= 1e-12:
        raise DoublePoleInSimpleBranch(
            f"zero at {chi} is double; residue formula invalid"
        )
    return basis.numerator(coefficients, chi) / (p * (chi - theta) * s)


def residue_eval(basis, coefficients, theta, alpha, include):
    """Naive quotient minus the simple-pole residue corrections at the
    zeros listed in include.

    A coalesced zero (sin(p chi) ~ 0) is rejected with
    DoublePoleInSimpleBranch, and the contour form must be used instead.
    """
    value = naive_eval(basis, coefficients, theta, alpha)
    for chi in np.atleast_1d(include):
        value -= _residue_term(basis, coefficients, float(chi), theta)
    return value


@dataclass(frozen=True)
class RectContour:
    """Axis-aligned rectangle around a set of real points."""

    left: float
    right: float
    half_height: float

    def contains(self, x):
        return (
            self.left < x.real < self.right and abs(x.imag) < self.half_height
        )

    def horizontal_gap(self, x):
        """Distance from a real point to the nearest vertical edge."""
        if self.left <= x <= self.right:
            return min(x - self.left, self.right - x)
        return max(self.left - x, x - self.right)

    def quadrature(self, order):
        """Counterclockwise quadrature nodes and complex dz-weights."""
        gx, gw = gauss_legendre(order)
        corners = [
            self.left - 1j * self.half_height,
            self.right - 1j * self.half_height,
            self.right + 1j * self.half_height,
            self.left + 1j * self.half_height,
        ]
        nodes, weights = [], []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * gx)
            weights.append(half * gw)
        return np.concatenate(nodes), np.concatenate(weights)


def rect_contour(points, clearance):
    """Smallest rectangle keeping the given real points at the stated
    distance from its boundary."""
    points = np.atleast_1d(points)
    return RectContour(
        left=float(np.min(points)) - clearance,
        right=float(np.max(points)) + clearance,
        half_height=clearance,
    )


def contour_eval(numerator_fn, theta, alpha, p, contour, order=DEFAULT_CONTOUR_ORDER):
    """(1/2 pi i) times the contour integral of
    numerator_fn(z) / (Lambda(z, alpha) (z - theta)).

    numerator_fn is typically the locally fitted quadratic; it only needs to
    be accurate inside the contour.
    """
    nodes, weights = contour.quadrature(order)
    lam = lambda_weight(nodes, alpha, p)
    denom = lam * (nodes - theta)
    if np.min(np.abs(denom)) <= 1e-12:
        raise PoleOnContour("integrand pole on or too close to the contour")
    values = numerator_fn(nodes) / denom
    return np.sum(values * weights) / (2j * math.pi)


@dataclass
class StabilizedEvaluator:
    """Far-field evaluation through the embedding formula with automatic
    residue and contour corrections near the zeros of Lambda(., alpha).

    coefficient_supplier maps an incidence angle to the coefficient vector
    (anything exposing .values, or a plain array) over basis.angles.
    """

    basis: EmbeddingBasis
    coefficient_supplier: object
    near_threshold: float = DEFAULT_NEAR_THRESHOLD
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
    contour_order: int = DEFAULT_CONTOUR_ORDER
    branch_counts: Counter = field(default_factory=Counter)

    _coeff_cache: dict = field(default_factory=dict, repr=False)

    def coefficients(self, alpha):
        alpha = float(alpha)
        if alpha not in self._coeff_cache:
            result = self.coefficient_supplier(alpha)
            self._coeff_cache[alpha] = np.asarray(
                getattr(result, "values", result)
            )
        return self._coeff_cache[alpha]

    def evaluate(self, theta, alpha):
        """Stabilized far-field value at one (theta, alpha) pair."""
        return self.evaluate_with_branch(theta, alpha)[0]

    def evaluate_with_branch(self, theta, alpha):
        b = self.coefficients(alpha)
        value, label = self._dispatch(float(theta), float(alpha), b)
        self.branch_counts[label] += 1
        return value, label

    def evaluate_sweep(self, thetas, alpha):
        """Values and branch labels over a grid of observation angles.

        The pole-free bulk goes through one vectorized naive evaluation;
        only points within the near threshold of a zero take the scalar
        correction path.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        b = self.coefficients(alpha)
        zeros = pole_set(alpha, self.basis.p)
        dist = angle_distance(thetas[:, None], zeros[None, :]).min(axis=1)
        near = dist < self.near_threshold

        lam = lambda_weight(thetas, alpha, self.basis.p)
        weighted = self.basis.numerator(b, thetas)
        values = np.empty(len(thetas), dtype=np.complex128)
        labels = np.empty(len(thetas), dtype=object)
        safe = ~near
        values[safe] = weighted[safe] / lam[safe]
        labels[safe] = "naive"
        self.branch_counts["naive"] += int(np.count_nonzero(safe))
        for i in np.nonzero(near)[0]:
            values[i], labels[i] = self._dispatch(float(thetas[i]), float(alpha), b)
            self.branch_counts[labels[i]] += 1
        return values, labels

    # internal helpers ---------------------------------------------------

    def _quadratic(self, b, theta, env):
        """Quadratic fit of the numerator at {theta, theta0, theta0'}.

        Nodes closer together than the confluence gate are merged into
        derivative conditions at theta0 (all three merging into a local
        Taylor polynomial), which keeps the divided differences clear of
        catastrophic cancellation.
        """
        th0, th1 = env.theta0, env.theta0_prime
        confluent = env.is_double or abs(th0 - th1) <= _CONFLUENT
        theta_hits_pole = abs(theta - th0) <= _CONFLUENT

        if theta_hits_pole and confluent:
            value = complex(self.basis.numerator(b, th0))
            slope = complex(self.basis.numerator(b, th0, order=1))
            half_curv = 0.5 * complex(self.basis.numerator(b, th0, order=2))
            return QuadraticInterpolant(
                newton_nodes=(th0, th0, th0),
                newton_coeffs=(value, slope, half_curv),
            )
        if theta_hits_pole or confluent:
            other = th1 if theta_hits_pole else theta
            nodes = [th0, other]
            vals = [self.basis.numerator(b, z) for z in nodes]
            return quadratic_interpolate(
                nodes,
                vals,
                derivative_node=th0,
                derivative_value=complex(self.basis.numerator(b, th0, order=1)),
            )
        nodes = [theta, th0, th1]
        vals = [self.basis.numerator(b, z) for z in nodes]
        return quadratic_interpolate(nodes, vals)

    def _contour_value(self, b, theta, alpha, xs, env):
        """Full stabilized value: contour around theta and the zeros xs."""
        rho = self._quadratic(b, theta, env)
        contour = rect_contour([theta] + xs, self.cluster_threshold)
        # an excluded zero drifting onto the contour gets pulled inside
        extra = []
        if env.theta0_prime not in xs and not env.is_double:
            gap = contour.horizontal_gap(env.theta0_prime)
            inside = contour.contains(complex(env.theta0_prime))
            if inside or gap < 0.5 * self.cluster_threshold:
                extra = [env.theta0_prime]
                contour = rect_contour([theta] + xs + extra, self.cluster_threshold)
        value = contour_eval(
            rho, theta, alpha, self.basis.p, contour, self.contour_order
        )
        return complex(value), extra

    def _dispatch(self, theta, alpha, b):
        p = self.basis.p
        env = pole_environment(theta, alpha, p)
        th0, th1 = env.theta0, env.theta0_prime
        d0 = abs(theta - th0)
        d01 = abs(th0 - th1)
        big_h, small_h = self.near_threshold, self.cluster_threshold

        if d0 >= big_h:
            return naive_eval(self.basis, b, theta, alpha), "naive"

        if d0 <= _EXACT and env.is_double:
            # both Lambda and the numerator vanish doubly at theta0
            second = complex(self.basis.numerator(b, th0, order=2))
            return second / (-(p * p) * math.cos(p * th0)), "lhopital"

        if d0 < small_h:
            if env.is_double or d01 < small_h:
                xs = [th0] if env.is_double else [th0, th1]
                value, _ = self._contour_value(b, theta, alpha, xs, env)
                return value, "contour:full"
            value, pulled = self._contour_value(b, theta, alpha, [th0], env)
            if d01 < big_h and not pulled:
                value -= _residue_term(self.basis, b, th1, theta)
            return value, "contour:full"

        # moderate distance: naive plus explicit corrections
        if env.is_double or d01 < small_h:
            xs = [th0] if env.is_double else [th0, th1]
            contour = rect_contour(xs, small_h)
            if contour.contains(complex(theta)) or contour.horizontal_gap(
                theta
            ) < 0.5 * small_h:
                value, _ = self._contour_value(b, theta, alpha, xs, env)
                return value, "contour:full"
            rho = self._quadratic(b, theta, env)
            correction = contour_eval(
                rho, theta, alpha, p, contour, self.contour_order
            )
            value = naive_eval(self.basis, b, theta, alpha) - complex(correction)
            return value, "contour:pair"
        if d01 < big_h:
            value = residue_eval(self.basis, b, theta, alpha, [th0, th1])
            return value, "residue:two"
        return residue_eval(self.basis, b, theta, alpha, [th0]), "residue:single"
