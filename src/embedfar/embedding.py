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
    return PoleEnvironment(*_environment(float(theta), float(alpha), p))


def _environment(theta, alpha, p):
    """pole_environment's fields for Python floats, as a tuple.

    Each family of zeros (+alpha and -alpha) offers its zero nearest theta;
    the second nearest zero is the other family's, or the neighbour of the
    nearest one on theta's side, whichever is closer.
    """
    spacing = _TWO_PI / p
    offset = math.pi / p if p % 2 else 0.0
    plus, minus = offset + alpha, offset - alpha
    near_plus = plus + round((theta - plus) / spacing) * spacing
    near_minus = minus + round((theta - minus) / spacing) * spacing
    gap_plus, gap_minus = abs(theta - near_plus), abs(theta - near_minus)
    if gap_minus < gap_plus:
        theta0, other, d0, d_other = near_minus, near_plus, gap_minus, gap_plus
    else:
        theta0, other, d0, d_other = near_plus, near_minus, gap_plus, gap_minus
    theta_star = round(theta0 * p / math.pi) * math.pi / p
    # coinciding zeros of the two families make a double zero, so the
    # other family's zero is distinct from a simple theta0
    is_double = abs(theta0 - theta_star) <= 1e-12
    if is_double:
        theta0_prime = theta0
    elif d_other <= spacing - d0:
        theta0_prime = other
    else:
        theta0_prime = theta0 + math.copysign(spacing, theta - theta0)
    return theta0, theta0_prime, theta_star, is_double


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
        theta-derivatives through `order` (Leibniz rule), stacked with
        shape (order + 1,) + shape(theta) + (m,); one far-field call per
        order."""
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        theta = np.asarray(theta)
        fields = [self.far_fields.value(theta, j) for j in range(order + 1)]
        weights = [
            lambda_weight(theta[..., None], self.angles, self.p, j)
            for j in range(order + 1)
        ]
        out = np.empty((order + 1,) + fields[0].shape, dtype=np.complex128)
        for n in range(order + 1):
            out[n] = weights[n] * fields[0]
            for j in range(1, n + 1):
                out[n] += math.comb(n, j) * weights[n - j] * fields[j]
        return out

    def numerator(self, coefficients, theta, order=0):
        """sum_m b_m hat_D^(order)(theta, alpha_m), shape shape(theta)."""
        return _weigh(self.hat_values(theta, order)[order], coefficients)


def _weigh(hat, coefficients):
    """sum_m hat[..., m] b_m as a product and a sum over the last axis.
    Unlike a BLAS product this gives each row the same digits whatever the
    number of rows, so a sweep reproduces one-point evaluation wherever
    the far fields do; the divided differences next to a zero amplify
    rounding differences by up to 1/_CONFLUENT**2."""
    return (hat * coefficients).sum(axis=-1)


def naive_eval(basis, coefficients, theta, alpha):
    """Direct embedding quotient; unstable near zeros of Lambda(., alpha).

    Raises PoleAtTheta when |Lambda(theta, alpha)| <= 1e-12.
    """
    lam = lambda_weight(theta, alpha, basis.p)
    if np.min(np.abs(lam)) <= 1e-12:
        raise PoleAtTheta(f"Lambda vanishes at theta={theta!r}")
    return basis.numerator(coefficients, theta) / lam


def _residue_term(p, numerator_at_chi, chi, theta):
    """Simple-pole residue correction numerator(chi) / (p (chi - theta)
    sin(p chi)) at one zero chi of Lambda."""
    s = math.sin(p * chi)
    if abs(s) <= 1e-12:
        raise DoublePoleInSimpleBranch(
            f"zero at {chi} is double; residue formula invalid"
        )
    return numerator_at_chi / (p * (chi - theta) * s)


def residue_eval(basis, coefficients, theta, alpha, include):
    """Naive quotient minus the simple-pole residue corrections at the
    zeros listed in include.

    A coalesced zero (sin(p chi) ~ 0) is rejected with
    DoublePoleInSimpleBranch, and the contour form must be used instead.
    """
    value = naive_eval(basis, coefficients, theta, alpha)
    for chi in np.atleast_1d(include):
        chi = float(chi)
        value -= _residue_term(
            basis.p, basis.numerator(coefficients, chi), chi, theta
        )
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


def _fit_quadratic(theta, th0, th1, is_double, at_theta, at_th0, at_th1):
    """Quadratic fit of the numerator at {theta, theta0, theta0'} from its
    values there; at_th0 holds the value at theta0 and, where needed, its
    first and second derivatives.

    Nodes closer together than the confluence gate are merged into
    derivative conditions at theta0 (all three merging into a local
    Taylor polynomial), which keeps the divided differences clear of
    catastrophic cancellation.
    """
    confluent = is_double or abs(th0 - th1) <= _CONFLUENT
    theta_hits_pole = abs(theta - th0) <= _CONFLUENT
    if theta_hits_pole and confluent:
        return QuadraticInterpolant(
            newton_nodes=(th0, th0, th0),
            newton_coeffs=(
                complex(at_th0[0]),
                complex(at_th0[1]),
                0.5 * complex(at_th0[2]),
            ),
        )
    if theta_hits_pole or confluent:
        other, at_other = (th1, at_th1) if theta_hits_pole else (theta, at_theta)
        return quadratic_interpolate(
            [th0, other],
            [at_th0[0], at_other],
            derivative_node=th0,
            derivative_value=complex(at_th0[1]),
        )
    return quadratic_interpolate([theta, th0, th1], [at_theta, at_th0[0], at_th1])


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
    # (thetas.tobytes(), basis.hat_values(thetas)[0]) of the last grid
    _grid: tuple = field(default=(None, None), repr=False)

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
        """Value and branch label at one (theta, alpha) pair: a one-point
        sweep, which leaves the kept grid alone."""
        theta = np.array([float(theta)])
        patterns = self.basis.hat_values(theta)[0]
        values, labels = self._sweep(theta, float(alpha), patterns)
        return values[0], labels[0]

    def evaluate_sweep(self, thetas, alpha):
        """Values and branch labels over a grid of observation angles.

        The weighted canonical patterns on the grid do not depend on alpha
        and are reused while the grid's values stay the same.  The naive
        quotient and the cut |Lambda| <= p H for points near a zero run on
        arrays; the numerator at the zeros the near points use comes from
        one far-field call per derivative order, and each near point then
        takes its branch from these values.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        return self._sweep(thetas, float(alpha), self._grid_patterns(thetas))

    # internal helpers ---------------------------------------------------

    def _sweep(self, thetas, alpha, patterns):
        """Values and labels over thetas, given basis.hat_values(thetas)[0]."""
        p, n = self.basis.p, len(thetas)
        big_h, small_h = self.near_threshold, self.cluster_threshold
        b = self.coefficients(alpha)
        lam = lambda_weight(thetas, alpha, p)
        at_theta = _weigh(patterns, b)
        labels = np.full(n, "naive", dtype=object)

        # |Lambda| <= p d0, so only these points can lie within big_h of
        # a zero; a sweep has few of them, so they go on as Python numbers
        # (a numpy call costs more than the whole of _environment)
        candidates = (np.abs(lam) <= p * big_h).nonzero()[0]
        columns = (candidates, thetas[candidates], lam[candidates],
                   at_theta[candidates])
        points = []
        for i, theta, lam_i, at_i in zip(*(column.tolist() for column in columns)):
            th0, th1, _, double = _environment(theta, alpha, p)
            if abs(theta - th0) < big_h:
                points.append((i, theta, th0, th1, double, lam_i, at_i))
        if not points:
            self.branch_counts.update(labels.tolist())
            return at_theta / lam, labels
        values = np.zeros(n, dtype=np.complex128)
        if len(points) < n:
            far = np.ones(n, dtype=bool)
            far[[point[0] for point in points]] = False
            np.divide(at_theta, lam, out=values, where=far)

        # the zeros each near point uses, and the derivative order its
        # quadratic fit or l'Hopital's rule needs
        zeros, uses_th1, order = [], [], 0
        for _, theta, th0, th1, double, _, _ in points:
            d0, d01 = abs(theta - th0), abs(th0 - th1)
            uses = not double and (d0 < small_h or d01 < big_h)
            zeros += [th0, th1] if uses else [th0]
            uses_th1.append(uses)
            hits, confluent = d0 <= _CONFLUENT, double or d01 <= _CONFLUENT
            order = max(order, 2 if hits and confluent else int(hits or confluent))
        # one far-field call per order on the distinct zeros (a single
        # point's zeros are distinct already)
        index = range(len(zeros))
        if len(zeros) > 2:
            zeros, index = np.unique(zeros, return_inverse=True)
        at_zeros = _weigh(self.basis.hat_values(zeros, order), b).T.tolist()

        rows = iter(index)
        for (i, theta, th0, th1, double, lam_i, at_i), uses in zip(points, uses_th1):
            at_th0 = at_zeros[next(rows)]
            at_th1 = at_zeros[next(rows)][0] if uses else None
            values[i], labels[i] = self._near_value(
                theta, alpha, th0, th1, double, at_i, lam_i, at_th0, at_th1
            )
        self.branch_counts.update(labels.tolist())
        return values, labels

    def _grid_patterns(self, thetas):
        """basis.hat_values(thetas)[0], kept for the last grid and keyed on
        its values: the weighted patterns do not depend on alpha."""
        key = thetas.tobytes()
        if self._grid[0] != key:
            self._grid = (key, self.basis.hat_values(thetas)[0])
        return self._grid[1]

    def _near_value(self, theta, alpha, th0, th1, is_double, at_theta, lam,
                    at_th0, at_th1):
        """Value and branch label of a point within big_h of a zero, from
        the numerator at theta, theta0 and theta0' (at_th0 also holds the
        derivatives the point needs) and Lambda at theta."""
        p = self.basis.p
        big_h, small_h = self.near_threshold, self.cluster_threshold
        d0, d01 = abs(theta - th0), abs(th0 - th1)
        if d0 <= _EXACT and is_double:
            # both Lambda and the numerator vanish doubly at theta0
            return at_th0[2] / (-(p * p) * math.cos(p * th0)), "lhopital"

        if d0 >= small_h and not (is_double or d01 < small_h):
            # naive quotient plus explicit corrections
            value = at_theta / lam - _residue_term(p, at_th0[0], th0, theta)
            if d01 < big_h:
                return value - _residue_term(p, at_th1, th1, theta), "residue:two"
            return value, "residue:single"

        rho = _fit_quadratic(theta, th0, th1, is_double, at_theta, at_th0, at_th1)
        xs = [th0] if is_double else [th0, th1]
        if d0 < small_h:
            if is_double or d01 < small_h:
                value, _ = self._contour_value(rho, theta, alpha, xs, th1, is_double)
                return value, "contour:full"
            value, pulled = self._contour_value(
                rho, theta, alpha, [th0], th1, is_double
            )
            if d01 < big_h and not pulled:
                value -= _residue_term(p, at_th1, th1, theta)
            return value, "contour:full"

        # moderate distance from a clustered pair or a double zero
        contour = rect_contour(xs, small_h)
        if contour.contains(complex(theta)) or contour.horizontal_gap(
            theta
        ) < 0.5 * small_h:
            value, _ = self._contour_value(rho, theta, alpha, xs, th1, is_double)
            return value, "contour:full"
        correction = contour_eval(rho, theta, alpha, p, contour, self.contour_order)
        return at_theta / lam - complex(correction), "contour:pair"

    def _contour_value(self, rho, theta, alpha, xs, th1, is_double):
        """Contour integral around theta and the zeros xs; an excluded
        zero th1 drifting onto the contour gets pulled inside.  Returns the
        value and whether th1 was pulled in."""
        contour = rect_contour([theta] + xs, self.cluster_threshold)
        pulled = False
        if th1 not in xs and not is_double:
            gap = contour.horizontal_gap(th1)
            if contour.contains(complex(th1)) or gap < 0.5 * self.cluster_threshold:
                pulled = True
                contour = rect_contour(
                    [theta] + xs + [th1], self.cluster_threshold
                )
        value = contour_eval(
            rho, theta, alpha, self.basis.p, contour, self.contour_order
        )
        return complex(value), pulled
