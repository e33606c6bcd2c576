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

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .specialfun import QuadraticInterpolant, gauss_legendre

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


def lambda_weight(theta, alpha, p, order=0):
    """Weight function Lambda(theta, alpha) and its theta-derivatives.

    theta may be real or complex, scalar or array; alpha is real.
    """
    theta = np.asarray(theta)
    if order == 0:
        return np.cos(p * theta) + lambda_offset(alpha, p)
    if order == 1:
        return -p * np.sin(p * theta)
    if order == 2:
        return -(p * p) * np.cos(p * theta)
    raise ValueError("order must be 0, 1 or 2")


def lambda_offset(alpha, p):
    """The alpha part -(-1)^p cos(p alpha) of Lambda(theta, alpha)."""
    sign = -1.0 if p % 2 == 0 else 1.0
    return sign * np.cos(p * np.asarray(alpha))


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
    real or complex theta and orders 0..2, and equals
    far_fields.rows(theta, order) @ far_fields.modes, the form the
    coefficient map reads (bem.FarField does).  offset
    holds lambda_offset(angles[m], p), so that Lambda(theta, angles[m]) =
    cos(p theta) + offset[m].
    """

    p: int
    angles: np.ndarray
    far_fields: object
    offset: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if len(self.angles) != len(self.far_fields):
            raise ValueError("one far field per canonical angle required")
        self.offset = lambda_offset(self.angles, self.p)

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
        weights = [np.cos(self.p * theta[..., None]) + self.offset] + [
            lambda_weight(theta[..., None], self.angles, self.p, j)
            for j in range(1, order + 1)
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
    if np.any(np.abs(lam) <= 1e-12):
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


@dataclass(frozen=True)
class RectContour:
    """Axis-aligned rectangle around a set of real points."""

    left: float
    right: float
    half_height: float

    def reaches(self, x):
        """Whether the real point x lies in [left, right] or within half
        the half-height of it, too close to the edges to stay outside."""
        return max(self.left - x, x - self.right) < 0.5 * self.half_height

    def quadrature(self, order):
        """Counterclockwise quadrature nodes and complex dz-weights: the
        rule of the square [-1, 1]^2 mapped onto the rectangle."""
        x, iy, dx, i_dy = _unit_square_rule(order)
        centre = 0.5 * (self.left + self.right)
        half_width, half_height = 0.5 * (self.right - self.left), self.half_height
        nodes = centre + half_width * x + half_height * iy
        return nodes, half_width * dx + half_height * i_dy


@functools.cache
def _unit_square_rule(order):
    """The order-point Gauss rule on each side of the square [-1, 1]^2,
    counterclockwise from the bottom-left corner, as the real and imaginary
    parts of its nodes and of its dz-weights (the imaginary ones times i)."""
    gx, gw = gauss_legendre(order)
    ones, zeros = np.ones(order), np.zeros(order)
    x = np.concatenate([gx, ones, -gx, -ones])
    y = np.concatenate([-ones, gx, ones, -gx])
    dx = np.concatenate([gw, zeros, -gw, zeros])
    dy = np.concatenate([zeros, gw, zeros, -gw])
    rule = (x, 1j * y, dx, 1j * dy)
    for part in rule:
        part.flags.writeable = False  # shared by every rectangle
    return rule


def rect_contour(points, clearance):
    """Smallest rectangle keeping the given real points at the stated
    distance from its boundary."""
    return RectContour(
        left=min(points) - clearance,
        right=max(points) + clearance,
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
    """Quadratic fit of the numerator at {theta, theta0, theta0'} in Newton
    form, from its values there; at_th0 holds the value at theta0 and,
    where needed, its first and second derivatives.

    Nodes closer together than the confluence gate are merged into
    derivative conditions at theta0 (all three merging into a local
    Taylor polynomial), which keeps the divided differences clear of
    catastrophic cancellation.  theta0 is the zero nearest theta, so nodes
    left distinct are more than _CONFLUENT apart.
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
    f0 = complex(at_th0[0])
    if theta_hits_pole or confluent:
        # nodes (theta0, theta0, x): value and slope at theta0, value at x
        x, fx = (th1, at_th1) if theta_hits_pole else (theta, at_theta)
        slope = complex(at_th0[1])
        c2 = ((complex(fx) - f0) / (x - th0) - slope) / (x - th0)
        return QuadraticInterpolant((th0, th0, x), (f0, slope, c2))
    f_theta = complex(at_theta)
    c1 = (f0 - f_theta) / (th0 - theta)
    c2 = ((complex(at_th1) - f0) / (th1 - th0) - c1) / (th1 - theta)
    return QuadraticInterpolant((theta, th0, th1), (f_theta, c1, c2))


@dataclass
class StabilizedEvaluator:
    """Far-field evaluation through the embedding formula with automatic
    residue and contour corrections near the zeros of Lambda(., alpha).

    coefficients maps an incidence angle to the coefficient array over
    basis.angles; it is called once per sweep or point.
    """

    basis: EmbeddingBasis
    coefficients: object
    near_threshold: float = DEFAULT_NEAR_THRESHOLD
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
    contour_order: int = DEFAULT_CONTOUR_ORDER
    branch_counts: Counter = field(default_factory=Counter)

    # (thetas.tobytes(), basis.hat_values(thetas)[0]) of the last grid
    _grid: tuple = field(default=(None, None), repr=False)

    def evaluate(self, theta, alpha):
        """Stabilized far-field value at one (theta, alpha) pair."""
        return self.evaluate_with_branch(theta, alpha)[0]

    def evaluate_with_branch(self, theta, alpha):
        """Value and branch label at one (theta, alpha) pair, in Python
        numbers: the coefficients, one far-field call at theta and Lambda
        give the naive quotient; a point within big_h of a zero adds the
        numerator at the zeros it uses and takes its branch as a sweep's
        point does.  The kept grid is left alone."""
        theta, alpha = float(theta), float(alpha)
        if not (math.isfinite(theta) and math.isfinite(alpha)):
            raise ValueError(
                f"angles must be finite: theta={theta!r}, alpha={alpha!r}"
            )
        basis, p = self.basis, self.basis.p
        b = self.coefficients(alpha)
        cos_p = math.cos(p * theta)
        lam = cos_p + float(lambda_offset(alpha, p))
        fields = basis.far_fields.value(theta)
        at_theta = complex(_weigh((cos_p + basis.offset) * fields, b))
        near = self._near(theta, alpha, lam)
        if near is None:
            value, label = at_theta / lam, "naive"
        else:
            point = (theta, *near, at_theta, lam)
            [(value, label)] = self._near_values([point], alpha, b)
        self.branch_counts[label] += 1
        return value, label

    def evaluate_sweep(self, thetas, alpha):
        """Values and branch labels over a grid of observation angles.

        The weighted canonical patterns on the grid do not depend on alpha
        and are reused while the grid's values stay the same.  The naive
        quotient and the cut |Lambda| <= p H for points near a zero run on
        arrays; the numerator at the zeros the near points use comes from
        one far-field call per derivative order, and each near point then
        takes its branch from these values.
        """
        thetas, alpha = np.asarray(thetas, dtype=np.float64), float(alpha)
        if not (math.isfinite(alpha) and np.isfinite(thetas).all()):
            bad = np.count_nonzero(~np.isfinite(thetas))
            raise ValueError(
                f"angles must be finite: alpha={alpha!r}, {bad} non-finite "
                f"of {thetas.size} theta values"
            )
        p, n, big_h = self.basis.p, len(thetas), self.near_threshold
        b = self.coefficients(alpha)
        lam = lambda_weight(thetas, alpha, p)
        at_theta = _weigh(self._grid_patterns(thetas), b)
        labels = np.full(n, "naive", dtype=object)

        # only points with |Lambda| <= p big_h can lie within big_h of a
        # zero (see _near); a sweep has few of them, so they go on as
        # Python numbers (a numpy call costs more than the whole of _near)
        candidates = (np.abs(lam) <= p * big_h).nonzero()[0]
        columns = (candidates, thetas[candidates], lam[candidates],
                   at_theta[candidates])
        index, points = [], []
        for i, theta, lam_i, at_i in zip(*(column.tolist() for column in columns)):
            near = self._near(theta, alpha, lam_i)
            if near is not None:
                index.append(i)
                points.append((theta, *near, at_i, lam_i))
        if not points:
            self.branch_counts.update(labels.tolist())
            return at_theta / lam, labels
        values = np.zeros(n, dtype=np.complex128)
        if len(points) < n:
            far = np.ones(n, dtype=bool)
            far[index] = False
            np.divide(at_theta, lam, out=values, where=far)
        values[index], labels[index] = zip(*self._near_values(points, alpha, b))
        self.branch_counts.update(labels.tolist())
        return values, labels

    # internal helpers ---------------------------------------------------

    def _grid_patterns(self, thetas):
        """basis.hat_values(thetas)[0], kept for the last grid and keyed on
        its values: the weighted patterns do not depend on alpha."""
        key = thetas.tobytes()
        if self._grid[0] != key:
            self._grid = (key, self.basis.hat_values(thetas)[0])
        return self._grid[1]

    def _near(self, theta, alpha, lam):
        """(theta0, theta0', is_double) when theta lies within big_h of a
        zero of Lambda(., alpha), else None; lam is Lambda(theta, alpha),
        and |Lambda| <= p d0 lets a larger one skip the zeros."""
        p, big_h = self.basis.p, self.near_threshold
        if abs(lam) > p * big_h:
            return None
        th0, th1, _, double = _environment(theta, alpha, p)
        return (th0, th1, double) if abs(theta - th0) < big_h else None

    def _near_values(self, points, alpha, b):
        """(value, label) of each point (theta, theta0, theta0', is_double,
        numerator at theta, Lambda there) within big_h of a zero: one
        far-field call per derivative order on the distinct zeros the
        points use, then each point's branch."""
        used = [self._zeros_used(*point[:4]) for point in points]
        zeros = [z for point_zeros, _ in used for z in point_zeros]
        index = range(len(zeros))
        if len(zeros) > 2:  # a single point's zeros are distinct already
            zeros, index = np.unique(zeros, return_inverse=True)
        order = max(point_order for _, point_order in used)
        at_zeros = _weigh(self.basis.hat_values(zeros, order), b).T.tolist()
        rows = iter(index)
        results = []
        for (theta, th0, th1, double, at_i, lam_i), (point_zeros, _) in zip(
            points, used
        ):
            at_th0 = at_zeros[next(rows)]
            at_th1 = at_zeros[next(rows)][0] if len(point_zeros) == 2 else None
            results.append(self._near_value(
                theta, alpha, th0, th1, double, at_i, lam_i, at_th0, at_th1
            ))
        return results

    def _zeros_used(self, theta, th0, th1, is_double):
        """The zeros whose numerator the branch of a point within big_h of
        th0 reads, and the derivative order its quadratic fit or l'Hopital's
        rule needs there."""
        d0, d01 = abs(theta - th0), abs(th0 - th1)
        uses_th1 = not is_double and (
            d0 < self.cluster_threshold or d01 < self.near_threshold
        )
        hits, confluent = d0 <= _CONFLUENT, is_double or d01 <= _CONFLUENT
        order = 2 if hits and confluent else int(hits or confluent)
        return ([th0, th1] if uses_th1 else [th0]), order

    def _near_value(self, theta, alpha, th0, th1, is_double, at_theta, lam,
                    at_th0, at_th1):
        """Value and branch label of a point within big_h of a zero, from
        the numerator at theta, theta0 and theta0' (at_th0 also holds the
        derivatives the point needs) and Lambda at theta."""
        p = self.basis.p
        big_h, small_h = self.near_threshold, self.cluster_threshold
        d0, d01 = abs(theta - th0), abs(th0 - th1)
        if d0 <= _EXACT and is_double:
            # the regular part of N / Lambda at theta0, where Lambda =
            # Lambda''/2 u^2 (1 - p^2 u^2 / 12 + ...): (N'' + p^2 N / 6) /
            # Lambda''; exact data make N vanish doubly there
            second = at_th0[2] + (p * p / 6.0) * at_th0[0]
            return second / (-(p * p) * math.cos(p * th0)), "lhopital"

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

        # moderate distance from a clustered pair or a double zero: with
        # theta outside the rectangle, the integral around the zeros alone
        # is minus the principal part of rho / Lambda there
        contour = rect_contour(xs, small_h)
        if contour.reaches(theta):
            value, _ = self._contour_value(rho, theta, alpha, xs, th1, is_double)
            return value, "contour:full"
        correction = contour_eval(rho, theta, alpha, p, contour, self.contour_order)
        return at_theta / lam + complex(correction), "contour:pair"

    def _contour_value(self, rho, theta, alpha, xs, th1, is_double):
        """Contour integral around theta and the zeros xs; an excluded
        zero th1 drifting onto the contour gets pulled inside.  Returns the
        value and whether th1 was pulled in."""
        contour = rect_contour([theta] + xs, self.cluster_threshold)
        pulled = False
        if th1 not in xs and not is_double and contour.reaches(th1):
            pulled = True
            contour = rect_contour([theta] + xs + [th1], self.cluster_threshold)
        value = contour_eval(
            rho, theta, alpha, self.basis.p, contour, self.contour_order
        )
        return complex(value), pulled
