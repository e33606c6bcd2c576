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

# Interpolation nodes closer than this are merged into derivative
# conditions: a Newton divided difference over a gap g amplifies the
# rounding noise of the numerator by 1/g^2, while merging costs an
# interpolation error of order g^2 times the third derivative.  Both
# stay near 1e-6 of the data scale at the crossover below.
_CONFLUENT = 1e-5
# contour_eval's least admissible |Lambda(z) (z - theta)| on a contour
_CONTOUR_GUARD = 1e-12
_TWO_PI = 2.0 * math.pi


class PoleAtTheta(ZeroDivisionError):
    """Naive quotient evaluated exactly on a zero of the weight function."""


class PoleOnContour(RuntimeError):
    """A zero of the weight function lies on the integration contour."""


class DoublePoleInSimpleBranch(RuntimeError):
    """Simple-residue formula applied at a coalesced (double) zero."""


def reduce_angle(theta):
    """Map angles into [0, 2*pi)."""
    return np.mod(theta, _TWO_PI)


def lambda_weight(theta, alpha, p):
    """Weight function Lambda(theta, alpha).

    theta may be real or complex, scalar or array; alpha is real.
    """
    return np.cos(p * np.asarray(theta)) + lambda_offset(alpha, p)


def lambda_offset(alpha, p):
    """The alpha part -(-1)^p cos(p alpha) of Lambda(theta, alpha); a
    float alpha, as a sweep or a point has, gives a float from math."""
    sign = -1.0 if p % 2 == 0 else 1.0
    if isinstance(alpha, float):
        return sign * math.cos(p * alpha)
    return sign * np.cos(p * np.asarray(alpha))


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
    """Nearest zeros (theta0, theta0') of Lambda(., alpha) around theta.

    Each family of zeros (+alpha and -alpha) offers its zero nearest theta;
    theta0 is the nearer of the two, and theta0' the other family's or the
    neighbour of theta0 on theta's side, whichever is closer.  Where the
    families meet in a double zero, theta0' lies on theta0 or within
    rounding of it.  Both are Python floats, unwrapped representatives
    near theta, not reduced mod 2*pi.
    """
    theta, alpha = float(theta), float(alpha)
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
    if d_other <= spacing - d0:
        return theta0, other
    return theta0, theta0 + math.copysign(spacing, theta - theta0)


def _environments(theta, alpha, p):
    """pole_environment for an array of angles, by the same IEEE operations
    (rounding half to even, abs, copysign), so that every branch decision
    agrees with the scalar cut bit for bit."""
    spacing = _TWO_PI / p
    offset = math.pi / p if p % 2 else 0.0
    plus, minus = offset + alpha, offset - alpha
    near_plus = plus + np.rint((theta - plus) / spacing) * spacing
    near_minus = minus + np.rint((theta - minus) / spacing) * spacing
    gap_plus, gap_minus = np.abs(theta - near_plus), np.abs(theta - near_minus)
    take_minus = gap_minus < gap_plus
    theta0 = np.where(take_minus, near_minus, near_plus)
    other = np.where(take_minus, near_plus, near_minus)
    d0, d_other = np.minimum(gap_plus, gap_minus), np.maximum(gap_plus, gap_minus)
    beside = theta0 + np.copysign(spacing, theta - theta0)
    return theta0, np.where(d_other <= spacing - d0, other, beside)


@dataclass
class EmbeddingBasis:
    """Canonical incident angles, their far-field patterns and the weighted
    patterns the embedding formula reads.

    far_fields is one stacked operator: far_fields.value(theta, order)
    returns D^(order)(theta, angles[m]) with shape shape(theta) + (m,) for
    real or complex theta and orders 0..2, and equals
    far_fields.rows(theta, order) @ far_fields.modes (bem.FarField does);
    far_fields.derivatives(theta, order) stacks value(theta, j) for
    j = 0..order.  hat = far_fields.weighted(p, offset) is the same kind of
    operator for hat_D(theta, angles[m]) = Lambda(theta, angles[m])
    D(theta, angles[m]), built once: Lambda is cos(p theta) plus a
    constant per column, and a cosine shifts the modes.
    """

    p: int
    angles: np.ndarray
    far_fields: object
    hat: object = field(init=False, repr=False)

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if len(self.angles) != len(self.far_fields):
            raise ValueError("one far field per canonical angle required")
        self.hat = self.far_fields.weighted(
            self.p, lambda_offset(self.angles, self.p)
        )

    def __len__(self):
        return len(self.angles)

    def numerator(self, coefficients, theta, order=0):
        """sum_m b_m hat_D^(order)(theta, alpha_m), shape shape(theta)."""
        return _weigh(self.hat.value(theta, order), coefficients)


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


def _residue_terms(p, numerator_at_chi, chi, theta):
    """_residue_term on arrays of zeros chi and angles theta."""
    s = np.sin(p * chi)
    if np.any(np.abs(s) <= 1e-12):
        raise DoublePoleInSimpleBranch(
            "a zero is double; residue formula invalid"
        )
    return numerator_at_chi / (p * (chi - theta) * s)


# the residue labels by whether theta0' is corrected for too
_RESIDUE_LABELS = np.array(["residue:single", "residue:two"], dtype=object)


@dataclass(frozen=True)
class RectContour:
    """Axis-aligned rectangle around a set of real points.  Its fields may
    also be (n, 1) columns, one row per rectangle of a batch."""

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


def smallest_cluster_threshold(p):
    """The least cluster threshold h whose rectangles round a double zero
    of Lambda clear contour_eval's guard.  There |Lambda(z)| is at least
    p^2 h^2 / 2 on a rectangle at clearance h and |z - theta| at least h,
    so the denominator is at least p^2 h^3 / 2."""
    return (2.0 * _CONTOUR_GUARD / p**2) ** (1.0 / 3.0)


def contour_eval(numerator_fn, theta, alpha, p, contour, order=DEFAULT_CONTOUR_ORDER):
    """(1/2 pi i) times the contour integral of
    numerator_fn(z) / (Lambda(z, alpha) (z - theta)).

    numerator_fn is typically the locally fitted quadratic; it only needs to
    be accurate inside the contour.  For a batch, theta and the contour's
    fields are (n, 1) columns and numerator_fn maps the (n, 4 order) nodes
    row by row; the result holds one integral per row, each with the
    digits of that rectangle alone.
    """
    nodes, weights = contour.quadrature(order)
    lam = lambda_weight(nodes, alpha, p)
    denom = lam * (nodes - theta)
    if np.min(np.abs(denom)) <= _CONTOUR_GUARD:
        raise PoleOnContour("integrand pole on or too close to the contour")
    values = numerator_fn(nodes) / denom
    return (values * weights).sum(axis=-1) / (2j * math.pi)


def _fit_quadratic(theta, th0, th1, at_theta, at_th0, at_th1):
    """Quadratic fit of the numerator at {theta, theta0, theta0'} in Newton
    form, from its values there; at_th0 holds the value at theta0 and,
    where needed, its first and second derivatives.

    Nodes closer together than the confluence gate are merged into
    derivative conditions at theta0 (all three merging into a local
    Taylor polynomial), which keeps the divided differences clear of
    catastrophic cancellation; at a double zero theta0' lies on theta0 or
    within rounding of it.  theta0 is the zero nearest theta, so nodes left
    distinct are more than _CONFLUENT apart.
    """
    confluent = abs(th0 - th1) <= _CONFLUENT
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

    The coefficients over basis.angles are b(alpha) = r(alpha) K, with
    r(alpha) the row of basis.hat at alpha and K the coefficient operator
    (coefficients.SystemMatrix.operator), (len(basis.hat.modes), len(basis)).
    build_operator is a function of no arguments that returns K; the first
    evaluation calls it and the evaluator keeps K, so a canonical system
    that cannot give one fails there and not when the evaluator is made.
    """

    basis: EmbeddingBasis
    build_operator: object
    near_threshold: float = DEFAULT_NEAR_THRESHOLD
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD
    contour_order: int = DEFAULT_CONTOUR_ORDER
    branch_counts: Counter = field(default_factory=Counter)

    _operator: np.ndarray = field(default=None, init=False, repr=False)
    # (thetas.tobytes(), basis.hat.value(thetas)) of the last grid
    _grid: tuple = field(default=(None, None), repr=False)

    @property
    def operator(self):
        """The coefficient operator K, built on first use."""
        if self._operator is None:
            self._operator = self.build_operator()
        return self._operator

    def coefficients(self, alpha):
        """b(alpha) over basis.angles."""
        return self._coefficients(self.basis.hat.rows(float(alpha)))

    def _coefficients(self, rows):
        """b(alpha) = r(alpha) K from rows of basis.hat whose first is the
        row at alpha."""
        return rows[0] @ self.operator

    def evaluate(self, theta, alpha):
        """Stabilized far-field value at one (theta, alpha) pair."""
        return self.evaluate_with_branch(theta, alpha)[0]

    def evaluate_with_branch(self, theta, alpha):
        """Value and branch label at one (theta, alpha) pair, in Python
        numbers.  Lambda and the cut read only the angles, so the zeros a
        point within big_h of a zero uses are known first; then one
        basis.hat.rows_through call gives the rows at alpha, theta and those
        zeros through the derivative order the point's quadratic fit needs.
        The row at alpha times K gives the coefficients, and the others
        times the modes of basis.hat, in one product, the numerator.  A
        near point takes its branch by the rules a sweep's contour points
        follow and integrates its one rectangle with the integrator a sweep
        gives all of its rectangles.  The kept grid is left alone."""
        theta, alpha = float(theta), float(alpha)
        if not (math.isfinite(theta) and math.isfinite(alpha)):
            raise ValueError(
                f"angles must be finite: theta={theta!r}, alpha={alpha!r}"
            )
        hat, p = self.basis.hat, self.basis.p
        lam = math.cos(p * theta) + lambda_offset(alpha, p)
        near = self._near(theta, alpha, lam)
        zeros, order = ([], 0) if near is None else self._zeros_used(theta, *near)
        rows = hat.rows_through([alpha, theta, *zeros], order)
        b = self._coefficients(rows[0])
        # theta and the zeros, then the zeros' rows of each higher order
        numerator_rows = rows[0][1:]
        if order:
            numerator_rows = np.concatenate(
                [numerator_rows, *(r[2:] for r in rows[1:])]
            )
        at = _weigh(hat.product(numerator_rows), b).tolist()
        if near is None:
            value, label = at[0] / lam, "naive"
        else:
            # at[1::n] holds the orders at theta0, at[2] the value at theta0'
            n = len(zeros)
            at_th1 = at[2] if n == 2 else None
            value, label, integrand = self._near_value(
                theta, *near, at[0], lam, at[1::n], at_th1
            )
            if integrand is not None:
                contour, rho = integrand
                value += complex(contour_eval(
                    rho, theta, alpha, p, contour, self.contour_order
                ))
        self.branch_counts[label] += 1
        return value, label

    def evaluate_sweep(self, thetas, alpha):
        """Values and branch labels over a grid of observation angles.

        The weighted canonical patterns on the grid do not depend on alpha
        and are reused while the grid's values stay the same.  The naive
        quotient, the cut for points within big_h of a zero, the numerator
        at the zeros the near points use (one far-field call per derivative
        order) and the residue branches run on arrays.  The few remaining
        near points take their branch in Python by the one-point rules, and
        the rectangles of all contour points are integrated in one call.
        """
        thetas, alpha = np.asarray(thetas, dtype=np.float64), float(alpha)
        if not (math.isfinite(alpha) and np.isfinite(thetas).all()):
            bad = np.count_nonzero(~np.isfinite(thetas))
            raise ValueError(
                f"angles must be finite: alpha={alpha!r}, {bad} non-finite "
                f"of {thetas.size} theta values"
            )
        n = len(thetas)
        b = self.coefficients(alpha)
        lam = lambda_weight(thetas, alpha, self.basis.p)
        at_theta = _weigh(self._grid_patterns(thetas), b)
        labels = np.empty(n, dtype=object)
        labels.fill("naive")  # np.full takes six times as long
        index, *near = self._near_points(thetas, alpha, lam)
        if n > len(index):
            self.branch_counts["naive"] += n - len(index)
        if not len(index):
            return at_theta / lam, labels
        values = np.zeros(n, dtype=np.complex128)
        far = np.ones(n, dtype=bool)
        far[index] = False
        np.divide(at_theta, lam, out=values, where=far)
        values[index], labels[index] = self._near_sweep(
            alpha, b, *near, at_theta[index], lam[index]
        )
        self.branch_counts.update(labels[index].tolist())
        return values, labels

    # internal helpers ---------------------------------------------------

    def _grid_patterns(self, thetas):
        """basis.hat.value(thetas), kept for the last grid and keyed on its
        values: the weighted patterns do not depend on alpha."""
        key = thetas.tobytes()
        if self._grid[0] != key:
            self._grid = (key, self.basis.hat.value(thetas))
        return self._grid[1]

    def _near(self, theta, alpha, lam):
        """(theta0, theta0') when theta lies within big_h of a zero of
        Lambda(., alpha), else None; lam is Lambda(theta, alpha), and
        |Lambda| <= p d0 lets a larger one skip the zeros."""
        p, big_h = self.basis.p, self.near_threshold
        if abs(lam) > p * big_h:
            return None
        th0, th1 = pole_environment(theta, alpha, p)
        return (th0, th1) if abs(theta - th0) < big_h else None

    def _near_points(self, thetas, alpha, lam):
        """_near on arrays: the indices of the points within big_h of a
        zero, and their theta, theta0 and theta0'."""
        p, big_h = self.basis.p, self.near_threshold
        index = (np.abs(lam) <= p * big_h).nonzero()[0]
        theta = thetas[index]
        th0, th1 = _environments(theta, alpha, p)
        near = np.abs(theta - th0) < big_h
        return tuple(c[near] for c in (index, theta, th0, th1))

    def _near_sweep(self, alpha, b, theta, th0, th1, at_theta, lam):
        """Values and labels of a sweep's points within big_h of a zero:
        the zeros they use and the residue branches on arrays, every other
        point by _near_value, and one contour_eval call for all of their
        rectangles."""
        p = self.basis.p
        big_h, small_h = self.near_threshold, self.cluster_threshold
        # _zeros_used on arrays: the numerator at every zero a point reads,
        # through the highest derivative order any point needs
        d0, d01 = np.abs(theta - th0), np.abs(th0 - th1)
        uses_th1 = (d01 > 0.0) & ((d0 < small_h) | (d01 < big_h))
        hits, confluent = d0 <= _CONFLUENT, d01 <= _CONFLUENT
        order = int((hits | confluent).any()) + int((hits & confluent).any())
        used = np.concatenate([th0, th1[uses_th1]])
        zeros = np.unique(used)
        rows = zeros.searchsorted(used)
        at_zeros = _weigh(self.basis.hat.derivatives(zeros, order), b)
        m = len(theta)
        at_th0 = at_zeros[:, rows[:m]]
        at_th1 = np.zeros(m, dtype=np.complex128)
        at_th1[uses_th1] = at_zeros[0, rows[m:]]
        values = np.empty(m, dtype=np.complex128)
        labels = np.empty(m, dtype=object)

        residue = (d0 >= small_h) & (d01 >= small_h)
        r = residue.nonzero()[0]
        if len(r):
            # the residue check first: beside a double zero it raises
            # before a Lambda that rounds to zero divides
            value = -_residue_terms(p, at_th0[0, r], th0[r], theta[r])
            value += at_theta[r] / lam[r]
            two = d01[r] < big_h
            pair = r[two]
            value[two] -= _residue_terms(p, at_th1[pair], th1[pair], theta[pair])
            values[r] = value
            labels[r] = _RESIDUE_LABELS[two.astype(np.intp)]

        rest = (~residue).nonzero()[0]
        columns = (theta, th0, th1, at_theta, lam, at_th0.T, at_th1)
        integrands = []
        for j, *point in zip(rest.tolist(), *(c[rest].tolist() for c in columns)):
            values[j], labels[j], integrand = self._near_value(*point)
            if integrand is not None:
                integrands.append((j, point[0], *integrand))
        if integrands:
            index, *integrands = zip(*integrands)
            values[list(index)] += self._contour_pass(alpha, *integrands)
        return values, labels

    def _contour_pass(self, alpha, thetas, contours, fits):
        """contour_eval of each (theta, rectangle, quadratic fit) in one
        call, with theta, the rectangles and the fits as columns."""
        reals = np.array([
            (theta, c.left, c.right, c.half_height, *rho.newton_nodes)
            for theta, c, rho in zip(thetas, contours, fits)
        ]).T[:, :, None]
        coeffs = np.array([rho.newton_coeffs for rho in fits]).T[:, :, None]
        contour = RectContour(*reals[1:4])
        rho = QuadraticInterpolant(tuple(reals[4:]), tuple(coeffs))
        return contour_eval(
            rho, reals[0], alpha, self.basis.p, contour, self.contour_order
        )

    def _zeros_used(self, theta, th0, th1):
        """The zeros whose numerator the branch of a point within big_h of
        th0 reads, and the derivative order its quadratic fit needs at th0;
        th1 is read only where it differs from th0."""
        d0, d01 = abs(theta - th0), abs(th0 - th1)
        uses_th1 = d01 > 0.0 and (
            d0 < self.cluster_threshold or d01 < self.near_threshold
        )
        hits, confluent = d0 <= _CONFLUENT, d01 <= _CONFLUENT
        order = 2 if hits and confluent else int(hits or confluent)
        return ([th0, th1] if uses_th1 else [th0]), order

    def _near_value(self, theta, th0, th1, at_theta, lam, at_th0, at_th1):
        """Branch of a point within big_h of a zero, from the numerator at
        theta, theta0 and theta0' (at_th0 also holds the derivatives the
        point needs) and Lambda at theta: (value, label, integrand).  The
        integrand is None, or the (rectangle, quadratic fit) whose contour
        integral about theta (contour_eval) adds to value.  A double zero
        is a clustered pair at distance zero; on it the contour integral is
        the regular part (N'' + p^2 N / 6) / Lambda'' by the residue
        theorem.  A sweep takes its residue points to _near_sweep's array
        form of these rules."""
        p = self.basis.p
        big_h, small_h = self.near_threshold, self.cluster_threshold
        d0, d01 = abs(theta - th0), abs(th0 - th1)
        if d0 >= small_h and d01 >= small_h:
            # naive quotient plus corrections, the residue check first
            value = -_residue_term(p, at_th0[0], th0, theta) + at_theta / lam
            if d01 < big_h:
                value -= _residue_term(p, at_th1, th1, theta)
                return value, "residue:two", None
            return value, "residue:single", None

        rho = _fit_quadratic(theta, th0, th1, at_theta, at_th0, at_th1)
        if d0 >= small_h:
            # moderate distance from a clustered pair or a double zero: with
            # theta outside the rectangle, the integral around the zeros
            # alone is minus the principal part of rho / Lambda there
            contour = rect_contour([th0, th1], small_h)
            if not contour.reaches(theta):
                return at_theta / lam, "contour:pair", (contour, rho)
        elif d01 >= small_h:
            # theta0' stays outside the rectangle round theta and theta0
            # unless it drifts onto it
            contour, value = rect_contour([theta, th0], small_h), 0.0
            if contour.reaches(th1):
                contour = rect_contour([theta, th0, th1], small_h)
            elif d01 < big_h:
                value = -_residue_term(p, at_th1, th1, theta)
            return value, "contour:full", (contour, rho)
        contour = rect_contour([theta, th0, th1], small_h)
        return 0.0, "contour:full", (contour, rho)

