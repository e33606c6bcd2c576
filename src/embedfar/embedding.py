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
# angles below this in magnitude are used as given, since n x and p x then
# round at most twice as coarsely as on [0, 2 pi); reducing an angle just
# below zero would move it next to 2 pi, where doubles lie 8.9e-16 apart,
# and a point 1e-14 from a zero at 0 would lose a tenth of its distance
_ANGLE_RANGE = 4.0 * math.pi


class PoleAtTheta(ZeroDivisionError):
    """Naive quotient evaluated exactly on a zero of the weight function."""


class PoleOnContour(RuntimeError):
    """A zero of the weight function lies on the integration contour."""


class DoublePoleInSimpleBranch(RuntimeError):
    """Simple-residue formula applied at a coalesced (double) zero."""


def _angle(x):
    """The float x, reduced into [0, 2*pi] through its sine and cosine,
    whose argument reduction is exact, when |x| >= _ANGLE_RANGE; a
    non-finite x raises."""
    x = float(x)
    if abs(x) < _ANGLE_RANGE:
        return x
    if not math.isfinite(x):
        raise ValueError(f"angles must be finite, got {x!r}")
    return math.atan2(math.sin(x), math.cos(x)) % _TWO_PI


def _angles(x):
    """_angle for each entry of the float array x: the array itself when
    no entry needs reducing, else a copy with those entries reduced."""
    inside = np.abs(x) < _ANGLE_RANGE
    if inside.all():
        return x
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise ValueError(f"angles must be finite, got {bad} non-finite of {x.size}")
    return np.where(inside, x, np.arctan2(np.sin(x), np.cos(x)) % _TWO_PI)


def lambda_weight(theta, alpha, p):
    """Weight function Lambda(theta, alpha).

    theta may be real or complex, scalar or array; alpha is real.
    """
    return np.cos(p * np.asarray(theta)) + lambda_offset(alpha, p)


def weight_sign(p):
    """(-1)^(p+1), the sign of cos(p alpha) in Lambda and of its swap."""
    return -1 if p % 2 == 0 else 1


def lambda_offset(alpha, p):
    """The alpha part -(-1)^p cos(p alpha) of Lambda(theta, alpha); a
    float alpha, as a sweep or a point has, gives a float from math."""
    if isinstance(alpha, float):
        return weight_sign(p) * math.cos(p * alpha)
    return weight_sign(p) * np.cos(p * np.asarray(alpha))


def _zero_lattice(p):
    """(spacing, offset): the zeros of Lambda(., alpha) are offset +- alpha
    + n spacing, spacing 2 pi / p, offset pi / p for odd p and 0 for even."""
    return _TWO_PI / p, (math.pi / p if p % 2 else 0.0)


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
    spacing, offset = _zero_lattice(p)
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
    spacing, offset = _zero_lattice(p)
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
    far_fields.product(far_fields.rows(theta, order)), rows @ modes
    (bem.FarField does); far_fields.rows_through(theta, order) lists the
    rows of the orders 0..order.  hat = far_fields.weighted(p, offset) is
    the same kind of operator for hat_D(theta, angles[m]) =
    Lambda(theta, angles[m]) D(theta, angles[m]), built once: Lambda is
    cos(p theta) plus a constant per column, and a cosine shifts the
    modes.
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


def cluster_threshold_range(p):
    """The least and the greatest admissible cluster threshold h for the
    angle parameter p.  Round a double zero of Lambda, |Lambda(z)| is at
    least p^2 h^2 / 2 on a rectangle at clearance h and |z - theta| at
    least h, so the denominator is at least p^2 h^3 / 2 and clears
    contour_eval's guard from the least h on.  Zeros can sit pi / p apart
    and a rectangle reaches 2 h past theta0, so a zero it leaves outside
    keeps the clearance h from every edge only while h <= pi / (3 p)."""
    return (2.0 * _CONTOUR_GUARD / p**2) ** (1.0 / 3.0), math.pi / (3 * p)


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


def _fit_order(theta, th0, th1):
    """The derivative order at theta0 that the quadratic fit of a point at
    theta needs: one for theta and one for theta0' within _CONFLUENT of
    theta0 (_fit_quadratic merges those nodes).  Elementwise on arrays,
    where * 1 keeps numpy from adding the booleans as a logical or."""
    return (abs(theta - th0) <= _CONFLUENT) * 1 + (abs(th0 - th1) <= _CONFLUENT)


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
        f0, f1, f2 = (complex(f) for f in at_th0)
        return QuadraticInterpolant((th0, th0, th0), (f0, f1, 0.5 * f2))
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
    Every evaluation reads b(alpha) and the numerator at the angles it
    needs in one read (_read): one row evaluation of basis.hat.
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
        return self._read(_angle(alpha), [], 0)[0]

    def evaluate(self, theta, alpha):
        """Stabilized far-field value at one (theta, alpha) pair."""
        return self.evaluate_with_branch(theta, alpha)[0]

    def evaluate_with_branch(self, theta, alpha):
        """Value and branch label at one (theta, alpha) pair, in Python
        numbers.  The cut reads only the angles, so a near point knows
        theta0 and theta0' first, and the derivative order its fit needs
        (_fit_order); one read (_read) then gives b(alpha) and the
        numerator at theta and at both zeros, as a sweep reads its zeros.
        A near point takes its branch by the sweep's rules (_near_value)
        and integrates its rectangle as a sweep does.  The kept grid is
        left alone.  Angles of magnitude 4 pi or more are reduced first
        (_angle)."""
        theta, alpha = _angle(theta), _angle(alpha)
        p = self.basis.p
        lam = math.cos(p * theta) + lambda_offset(alpha, p)
        near = self._near(theta, alpha, lam)
        zeros, order = ((), 0) if near is None else (near, _fit_order(theta, *near))
        # at[0], at[1] and at[2] are at theta, theta0 and theta0'
        at = self._read(alpha, [theta, *zeros], order)[1]
        if near is None:
            value, label = at[0][0] / lam, "naive"
        else:
            value, label, integrand = self._near_value(
                theta, *near, at[0][0], lam, at[1], at[2][0]
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

        The naive quotient and the cut for points within big_h of a zero
        run on arrays.  The cut comes first: it gives every zero the near
        points can read and the highest derivative order their fits need,
        so that one read (_read) gives b(alpha) and the numerator at all of
        those zeros.  The weighted canonical patterns on the grid do not
        depend on alpha and are reused while the grid's values stay the
        same; times b they give the numerator at every theta.  The near
        points take their branch by the one-point rules (_near_sweep).
        Angles of magnitude 4 pi or more are reduced first (_angle), and
        the kept grid is then the reduced one.
        """
        alpha = _angle(alpha)
        thetas = _angles(np.asarray(thetas, dtype=np.float64))
        n = len(thetas)
        lam = lambda_weight(thetas, alpha, self.basis.p)
        index, theta, th0, th1 = self._near_points(thetas, alpha, lam)
        order = int(_fit_order(theta, th0, th1).max(initial=0))
        th0, th1 = th0.tolist(), th1.tolist()
        zeros = sorted(set(th0 + th1))
        b, at_zeros = self._read(alpha, zeros, order)
        at_theta = _weigh(self._grid_patterns(thetas), b)
        labels = np.empty(n, dtype=object)
        labels.fill("naive")  # np.full takes six times as long
        if n > len(index):
            self.branch_counts["naive"] += n - len(index)
        if not len(index):
            return at_theta / lam, labels
        values = np.zeros(n, dtype=np.complex128)
        far = np.ones(n, dtype=bool)
        far[index] = False
        np.divide(at_theta, lam, out=values, where=far)
        values[index], near_labels = self._near_sweep(
            alpha, theta, th0, th1, at_theta[index], lam[index],
            dict(zip(zeros, at_zeros)),
        )
        labels[index] = near_labels
        self.branch_counts.update(near_labels)
        return values, labels

    # internal helpers ---------------------------------------------------

    def _grid_patterns(self, thetas):
        """basis.hat.value(thetas), kept for the last grid and keyed on its
        values: the weighted patterns do not depend on alpha."""
        key = thetas.tobytes()
        if self._grid[0] != key:
            self._grid = (key, self.basis.hat.value(thetas))
        return self._grid[1]

    def _read(self, alpha, points, order):
        """(b(alpha), at): b(alpha) = r(alpha) K, and at[i] the numerator
        at points[i] with its derivatives through order, in Python numbers,
        from one basis.hat.rows_through call at [alpha, *points] and one
        product with the modes.  alpha and the points are floats."""
        hat = self.basis.hat
        rows = hat.rows_through([alpha, *points], order)
        b = rows[0][0] @ self.operator
        # every point's row, order by order; a view when order is 0
        numerator_rows = np.concatenate([r[1:] for r in rows]) if order else rows[0][1:]
        at = _weigh(hat.product(numerator_rows), b)
        return b, at.reshape(order + 1, -1).T.tolist()

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

    def _near_sweep(self, alpha, theta, th0, th1, at_theta, lam, at_zeros):
        """Values and labels of a sweep's points within big_h of a zero,
        each by _near_value, the rules a one-point query follows.  th0 and
        th1 are lists of floats, and at_zeros maps each of those zeros to
        the numerator there with its derivatives through the highest order
        any of the fits needs, all from the sweep's one read.  One
        contour_eval call integrates all of their rectangles."""
        theta, near_value = theta.tolist(), self._near_value
        values, labels, integrands = zip(*[
            near_value(t, t0, t1, at_t, lam_t, at_zeros[t0], at_zeros[t1][0])
            for t, t0, t1, at_t, lam_t
            in zip(theta, th0, th1, at_theta.tolist(), lam.tolist())
        ])
        values = np.array(values, dtype=np.complex128)
        contours = [
            (j, theta[j], *integrand)
            for j, integrand in enumerate(integrands) if integrand is not None
        ]
        if contours:
            index, *contours = zip(*contours)
            values[list(index)] += self._contour_pass(alpha, *contours)
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

    def _near_value(self, theta, th0, th1, at_theta, lam, at_th0, at_th1):
        """Branch of a point within big_h of a zero, from the numerator at
        theta, theta0 and theta0' (at_th0 also holds the derivatives the
        point needs, _fit_order) and Lambda at theta: (value, label,
        integrand).  The integrand is None, or the (rectangle, quadratic
        fit) whose contour integral about theta (contour_eval) adds to
        value.  A double zero is a clustered pair at distance zero; on it
        the contour integral is the regular part (N'' + p^2 N / 6) /
        Lambda'' by the residue theorem."""
        p = self.basis.p
        big_h, small_h = self.near_threshold, self.cluster_threshold
        d0, d01 = abs(theta - th0), abs(th0 - th1)
        # theta0' is corrected where it lies within big_h of theta0 or of
        # theta, so that midway between two zeros both are
        corrects_th1 = d01 < big_h or abs(theta - th1) < big_h
        if d0 >= small_h and d01 >= small_h:
            # naive quotient plus corrections, the residue check first
            value = -_residue_term(p, at_th0[0], th0, theta) + at_theta / lam
            if corrects_th1:
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
            elif corrects_th1:
                value = -_residue_term(p, at_th1, th1, theta)
            return value, "contour:full", (contour, rho)
        contour = rect_contour([theta, th0, th1], small_h)
        return 0.0, "contour:full", (contour, rho)

