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

from embedfar.bem import _NEAR_QUAD_ORDER, _smooth_kernel_part, hankel1
from embedfar.coefficients import DEFAULT_DELTA
from embedfar.embedding import (
    DoublePoleInSimpleBranch,
    StabilizedEvaluator,
    _fit_quadratic,
    contour_eval,
    naive_eval,
    pole_environment,
    rect_contour,
)
from embedfar.specialfun import gauss_legendre


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

    def weighted(self, p, offset):
        """(cos(p theta) + offset) times this series, term by term."""
        coeffs = {}
        for j, c in self.coefficients.items():
            for n, w in ((j, offset), (j - p, 0.5), (j + p, 0.5)):
                coeffs[n] = coeffs.get(n, 0.0) + w * c
        return TrigFarField(coeffs)


class TrigFarFields:
    """Several TrigFarField patterns behind the stacked surface of
    bem.FarField: value(theta, order) has shape shape(theta) + (n,), and
    len() and [m] give the patterns one at a time, and derivatives(theta,
    order) stacks value(theta, j) for j = 0..order, and weighted(p,
    offset) gives the Lambda-weighted patterns.  modes holds the
    Fourier coefficients c_-N..c_N of each pattern, (2N+1, n), and
    rows(theta, order) the (size(theta), 2N+1) matrix (in)^order
    e^{in theta}; value is product(rows), rows @ modes summed elementwise
    so that each row's digits do not depend on the number of rows, and
    rows_through(theta, order) lists the rows of the orders 0..order."""

    def __init__(self, fields):
        self.fields = list(fields)
        degree = max(abs(j) for f in self.fields for j in f.coefficients)
        self.numbers = np.arange(-degree, degree + 1)
        self.modes = np.array(
            [[f.coefficients.get(int(j), 0.0) for f in self.fields]
             for j in self.numbers],
            dtype=np.complex128,
        )

    def rows(self, theta, order=0):
        t = np.asarray(theta, dtype=np.complex128).reshape(-1, 1)
        return (1j * self.numbers) ** order * np.exp(1j * self.numbers * t)

    def rows_through(self, theta, order):
        return [self.rows(theta, j) for j in range(order + 1)]

    def product(self, rows):
        return (rows[:, :, None] * self.modes).sum(axis=1)

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, m):
        return self.fields[m]

    def value(self, theta, order=0):
        values = self.product(self.rows(theta, order))
        return values.reshape(np.shape(theta) + (len(self.fields),))

    def derivatives(self, theta, order):
        return np.stack([self.value(theta, j) for j in range(order + 1)])

    def weighted(self, p, offset):
        """The patterns times Lambda = cos(p theta) + offset[m], as
        bem.FarField.weighted gives them, in this fake's own type."""
        return type(self)(
            f.weighted(p, w) for f, w in zip(self.fields, offset)
        )


# Relative data error is amplified by at most this constant (times
# (1 + 1/(2 h^2)) and the coefficient norm) anywhere on the real line.
STABILITY_CONSTANT = (
    128.0
    * (5.0 * math.pi + 4.0 * math.log(3.0 + math.pi**2 / 64.0))
    * (6.0 + math.pi**2 / 64.0)
    / math.pi**4
)


def error_constant(coefficient_norm=1.0):
    """Worst-case input-to-output error amplification, up to the
    (1 + 1/(2 h^2)) contour factor."""
    return STABILITY_CONSTANT * coefficient_norm


def perimeter(shape):
    """Total edge length of a geometry.RationalShape."""
    return float(sum(np.linalg.norm(b - a) for a, b in shape.edges))


def angle_distance(a, b=0.0):
    """Distance on the circle, in [0, pi]."""
    d = np.mod(np.asarray(a) - b, 2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


def reconstruct(result):
    """U diag(sigma) V* of a coefficients.SVDResult."""
    return (result.u * result.sigma) @ result.v.conj().T


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


def exact_operator(T, angles, p, basis):
    """The coefficient operator K of the rank-one family on the mode
    numbers of basis.hat, so that basis.hat.rows(alpha) K is
    exact_coefficients(T, angles, p, alpha): b = A^-1 (T(alpha),
    cos(p alpha) T(alpha)), and both entries of the right-hand side are
    rows of the modes of T and of cos(p theta) T."""
    numbers = basis.hat.numbers
    t = np.array([T.coefficients.get(int(n), 0.0) for n in numbers])
    shifted = T.weighted(p, 0.0).coefficients
    cos_t = np.array([shifted.get(int(n), 0.0) for n in numbers])
    inverse = np.linalg.inv(_pair_matrix(T, angles, p))
    return np.stack([t, cos_t], axis=1) @ inverse.T


def exact_evaluator(T, angles, p, basis, **thresholds):
    """StabilizedEvaluator of the rank-one family on basis with its exact
    coefficient operator."""
    operator = exact_operator(T, angles, p, basis)
    return StabilizedEvaluator(basis, lambda: operator, **thresholds)


def coefficients_of(system, alpha, strategy="two", delta=DEFAULT_DELTA):
    """b(alpha) of a coefficients.SystemMatrix for the strategy, as an
    evaluator on it reads them."""
    return system.evaluator(strategy, delta).coefficients(alpha)


def true_value(T, theta, alpha):
    """D(theta, alpha) = T(theta) T(alpha) of the rank-one family."""
    return complex(T.value(theta)) * complex(T.value(alpha))


# The scalar dispatcher: one pole environment and separate numerator calls
# per point.  It is the oracle StabilizedEvaluator must reproduce, value for
# value and label for label.

# every branch label the evaluator returns
BRANCH_LABELS = frozenset({
    "naive", "residue:single", "residue:two", "contour:pair", "contour:full",
})


def _scalar_residue_term(basis, b, chi, theta):
    p = basis.p
    s = math.sin(p * chi)
    if abs(s) <= 1e-12:
        raise DoublePoleInSimpleBranch(f"zero at {chi} is double")
    return basis.numerator(b, chi) / (p * (chi - theta) * s)


def residue_eval(basis, b, theta, alpha, include):
    """Naive quotient minus the simple-pole residue corrections at the
    zeros listed in include; a coalesced zero raises
    DoublePoleInSimpleBranch."""
    value = naive_eval(basis, b, theta, alpha)
    for chi in np.atleast_1d(include):
        value -= _scalar_residue_term(basis, b, float(chi), theta)
    return value


def _scalar_quadratic(basis, b, theta, th0, th1):
    at_th0 = [basis.numerator(b, th0, order=j) for j in range(3)]
    return _fit_quadratic(
        theta, th0, th1, basis.numerator(b, theta), at_th0,
        basis.numerator(b, th1),
    )


def _near_rectangle(contour, x, small_h):
    """The rectangle test in two parts: x inside the open span, or closer
    than small_h / 2 to the nearer vertical edge."""
    inside = contour.left < x < contour.right
    gap = min(abs(x - contour.left), abs(x - contour.right))
    return inside or gap < 0.5 * small_h


def _scalar_contour_value(evaluator, b, theta, alpha, xs, th0, th1):
    small_h = evaluator.cluster_threshold
    rho = _scalar_quadratic(evaluator.basis, b, theta, th0, th1)
    contour = rect_contour([theta] + xs, small_h)
    extra = []
    if th1 not in xs and _near_rectangle(contour, th1, small_h):
        extra = [th1]
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
    th0, th1 = pole_environment(theta, alpha, p)
    d0 = abs(theta - th0)
    d01 = abs(th0 - th1)
    big_h, small_h = evaluator.near_threshold, evaluator.cluster_threshold

    if d0 >= big_h:
        return naive_eval(basis, b, theta, alpha), "naive"

    if d0 < small_h:
        if d01 < small_h:
            value, _ = _scalar_contour_value(
                evaluator, b, theta, alpha, [th0, th1], th0, th1
            )
            return value, "contour:full"
        value, pulled = _scalar_contour_value(
            evaluator, b, theta, alpha, [th0], th0, th1
        )
        if d01 < big_h and not pulled:
            value -= _scalar_residue_term(basis, b, th1, theta)
        return value, "contour:full"

    if d01 < small_h:
        xs = [th0, th1]
        contour = rect_contour(xs, small_h)
        if _near_rectangle(contour, theta, small_h):
            value, _ = _scalar_contour_value(
                evaluator, b, theta, alpha, xs, th0, th1
            )
            return value, "contour:full"
        rho = _scalar_quadratic(basis, b, theta, th0, th1)
        correction = contour_eval(
            rho, theta, alpha, p, contour, evaluator.contour_order
        )
        return naive_eval(basis, b, theta, alpha) + complex(correction), "contour:pair"
    # the residue check first, as in the evaluator: beside a double zero
    # it raises before a Lambda that rounds to zero divides
    value = -_scalar_residue_term(basis, b, th0, theta)
    value += naive_eval(basis, b, theta, alpha)
    if d01 < big_h:
        value -= _scalar_residue_term(basis, b, th1, theta)
        return value, "residue:two"
    return value, "residue:single"


# The closed form of every branch: the naive quotient N / Lambda minus the
# principal part of N / Lambda at the zeros the branch corrects for, with
# the numerator N of the evaluator's own (possibly noisy) data.  With data
# of an exact embedding N vanishes at the zeros and the principal parts
# are zero; with noisy data they are of the noise's size, so a branch that
# adds one where it should subtract it is off by twice as much.


def _principal_part(basis, b, theta, chi, double):
    """Principal part at theta of N / Lambda at its zero chi."""
    p = basis.p
    n0 = complex(basis.numerator(b, chi))
    if not double:
        return n0 / (-p * math.sin(p * chi) * (theta - chi))
    # Lambda = a2 u^2 + O(u^4) about a double zero, u = z - chi
    a2 = -0.5 * p * p * math.cos(p * chi)
    u = theta - chi
    return (n0 / u + complex(basis.numerator(b, chi, 1))) / (a2 * u)


def closed_form(evaluator, theta, alpha):
    """N / Lambda minus the principal parts at the zeros within the near
    threshold of theta (theta0, and theta0' when it lies within the near
    threshold of theta0); on a double zero, the regular part there."""
    basis, p = evaluator.basis, evaluator.basis.p
    b = evaluator.coefficients(alpha)
    big_h = evaluator.near_threshold
    th0, th1 = pole_environment(theta, alpha, p)
    # the two families' zeros meet at n pi / p, so a pair closer than
    # 2e-12 straddles a double zero within 1e-12
    double = abs(th0 - th1) <= 2e-12
    if double and abs(theta - th0) <= 1e-13:
        # N / Lambda = (n0 + n1 u + n2 u^2 / 2 + ...) / (a2 u^2 (1 + a4 / a2 u^2))
        a2 = -0.5 * p * p * math.cos(p * th0)
        a4 = p**4 * math.cos(p * th0) / 24.0
        n0, n2 = (complex(basis.numerator(b, th0, j)) for j in (0, 2))
        return (0.5 * n2 - n0 * a4 / a2) / a2
    value = complex(naive_eval(basis, b, theta, alpha))
    if abs(theta - th0) < big_h:
        value -= _principal_part(basis, b, theta, th0, double)
        if not double and abs(th0 - th1) < big_h:
            value -= _principal_part(basis, b, theta, th1, False)
    return value


def scalar_sweep(evaluator, thetas, alpha):
    """scalar_dispatch at every point: (values, labels)."""
    pairs = [scalar_dispatch(evaluator, t, alpha) for t in thetas]
    values = np.array([complex(v) for v, _ in pairs])
    labels = np.array([label for _, label in pairs], dtype=object)
    return values, labels


# The per-pair near-field entry: one target, one element, one Gauss rule on
# the smooth part of the kernel and the closed-form log integral in Python
# floats.  It is the oracle the batched assembly in bem.assemble must
# reproduce.


def near_pair_mask(mesh):
    """(n, n) mask of the pairs whose target lies within one element length
    of the element."""
    mask = np.zeros((len(mesh), len(mesh)), dtype=bool)
    for j in range(len(mesh)):
        rel = mesh.midpoints - mesh.starts[j]
        along = np.clip(rel @ mesh.tangents[j], 0.0, mesh.lengths[j])
        closest = mesh.starts[j] + along[:, None] * mesh.tangents[j]
        dist = np.linalg.norm(mesh.midpoints - closest, axis=1)
        mask[:, j] = dist < mesh.lengths[j]
    return mask


def _scalar_log_integral(target, start, tangent, length):
    rel = target - start
    t0 = float(rel @ tangent)
    # the distance to the element's line from the cross product
    d = abs(float(rel[0] * tangent[1] - rel[1] * tangent[0]))

    def antiderivative(s):
        if d < 1e-14 * length:
            if s == 0.0:
                return 0.0
            return s * math.log(abs(s)) - s
        return 0.5 * (s * math.log(s * s + d * d) - 2.0 * s) + d * math.atan2(s, d)

    return antiderivative(length - t0) - antiderivative(-t0)


def split_entry(mesh, k, i, j):
    """Collocation entry (i/4) int H0(k |x_i - y|) ds(y) over element j,
    with the log singularity integrated analytically."""
    x, w = gauss_legendre(_NEAR_QUAD_ORDER)
    start, length = mesh.starts[j], mesh.lengths[j]
    nodes = start + 0.5 * (x + 1.0)[:, None] * (mesh.ends[j] - start)
    r = np.linalg.norm(mesh.midpoints[i] - nodes, axis=1)
    smooth = np.sum(0.5 * w * length * _smooth_kernel_part(k, r))
    log_part = _scalar_log_integral(
        mesh.midpoints[i], start, mesh.tangents[j], length
    )
    return smooth - log_part / (2.0 * np.pi)


# The node form of the far field: the boundary quadrature summed at every
# observation angle, with derivatives taken under the integral sign.  It is
# the oracle the Jacobi-Anger modes of bem.FarField must reproduce, and it
# gives the scattered field at points off the far zone.


class NodeFarFields:
    """Far fields of the solves for alphas on a bem.BemSystem, in node form:
    value(theta, order) has shape shape(theta) + (len(alphas),)."""

    def __init__(self, system, alphas):
        n_elements, q = system.ff_weights.shape
        densities = system.solve_density(np.atleast_1d(alphas))
        wphi = system.ff_weights[:, :, None] * densities[:, None, :]
        self.k = system.k
        self.nodes = system.ff_nodes.reshape(-1, 2)
        self.weighted_density = wphi.reshape(n_elements * q, -1)

    def value(self, theta, order=0):
        theta = np.asarray(theta)
        t = theta.reshape(-1, 1)
        y1, y2 = self.nodes[:, 0], self.nodes[:, 1]
        f = -1j * self.k * (y1 * np.cos(t) + y2 * np.sin(t))
        integrand = np.exp(f)
        if order:
            fp = -1j * self.k * (-y1 * np.sin(t) + y2 * np.cos(t))
            integrand *= fp if order == 1 else fp * fp - f
        out = -0.5 * integrand @ self.weighted_density
        return out.reshape(theta.shape + out.shape[1:])

    def scattered_field(self, points):
        """u_scattered at exterior points: -sum (i/4) H0(k r) w phi, shape
        (len(points), len(alphas))."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        r = np.linalg.norm(points[:, None, :] - self.nodes[None, :, :], axis=2)
        return -(0.25j * hankel1(0, self.k * r)) @ self.weighted_density
