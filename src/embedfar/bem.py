"""Boundary-element solver for sound-soft scattering by polygons and screens.

First-kind single-layer formulation: the unknown density (normal-derivative
jump for screens) satisfies S phi = u_inc on the boundary, with kernel
(i/4) H0^(1)(k |x-y|).  Discretization is piecewise-constant midpoint
collocation on meshes geometrically graded into every corner.  The far field
    D(theta) = -1/2 * integral exp(-ik (y1 cos theta + y2 sin theta)) phi ds
is held as its Jacobi-Anger modes about a centre c of the boundary,
    D(theta) = exp(-ik c.d(theta)) * sum_{|n| <= N} c_n exp(i n theta),
with d(theta) = (cos theta, sin theta); the modes come straight from the
boundary quadrature, and the form extends to complex observation angles and
differentiates exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import zgemm

from .specialfun import EULER_GAMMA, gauss_legendre, hankel1

logger = logging.getLogger(__name__)

MAX_WAVENUMBER = 50.0
DEFAULT_ELEMENTS_PER_WAVELENGTH = 6.0
DEFAULT_GRADING_RATIO = 0.15
DEFAULT_CORNER_LAYERS = 8

# even order so no quadrature node can land on the collocation point
_NEAR_QUAD_ORDER = 16
# chunk size keeps dense intermediate arrays below ~100 MB
_ASSEMBLY_CHUNK = 4_000_000
# far-field modes past N stay below this fraction of the largest, N >= kR
_MODE_TAIL = 2.0**-53 / 100.0
_POWERS_OF_MINUS_I = np.array([1.0, -1.0j, -1.0, 1.0j])
# m n k of a GEMM above which OpenBLAS runs it on several threads
_THREADED_GEMM = 65536


class EmptyMesh(ValueError):
    """Mesh construction produced no elements on some edge."""


class SingularSystem(RuntimeError):
    """The collocation matrix is numerically singular."""


@dataclass
class Mesh:
    """Flat element arrays for a polygonal boundary or screen.

    starts/ends are element endpoint coordinates in boundary order;
    midpoints are the collocation points.
    """

    starts: np.ndarray
    ends: np.ndarray
    midpoints: np.ndarray = field(init=False)
    lengths: np.ndarray = field(init=False)
    tangents: np.ndarray = field(init=False)

    def __post_init__(self):
        self.midpoints = 0.5 * (self.starts + self.ends)
        diff = self.ends - self.starts
        self.lengths = np.linalg.norm(diff, axis=1)
        if np.any(self.lengths <= 0.0):
            raise EmptyMesh("zero-length element")
        self.tangents = diff / self.lengths[:, None]

    def __len__(self):
        return len(self.starts)


def _edge_breakpoints(edge_length, k, elements_per_wavelength, grading_ratio, layers):
    """Relative breakpoints (0..1] along one edge: geometric layers into both
    corners around a uniform middle region."""
    uniform = min(
        0.5 * edge_length,
        2.0 * math.pi / (k * elements_per_wavelength),
        math.pi / k,
    )
    graded = uniform * grading_ratio ** np.arange(1, layers + 1)
    graded_span = float(np.sum(graded))
    middle = edge_length - 2.0 * graded_span
    if middle <= 0.0:
        raise EmptyMesh(
            f"edge of length {edge_length:.3g} cannot hold {layers} graded "
            "layers; reduce corner_layers or refine"
        )
    n_middle = max(1, math.ceil(middle / uniform))

    cuts = [0.0]
    pos = 0.0
    for length in graded[::-1]:  # smallest element sits at the corner
        pos += length
        cuts.append(pos)
    step = middle / n_middle
    for _ in range(n_middle):
        pos += step
        cuts.append(pos)
    for length in graded:
        pos += length
        cuts.append(pos)
    cuts[-1] = edge_length
    return np.asarray(cuts) / edge_length


def build_mesh(
    shape,
    k,
    elements_per_wavelength=DEFAULT_ELEMENTS_PER_WAVELENGTH,
    grading_ratio=DEFAULT_GRADING_RATIO,
    corner_layers=DEFAULT_CORNER_LAYERS,
):
    """Graded mesh on the shape boundary for wavenumber k.

    Every corner (both screen endpoints) receives corner_layers elements
    shrinking geometrically by grading_ratio; the uniform middle region
    resolves elements_per_wavelength elements per wavelength, and no element
    exceeds pi/k.
    """
    if not 0.0 < k <= MAX_WAVENUMBER:
        raise ValueError(f"wavenumber must be in (0, {MAX_WAVENUMBER}], got {k}")
    if elements_per_wavelength < 2.0:
        raise ValueError("elements_per_wavelength must be at least 2")
    if not 0.0 < grading_ratio < 1.0:
        raise ValueError("grading_ratio must lie in (0, 1)")
    if corner_layers < 1:
        raise ValueError("corner_layers must be positive")

    starts, ends = [], []
    for a, b in shape.edges:
        rel = _edge_breakpoints(
            float(np.linalg.norm(b - a)),
            k,
            elements_per_wavelength,
            grading_ratio,
            corner_layers,
        )
        points = a[None, :] + rel[:, None] * (b - a)[None, :]
        starts.append(points[:-1])
        ends.append(points[1:])
    mesh = Mesh(starts=np.concatenate(starts), ends=np.concatenate(ends))
    assert float(np.max(mesh.lengths)) <= math.pi / k + 1e-12
    logger.debug("mesh: %d elements, k=%g", len(mesh), k)
    return mesh


def _log_integrals(targets, starts, tangents, lengths):
    """Closed form of integral of ln|target - y| ds(y), one target per
    element, for arrays of (target, element) pairs."""
    rel = targets - starts
    t0 = np.einsum("ij,ij->i", rel, tangents)
    # distance to the element's line from the cross product: rel.rel - t0^2
    # cancels to rounding noise for targets on a slanted line
    d = np.abs(rel[:, 0] * tangents[:, 1] - rel[:, 1] * tangents[:, 0])
    on_line = d < 1e-14 * lengths

    def antiderivative(s):
        out = np.zeros_like(s)
        line = on_line & (s != 0.0)
        sl = s[line]
        out[line] = sl * np.log(np.abs(sl)) - sl
        off = ~on_line
        so, do = s[off], d[off]
        out[off] = (
            0.5 * (so * np.log(so * so + do * do) - 2.0 * so)
            + do * np.arctan2(so, do)
        )
        return out

    return antiderivative(lengths - t0) - antiderivative(-t0)


def _smooth_kernel_part(k, r):
    """g(r) = (i/4) H0(kr) + ln(r)/(2 pi), continuous at r = 0."""
    out = np.empty(r.shape, dtype=np.complex128)
    tiny = r < 1e-280
    if np.any(~tiny):
        rs = r[~tiny]
        out[~tiny] = 0.25j * hankel1(0, k * rs) + np.log(rs) / (2.0 * np.pi)
    out[tiny] = 0.25j - (math.log(0.5 * k) + EULER_GAMMA) / (2.0 * np.pi)
    return out


def _mode_degree(kr):
    """Smallest n >= kr with (kr/2)^n / n! <= _MODE_TAIL.

    |J_n(x)| <= (x/2)^n / n! for 0 <= x <= kr, so every far-field mode past
    this degree is below rounding relative to the largest; the degree
    depends on k and the radius alone, never on the data."""
    n = max(1, math.ceil(kr))
    while n * math.log(0.5 * kr) - math.lgamma(n + 1) > math.log(_MODE_TAIL):
        n += 1
    return n


def _bessel_j(x, degree):
    """J_0(x) .. J_degree(x) at the points x >= 0, shape (degree + 1, len(x)).

    Miller's backward recurrence on the ratios J_n / J_{n-1}, started at
    the degree (J past _mode_degree is below rounding), then normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1.  In ratio form nothing overflows.
    """
    ratios = np.empty((degree, len(x)))
    ratio = np.zeros(len(x))
    for n in range(degree, 0, -1):
        ratio = x / (2.0 * n - x * ratio)
        ratios[n - 1] = ratio
    scaled = np.cumprod(ratios, axis=0)  # J_n / J_0 for n = 1..degree
    out = np.empty((degree + 1, len(x)))
    out[0] = 1.0 / (1.0 + 2.0 * np.sum(scaled[1::2], axis=0))
    out[1:] = out[0] * scaled
    return out


def _mode_transform(nodes, k):
    """Centre c of the nodes' bounding box and the (N + 1, q) matrix
    J_n(k r_j) exp(i n phi_j), n = 0..N, with (r_j, phi_j) the polar
    coordinates of node j about c and N = _mode_degree(k max r)."""
    centre = 0.5 * (np.min(nodes, axis=0) + np.max(nodes, axis=0))
    rel = nodes - centre
    r = np.hypot(rel[:, 0], rel[:, 1])
    degree = _mode_degree(k * float(np.max(r)))
    turns = np.empty((degree + 1, len(nodes)), dtype=np.complex128)
    turns[0] = 1.0
    turns[1:] = np.exp(1j * np.arctan2(rel[:, 1], rel[:, 0]))
    np.cumprod(turns, axis=0, out=turns)
    return centre, _bessel_j(k * r, degree) * turns


@dataclass
class BemSystem:
    """Assembled and factorized collocation system for one (shape, k).

    Solves see the far-field quadrature only through ff_weights, ff_centre
    and ff_transform (see _mode_transform), from which every solve's
    far-field modes are two products; ff_nodes keeps the nodes themselves.
    The refinement products and the mode products run through scipy's
    BLAS, the library behind lu_solve: numpy and scipy may link different
    OpenBLAS builds, and each switch between the two on a threaded-size
    operand costs milliseconds while the idle library's threads still
    spin.
    """

    mesh: Mesh
    k: float
    matrix: np.ndarray
    lu: tuple
    ff_nodes: np.ndarray  # (n_elements, q, 2) far-field quadrature points
    ff_weights: np.ndarray  # (n_elements, q)
    ff_centre: np.ndarray  # (2,) expansion centre of the far-field modes
    ff_transform: np.ndarray  # (N + 1, n_elements * q)

    def incident(self, alphas, points=None):
        """Plane-wave trace exp(-ik(x1 cos a + x2 sin a)) at collocation
        points (or the given points); returns (n_points, n_alphas)."""
        alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
        if points is None:
            points = self.mesh.midpoints
        phase = points[:, 0:1] * np.cos(alphas)[None, :] + points[
            :, 1:2
        ] * np.sin(alphas)[None, :]
        return np.exp(-1j * self.k * phase)

    def solve_density(self, alphas):
        """Densities for one or many incident angles through the stored LU.

        Returns shape (n_elements,) for scalar alpha, else (n_elements, n).
        One step of iterative refinement keeps the collocation residual at
        the 1e-10 * ||rhs|| level even for large meshes.
        """
        scalar = np.ndim(alphas) == 0
        rhs = self.incident(alphas)
        density = lu_solve(self.lu, rhs)
        density += lu_solve(self.lu, self._residual(density, rhs))
        residual = np.max(np.abs(self._residual(density, rhs)))
        bound = 1e-10 * np.max(np.abs(rhs))
        if residual > bound:
            raise SingularSystem(
                f"collocation residual {residual:.2e} exceeds {bound:.2e}"
            )
        return density[:, 0] if scalar else density

    def _residual(self, density, rhs):
        """rhs - matrix @ density; matrix.T is the Fortran-ordered view."""
        return zgemm(-1.0, self.matrix.T, density, beta=1.0, c=rhs, trans_a=1)

    def solve_far_fields(self, alphas):
        """Stacked FarField of the solves for the given incident angles;
        column m belongs to alphas[m]."""
        alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
        n_elements, q = self.ff_weights.shape
        densities = self.solve_density(alphas)
        wphi = self.ff_weights[:, :, None] * densities[:, None, :]
        wphi = wphi.reshape(n_elements * q, len(alphas))
        # c_n and c_-n, n >= 0: -1/2 (-i)^n sum_j J_n(k r_j) e^{-+i n phi_j} wphi_j
        transform = self.ff_transform.T  # Fortran-ordered view
        scale = -0.5 * _POWERS_OF_MINUS_I[np.arange(len(self.ff_transform)) % 4]
        positive = scale[:, None] * zgemm(1.0, transform, wphi, trans_a=2)
        negative = scale[1:, None] * zgemm(1.0, transform, wphi, trans_a=1)[1:]
        return FarField(
            k=self.k,
            centre=self.ff_centre,
            modes=np.concatenate([negative[::-1], positive]),
        )


def rotation_order(mesh):
    """Largest divisor E of the element count such that turning the mesh
    by 2 pi / E about its centre maps element i onto element i + n / E,
    endpoints within 1e-12 of the mesh radius; 1 when no turn does.

    The centre is the mean of the element starts, which a symmetric mesh
    leaves fixed.  Regular polygons read their edge count; other shapes,
    screens and meshes off symmetry by more than the tolerance read 1.
    """
    n = len(mesh)
    centre = np.mean(mesh.starts, axis=0)
    starts, ends = mesh.starts - centre, mesh.ends - centre
    tol = 1e-12 * float(np.max(np.hypot(starts[:, 0], starts[:, 1])))
    for order in range(n, 1, -1):
        if n % order:
            continue
        turn = 2.0 * math.pi / order
        c, s = math.cos(turn), math.sin(turn)
        rot = np.array([[c, s], [-s, c]])  # row vectors: x @ rot turns x
        if all(
            np.max(np.abs(x @ rot - np.roll(x, -(n // order), axis=0))) <= tol
            for x in (starts, ends)
        ):
            return order
    return 1


def _near_pairs(mesh):
    """(i, j) index arrays, row-major, of the pairs whose target midpoint i
    lies within one element length of element j.  Every point of element j
    lies within L_j / 2 of its midpoint, so a pair can be near only if the
    midpoints are closer than 1.5 L_j; the prefilter keeps gaps below 2 L_j,
    a margin no rounding crosses, and the segment distance runs on those."""
    mids, lengths = mesh.midpoints, mesh.lengths
    gap = np.square(mids[:, 0, None] - mids[:, 0]) + np.square(
        mids[:, 1, None] - mids[:, 1]
    )
    cand_i, cand_j = np.nonzero(gap < 4.0 * np.square(lengths))
    targets, starts = mids[cand_i], mesh.starts[cand_j]
    tangents, lengths = mesh.tangents[cand_j], lengths[cand_j]
    along = np.clip(np.einsum("ij,ij->i", targets - starts, tangents), 0.0, lengths)
    closest = starts + along[:, None] * tangents
    near = np.linalg.norm(targets - closest, axis=1) < lengths
    return cand_i[near], cand_j[near]


def assemble(mesh, k):
    """Collocation matrix, its LU factorization, and far-field quadrature.

    On a mesh of rotation order E (see rotation_order) the far part is
    computed for the first n / E rows and rolled into the other row blocks;
    near and self entries are computed per pair in every row.
    """
    n = len(mesh)
    max_len = float(np.max(mesh.lengths))
    order_far = max(4, math.ceil(k * max_len) + 4)
    order_far += order_far % 2  # even orders keep nodes off element midpoints
    gl_x, gl_w = gauss_legendre(order_far)
    # element quadrature in global coordinates, (n, q, 2) / (n, q)
    params = 0.5 * (gl_x + 1.0)
    src_nodes = mesh.starts[:, None, :] + params[None, :, None] * (
        mesh.ends - mesh.starts
    )[:, None, :]
    src_weights = 0.5 * gl_w[None, :] * mesh.lengths[:, None]

    flat_nodes = src_nodes.reshape(-1, 2)
    flat_weights = src_weights.ravel()
    targets = mesh.midpoints

    # a turn of the mesh by 2 pi / E shifts rows and columns by n / E
    # elements together, so the far part is block-circulant
    order = rotation_order(mesh)
    rows = n // order
    matrix = np.empty((n, n), dtype=np.complex128)
    chunk = max(1, _ASSEMBLY_CHUNK // flat_nodes.shape[0])
    for lo in range(0, rows, chunk):
        hi = min(rows, lo + chunk)
        # distances rounded as np.linalg.norm rounds them, without its
        # (targets, nodes, 2) temporary
        r = np.sqrt(
            np.square(targets[lo:hi, 0, None] - flat_nodes[:, 0])
            + np.square(targets[lo:hi, 1, None] - flat_nodes[:, 1])
        )
        # k r and the kernel in place: one distance-sized array of each kind
        r *= k
        kernel = hankel1(0, np.maximum(r, 1e-280, out=r))
        del r
        kernel *= 0.25j * flat_weights
        matrix[lo:hi] = kernel.reshape(hi - lo, n, order_far).sum(axis=2)
    block_row = matrix[:rows].reshape(rows, order, rows)
    row_blocks = matrix.reshape(order, rows, order, rows)
    for e in range(1, order):
        row_blocks[e] = np.roll(block_row, e, axis=1)

    # redo near and self entries in one batched pass over all pairs, with
    # the log part integrated analytically
    near_x, near_w = gauss_legendre(_NEAR_QUAD_ORDER)
    near_params = 0.5 * (near_x + 1.0)
    near_i, near_j = _near_pairs(mesh)
    starts = mesh.starts[near_j]
    lengths = mesh.lengths[near_j]
    nodes = starts[:, None, :] + near_params[None, :, None] * (
        mesh.ends[near_j] - starts
    )[:, None, :]
    r = np.linalg.norm(targets[near_i, None, :] - nodes, axis=2)
    weights = 0.5 * near_w[None, :] * lengths[:, None]
    smooth = np.sum(weights * _smooth_kernel_part(k, r), axis=1)
    log_part = _log_integrals(targets[near_i], starts, mesh.tangents[near_j], lengths)
    matrix[near_i, near_j] = smooth - log_part / (2.0 * np.pi)

    lu, piv = lu_factor(matrix)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * diag.max():
        raise SingularSystem("vanishing pivot in LU factorization")
    logger.debug("assembled %d x %d system (far order %d, rotation order %d, "
                 "%d near pairs)", n, n, order_far, order, len(near_i))
    centre, transform = _mode_transform(flat_nodes, k)
    return BemSystem(
        mesh=mesh, k=k, matrix=matrix, lu=(lu, piv),
        ff_nodes=src_nodes, ff_weights=src_weights,
        ff_centre=centre, ff_transform=transform,
    )


def build_system(shape, k, **mesh_options):
    """Mesh + assemble in one call."""
    return assemble(build_mesh(shape, k, **mesh_options), k)


@dataclass
class FarField:
    """Far-field patterns of one or more scattering solves.

    modes holds the Jacobi-Anger coefficients c_-N..c_N about centre, (2N+1,)
    for one solve or (2N+1, n) for n solves sharing the quadrature, and
    numbers the mode numbers -N..N.  value()
    accepts real or complex observation angles and returns shape(theta),
    plus (n,) for stacked solves, as product(rows(theta)), rows @ modes,
    where a row is e^{in theta} P(theta) mult with P the centre's phase and
    mult the exact derivative multiplier; rows_through() gives the rows of
    the orders 0..order from one exp, and derivatives() their values from
    one product.  A single solve's product is elementwise and
    uses no BLAS, so that reading one far field, as reports and canonical
    columns do, never wakes numpy's worker threads beside scipy's, which
    still spin after a set-up or a solve.  A stacked product of threaded
    size runs through scipy's BLAS, as the solves do (see BemSystem), for
    the same reason; smaller ones use numpy's, which costs less per call.
    len(), [j] and iteration give the stacked solves one at a time, each a
    view of the shared modes.
    """

    k: float
    centre: np.ndarray  # (2,)
    modes: np.ndarray  # (2N+1,) or (2N+1, n)
    numbers: np.ndarray = field(init=False, repr=False)
    _i_numbers: np.ndarray = field(init=False, repr=False)  # (1, 2N+1)

    def __post_init__(self):
        self.numbers = np.arange(len(self.modes)) - self.degree
        self._i_numbers = 1j * self.numbers[None, :]

    @property
    def degree(self):
        """The mode cut N."""
        return (len(self.modes) - 1) // 2

    @property
    def nodes(self):
        """The terms each observation angle costs, one per mode (the work
        count the per-layer trace in perfbench/layers.py reads)."""
        return self.numbers

    def __len__(self):
        if self.modes.ndim != 2:
            raise TypeError("a single far field has no length")
        return self.modes.shape[1]

    def __getitem__(self, j):
        if self.modes.ndim != 2:
            raise TypeError("a single far field cannot be indexed")
        return FarField(self.k, self.centre, self.modes[:, j])

    def weighted(self, p, offset):
        """The far field (cos(p theta) + offset) D about the same centre,
        of degree N + p: cos(p theta) e^{in theta} is the mean of
        e^{i(n-p) theta} and e^{i(n+p) theta}, so its modes are
        offset c_n + (c_{n-p} + c_{n+p}) / 2, exactly and for complex theta
        too.  offset is a scalar or one value per stacked solve; stacked
        modes stay Fortran-ordered, as the product in value() wants them."""
        n = len(self.modes)
        padded = np.zeros((n + 4 * p,) + self.modes.shape[1:], np.complex128, "F")
        padded[2 * p:2 * p + n] = self.modes
        width = n + 2 * p
        modes = offset * padded[p:p + width] + 0.5 * (padded[:width] + padded[2 * p:])
        return FarField(self.k, self.centre, modes)

    def rows(self, theta, order=0):
        """The (size(theta), 2N+1) matrix e^{in theta} P(theta) mult that
        value() multiplies into the modes; theta is flattened."""
        return self.rows_through(theta, order)[order]

    def value(self, theta, order=0):
        values = self.product(self.rows(theta, order))
        # [()] turns the 0-d result of a scalar theta into a scalar
        return values.reshape(np.shape(theta) + self.modes.shape[1:])[()]

    def derivatives(self, theta, order):
        """value(theta, j) for j = 0..order, stacked with shape
        (order + 1,) + shape(theta) + modes.shape[1:]: one exp over the
        modes and one product for all orders."""
        rows = self.rows_through(theta, order)
        values = self.product(np.concatenate(rows) if order else rows[0])
        shape = (order + 1,) + np.shape(theta) + self.modes.shape[1:]
        return values.reshape(shape)

    def rows_through(self, theta, order):
        """[rows(theta, j) for j = 0..order] from one exp.  Real angles
        given as a float or a list of floats, the few a one-point query
        reads, take cos and sin from math and the centre's phase in scalar
        arithmetic per angle, by the operations the array form applies, so
        that their rows are the array form's bit for bit wherever math and
        numpy share cos and sin."""
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        (c1, c2), i_n = self.centre.tolist(), self._i_numbers
        i_k = -1j * self.k
        if isinstance(theta, float):
            theta = [theta]
        if isinstance(theta, list):
            # complex, as i_n * t would cast it
            t = np.array(theta, dtype=np.complex128)[:, None]
            cs = [(math.cos(x), math.sin(x)) for x in theta]
            g = np.array([i_k * (c1 * c + c2 * s) for c, s in cs])[:, None]
            if order:
                dg = np.array([i_k * (c2 * c - c1 * s) for c, s in cs])[:, None]
        else:
            t = np.asarray(theta).reshape(-1, 1)
            cos, sin = np.cos(t), np.sin(t)
            g = i_k * (c1 * cos + c2 * sin)
            if order:
                dg = i_k * (c2 * cos - c1 * sin)
        # P(theta) = e^g; g'' = -g, so D' = P (g' + in) and
        # D'' = P ((g' + in)^2 - g) mode by mode
        exponent = i_n * t
        exponent += g
        rows = [np.exp(exponent, out=exponent)]
        if order:
            slope = dg + i_n
            rows.append(rows[0] * slope)
        if order == 2:
            rows.append(rows[0] * (slope * slope - g))
        return rows

    def product(self, rows):
        """rows @ modes.  For a single solve, an elementwise product and
        sum: no BLAS call and no thread at any size, and each row's digits
        do not depend on the number of rows.  For stacked solves, scipy's
        BLAS at threaded size and numpy's below it."""
        if self.modes.ndim == 1:
            return (rows * self.modes).sum(axis=-1)
        if rows.size * self.modes.shape[1] > _THREADED_GEMM:
            # (modes^T rows^T)^T; the stacked modes are Fortran-ordered
            return zgemm(1.0, self.modes, rows.T, trans_a=1).T
        return rows @ self.modes
