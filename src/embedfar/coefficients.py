"""Embedding coefficients from an oversampled canonical system.

The far-field pattern for incidence alpha is a weighted combination of
canonical patterns; evaluating the weighted identity at the canonical
angles themselves closes the system

    A[m, m'] = hat_D(alpha_m, alpha_m'),
    d[m] = (-1)^(p+1) hat_D(alpha, alpha_m),

so every entry comes from the canonical solves alone.  The square system
is rank deficient by design once the angle set is oversampled; this
module provides the two regularizations, a truncated-SVD pseudo-inverse
(strategy one) and greedy column subset selection followed by a direct
solve on the selected square subsystem (strategy two).  Either way the
coefficients are one fixed linear map of d; since d is linear in the
modes of the weighted patterns, that map is built once per system on the
modes, and a query costs one far-field row and one short product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .embedding import EmbeddingBasis, StabilizedEvaluator

DEFAULT_DELTA = 1e-8
DEFAULT_STRATEGY = "two"
_ZERO_COLUMN_TOL = 1e-14
# column norms this close (relative) to the largest are tied.  On the five
# presets at k = 5 to 50, 4 to 16 elements per wavelength and M~ = default
# or 2M, greedy-step gaps between tied columns reach 5.5e-12 and all others
# exceed 2.0e-9; the tolerance sits 18x and 20x inside that empty band
_TIE_TOL = 1e-10


class NoConvergence(RuntimeError):
    """The singular value decomposition did not converge."""


class ZeroColumnEncountered(RuntimeError):
    """Greedy selection ran out of independent columns before filling the
    index set; the canonical angle set fails to span the coefficient
    space even after oversampling."""


class SingularSubmatrix(RuntimeError):
    """The selected square subsystem has no usable LU factorization."""


def default_oversampling(coefficient_count):
    """Canonical angle count, 3/2 times the coefficient count."""
    return (3 * coefficient_count + 1) // 2


def canonical_angles(count):
    """count equispaced incidence angles with the first at zero."""
    if count < 1:
        raise ValueError("need at least one canonical angle")
    return 2.0 * np.pi * np.arange(count) / count


@dataclass(frozen=True)
class SVDResult:
    """X = U diag(sigma) V*, singular values descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(matrix):
    """Singular value decomposition of a square matrix (LAPACK).

    Exactly zero columns give exactly zero singular values, so a matrix
    with one reports an infinite condition number.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    try:
        u, sigma, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD: {exc}") from exc
    sigma[np.count_nonzero(np.any(a != 0.0, axis=0)):] = 0.0
    return SVDResult(u=u, sigma=sigma, v=vh.conj().T)


def tsvd_pseudoinverse(matrix, delta):
    """Pseudo-inverse with singular values at or below delta zeroed."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    result = matrix if isinstance(matrix, SVDResult) else svd(matrix)
    safe = np.where(result.sigma > 0.0, result.sigma, 1.0)
    inv = np.where(result.sigma > delta, 1.0 / safe, 0.0)
    return (result.v * inv) @ result.u.conj().T


def column_subset(matrix, count):
    """Greedy pivoted column selection.

    Repeatedly takes the column of largest Euclidean norm, then projects
    it out of all remaining columns, so each pick maximizes volume against
    the span selected so far.  Norms within _TIE_TOL (relative) of the
    largest count as tied and the lowest index wins, so rounding noise in
    exactly tied columns (symmetric angle sets) cannot decide the pick.
    """
    work = np.array(matrix, dtype=np.complex128)
    n = work.shape[1]
    if count > n:
        raise ValueError("cannot select more columns than the matrix has")
    available = np.ones(n, dtype=bool)
    chosen = []
    for _ in range(count):
        norms = np.linalg.norm(work, axis=0)
        norms[~available] = -1.0
        largest = norms.max()
        pick = int(np.argmax(norms >= largest * (1.0 - _TIE_TOL)))
        if norms[pick] < _ZERO_COLUMN_TOL:
            raise ZeroColumnEncountered(
                f"rank below {count}: largest remaining column norm "
                f"{max(norms[pick], 0.0):.3e}"
            )
        chosen.append(pick)
        available[pick] = False
        pivot = work[:, pick] / norms[pick]
        work -= np.outer(pivot, pivot.conj() @ work)
    return np.asarray(chosen, dtype=int)


@dataclass(frozen=True)
class CoefficientVector:
    """Embedding weights for one incidence angle, with diagnostics."""

    values: np.ndarray
    residual_norm: float
    coefficient_norm: float


@dataclass
class SystemMatrix:
    """The square canonical system on an embedding basis, with its cached
    factorizations and solve operators."""

    basis: EmbeddingBasis
    coefficient_count: int
    matrix: np.ndarray = field(init=False, repr=False)
    sign: int = field(init=False)

    def __post_init__(self):
        self.sign = -1 if self.basis.p % 2 == 0 else 1
        self.matrix = self.basis.hat.value(self.basis.angles)
        self._svd = None
        self._subset = None
        self._operators = {}

    def svd(self):
        if self._svd is None:
            self._svd = svd(self.matrix)
        return self._svd

    @property
    def condition_number(self):
        sigma = self.svd().sigma
        if sigma[-1] == 0.0:
            return math.inf
        return float(sigma[0] / sigma[-1])

    def right_hand_side(self, alpha):
        return self.sign * self.basis.hat.value(float(alpha))

    def subset(self):
        if self._subset is None:
            self._subset = column_subset(self.matrix, self.coefficient_count)
        return self._subset

    def operator(self, strategy, delta=DEFAULT_DELTA):
        """The fixed linear map K, (2N+2p+1) x M~, from the modes of the
        weighted patterns to b(alpha), built on first use:

            b(alpha) = r(alpha) K,   r = basis.hat.rows(alpha).

        As d(alpha) = sign r(alpha) C for the weighted mode matrix
        C = basis.hat.modes, K is the transposed solve for sign C^T: with
        the truncated-SVD pseudo-inverse of the full oversampled system
        (strategy one), or on the square subsystem of the greedily selected
        index set, zero off it (strategy two, where delta plays no part).
        """
        if strategy == "two":
            delta = None
        elif strategy != "one":
            raise ValueError(f"unknown strategy {strategy!r}")
        elif delta is None or delta <= 0:
            raise ValueError("strategy one needs a positive delta")
        key = (strategy, delta)
        if key not in self._operators:
            rhs = self.sign * self.basis.hat.modes.T  # (M~, 2N+2p+1)
            if strategy == "one":
                solved = tsvd_pseudoinverse(self.svd(), delta) @ rhs
            else:
                solved = self._subset_solve(rhs)
            self._operators[key] = np.ascontiguousarray(solved.T)
        return self._operators[key]

    def _subset_solve(self, rhs):
        """Rows of rhs on the subset solved against the square subsystem
        there; zero rows elsewhere."""
        idx = self.subset()
        lu, piv = lu_factor(self.matrix[np.ix_(idx, idx)])
        diag = np.abs(np.diag(lu))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise SingularSubmatrix(
                f"subsystem pivot ratio {diag.min() / diag.max():.3e}"
            )
        solved = np.zeros_like(rhs)
        solved[idx] = lu_solve((lu, piv), rhs[idx])
        return solved

    def evaluator(
        self, strategy=DEFAULT_STRATEGY, delta=DEFAULT_DELTA, **thresholds
    ):
        """Stabilized evaluator on the basis with the strategy's operator,
        which it builds on its first evaluation; thresholds are its
        near_threshold, cluster_threshold and contour_order."""
        return StabilizedEvaluator(
            basis=self.basis,
            build_operator=functools.partial(self.operator, strategy, delta),
            **thresholds,
        )


def build_system(basis, coefficient_count):
    """Assemble the canonical system matrix on an embedding basis."""
    return SystemMatrix(basis=basis, coefficient_count=coefficient_count)


def coefficients_for(
    system, alpha, strategy=DEFAULT_STRATEGY, delta=DEFAULT_DELTA
):
    """Embedding coefficients for one incidence angle from the strategy's
    operator, with the residual against the right-hand side and the
    coefficient norm.  Nothing in the package calls it: the commands read
    their evaluator's coefficients and its norm.  It stays while the
    benchmark's tracer (perfbench/layers.py) wraps cli.coefficients_for."""
    b = system.evaluator(strategy, delta).coefficients(alpha)
    return CoefficientVector(
        values=b,
        residual_norm=float(
            np.linalg.norm(system.matrix @ b - system.right_hand_side(alpha))
        ),
        coefficient_norm=float(np.linalg.norm(b)),
    )
