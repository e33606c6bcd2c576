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
solve on the selected square subsystem (strategy two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .embedding import lambda_weight

DEFAULT_DELTA = 1e-8
DEFAULT_STRATEGY = "two"
_ZERO_COLUMN_TOL = 1e-14


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

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v.conj().T


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

    Repeatedly takes the column of largest Euclidean norm (lowest index
    on ties), then projects it out of all remaining columns, so each
    pick maximizes volume against the span selected so far.
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
        pick = int(np.argmax(norms))
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
    strategy: str
    delta: float | None
    index_set: np.ndarray | None
    residual_norm: float
    coefficient_norm: float

    def __len__(self):
        return len(self.values)


@dataclass
class SystemMatrix:
    """The square canonical system and its cached factorizations."""

    angles: np.ndarray
    far_fields: object  # stacked: value(theta) has shape shape(theta) + (m,)
    p: int
    coefficient_count: int
    matrix: np.ndarray = field(init=False, repr=False)
    sign: int = field(init=False)
    subset_selections: int = field(init=False, default=0)

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if len(self.angles) != len(self.far_fields):
            raise ValueError("one far field per canonical angle")
        self.sign = -1 if self.p % 2 == 0 else 1
        lam = lambda_weight(
            self.angles[:, None], self.angles[None, :], self.p
        )
        self.matrix = lam * self.far_fields.value(self.angles)
        self._svd = None
        self._subset = None
        self._subset_lu = None
        self._pinv_cache = {}

    @property
    def oversampling(self):
        return len(self.angles)

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
        values = self.far_fields.value(float(alpha))
        return self.sign * lambda_weight(alpha, self.angles, self.p) * values

    def subset(self):
        if self._subset is None:
            self._subset = column_subset(self.matrix, self.coefficient_count)
            self.subset_selections += 1
        return self._subset

    @property
    def submatrix_condition(self):
        idx = self.subset()
        sub = self.matrix[np.ix_(idx, idx)]
        sigma = svd(sub).sigma
        if sigma[-1] == 0.0:
            return math.inf
        return float(sigma[0] / sigma[-1])

    def _subset_solver(self):
        if self._subset_lu is None:
            idx = self.subset()
            sub = self.matrix[np.ix_(idx, idx)]
            lu, piv = lu_factor(sub)
            diag = np.abs(np.diag(lu))
            if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
                raise SingularSubmatrix(
                    f"subsystem pivot ratio {diag.min() / diag.max():.3e}"
                )
            self._subset_lu = (lu, piv)
        return self._subset_lu

    def pseudoinverse(self, delta):
        key = float(delta)
        if key not in self._pinv_cache:
            self._pinv_cache[key] = tsvd_pseudoinverse(self.svd(), key)
        return self._pinv_cache[key]


def build_system(angles, far_fields, p, coefficient_count):
    """Assemble the canonical system matrix from solved far fields."""
    return SystemMatrix(
        angles=angles,
        far_fields=far_fields,
        p=p,
        coefficient_count=coefficient_count,
    )


def coefficients_for(
    system, alpha, strategy=DEFAULT_STRATEGY, delta=DEFAULT_DELTA
):
    """Embedding coefficients for one incidence angle.

    Strategy one applies the truncated-SVD pseudo-inverse of the full
    oversampled system.  Strategy two solves the square subsystem on the
    greedily selected index set (chosen once per system and reused) and
    embeds the result, leaving all other entries zero.
    """
    d = system.right_hand_side(alpha)
    if strategy == "one":
        if delta is None or delta <= 0:
            raise ValueError("strategy one needs a positive delta")
        b = system.pseudoinverse(delta) @ d
        index_set = None
    elif strategy == "two":
        idx = system.subset()
        b = np.zeros(system.oversampling, dtype=np.complex128)
        b[idx] = lu_solve(system._subset_solver(), d[idx])
        index_set = idx
        delta = None
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    residual = float(np.linalg.norm(system.matrix @ b - d))
    return CoefficientVector(
        values=b,
        strategy=strategy,
        delta=delta,
        index_set=index_set,
        residual_norm=residual,
        coefficient_norm=float(np.linalg.norm(b)),
    )
