"""Special-function kernels: Hankel functions H0 and H1 of the first kind,
Gauss-Legendre quadrature rules, and the Newton-form quadratic that the
near-pole contour integrals integrate.

H = J + iY comes from scipy's Cephes routines j0, j1, y0 and y1 (Moshier,
Methods and Programs for Mathematical Functions, 1989); frozen 50-digit
values, dense mpmath scans, the Wronskian and acceptance criterion 12 audit
it.  The Gauss-Legendre rules come from Newton iteration here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

EULER_GAMMA = 0.57721566490153286061

MAX_RULE_SIZE = 200  # largest Gauss-Legendre rule gauss_legendre builds


def hankel1(order, x):
    """Hankel function of the first kind, H^(1)_order(x).

    Parameters
    ----------
    order : int
        0 or 1.
    x : float or ndarray
        Positive real argument(s); relative error at most 3.1e-15 against
        mpmath on [1e-4, 20], and of the order of x times the rounding of x
        beyond (5.4e-13 at 1e4).

    Returns
    -------
    complex or ndarray of complex
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument must be positive, real and finite")

    j, y = (special.j0, special.y0) if order == 0 else (special.j1, special.y1)
    out = np.empty(arr.shape, dtype=np.complex128)
    j(arr, out=out.real)
    y(arr, out=out.imag)
    return out[0] if scalar else out


def _legendre_and_derivative(n, x):
    """Value and derivative of P_n via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Nodes come out ascending; exactness holds through degree 2n-1 to ~1e-13.
    Valid for 1 <= n <= MAX_RULE_SIZE.
    """
    if not 1 <= n <= MAX_RULE_SIZE:
        raise ValueError(f"rule size must be in [1, {MAX_RULE_SIZE}], got {n}")
    if n in _RULE_CACHE:
        x, w = _RULE_CACHE[n]
        return x.copy(), w.copy()
    if n == 1:
        x = np.zeros(1)
        w = np.full(1, 2.0)
    else:
        i = np.arange(1, n + 1)
        x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            dx = p / dp
            x -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        x = 0.5 * (x - x[::-1])  # enforce symmetry exactly
        _, dp = _legendre_and_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        order = np.argsort(x)
        x, w = x[order], w[order]
    _RULE_CACHE[n] = (x, w)
    return x.copy(), w.copy()


@dataclass(frozen=True)
class QuadraticInterpolant:
    """Polynomial of degree <= 2 in Newton form,
    c0 + (z - n0) (c1 + (z - n1) c2).

    newton_nodes holds three nodes, repeated where derivative conditions
    stand in for values (all three equal for a Taylor polynomial); the
    last one does not enter the value.
    """

    newton_nodes: tuple
    newton_coeffs: tuple

    def __call__(self, z):
        z = np.asarray(z)
        n, c = self.newton_nodes, self.newton_coeffs
        return c[0] + (z - n[0]) * (c[1] + (z - n[1]) * c[2])
