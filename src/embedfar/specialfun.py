"""Self-contained special-function kernels: Hankel functions of the first kind
of orders zero and one, Gauss-Legendre quadrature rules, and the Newton-form
quadratic that the near-pole contour integrals integrate.

Everything here is evaluated from scratch (power series, asymptotic series,
Newton iteration) so that accuracy can be audited against high-precision
oracles without trusting a third-party implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.57721566490153286061

# Ascending series below, Hankel's asymptotic expansion above.  The split
# point balances series cancellation (~e^{2x} * eps) against the smallest
# attainable asymptotic term (~e^{-2x}); both stay below 1e-11 at 12.
_SERIES_CUTOFF = 12.0
_SERIES_TERMS = 80
_ASYMPTOTIC_TERMS = 40

MAX_RULE_SIZE = 200  # largest Gauss-Legendre rule gauss_legendre builds


def _harmonic_numbers(count):
    h = np.zeros(count + 1)
    h[1:] = np.cumsum(1.0 / np.arange(1, count + 1))
    return h


_HARMONIC = _harmonic_numbers(_SERIES_TERMS + 1)


def _hankel1_series(order, x):
    """Ascending-series J + iY for x <= _SERIES_CUTOFF."""
    q = 0.25 * x * x
    log_half = np.log(0.5 * x) + EULER_GAMMA

    if order == 0:
        term = np.ones_like(x)
        j = term.copy()
        ysum = np.zeros_like(x)
        for m in range(1, _SERIES_TERMS):
            term = -term * q / (m * m)
            j += term
            ysum -= term * _HARMONIC[m]
            if np.all(np.abs(term) < 1e-18):
                break
        y = (2.0 / np.pi) * (log_half * j + ysum)
        return j + 1j * y

    term = np.ones_like(x)
    jsum = term.copy()
    ysum = (_HARMONIC[0] + _HARMONIC[1]) * term
    for m in range(1, _SERIES_TERMS):
        term = -term * q / (m * (m + 1))
        jsum += term
        ysum += (_HARMONIC[m] + _HARMONIC[m + 1]) * term
        if np.all(np.abs(term) < 1e-18):
            break
    j = 0.5 * x * jsum
    y = (2.0 / np.pi) * (log_half * j - 1.0 / x - 0.25 * x * ysum)
    return j + 1j * y


def _hankel1_asymptotic(order, x):
    """Hankel expansion H_nu ~ sqrt(2/(pi x)) e^{i omega} sum i^k a_k(nu)/x^k.

    Coefficients follow the recurrence a_k = a_{k-1} (4 nu^2 - (2k-1)^2)/(8k).
    Terms are summed to the adaptive optimal truncation point of the smallest
    argument in the batch; later terms only shrink for larger arguments.
    """
    four_nu_sq = 4.0 * order * order
    x_min = float(np.min(x))

    coeff = 1.0
    best_k = _ASYMPTOTIC_TERMS
    prev = np.inf
    scaled = []
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        coeff *= (four_nu_sq - (2 * k - 1) ** 2) / (8.0 * k)
        size = abs(coeff) / x_min**k
        scaled.append(coeff)
        if size >= prev:
            best_k = k - 1
            break
        prev = size

    total = np.ones_like(x, dtype=np.complex128)
    term = np.ones_like(x, dtype=np.complex128)
    for k in range(1, best_k + 1):
        ratio = scaled[k - 1] / scaled[k - 2] if k > 1 else scaled[0]
        term = term * (1j * ratio / x)
        total += term

    omega = x - 0.5 * np.pi * order - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * omega) * total


def hankel1(order, x):
    """Hankel function of the first kind, H^(1)_order(x).

    Parameters
    ----------
    order : int
        0 or 1.
    x : float or ndarray
        Positive real argument(s); relative accuracy 1e-10 on (0, 1e4].

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

    out = np.empty(arr.shape, dtype=np.complex128)
    small = arr <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _hankel1_series(order, arr[small])
    if np.any(~small):
        out[~small] = _hankel1_asymptotic(order, arr[~small])
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
