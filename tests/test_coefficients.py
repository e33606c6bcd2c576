"""Canonical system assembly, SVD, TSVD, and column selection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfar.cli import ExperimentConfig, build_pipeline
from embedfar.coefficients import (
    ZeroColumnEncountered,
    build_system,
    canonical_angles,
    coefficients_for,
    column_subset,
    default_oversampling,
    svd,
    tsvd_pseudoinverse,
)
from embedfar.embedding import lambda_weight
from helpers import TrigFarFields, random_trig

TWO_PI = 2.0 * math.pi


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _family_system(p, angles, seed, count=2):
    """Canonical system of the exact rank-one family D = T (x) T."""
    rng = np.random.default_rng(seed)
    T = random_trig(rng, degree=3)
    angles = np.asarray(angles, dtype=np.float64)
    fields = TrigFarFields(T.scaled(complex(T.value(a))) for a in angles)
    return T, build_system(angles, fields, p, coefficient_count=count)


def test_default_oversampling():
    assert default_oversampling(2) == 3
    assert default_oversampling(8) == 12
    assert default_oversampling(17) == 26
    assert default_oversampling(30) == 45


def test_canonical_angles():
    a = canonical_angles(4)
    assert np.allclose(
        a, [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi], atol=1e-15
    )
    with pytest.raises(ValueError):
        canonical_angles(0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_svd_factorization_properties(n):
    rng = np.random.default_rng(n)
    a = _random_complex(rng, (n, n))
    res = svd(a)
    eye = np.eye(n)
    assert np.allclose(res.u.conj().T @ res.u, eye, atol=1e-12)
    assert np.allclose(res.v.conj().T @ res.v, eye, atol=1e-12)
    assert np.all(np.diff(res.sigma) <= 1e-15)
    assert np.all(res.sigma >= 0.0)
    scale = float(np.linalg.norm(a))
    assert np.allclose(res.reconstruct(), a, atol=1e-12 * scale)


def test_svd_matches_gram_eigenvalues():
    rng = np.random.default_rng(100)
    a = _random_complex(rng, (6, 6))
    sigma = svd(a).sigma
    gram_eigs = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    assert np.allclose(sigma**2, gram_eigs, atol=1e-10 * gram_eigs[0])


def test_svd_matches_numpy_singular_values():
    rng = np.random.default_rng(58)
    for n in (2, 5, 9, 16):
        a = _random_complex(rng, (n, n))
        mine = svd(a).sigma
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(mine, ref, atol=1e-11 * ref[0])


def test_svd_rank_one_closed_form():
    rng = np.random.default_rng(101)
    x = _random_complex(rng, 5)
    y = _random_complex(rng, 5)
    a = np.outer(x, y.conj())
    res = svd(a)
    top = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    assert abs(res.sigma[0] - top) <= 1e-12 * top
    assert float(np.max(res.sigma[1:])) <= 1e-12 * top


def test_svd_zero_columns_complete_unitary():
    rng = np.random.default_rng(102)
    a = _random_complex(rng, (5, 5))
    a[:, 2] = 0.0
    a[:, 4] = 0.0
    res = svd(a)
    assert np.allclose(res.u.conj().T @ res.u, np.eye(5), atol=1e-12)
    assert res.sigma[-1] == 0.0
    assert res.sigma[-2] == 0.0
    assert np.allclose(res.reconstruct(), a, atol=1e-12)


def test_svd_rejects_bad_shapes():
    with pytest.raises(ValueError):
        svd(np.ones((3, 4)))
    # no size cap: a 201 x 201 matrix factorizes
    rng = np.random.default_rng(106)
    a = _random_complex(rng, (201, 201))
    res = svd(a)
    assert np.allclose(res.reconstruct(), a, atol=1e-11 * float(np.linalg.norm(a)))


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_svd_properties_random(n, seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, (n, n))
    res = svd(a)
    assert np.allclose(res.u.conj().T @ res.u, np.eye(n), atol=1e-11)
    assert np.allclose(res.v.conj().T @ res.v, np.eye(n), atol=1e-11)
    scale = max(1.0, float(np.linalg.norm(a)))
    assert np.allclose(res.reconstruct(), a, atol=1e-11 * scale)
    assert np.all(np.diff(res.sigma) <= 1e-15)


def test_tsvd_residual_bound_against_probes():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        a = _random_complex(rng, (n, n))
        d = _random_complex(rng, n)
        delta = float(10.0 ** rng.uniform(-10.0, 0.0))
        b = tsvd_pseudoinverse(a, delta) @ d
        base = float(np.linalg.norm(a @ b - d))
        for _ in range(50):
            v = _random_complex(rng, n)
            competitor = float(
                np.linalg.norm(a @ v - d) + delta * np.linalg.norm(v)
            )
            assert base <= competitor + 1e-10 * (1.0 + competitor)


def test_tsvd_zero_delta_is_plain_inverse():
    rng = np.random.default_rng(104)
    a = _random_complex(rng, (8, 8))
    pinv = tsvd_pseudoinverse(a, 0.0)
    assert np.allclose(pinv @ a, np.eye(8), atol=1e-9)
    reference = np.linalg.inv(a)
    assert np.allclose(
        pinv, reference, atol=1e-9 * float(np.linalg.norm(reference))
    )


def test_tsvd_truncates_small_directions():
    a = np.diag([1.0, 1e-3]).astype(complex)
    assert np.allclose(
        tsvd_pseudoinverse(a, 1e-2), np.diag([1.0, 0.0]), atol=1e-14
    )
    assert np.allclose(
        tsvd_pseudoinverse(a, 1e-4), np.diag([1.0, 1e3]), atol=1e-9
    )
    with pytest.raises(ValueError):
        tsvd_pseudoinverse(a, -1.0)


def _gram_volume(matrix, indices):
    sub = matrix[:, list(indices)]
    det = np.linalg.det(sub.conj().T @ sub)
    return math.sqrt(max(float(det.real), 0.0))


def test_greedy_subset_volume_near_optimal():
    rng = np.random.default_rng(105)
    for _ in range(20):
        a = _random_complex(rng, (6, 6))
        picked = column_subset(a, 4)
        assert len(set(picked.tolist())) == 4
        got = _gram_volume(a, picked)
        best = max(
            _gram_volume(a, combo)
            for combo in itertools.combinations(range(6), 4)
        )
        assert got >= best / math.factorial(4) - 1e-12
        assert got <= best + 1e-9 * best


def test_greedy_subset_prefers_lowest_index_on_ties():
    col = np.array([1.0, 2.0, 0.5], dtype=complex)
    a = np.stack([col, col, 0.1 * col], axis=1)
    picked = column_subset(a, 1)
    assert picked.tolist() == [0]


def test_greedy_subset_is_stable_under_ulp_ties():
    # the square's canonical set is symmetric, so half of the greedy steps
    # compare exactly tied column norms; rounding must not pick among them
    matrix = build_pipeline(ExperimentConfig(shape="square", k=5.0)).matrix.matrix
    expected = [0, 6, 3, 9, 1, 7, 2, 8]
    assert column_subset(matrix, 8).tolist() == expected
    nudged = matrix.copy()
    nudged[:, 6] *= 1.0 + 2.0**-52
    assert column_subset(nudged, 8).tolist() == expected


def test_greedy_subset_errors():
    with pytest.raises(ZeroColumnEncountered):
        column_subset(np.zeros((4, 4), dtype=complex), 2)
    rank_one = np.outer(np.ones(4), np.ones(4)).astype(complex)
    with pytest.raises(ZeroColumnEncountered):
        column_subset(rank_one, 2)
    with pytest.raises(ValueError):
        column_subset(np.ones((3, 3)), 4)


def test_system_matrix_entries():
    p = 3
    T, system = _family_system(p, canonical_angles(4), seed=50)
    angles = system.angles
    for i in range(4):
        for j in range(4):
            expected = (
                complex(lambda_weight(angles[i], angles[j], p))
                * complex(T.value(angles[i]))
                * complex(T.value(angles[j]))
            )
            assert abs(system.matrix[i, j] - expected) <= 1e-12 * max(
                1.0, abs(expected)
            )
    alpha = 0.77
    d = system.right_hand_side(alpha)
    sign = (-1.0) ** (p + 1)
    for m in range(4):
        expected = (
            sign
            * complex(lambda_weight(alpha, angles[m], p))
            * complex(T.value(alpha))
            * complex(T.value(angles[m]))
        )
        assert abs(d[m] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_both_strategies_reproduce_the_family():
    p = 2
    T, system = _family_system(p, canonical_angles(5), seed=51)
    rng = np.random.default_rng(52)
    thetas = rng.uniform(0.0, TWO_PI, 7)
    for alpha in rng.uniform(0.0, TWO_PI, 4):
        truth_alpha = complex(T.value(alpha))
        for strategy, delta in (("two", 1e-8), ("one", 1e-10)):
            coeff = coefficients_for(
                system, float(alpha), strategy=strategy, delta=delta
            )
            scale = float(np.linalg.norm(system.matrix))
            assert coeff.residual_norm <= 1e-10 * scale
            assert coeff.coefficient_norm == pytest.approx(
                float(np.linalg.norm(coeff.values))
            )
            # the weighted sum reproduces D(theta, alpha) away from poles
            for theta in thetas:
                lam = complex(lambda_weight(theta, alpha, p))
                if abs(lam) < 0.3:
                    continue
                numerator = sum(
                    coeff.values[m]
                    * complex(lambda_weight(theta, system.angles[m], p))
                    * complex(system.far_fields[m].value(theta))
                    for m in range(len(system.angles))
                )
                embedded = numerator / lam
                truth = complex(T.value(theta)) * truth_alpha
                assert abs(embedded - truth) <= 1e-9 * max(1.0, abs(truth))


def test_unit_vectors_at_selected_canonical_angles():
    p = 2
    T, system = _family_system(p, canonical_angles(5), seed=53)
    for j in system.subset():
        coeff = coefficients_for(system, float(system.angles[j]), strategy="two")
        expected = np.zeros(len(system.angles))
        expected[j] = 1.0
        assert float(np.max(np.abs(coeff.values - expected))) <= 1e-9
        assert coeff.index_set is not None


def test_subset_selected_once_and_reused():
    p = 2
    T, system = _family_system(p, canonical_angles(5), seed=54)
    for alpha in np.linspace(0.1, 6.0, 300):
        coefficients_for(system, float(alpha))
    assert system.subset_selections == 1


def test_strategy_validation():
    T, system = _family_system(2, canonical_angles(5), seed=55)
    with pytest.raises(ValueError):
        coefficients_for(system, 0.3, strategy="three")
    with pytest.raises(ValueError):
        coefficients_for(system, 0.3, strategy="one", delta=0.0)


def test_degenerate_screen_pair_is_flagged():
    # p = 1 with incidences pi/2 and 3 pi/2 makes every weight vanish
    rng = np.random.default_rng(56)
    T = random_trig(rng, degree=2)
    angles = np.array([math.pi / 2.0, 1.5 * math.pi])
    fields = TrigFarFields(T.scaled(complex(T.value(a))) for a in angles)
    system = build_system(angles, fields, 1, coefficient_count=2)
    assert float(np.max(np.abs(system.matrix))) <= 1e-12
    with pytest.raises(ZeroColumnEncountered):
        coefficients_for(system, 0.3, strategy="two")


def test_condition_numbers_and_strategy_agreement():
    # square system (oversampling equal to coefficient count): the two
    # strategies solve the same equations
    p = 3
    T, system = _family_system(p, [0.7, 2.1], seed=57)
    assert system.condition_number >= 1.0
    assert system.submatrix_condition >= 1.0
    one = coefficients_for(system, 0.9, strategy="one", delta=1e-12)
    two = coefficients_for(system, 0.9, strategy="two")
    scale = max(1.0, float(np.linalg.norm(two.values)))
    assert np.allclose(one.values, two.values, atol=1e-8 * scale)
