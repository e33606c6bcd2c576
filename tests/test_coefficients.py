"""Canonical system assembly, SVD, TSVD, and column selection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embedfar.coefficients as coefficients
from embedfar.bem import FarField
from embedfar.cli import ExperimentConfig, build_pipeline
from embedfar.coefficients import (
    DEFAULT_DELTA,
    ZeroColumnEncountered,
    build_system,
    canonical_angles,
    column_subset,
    default_oversampling,
    svd,
    tsvd_pseudoinverse,
)
from embedfar.embedding import EmbeddingBasis, lambda_weight
from embedfar.geometry import preset_shape
from helpers import TrigFarFields, random_trig, reconstruct

TWO_PI = 2.0 * math.pi


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _family_system(p, angles, seed, count=2):
    """Canonical system of the exact rank-one family D = T (x) T."""
    rng = np.random.default_rng(seed)
    T = random_trig(rng, degree=3)
    angles = np.asarray(angles, dtype=np.float64)
    fields = TrigFarFields(T.scaled(complex(T.value(a))) for a in angles)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    return T, build_system(basis, coefficient_count=count)


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
    assert np.allclose(reconstruct(res), a, atol=1e-12 * scale)


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
    assert np.allclose(reconstruct(res), a, atol=1e-12)


def test_svd_rejects_bad_shapes():
    with pytest.raises(ValueError):
        svd(np.ones((3, 4)))
    # no size cap: a 201 x 201 matrix factorizes
    rng = np.random.default_rng(106)
    a = _random_complex(rng, (201, 201))
    res = svd(a)
    assert np.allclose(reconstruct(res), a, atol=1e-11 * float(np.linalg.norm(a)))


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
    assert np.allclose(reconstruct(res), a, atol=1e-11 * scale)
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


@pytest.mark.parametrize(
    "shape, k",
    [("square", 5.0), ("square", 10.0), ("square", 20.0), ("equilateral", 5.0),
     ("equilateral", 10.0), ("pentagon", 5.0), ("pentagon", 10.0)],
)
def test_greedy_subset_does_not_follow_rounding(shape, k):
    # relative noise of 1e-13 on every entry stands for any change of
    # rounding upstream; symmetry ties must not be decided by it
    system = build_pipeline(ExperimentConfig(shape=shape, k=k)).matrix
    rng = np.random.default_rng(7)
    phase = np.exp(2j * np.pi * rng.uniform(size=system.matrix.shape))
    noisy = system.matrix * (1.0 + 1e-13 * phase)
    picked = column_subset(noisy, system.coefficient_count)
    assert picked.tolist() == system.subset().tolist()


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
    angles = system.basis.angles
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
            b = system.coefficients(float(alpha), strategy, delta)
            # b solves the canonical system for alpha's right-hand side
            residual = system.matrix @ b - system.right_hand_side(alpha)
            scale = float(np.linalg.norm(system.matrix))
            assert float(np.linalg.norm(residual)) <= 1e-10 * scale
            # the weighted sum reproduces D(theta, alpha) away from poles
            for theta in thetas:
                lam = complex(lambda_weight(theta, alpha, p))
                if abs(lam) < 0.3:
                    continue
                numerator = sum(
                    b[m]
                    * complex(lambda_weight(theta, system.basis.angles[m], p))
                    * complex(system.basis.far_fields[m].value(theta))
                    for m in range(len(system.basis))
                )
                embedded = numerator / lam
                truth = complex(T.value(theta)) * truth_alpha
                assert abs(embedded - truth) <= 1e-9 * max(1.0, abs(truth))


def test_unit_vectors_at_selected_canonical_angles():
    p = 2
    T, system = _family_system(p, canonical_angles(5), seed=53)
    for j in system.subset():
        b = system.coefficients(float(system.basis.angles[j]), "two")
        expected = np.zeros(len(system.basis))
        expected[j] = 1.0
        assert float(np.max(np.abs(b - expected))) <= 1e-9


def test_subset_selected_once_and_reused(monkeypatch):
    calls = []

    def counted(matrix, count):
        calls.append(count)
        return column_subset(matrix, count)

    monkeypatch.setattr(coefficients, "column_subset", counted)
    p = 2
    T, system = _family_system(p, canonical_angles(5), seed=54)
    for alpha in np.linspace(0.1, 6.0, 300):
        system.coefficients(float(alpha))
    assert calls == [2]


def test_strategy_validation():
    T, system = _family_system(2, canonical_angles(5), seed=55)
    with pytest.raises(ValueError):
        system.coefficients(0.3, strategy="three")
    with pytest.raises(ValueError):
        system.coefficients(0.3, strategy="one", delta=0.0)


def test_degenerate_screen_pair_is_flagged():
    # p = 1 with incidences pi/2 and 3 pi/2 makes every weight vanish
    rng = np.random.default_rng(56)
    T = random_trig(rng, degree=2)
    angles = np.array([math.pi / 2.0, 1.5 * math.pi])
    fields = TrigFarFields(T.scaled(complex(T.value(a))) for a in angles)
    basis = EmbeddingBasis(p=1, angles=angles, far_fields=fields)
    system = build_system(basis, coefficient_count=2)
    assert float(np.max(np.abs(system.matrix))) <= 1e-12
    with pytest.raises(ZeroColumnEncountered):
        system.coefficients(0.3, strategy="two")


def test_condition_numbers_and_strategy_agreement():
    # square system (oversampling equal to coefficient count): the two
    # strategies solve the same equations
    p = 3
    T, system = _family_system(p, [0.7, 2.1], seed=57)
    assert system.condition_number >= 1.0
    one = system.coefficients(0.9, strategy="one", delta=1e-12)
    two = system.coefficients(0.9, strategy="two")
    scale = max(1.0, float(np.linalg.norm(two)))
    assert np.allclose(one, two, atol=1e-8 * scale)


@pytest.mark.parametrize(
    "shape", ["square", "equilateral", "isosceles-right", "pentagon", "screen"]
)
def test_system_is_the_weighted_basis_bitwise(shape):
    # the matrix and right-hand side come from the weighted far field's
    # shifted modes, not from the explicit Lambda * D products; they must
    # stay within rounding of those products column by column, and the
    # column subset must be bit for bit the one the products pick
    system = build_pipeline(ExperimentConfig(shape=shape, k=10.0)).matrix
    basis = system.basis
    angles = basis.angles
    lam = lambda_weight(angles[:, None], angles[None, :], basis.p)
    explicit = lam * basis.far_fields.value(angles)
    peak = np.max(np.abs(explicit), axis=0)
    assert np.all(np.abs(system.matrix - explicit) <= 1e-14 * peak)
    for alpha in (0.3, 2.9, 5.1):
        expected = (
            system.sign
            * lambda_weight(alpha, angles, basis.p)
            * basis.far_fields.value(alpha)
        )
        gap = np.abs(system.right_hand_side(alpha) - expected)
        assert np.all(gap <= 1e-14 * peak)
    assert np.array_equal(
        column_subset(explicit, system.coefficient_count), system.subset()
    )


@pytest.mark.parametrize("case", ["pentagon", "equilateral-a=1e-3"])
def test_subset_operator_matches_direct_subsystem_solve(case):
    if case == "pentagon":
        system = build_pipeline(ExperimentConfig(shape="pentagon", k=10.0)).matrix
    else:
        # the near-degenerate angle set of acceptance criterion 09
        m = preset_shape("equilateral").m
        angles = np.mod(1e-3 + np.arange(m) * math.pi / 6.0, TWO_PI)
        system = build_pipeline(
            ExperimentConfig(shape="equilateral", k=10.0), canonical=angles
        ).matrix
    idx = system.subset()
    sub = system.matrix[np.ix_(idx, idx)]
    for alpha in np.random.default_rng(59).uniform(0.0, TWO_PI, 20):
        d = system.right_hand_side(alpha)
        expected = np.zeros(len(d), dtype=np.complex128)
        expected[idx] = np.linalg.solve(sub, d[idx])
        got = system.coefficients(float(alpha), strategy="two")
        gap = float(np.linalg.norm(got - expected))
        assert gap <= 1e-13 * float(np.linalg.norm(expected))


def test_trig_fields_value_is_rows_times_modes():
    # the coefficient map reads the fake through rows and modes, the
    # evaluator through value; both must give the same patterns
    rng = np.random.default_rng(60)
    fields = TrigFarFields(random_trig(rng, degree) for degree in (1, 3, 2))
    thetas = np.array([0.0, 0.7, 4.1, 2.5 + 0.2j, 5.0 - 0.1j])
    for order in (0, 1, 2):
        want = fields.value(thetas, order)
        got = fields.rows(thetas, order) @ fields.modes
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [5.0, 10.0])
@pytest.mark.parametrize(
    "shape", ["square", "equilateral", "isosceles-right", "pentagon", "screen"]
)
def test_tsvd_map_matches_pseudoinverse_solve(shape, k):
    system = build_pipeline(ExperimentConfig(shape=shape, k=k)).matrix
    pinv = tsvd_pseudoinverse(system.svd(), DEFAULT_DELTA)
    for alpha in np.random.default_rng(62).uniform(0.0, TWO_PI, 20):
        expected = pinv @ system.right_hand_side(alpha)
        got = system.coefficients(float(alpha), "one", DEFAULT_DELTA)
        gap = float(np.linalg.norm(got - expected))
        assert gap <= 1e-10 * float(np.linalg.norm(expected))


def test_naive_query_makes_one_far_field_call(monkeypatch):
    # the coefficients come from the far-field row at alpha, so a point on
    # the naive branch evaluates the patterns only at theta
    pipeline = build_pipeline(ExperimentConfig(shape="pentagon", k=10.0))
    calls = []
    value = FarField.value

    def counted(self, theta, order=0):
        calls.append(np.size(theta))
        return value(self, theta, order)

    monkeypatch.setattr(FarField, "value", counted)
    for theta, alpha in ((0.4, 2.0), (3.3, 0.9)):
        calls.clear()
        result, label = pipeline.evaluator.evaluate_with_branch(theta, alpha)
        assert label == "naive"
        assert calls == [1]
