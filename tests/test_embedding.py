"""Pole geometry, weight-function bounds, and the stabilized evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfar.embedding import (
    _CONFLUENT,
    _EXACT,
    DEFAULT_CLUSTER_THRESHOLD,
    DEFAULT_NEAR_THRESHOLD,
    DoublePoleInSimpleBranch,
    EmbeddingBasis,
    PoleAtTheta,
    PoleOnContour,
    StabilizedEvaluator,
    angle_distance,
    contour_eval,
    error_constant,
    lambda_weight,
    naive_eval,
    pole_environment,
    pole_set,
    rect_contour,
    residue_eval,
    strip_half_width,
)
from helpers import (
    TrigFarFields,
    exact_coefficients,
    random_trig,
    rank_one_family,
    scalar_dispatch,
    scalar_sweep,
    true_value,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_lambda_weight_matches_closed_form(p):
    rng = np.random.default_rng(p)
    theta = rng.uniform(0.0, TWO_PI, 50)
    alpha = float(rng.uniform(0.0, TWO_PI))
    sign = -1.0 if p % 2 == 0 else 1.0
    expected = np.cos(p * theta) + sign * math.cos(p * alpha)
    assert np.allclose(lambda_weight(theta, alpha, p), expected, atol=1e-14)
    h = 1e-6
    fd1 = (
        lambda_weight(theta + h, alpha, p) - lambda_weight(theta - h, alpha, p)
    ) / (2.0 * h)
    assert np.allclose(lambda_weight(theta, alpha, p, 1), fd1, atol=1e-6 * p**3)
    fd2 = (
        lambda_weight(theta + h, alpha, p)
        - 2.0 * lambda_weight(theta, alpha, p)
        + lambda_weight(theta - h, alpha, p)
    ) / (h * h)
    assert np.allclose(lambda_weight(theta, alpha, p, 2), fd2, atol=2e-3 * p**3)


def test_lambda_weight_reciprocity_sign():
    rng = np.random.default_rng(3)
    for p in range(1, 7):
        t, a = rng.uniform(0.0, TWO_PI, 2)
        fwd = float(lambda_weight(t, a, p))
        rev = float(lambda_weight(a, t, p))
        assert abs(fwd - (-1.0) ** (p + 1) * rev) <= 1e-14


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_pole_set_is_the_shifted_lattice_pair(p):
    rng = np.random.default_rng(10 + p)
    offset = math.pi / p if p % 2 else 0.0
    for alpha in rng.uniform(0.0, TWO_PI, 20):
        zeros = pole_set(alpha, p)
        assert float(np.max(np.abs(lambda_weight(zeros, alpha, p)))) <= 1e-12
        assert np.all(np.diff(zeros) > 0)
        assert zeros[0] >= 0.0 and zeros[-1] < TWO_PI
        assert len(zeros) <= 2 * p
        lattice = np.array(
            [
                (s * alpha + offset + n * TWO_PI / p) % TWO_PI
                for s in (1.0, -1.0)
                for n in range(p)
            ]
        )
        gap = angle_distance(lattice[:, None], zeros[None, :]).min(axis=1)
        assert float(np.max(gap)) <= 1e-9


def test_pole_environment_orders_zeros():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.0, TWO_PI))
        theta = float(rng.uniform(0.0, TWO_PI))
        env = pole_environment(theta, alpha, p)
        zeros = pole_set(alpha, p)
        ordered = np.sort(angle_distance(theta, zeros))
        assert abs(abs(theta - env.theta0) - ordered[0]) <= 1e-9
        assert abs(float(lambda_weight(env.theta0, alpha, p))) <= 1e-9
        star = round(env.theta0 * p / math.pi) * math.pi / p
        assert abs(env.theta_star - star) <= 1e-12
        if env.is_double:
            assert env.theta0_prime == env.theta0
            assert abs(math.sin(p * env.theta0)) <= 1e-9
        else:
            d1 = float(angle_distance(theta, env.theta0_prime))
            assert abs(d1 - ordered[1]) <= 1e-9


def test_double_pole_detection():
    env = pole_environment(0.4, math.pi / 2.0, 2)
    assert env.is_double
    assert abs(env.theta0 - math.pi / 2.0) <= 1e-12
    assert env.theta0_prime == env.theta0

    env = pole_environment(2.0, math.pi / 2.0 + 0.05, 2)
    assert not env.is_double
    assert abs(env.theta0 - (math.pi / 2.0 + 0.05)) <= 1e-12
    assert abs(env.theta0_prime - (math.pi / 2.0 - 0.05)) <= 1e-12
    assert abs(env.theta_star - math.pi / 2.0) <= 1e-12


def test_weight_lower_bound_on_torus():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        p = int(rng.integers(1, 7))
        theta = float(rng.uniform(0.0, TWO_PI))
        alpha = float(rng.uniform(0.0, TWO_PI))
        env = pole_environment(theta, alpha, p)
        lower = (
            (p * p / 8.0)
            * float(angle_distance(theta, env.theta0))
            * float(angle_distance(theta, env.theta_star))
        )
        assert abs(float(lambda_weight(theta, alpha, p))) >= lower - 1e-12


def test_weight_grows_off_the_real_axis():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        p = int(rng.integers(1, 7))
        theta = float(rng.uniform(0.0, TWO_PI))
        alpha = float(rng.uniform(0.0, TWO_PI))
        c = float(rng.uniform(-2.0, 2.0))
        on_axis = abs(complex(lambda_weight(theta, alpha, p)))
        lifted = abs(complex(lambda_weight(theta + 1j * c, alpha, p)))
        assert lifted >= on_axis - 1e-12


def test_weight_strip_bounds():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p = int(rng.integers(1, 7))
        z = complex(rng.uniform(0.0, TWO_PI), rng.uniform(-1.5, 1.5))
        alpha = float(rng.uniform(0.0, TWO_PI))
        mag = abs(complex(lambda_weight(z, alpha, p)))
        grow = math.exp(p * abs(z.imag))
        assert mag >= (grow - 3.0) / 2.0 - 1e-12
        assert mag <= (grow + 3.0) / 2.0 + 1e-12


def test_strip_constants():
    for p in (1, 2, 3, 6):
        c = strip_half_width(p)
        assert abs(c - math.log(3.0 + math.pi**2 / 64.0) / p) <= 1e-15
        # at height c the strip lower bound equals pi^2/128 > 0
        assert abs((math.exp(p * c) - 3.0) / 2.0 - math.pi**2 / 128.0) <= 1e-12
    assert abs(error_constant(2.0) - 2.0 * error_constant(1.0)) <= 1e-12
    assert error_constant(1.0) > 0.0


def test_basis_numerator_matches_direct_sum():
    rng = np.random.default_rng(11)
    p = 3
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for theta in (0.3, 1.0 + 0.2j):
        direct = sum(
            b[m]
            * complex(lambda_weight(theta, angles[m], p))
            * complex(fields[m].value(theta))
            for m in range(2)
        )
        got = complex(basis.numerator(b, theta))
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))
    h = 1e-6
    fd = (
        complex(basis.numerator(b, 0.5 + h)) - complex(basis.numerator(b, 0.5 - h))
    ) / (2.0 * h)
    got = complex(basis.numerator(b, 0.5, 1))
    assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))


def test_naive_eval_raises_at_pole():
    rng = np.random.default_rng(12)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    alpha = 0.8
    b = exact_coefficients(T, angles, p, alpha)
    chi = float(pole_set(alpha, p)[0])
    with pytest.raises(PoleAtTheta):
        naive_eval(basis, b, chi, alpha)
    value = complex(naive_eval(basis, b, chi + 0.5, alpha))
    truth = true_value(T, chi + 0.5, alpha)
    assert abs(value - truth) <= 1e-9 * max(1.0, abs(truth))


def test_residue_eval_rejects_double_zero():
    rng = np.random.default_rng(14)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    alpha = math.pi / 2.0  # zeros coalesce at pi/2 and 3 pi/2
    b = exact_coefficients(T, angles, p, alpha)
    with pytest.raises(DoublePoleInSimpleBranch):
        residue_eval(basis, b, math.pi / 2.0 + 0.1, alpha, [math.pi / 2.0])


def test_contour_eval_rejects_pole_too_close_to_contour():
    p = 2
    alpha = 0.8
    chi = float(pole_set(alpha, p)[0])
    contour = rect_contour([chi], 1e-13)
    with pytest.raises(PoleOnContour):
        contour_eval(lambda z: np.ones_like(z), chi - 0.5, alpha, p, contour)


def test_residue_corrections_match_contour_integral():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 25:
        p = int(rng.integers(1, 7))
        T, angles, fields = rank_one_family(p, rng, degree=2)
        basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
        alpha = float(rng.uniform(0.0, TWO_PI))
        zeros = pole_set(alpha, p)
        gaps = np.diff(np.concatenate([zeros, [zeros[0] + TWO_PI]]))
        sep = float(np.min(gaps)) if len(zeros) > 1 else TWO_PI
        if sep < 0.35:
            continue
        chi = float(zeros[int(rng.integers(len(zeros)))])
        if abs(math.sin(p * chi)) < 0.3:
            continue
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        theta = chi + side * float(rng.uniform(0.1, 0.2)) * sep
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = complex(residue_eval(basis, b, theta, alpha, [chi]))
        contour = rect_contour([theta, chi], 0.2 * sep)
        integral = complex(
            contour_eval(
                lambda z: basis.numerator(b, z), theta, alpha, p, contour
            )
        )
        assert abs(direct - integral) <= 1e-9 * max(1.0, abs(direct))
        checked += 1


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_evaluator_reproduces_consistent_family(p):
    rng = np.random.default_rng(20 + p)
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    alpha = float(rng.uniform(0.0, TWO_PI))
    evaluator = StabilizedEvaluator(
        basis=basis,
        coefficient_supplier=lambda a: exact_coefficients(T, angles, p, a),
    )
    zeros = pole_set(alpha, p)
    thetas = np.concatenate(
        [
            np.linspace(0.0, TWO_PI, 701, endpoint=False),
            zeros,
            zeros + 1e-8,
            zeros + 0.005,
            zeros + 0.03,
        ]
    )
    values, labels = evaluator.evaluate_sweep(thetas, alpha)
    expected = np.array([true_value(T, th, alpha) for th in thetas])
    scale = float(np.max(np.abs(expected)))
    errors = np.abs(values - expected)
    # within the confluence gate the fit omits theta as a node, leaving a
    # remainder linear in the offset; everywhere else quadrature accuracy rules
    snapped = slice(701 + len(zeros), 701 + 2 * len(zeros))
    tol = np.full(thetas.shape, 1e-8 * scale)
    tol[snapped] = 1e-6 * scale
    assert np.all(errors <= tol)
    seen = set(labels)
    allowed = {
        "naive",
        "lhopital",
        "contour:full",
        "contour:pair",
        "residue:two",
        "residue:single",
    }
    assert seen <= allowed
    assert "naive" in seen
    assert "contour:full" in seen
    assert sum(evaluator.branch_counts.values()) == len(thetas)


def test_sweep_matches_pointwise_evaluation():
    rng = np.random.default_rng(27)
    p = 3
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    alpha = 1.1
    evaluator = StabilizedEvaluator(
        basis=basis,
        coefficient_supplier=lambda a: exact_coefficients(T, angles, p, a),
    )
    thetas = np.linspace(0.0, TWO_PI, 157)
    swept, _ = evaluator.evaluate_sweep(thetas, alpha)
    single = np.array([evaluator.evaluate(t, alpha) for t in thetas])
    scale = float(np.max(np.abs(single)))
    assert float(np.max(np.abs(swept - single))) <= 1e-12 * scale


def test_dispatch_selects_documented_branches():
    rng = np.random.default_rng(31)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    cases = [
        (math.pi / 4.0 + 1.2, math.pi / 4.0, "naive"),
        (math.pi / 4.0 + 0.1, math.pi / 4.0, "residue:single"),
        (math.pi / 2.0 + 0.10, math.pi / 2.0 + 0.03, "residue:two"),
        (math.pi / 2.0 + 0.1, math.pi / 2.0, "contour:pair"),
        (math.pi / 4.0 + 0.005, math.pi / 4.0, "contour:full"),
        (math.pi / 2.0, math.pi / 2.0, "lhopital"),
    ]
    for theta, alpha, expected_branch in cases:
        evaluator = StabilizedEvaluator(
            basis=basis,
            coefficient_supplier=lambda a: exact_coefficients(T, angles, p, a),
        )
        value, branch = evaluator.evaluate_with_branch(theta, alpha)
        assert branch == expected_branch, (theta, alpha, branch)
        truth = true_value(T, theta, alpha)
        assert abs(complex(value) - truth) <= 1e-8 * max(1.0, abs(truth))


def test_stabilization_bounds_noise_amplification():
    rng = np.random.default_rng(33)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    eps = 1e-6
    noisy = TrigFarFields(f.plus(random_trig(rng, degree=3), eps) for f in fields)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=noisy)
    alpha = 0.8
    b = exact_coefficients(T, angles, p, alpha)
    evaluator = StabilizedEvaluator(
        basis=basis, coefficient_supplier=lambda a: b
    )
    chi = float(pole_set(alpha, p)[0])
    theta = chi + 1e-7
    stabilized = complex(evaluator.evaluate(theta, alpha))
    raw = complex(naive_eval(basis, b, theta, alpha))
    truth = true_value(T, theta, alpha)
    naive_error = abs(raw - truth)
    stabilized_error = abs(stabilized - truth)
    assert naive_error >= 1e4 * eps
    assert stabilized_error <= 1e3 * eps
    assert stabilized_error * 50.0 <= naive_error


def test_coefficient_cache_and_branch_counts():
    rng = np.random.default_rng(35)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    calls = []

    def supplier(alpha):
        calls.append(alpha)
        return exact_coefficients(T, angles, p, alpha)

    evaluator = StabilizedEvaluator(basis=basis, coefficient_supplier=supplier)
    thetas = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    evaluator.evaluate_sweep(thetas, 0.9)
    evaluator.evaluate_sweep(thetas, 0.9)
    evaluator.evaluate(1.0, 0.9)
    assert len(calls) == 1
    assert sum(evaluator.branch_counts.values()) == 201


def test_sweep_follows_in_place_edits_of_thetas():
    # the bulk must use the values in thetas, not a result remembered for
    # the same array object
    rng = np.random.default_rng(37)
    p = 3
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    evaluator = StabilizedEvaluator(
        basis=basis,
        coefficient_supplier=lambda a: exact_coefficients(T, angles, p, a),
    )
    thetas = np.linspace(0.0, TWO_PI, 90, endpoint=False)
    evaluator.evaluate_sweep(thetas, 0.9)
    thetas += 0.37
    edited, _ = evaluator.evaluate_sweep(thetas, 0.9)
    fresh, _ = evaluator.evaluate_sweep(thetas.copy(), 0.9)
    assert np.array_equal(edited, fresh)


def _noisy_evaluator(p, seed, fields_type=TrigFarFields):
    """Evaluator of a rank-one family whose canonical patterns carry 1e-3
    noise, so that the numerator does not vanish at the zeros and every
    residue and contour correction counts."""
    rng = np.random.default_rng(seed)
    T, angles, fields = rank_one_family(p, rng)
    noisy = fields_type(f.plus(random_trig(rng, degree=3), 1e-3) for f in fields)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=noisy)
    return StabilizedEvaluator(
        basis=basis,
        coefficient_supplier=lambda a: exact_coefficients(T, angles, p, a),
    )


def _assert_matches_oracle(evaluator, thetas, alpha):
    """evaluate_sweep and evaluate against the scalar dispatcher: equal
    labels, values within 1e-12 of the sweep's largest value."""
    try:
        expected, expected_labels = scalar_sweep(evaluator, thetas, alpha)
    except Exception as exc:  # the array code must fail the same way
        with pytest.raises(type(exc)):
            evaluator.evaluate_sweep(thetas, alpha)
        return
    scale = float(np.max(np.abs(expected)))
    values, labels = evaluator.evaluate_sweep(thetas, alpha)
    assert labels.tolist() == expected_labels.tolist()
    assert float(np.max(np.abs(values - expected))) <= 1e-12 * scale
    for theta, want, want_label in zip(thetas, expected, expected_labels):
        value, label = evaluator.evaluate_with_branch(theta, alpha)
        assert label == want_label
        assert abs(value - want) <= 1e-12 * scale


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_dispatcher_matches_scalar_oracle(p):
    evaluator = _noisy_evaluator(p, seed=40 + p)
    rng = np.random.default_rng(p)
    offsets = np.array([0.0, 1e-14, 1e-8, 2e-5, 0.005, 0.012, 0.03, 0.1, 0.2])
    alphas = [float(rng.uniform(0.0, TWO_PI)), math.pi / p, math.pi / p + 3e-6,
              math.pi / p + 0.004, math.pi / p + 0.05]
    for alpha in alphas:
        zeros = pole_set(alpha, p)
        thetas = np.concatenate(
            [
                np.linspace(0.0, TWO_PI, 60, endpoint=False),
                (zeros[:, None] + offsets).ravel(),
                (zeros[:, None] - offsets[1:]).ravel(),
            ]
        )
        _assert_matches_oracle(evaluator, thetas, alpha)


_EVALUATORS = {p: _noisy_evaluator(p, seed=60 + p) for p in (2, 3, 5)}
_GATES = (
    DEFAULT_NEAR_THRESHOLD,
    DEFAULT_CLUSTER_THRESHOLD,
    _CONFLUENT,
    _EXACT,
    0.0,
)


def _nudge(x, ulps):
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, direction)
    return x


@settings(max_examples=150)
@given(
    p=st.sampled_from(sorted(_EVALUATORS)),
    n=st.integers(0, 9),
    pair_gap=st.sampled_from((None, 0.0) + _GATES[:3]),
    alpha_ulps=st.integers(-3, 3),
    generic_alpha=st.floats(0.0, TWO_PI),
    zero=st.integers(0, 9),
    gate=st.sampled_from(_GATES),
    side=st.sampled_from((-1.0, 1.0)),
    ulps=st.integers(-3, 3),
)
def test_dispatcher_matches_oracle_at_branch_boundaries(
    p, n, pair_gap, alpha_ulps, generic_alpha, zero, gate, side, ulps
):
    # alpha at a coalescence point n pi/p, or half a gate away from one so
    # that the two zeros there sit a gate apart; theta a gate away from a
    # zero; both a few ulps either side
    if pair_gap is None:
        alpha = generic_alpha
    else:
        alpha = _nudge((n % p) * math.pi / p + 0.5 * pair_gap, alpha_ulps)
    zeros = pole_set(alpha, p)
    theta = _nudge(float(zeros[zero % len(zeros)]) + side * gate, ulps)
    thetas = np.concatenate([[theta], np.linspace(0.0, TWO_PI, 16, endpoint=False)])
    _assert_matches_oracle(_EVALUATORS[p], thetas, alpha)


def test_far_field_calls_per_sweep():
    p = 3
    sizes = []

    class Counting(TrigFarFields):
        def value(self, theta, order=0):
            sizes.append(np.size(theta))
            return super().value(theta, order)

    evaluator = _noisy_evaluator(p, seed=45, fields_type=Counting)
    grid = np.linspace(0.0, TWO_PI, 120, endpoint=False)
    alphas = [0.3, math.pi / p, math.pi / p + 1e-6, 1.7, 2.0 * math.pi / p]
    per_sweep = []
    for alpha in alphas:
        sizes.clear()
        evaluator.evaluate_sweep(grid.copy(), alpha)  # equal content, new array
        per_sweep.append(list(sizes))
    grid_calls = [n for calls in per_sweep for n in calls if n == len(grid)]
    assert len(grid_calls) == 1
    for calls in per_sweep:
        further = [n for n in calls if n != len(grid)]
        # one call per derivative order on the zeros the near points use;
        # a zero near theta = 0 = 2 pi can enter through two
        # representatives 2 pi apart
        assert 1 <= len(further) <= 3
        assert max(further) <= 2 * p + 2

    edited = grid.copy()
    edited += 0.01
    sizes.clear()
    evaluator.evaluate_sweep(edited, alphas[0])
    assert sizes.count(len(grid)) == 1

    # point queries leave the kept grid alone
    evaluator.evaluate(0.5, alphas[0])
    evaluator.evaluate_with_branch(float(edited[3]), alphas[1])
    sizes.clear()
    evaluator.evaluate_sweep(edited.copy(), alphas[2])
    assert sizes.count(len(grid)) == 0
