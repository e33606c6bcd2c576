"""Pole geometry, weight-function bounds, and the stabilized evaluator."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfar.bem import FarField
from embedfar.cli import (
    ExperimentConfig,
    build_pipeline,
    output_error,
    reference_system,
)
from embedfar.embedding import (
    _CONFLUENT,
    DEFAULT_CLUSTER_THRESHOLD,
    DEFAULT_CONTOUR_ORDER,
    DEFAULT_NEAR_THRESHOLD,
    DoublePoleInSimpleBranch,
    EmbeddingBasis,
    PoleAtTheta,
    PoleOnContour,
    StabilizedEvaluator,
    _angle,
    _angles,
    _fit_quadratic,
    contour_eval,
    lambda_weight,
    naive_eval,
    pole_environment,
    rect_contour,
)
from embedfar.geometry import PRESET_NAMES
from embedfar.specialfun import gauss_legendre
from helpers import (
    BRANCH_LABELS,
    TrigFarFields,
    angle_distance,
    closed_form,
    error_constant,
    exact_coefficients,
    exact_evaluator,
    exact_operator,
    pole_set,
    random_trig,
    rank_one_family,
    residue_eval,
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
        th0, th1 = pole_environment(theta, alpha, p)
        zeros = pole_set(alpha, p)
        ordered = np.sort(angle_distance(theta, zeros))
        assert abs(abs(theta - th0) - ordered[0]) <= 1e-9
        assert abs(float(lambda_weight(th0, alpha, p))) <= 1e-9
        # the coalescence point n pi / p nearest theta0
        star = round(th0 * p / math.pi) * math.pi / p
        if abs(th0 - star) <= 1e-12:
            # a double zero: pole_set lists it once
            assert abs(th1 - th0) <= 2e-12
            assert abs(math.sin(p * th0)) <= 1e-9
        else:
            d1 = float(angle_distance(theta, th1))
            assert abs(d1 - ordered[1]) <= 1e-9


def test_double_pole_detection():
    # a double zero is a pair at distance zero: theta0' lands on theta0
    th0, th1 = pole_environment(0.4, math.pi / 2.0, 2)
    assert abs(th0 - math.pi / 2.0) <= 1e-12
    assert th1 == th0

    # just off it, the pair splits into the two simple zeros
    th0, th1 = pole_environment(2.0, math.pi / 2.0 + 0.05, 2)
    assert abs(th0 - (math.pi / 2.0 + 0.05)) <= 1e-12
    assert abs(th1 - (math.pi / 2.0 - 0.05)) <= 1e-12


def test_weight_lower_bound_on_torus():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        p = int(rng.integers(1, 7))
        theta = float(rng.uniform(0.0, TWO_PI))
        alpha = float(rng.uniform(0.0, TWO_PI))
        th0, _ = pole_environment(theta, alpha, p)
        star = round(th0 * p / math.pi) * math.pi / p
        lower = (
            (p * p / 8.0)
            * float(angle_distance(theta, th0))
            * float(angle_distance(theta, star))
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
        # the strip half-width log(3 + pi^2/64)/p, where the lower bound
        # (e^(p c) - 3)/2 on |Lambda| equals pi^2/128 > 0
        c = math.log(3.0 + math.pi**2 / 64.0) / p
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
    # the second derivative checks the Leibniz rule's Lambda'' N and
    # 2 Lambda' N' terms against the values alone
    h = 1e-4
    fd2 = (
        complex(basis.numerator(b, 0.5 + h))
        - 2.0 * complex(basis.numerator(b, 0.5))
        + complex(basis.numerator(b, 0.5 - h))
    ) / (h * h)
    got = complex(basis.numerator(b, 0.5, 2))
    assert abs(got - fd2) <= 1e-6 * max(1.0, abs(fd2))


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


# (theta, theta0, theta0') for each form of the near-pole fit: three
# distinct nodes, the two merged forms (theta0, theta0, x), and the Taylor
# polynomial at theta0; a double zero is theta0' = theta0
_FIT_CASES = {
    "distinct": (0.31, 0.35, 0.42),
    "theta-on-theta0": (0.35 + 4e-6, 0.35, 0.42),
    "theta0prime-on-theta0": (0.31, 0.35, 0.35 + 4e-6),
    "double-zero": (0.31, 0.35, 0.35),
    "theta-on-double-zero": (0.35 + 4e-6, 0.35, 0.35),
}

_complex_values = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def _fit(f, theta, th0, th1):
    """_fit_quadratic from f(z, order) at the nodes, as the evaluator
    supplies it."""
    at_th0 = [complex(f(th0, j)) for j in range(3)]
    return _fit_quadratic(
        theta, th0, th1, complex(f(theta, 0)), at_th0, complex(f(th1, 0))
    )


@pytest.mark.parametrize("case", sorted(_FIT_CASES))
@settings(max_examples=40)
@given(coeffs=st.lists(_complex_values, min_size=3, max_size=3))
def test_fit_quadratic_reproduces_quadratics(case, coeffs):
    a0, a1, a2 = coeffs

    def f(z, order):
        return (a0 + a1 * z + a2 * z * z, a1 + 2.0 * a2 * z, 2.0 * a2)[order]

    theta, th0, th1 = _FIT_CASES[case]
    q = _fit(f, theta, th0, th1)
    scale = max(1.0, abs(a0) + abs(a1) + abs(a2))
    for z in (theta, th0, th1, 0.36 + 0.01j, 0.3 - 0.02j, 0.5):
        assert abs(q(z) - f(z, 0)) <= 1e-11 * scale


@pytest.mark.parametrize("moved", ["theta", "theta0prime"])
def test_fit_quadratic_is_continuous_at_confluence_gate(moved):
    # a numerator of the bandwidth of a far field at k = 10; just inside
    # the gate a node merges into a derivative condition at theta0, just
    # outside it stays a node of its own, and on the contour the two fits
    # agree within 1e-6 of the data scale
    field = random_trig(np.random.default_rng(0), degree=10)
    scale = float(np.max(np.abs(field.value(np.linspace(0.0, TWO_PI, 400)))))
    th0 = 0.7
    fits = []
    for gap in (_CONFLUENT * (1.0 - 1e-9), _CONFLUENT * (1.0 + 1e-9)):
        if moved == "theta":
            theta, th1 = th0 + gap, th0 + 0.006
        else:
            theta, th1 = th0 - 0.004, th0 + gap
        fits.append(_fit(field.value, theta, th0, th1))
    contour = rect_contour([theta, th0, th1], DEFAULT_CLUSTER_THRESHOLD)
    nodes, _ = contour.quadrature(DEFAULT_CONTOUR_ORDER)
    jump = float(np.max(np.abs(fits[0](nodes) - fits[1](nodes))))
    assert jump <= 1e-6 * scale


def _corner_quadrature(contour, order):
    """The rule side by side from the corners: Gauss nodes on each side
    between consecutive corners, counterclockwise."""
    gx, gw = gauss_legendre(order)
    low, high = -1j * contour.half_height, 1j * contour.half_height
    corners = [contour.left + low, contour.right + low,
               contour.right + high, contour.left + high]
    nodes, weights = [], []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * gx)
        weights.append(0.5 * (b - a) * gw)
    return np.concatenate(nodes), np.concatenate(weights)


@settings(max_examples=60)
@given(
    points=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3),
    clearance=st.sampled_from((1e-4, DEFAULT_CLUSTER_THRESHOLD, 0.2)),
    order=st.sampled_from((1, 4, DEFAULT_CONTOUR_ORDER, 60)),
)
def test_rectangle_rule_is_the_corner_rule(points, clearance, order):
    contour = rect_contour(points, clearance)
    nodes, weights = contour.quadrature(order)
    want_nodes, want_weights = _corner_quadrature(contour, order)
    size = float(np.max(np.abs(want_nodes)))
    assert float(np.max(np.abs(nodes - want_nodes))) <= 1e-15 * size
    assert float(np.max(np.abs(weights - want_weights))) <= 1e-15 * np.max(
        np.abs(want_weights)
    )


@pytest.mark.parametrize("spread", [0.0, 0.5, 2.0])
def test_rectangle_rule_counts_the_poles_inside(spread):
    # (1 / 2 pi i) times the integral of dz / (z - a) is 1 for a inside the
    # rectangle and 0 outside; a stays a quarter of a side's length or more
    # from each side
    h = DEFAULT_CLUSTER_THRESHOLD
    contour = rect_contour([1.3, 1.3 + spread * h], h)
    nodes, weights = contour.quadrature(DEFAULT_CONTOUR_ORDER)
    centre = 0.5 * (contour.left + contour.right)
    for a, count in (
        (centre, 1.0),
        (contour.left + h, 1.0),
        (contour.right + 0.5 * h, 0.0),
        (contour.left - 2.0 * h, 0.0),
        (centre - (2.0 + 0.5 * spread) * 1j * h, 0.0),
    ):
        integral = np.sum(weights / (nodes - a)) / (2j * math.pi)
        assert abs(integral - count) <= 1e-8, a


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
    evaluator = exact_evaluator(T, angles, p, basis)
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
    assert seen <= BRANCH_LABELS
    assert "naive" in seen
    assert "contour:full" in seen
    assert sum(evaluator.branch_counts.values()) == len(thetas)


def test_sweep_matches_pointwise_evaluation():
    rng = np.random.default_rng(27)
    p = 3
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    alpha = 1.1
    evaluator = exact_evaluator(T, angles, p, basis)
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
        (math.pi / 2.0, math.pi / 2.0, "contour:full"),
    ]
    for theta, alpha, expected_branch in cases:
        evaluator = exact_evaluator(T, angles, p, basis)
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
    evaluator = exact_evaluator(T, angles, p, basis)
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


# (label, alpha, theta - c) about a point c where two zeros coalesce: the
# zeros sit at c +- alpha, so alpha = 0 makes a double zero, 0.002 a
# clustered simple pair, 0.05 a pair within the near threshold and 0.3 two
# isolated zeros
_BRANCH_CASES = (
    ("naive", 0.3, 0.5),
    ("residue:single", 0.3, 0.4),
    ("residue:two", 0.05, 0.1),
    ("contour:pair", 0.0, 0.016),
    ("contour:pair", 0.0, 0.04),
    ("contour:pair", 0.0, -0.1),
    ("contour:pair", 0.002, 0.04),
    ("contour:pair", 0.002, -0.1),
    ("contour:full", 0.3, 0.305),
    ("contour:full", 0.05, 0.055),
    ("contour:full", 0.002, 0.012),
    ("contour:full", 0.0, 0.005),
    ("contour:full", 0.0, 2e-4),
    ("contour:full", 0.0, 0.0),
)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_every_branch_matches_closed_form_on_noisy_data(p):
    # with noisy canonical data the numerator does not vanish at the zeros,
    # so every correction counts; each branch must give N / Lambda minus
    # the principal parts at the zeros it corrects for, within 1% of the
    # numerator's data error nu (the quadratic fit at 2e-4 from a double
    # zero reaches 0.7%).  A correction of the wrong sign is off by twice a
    # principal part, 4 n0 / (p d)^2 at a distance d from a double zero;
    # on the double zero, a regular part without its p^2 n0 / 6 term by
    # n0 / (6 cos p chi)
    eps = 1e-6
    rng = np.random.default_rng(70 + p)
    T, angles, fields = rank_one_family(p, rng)
    noisy = TrigFarFields(f.plus(random_trig(rng, degree=3), eps) for f in fields)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=noisy)
    exact = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    evaluator = exact_evaluator(T, angles, p, basis)
    grid = np.linspace(0.0, TWO_PI, 200, endpoint=False)
    c = math.pi / p if p % 2 else 0.0
    for alpha in sorted({alpha for _, alpha, _ in _BRANCH_CASES}):
        cases = [(label, c + d) for label, a, d in _BRANCH_CASES if a == alpha]
        b = evaluator.coefficients(alpha)
        nu = float(np.max(np.abs(basis.numerator(b, grid) - exact.numerator(b, grid))))
        thetas = np.array([theta for _, theta in cases])
        swept, swept_labels = evaluator.evaluate_sweep(thetas, alpha)
        for (label, theta), value, swept_label in zip(cases, swept, swept_labels):
            want = closed_form(evaluator, theta, alpha)
            point, point_label = evaluator.evaluate_with_branch(theta, alpha)
            assert point_label == swept_label == label, (alpha, theta)
            assert abs(point - want) <= 0.01 * nu, (label, alpha, theta)
            assert abs(value - want) <= 0.01 * nu, (label, alpha, theta)


def test_coefficient_cache_and_branch_counts():
    rng = np.random.default_rng(35)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    operator = exact_operator(T, angles, p, basis)
    built, read = [], []

    class CountedOperator:
        # numpy defers row @ K to __rmatmul__, which records the row
        __array_ufunc__ = None

        def __rmatmul__(self, row):
            read.append(row.copy())
            return row @ operator

    def build():
        built.append(True)
        return CountedOperator()

    evaluator = StabilizedEvaluator(basis=basis, build_operator=build)
    assert built == []
    thetas = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    evaluator.evaluate_sweep(thetas, 0.9)
    evaluator.evaluate_sweep(thetas, 0.9)
    evaluator.evaluate(1.0, 0.9)
    # K is built once, on the first evaluation; each sweep or point then
    # multiplies the row at alpha into it afresh: the evaluator keeps no
    # per-alpha state
    assert built == [True]
    row = basis.hat.rows(0.9)[0]
    assert len(read) == 3
    assert all(np.array_equal(r, row) for r in read)
    assert sum(evaluator.branch_counts.values()) == 201


def test_evaluator_state_does_not_grow_with_alpha():
    rng = np.random.default_rng(36)
    p = 3
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    evaluator = exact_evaluator(T, angles, p, basis)
    thetas = np.linspace(0.0, TWO_PI, 40, endpoint=False)

    def state():
        return {
            name: (id(value), len(value) if hasattr(value, "__len__") else None)
            for name, value in vars(evaluator).items()
            if name != "branch_counts"
        }

    evaluator.evaluate_sweep(thetas, 0.1)
    before = state()
    for alpha in rng.uniform(0.0, TWO_PI, 500):
        evaluator.evaluate_sweep(thetas, float(alpha))
        evaluator.evaluate(1.0, float(alpha))
    assert state() == before


def test_sweep_follows_in_place_edits_of_thetas():
    # the bulk must use the values in thetas, not a result remembered for
    # the same array object
    rng = np.random.default_rng(37)
    p = 3
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    evaluator = exact_evaluator(T, angles, p, basis)
    thetas = np.linspace(0.0, TWO_PI, 90, endpoint=False)
    evaluator.evaluate_sweep(thetas, 0.9)
    thetas += 0.37
    edited, _ = evaluator.evaluate_sweep(thetas, 0.9)
    fresh, _ = evaluator.evaluate_sweep(thetas.copy(), 0.9)
    assert np.array_equal(edited, fresh)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluator_rejects_non_finite_angles(bad):
    # a NaN theta used to come back as NaN labelled naive, and a NaN alpha
    # as scipy's bare complaint about infs or NaNs
    rng = np.random.default_rng(38)
    p = 2
    T, angles, fields = rank_one_family(p, rng)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
    operator = exact_operator(T, angles, p, basis)
    calls = []

    def build():
        calls.append(True)
        return operator

    evaluator = StabilizedEvaluator(basis=basis, build_operator=build)
    thetas = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    with_bad = thetas.copy()
    with_bad[7] = bad
    attempts = [
        lambda: evaluator.evaluate(bad, 0.9),
        lambda: evaluator.evaluate(1.0, bad),
        lambda: evaluator.evaluate_with_branch(bad, 0.9),
        lambda: evaluator.evaluate_with_branch(1.0, bad),
        lambda: evaluator.evaluate_sweep(with_bad, 0.9),
        lambda: evaluator.evaluate_sweep(thetas, bad),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError, match="angles must be finite"):
            attempt()
    assert calls == []
    assert sum(evaluator.branch_counts.values()) == 0


@pytest.mark.parametrize("shape", ["square", "pentagon"])
def test_evaluator_reduces_angles_far_outside_the_circle(shape):
    # alpha = 1e16 used to read its rows at n alpha and its weight at p alpha,
    # rounded by more than a turn, and so gave wrong values without a
    # complaint; every angle must read as its exact reduction mod 2 pi
    evaluator = build_pipeline(ExperimentConfig(shape=shape, k=10.0)).evaluator
    thetas = np.linspace(0.0, TWO_PI, 97, endpoint=False)
    scale = float(np.max(np.abs(evaluator.evaluate_sweep(thetas, 0.9)[0])))
    for angle in (7.0, -0.5, -1e10, 1e16, 1e300):
        with mpmath.workdps(400):
            x = mpmath.mpf(angle)
            reduced = float(x - 2 * mpmath.pi * mpmath.floor(x / (2 * mpmath.pi)))
        # as alpha of a sweep, of points and of the coefficients
        want, want_labels = evaluator.evaluate_sweep(thetas, reduced)
        values, labels = evaluator.evaluate_sweep(thetas, angle)
        assert labels.tolist() == want_labels.tolist()
        assert float(np.max(np.abs(values - want))) <= 1e-12 * scale
        for theta in thetas[::8]:
            value, label = evaluator.evaluate_with_branch(theta, angle)
            want_value, want_label = evaluator.evaluate_with_branch(theta, reduced)
            assert label == want_label
            assert abs(value - want_value) <= 1e-12 * scale
        b = evaluator.coefficients(reduced)
        defect = np.max(np.abs(evaluator.coefficients(angle) - b))
        assert defect <= 1e-12 * np.max(np.abs(b))
        # as theta of a sweep and of a point
        want, want_labels = evaluator.evaluate_sweep(np.array([reduced, 1.0]), 0.9)
        values, labels = evaluator.evaluate_sweep(np.array([angle, 1.0]), 0.9)
        assert labels.tolist() == want_labels.tolist()
        assert float(np.max(np.abs(values - want))) <= 1e-12 * scale
        value, label = evaluator.evaluate_with_branch(angle, 0.9)
        assert label == want_labels[0]
        assert abs(value - want[0]) <= 1e-12 * scale
    # angles within two turns of zero are used as given, bit for bit
    assert _angles(thetas) is thetas
    assert all(_angle(x) == x for x in (-12.5, -0.5, 0.0, 7.0, 12.5))


def _noisy_evaluator(p, seed, fields_type=TrigFarFields):
    """Evaluator of a rank-one family whose canonical patterns carry 1e-3
    noise, so that the numerator does not vanish at the zeros and every
    residue and contour correction counts."""
    rng = np.random.default_rng(seed)
    T, angles, fields = rank_one_family(p, rng)
    noisy = fields_type(f.plus(random_trig(rng, degree=3), 1e-3) for f in fields)
    basis = EmbeddingBasis(p=p, angles=angles, far_fields=noisy)
    return exact_evaluator(T, angles, p, basis)


def _assert_matches_oracle(evaluator, thetas, alpha):
    """evaluate_sweep and evaluate against the scalar dispatcher: equal
    labels, values within 1e-12 of the sweep's largest value.  The
    sweep's contour values, integrated together in one pass, stay within
    1e-14 of the oracle's one contour_eval call per point."""
    try:
        expected, expected_labels = scalar_sweep(evaluator, thetas, alpha)
    except Exception as exc:  # the array code must fail the same way
        with pytest.raises(type(exc)):
            evaluator.evaluate_sweep(thetas, alpha)
        return
    scale = float(np.max(np.abs(expected)))
    values, labels = evaluator.evaluate_sweep(thetas, alpha)
    assert labels.tolist() == expected_labels.tolist()
    errors = np.abs(values - expected)
    assert float(np.max(errors)) <= 1e-12 * scale
    contour = np.array([label.startswith("contour") for label in labels])
    assert float(np.max(errors[contour], initial=0.0)) <= 1e-14 * scale
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


_EVALUATORS = {p: _noisy_evaluator(p, seed=60 + p) for p in (1, 2, 3, 5)}
_H, _h = DEFAULT_NEAR_THRESHOLD, DEFAULT_CLUSTER_THRESHOLD
# gaps between the two zeros about a coalescence point (None: a generic
# alpha) and distances of theta from a zero, drawn independently.  The
# dispatcher's thresholds sit at these pairs among others: the near, the
# cluster and the confluence gates at an isolated zero (0.6, H / h /
# _CONFLUENT); a near-exact hit of a double zero (0, 1e-13), the zero itself
# (0, 0) and the reach of the rectangle round it, its clearance plus half
# (0, 1.5 h); the rectangle round a clustered pair (0.004, 1.5 h); theta0'
# pulled into the contour round theta and theta0 (2 h, 1.5 h); pair gaps
# on the near, cluster and confluence gates with theta off the gates (H or
# h, 0.05; _CONFLUENT, 0.003)
_PAIR_GAPS = (None, 0.6, 0.0, 0.004, 2.0 * _h, _H, _h, _CONFLUENT)
_DISTANCES = (_H, _h, _CONFLUENT, 1e-13, 0.0, 1.5 * _h, 0.05, 0.003)


def _nudge(x, ulps):
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, direction)
    return x


@settings(max_examples=400)
@given(
    p=st.sampled_from(sorted(_EVALUATORS)),
    n=st.integers(0, 9),
    pair_gap=st.sampled_from(_PAIR_GAPS),
    alpha_ulps=st.integers(-8, 8),
    generic_alpha=st.floats(0.0, TWO_PI),
    zero=st.integers(0, 9),
    distance=st.sampled_from(_DISTANCES),
    side=st.sampled_from((-1.0, 1.0)),
    ulps=st.integers(-8, 8),
)
def test_dispatcher_matches_oracle_at_branch_boundaries(
    p, n, pair_gap, alpha_ulps, generic_alpha, zero, distance, side, ulps
):
    # alpha at a coalescence point n pi / p plus half a pair gap, so that
    # the two zeros there sit the gap apart; theta the distance from any
    # zero, on either side; both a few ulps either side.  The one-point
    # path, the sweep and the scalar oracle must agree on labels and values
    if pair_gap is None:
        alpha = generic_alpha
    else:
        alpha = _nudge((n % p) * math.pi / p + 0.5 * pair_gap, alpha_ulps)
    zeros = pole_set(alpha, p)
    theta = _nudge(float(zeros[zero % len(zeros)]) + side * distance, ulps)
    thetas = np.concatenate([[theta], np.linspace(0.0, TWO_PI, 16, endpoint=False)])
    _assert_matches_oracle(_EVALUATORS[p], thetas, alpha)


@pytest.mark.parametrize("alpha", [0.7168146928204135, 0.5092310721657348])
def test_value_midway_between_two_zeros_is_continuous_in_alpha(alpha):
    # theta = 0 lies midway between two zeros of Lambda(., alpha), 0.177
    # and 0.238 apart, so rounding picks which of them is theta0; both lie
    # within big_h of theta and are corrected whichever it picks, so
    # moving alpha by a few ulps moves the value by rounding alone (it
    # jumped by 3.8e-2 and 2.8e-2 of the peak with only theta0 corrected)
    evaluator = _noisy_evaluator(5, seed=75)
    grid = np.linspace(0.0, TWO_PI, 400, endpoint=False)
    peak = float(np.max(np.abs(evaluator.evaluate_sweep(grid, alpha)[0])))
    results = [
        evaluator.evaluate_with_branch(0.0, _nudge(alpha, ulps)) for ulps in range(-3, 4)
    ]
    assert {label for _, label in results} == {"residue:two"}
    values = np.array([complex(value) for value, _ in results])
    assert float(np.max(np.abs(values - values[3]))) <= 1e-12 * peak


@settings(max_examples=200)
@given(
    p=st.sampled_from(sorted(_EVALUATORS)),
    n=st.integers(0, 9),
    gap=st.floats(_H, 1.99 * _H),
    position=st.floats(0.01, 0.99),
)
def test_both_zeros_within_big_h_are_corrected(p, n, gap, position):
    # alpha puts two zeros the gap apart, big_h or more, about the
    # coalescence point n pi / p; theta lies between them, within big_h of
    # both, at the position across that window, so rounding may pick
    # either as theta0.  At alpha and one ulp above it, the one-point path,
    # the sweep and the scalar oracle agree on labels and values, and
    # the value moves by rounding alone: both zeros are corrected
    # whichever is theta0
    alpha = (n % p) * math.pi / p + 0.5 * gap
    zeros = pole_set(alpha, p)
    zeros = np.append(zeros, zeros[0] + TWO_PI)
    i = int(np.argmin(np.diff(zeros)))
    left, right = zeros[i + 1] - _H, zeros[i] + _H
    theta = float(left + position * (right - left))
    thetas = np.concatenate([[theta], np.linspace(0.0, TWO_PI, 16, endpoint=False)])
    evaluator = _EVALUATORS[p]
    results = []
    for a in (alpha, math.nextafter(alpha, math.inf)):
        _assert_matches_oracle(evaluator, thetas, a)
        results.append(evaluator.evaluate_with_branch(theta, a))
    scale = float(np.max(np.abs(evaluator.evaluate_sweep(thetas, alpha)[0])))
    (before, label), (after, label_after) = results
    assert label == label_after
    assert abs(after - before) <= 1e-12 * scale


def _far_field_reads(monkeypatch):
    """Records every FarField row evaluation as (angles, order) and every
    FarField.value call as ("value", theta), and fails a sweep."""
    calls = []
    rows_through, value = FarField.rows_through, FarField.value

    def counted_rows(self, theta, order):
        calls.append((list(theta), order))
        return rows_through(self, theta, order)

    def counted_value(self, theta, order=0):
        calls.append(("value", theta))
        return value(self, theta, order)

    def no_sweep(*args):
        raise AssertionError("a one-point query ran as a sweep")

    monkeypatch.setattr(FarField, "rows_through", counted_rows)
    monkeypatch.setattr(FarField, "value", counted_value)
    monkeypatch.setattr(StabilizedEvaluator, "evaluate_sweep", no_sweep)
    return calls


def test_naive_query_reads_one_row_per_angle(monkeypatch):
    # a one-point query away from every zero makes one row evaluation, at
    # alpha for the coefficients and at theta for the numerator, and no
    # far-field value call; it never runs as a sweep
    pipeline = build_pipeline(ExperimentConfig(shape="square", k=5.0))
    theta, alpha = 2.0, 0.6
    th0, _ = pole_environment(theta, alpha, pipeline.shape.p)
    assert abs(theta - th0) >= DEFAULT_NEAR_THRESHOLD
    calls = _far_field_reads(monkeypatch)
    _, label = pipeline.evaluator.evaluate_with_branch(theta, alpha)
    assert label == "naive"
    assert calls == [([alpha, theta], 0)]


@pytest.mark.parametrize(
    "offset, label, order",
    [(0.05, "residue:single", 0), (0.003, "contour:full", 0),
     (1e-6, "contour:full", 1), (0.0, "contour:full", 1)],
)
def test_near_query_reads_one_row_evaluation(monkeypatch, offset, label, order):
    # a point within big_h of a zero also makes one row evaluation: at
    # alpha, theta, theta0 and theta0', as a sweep reads them, through the
    # derivative order its quadratic fit needs
    pipeline = build_pipeline(ExperimentConfig(shape="square", k=5.0))
    alpha = 0.6
    theta = alpha + offset
    th0, th1 = pole_environment(theta, alpha, pipeline.shape.p)
    calls = _far_field_reads(monkeypatch)
    _, got = pipeline.evaluator.evaluate_with_branch(theta, alpha)
    assert got == label
    assert calls == [([alpha, theta, th0, th1], order)]


def test_query_matches_oracle_on_the_queries_workload():
    # the benchmark's 2,000 seeded pentagon queries at k = 10 (perfbench
    # workload `queries`, seed 1): labels equal to the scalar oracle's and
    # values within 1e-12 of the scale, the largest value of the queries
    pipeline = build_pipeline(ExperimentConfig(shape="pentagon", k=10.0, seed=1))
    rng = np.random.default_rng(1)
    thetas = rng.uniform(0.0, TWO_PI, 2000)
    alphas = rng.uniform(0.0, TWO_PI, 2000)
    evaluator = pipeline.evaluator
    got, want = [], []
    for theta, alpha in zip(thetas, alphas):
        value, label = evaluator.evaluate_with_branch(theta, alpha)
        expected, expected_label = scalar_dispatch(evaluator, theta, alpha)
        assert label == expected_label, (theta, alpha)
        got.append(complex(value))
        want.append(complex(expected))
    got, want = np.array(got), np.array(want)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale
    labels = set(evaluator.branch_counts)
    assert {"naive", "residue:single", "residue:two", "contour:full"} <= labels


@pytest.mark.parametrize("shape", ["pentagon", "square"])
def test_sweep_query_and_coefficients_read_one_b(monkeypatch, shape):
    # b(alpha) has one reader, _read: the b a sweep reads, the b each
    # one-point query reads, through order 0 or 1, and
    # evaluator.coefficients(alpha) are bitwise equal
    evaluator = build_pipeline(ExperimentConfig(shape=shape, k=10.0)).evaluator
    p = evaluator.basis.p
    read, seen = StabilizedEvaluator._read, []

    def recorded(self, alpha, points, order):
        b, at = read(self, alpha, points, order)
        seen.append((alpha, order, b.tobytes()))
        return b, at

    monkeypatch.setattr(StabilizedEvaluator, "_read", recorded)
    grid = np.linspace(0.0, TWO_PI, 200, endpoint=False)
    for alpha in (0.3, 1.1, 2.5, 4.0):
        th0, _ = pole_environment(2.0, alpha, p)
        thetas = [th0 + 0.5, th0 + 0.05, th0 + 0.003, th0]
        seen.clear()
        evaluator.evaluate_sweep(np.append(grid, thetas), alpha)
        for theta in thetas:
            evaluator.evaluate_with_branch(theta, alpha)
        b = evaluator.coefficients(alpha).tobytes()
        assert len(seen) == len(thetas) + 2
        assert {a for a, _, _ in seen} == {alpha}
        assert {order for _, order, _ in seen} >= {0, 1}
        assert [got for _, _, got in seen] == [b] * len(seen)


def test_far_field_calls_per_sweep():
    # a sweep reads the weighted patterns through one row evaluation for
    # the grid when it is new and one more, its read, at alpha and at every
    # zero its near points can read, through every order they need
    p = 3
    sizes = []

    class Counting(TrigFarFields):
        def rows_through(self, theta, order):
            sizes.append((np.size(theta), np.ravel(theta)[0]))
            return super().rows_through(theta, order)

    evaluator = _noisy_evaluator(p, seed=45, fields_type=Counting)
    grid = np.linspace(0.0, TWO_PI, 120, endpoint=False)
    alphas = [0.3, math.pi / p, math.pi / p + 1e-6, 1.7, 2.0 * math.pi / p]
    per_sweep = []
    for alpha in alphas:
        sizes.clear()
        evaluator.evaluate_sweep(grid.copy(), alpha)  # equal content, new array
        per_sweep.append(list(sizes))
    grid_calls = [n for calls in per_sweep for n, _ in calls if n == len(grid)]
    assert len(grid_calls) == 1
    for alpha, calls in zip(alphas, per_sweep):
        further = [(n, first) for n, first in calls if n != len(grid)]
        # alpha first, then the zeros; a zero near theta = 0 = 2 pi can
        # enter through two representatives 2 pi apart
        assert len(further) == 1
        n, first = further[0]
        assert first == alpha
        assert 2 <= n <= 2 * p + 3

    edited = grid.copy()
    edited += 0.01
    sizes.clear()
    evaluator.evaluate_sweep(edited, alphas[0])
    assert [n for n, _ in sizes].count(len(grid)) == 1

    # point queries leave the kept grid alone
    evaluator.evaluate(0.5, alphas[0])
    evaluator.evaluate_with_branch(float(edited[3]), alphas[1])
    sizes.clear()
    evaluator.evaluate_sweep(edited.copy(), alphas[2])
    assert [n for n, _ in sizes].count(len(grid)) == 0


def test_one_contour_pass_per_sweep(monkeypatch):
    # every rectangle of a sweep goes to contour_eval in one call, one row
    # per contour point; a one-point query passes its single rectangle
    p = 3
    rows = []

    def counting(rho, theta, *args):
        rows.append(np.size(theta))
        return contour_eval(rho, theta, *args)

    monkeypatch.setattr("embedfar.embedding.contour_eval", counting)
    evaluator = _noisy_evaluator(p, seed=46)
    grid = np.linspace(0.0, TWO_PI, 120, endpoint=False)
    alphas = [0.3, math.pi / p, math.pi / p + 1e-6, math.pi / p + 0.004, 1.7]
    gathered = []
    for alpha in alphas:
        zeros = pole_set(alpha, p)
        thetas = np.concatenate([grid, zeros + 0.003, zeros - 0.05])
        rows.clear()
        _, labels = evaluator.evaluate_sweep(thetas, alpha)
        contour_points = sum(label.startswith("contour") for label in labels)
        assert len(rows) <= 1
        assert sum(rows) == contour_points
        gathered += rows
    assert max(gathered) >= 2 * p
    rows.clear()
    _, label = evaluator.evaluate_with_branch(float(pole_set(0.3, p)[0]) + 0.003, 0.3)
    assert label == "contour:full"
    assert rows == [1]


def test_sweep_raises_when_a_rectangle_touches_a_pole():
    # a clearance of 1e-13 puts the rectangle round theta on a simple zero
    # within 1e-13 of the zero and of theta
    noisy = _noisy_evaluator(2, seed=47)
    evaluator = StabilizedEvaluator(
        basis=noisy.basis, build_operator=noisy.build_operator, cluster_threshold=1e-13
    )
    alpha = 0.8
    chi = float(pole_set(alpha, 2)[0])
    thetas = np.concatenate([[chi], np.linspace(0.0, TWO_PI, 16, endpoint=False)])
    with pytest.raises(PoleOnContour):
        evaluator.evaluate_sweep(thetas, alpha)
    with pytest.raises(PoleOnContour):
        evaluator.evaluate(chi, alpha)


def test_residue_branch_raises_beside_a_double_zero():
    # alpha 4e-13 off pi / 2 splits the double zero there into a pair
    # 8e-13 apart, wider than a clearance of 1e-13, so the residue formula
    # meets zeros that are double to working precision while Lambda at
    # theta = pi / 2 rounds to 0; both paths raise the same failure
    noisy = _noisy_evaluator(2, seed=47)
    evaluator = StabilizedEvaluator(
        basis=noisy.basis, build_operator=noisy.build_operator, cluster_threshold=1e-13
    )
    alpha, theta = math.pi / 2.0 + 4e-13, math.pi / 2.0
    assert float(lambda_weight(theta, alpha, 2)) == 0.0
    with pytest.raises(DoublePoleInSimpleBranch):
        evaluator.evaluate_sweep(np.array([theta, 0.3]), alpha)
    with pytest.raises(DoublePoleInSimpleBranch):
        evaluator.evaluate(theta, alpha)


def test_oracle_raises_the_evaluators_failure_beside_a_double_zero():
    # the point of the test above: the scalar oracle checks the residue
    # before it divides by Lambda, as both evaluator paths do, so all three
    # raise DoublePoleInSimpleBranch there and not PoleAtTheta
    noisy = _noisy_evaluator(2, seed=47)
    evaluator = StabilizedEvaluator(
        basis=noisy.basis, build_operator=noisy.build_operator, cluster_threshold=1e-13
    )
    alpha, theta = math.pi / 2.0 + 4e-13, math.pi / 2.0
    with pytest.raises(DoublePoleInSimpleBranch):
        scalar_dispatch(evaluator, theta, alpha)
    _assert_matches_oracle(evaluator, np.array([theta, 0.3]), alpha)


def test_branch_counts_tally_every_returned_label():
    p = 3
    evaluator = _noisy_evaluator(p, seed=48)
    grid = np.linspace(0.0, TWO_PI, 90, endpoint=False)
    returned = Counter()
    for alpha in (0.3, math.pi / p, math.pi / p + 0.004, math.pi / p + 0.05):
        zeros = pole_set(alpha, p)
        thetas = np.concatenate([grid, zeros, zeros + 0.005, zeros + 0.03])
        _, labels = evaluator.evaluate_sweep(thetas, alpha)
        returned.update(labels.tolist())
        for theta in thetas[::7]:
            returned[evaluator.evaluate_with_branch(theta, alpha)[1]] += 1
    assert set(returned) == BRANCH_LABELS
    assert dict(evaluator.branch_counts) == dict(returned)


@pytest.mark.parametrize(
    "shape, k",
    [pytest.param(name, 5.0, id=name) for name in PRESET_NAMES]
    + [pytest.param(name, 10.0, id=f"{name}-k10") for name in ("square", "pentagon")],
)
def test_sweep_matches_points_on_bem_pipelines(shape, k):
    # the far fields of a real solve, not a Fourier family: the one-point
    # path and the sweep read them through different array shapes, at
    # k = 5 and at the benchmark's k = 10.  At
    # alpha = 0 and pi / p every zero is double, and on one the contour
    # integral is the regular part (N'' + p^2 N / 6) / Lambda'' of N / Lambda.
    # alpha = 0.5 leaves the zeros isolated for every preset (2.1 clusters
    # the equilateral triangle's)
    pipeline = build_pipeline(ExperimentConfig(shape=shape, k=k))
    evaluator, p = pipeline.evaluator, pipeline.shape.p
    grid = np.linspace(0.0, TWO_PI, 120, endpoint=False)
    seen = set()
    for alpha in (0.0, math.pi / p, math.pi / p + 1e-7, 0.5, 2.1):
        zeros = pole_set(alpha, p)
        thetas = np.concatenate([grid, zeros])
        values, labels = evaluator.evaluate_sweep(thetas, alpha)
        scale = float(np.max(np.abs(values)))
        for theta, value, label in zip(thetas, values, labels):
            point, point_label = evaluator.evaluate_with_branch(theta, alpha)
            assert point_label == label, (alpha, theta)
            assert abs(point - value) <= 1e-12 * scale, (alpha, theta, label)
        seen.update(labels.tolist())
        if alpha in (0.0, math.pi / p):
            b = evaluator.coefficients(alpha)
            n0, n2 = (evaluator.basis.numerator(b, zeros, j) for j in (0, 2))
            regular = (n2 + (p * p / 6.0) * n0) / (-(p * p) * np.cos(p * zeros))
            assert set(labels[len(grid):]) == {"contour:full"}
            errors = np.abs(values[len(grid):] - regular)
            assert float(np.max(errors)) <= 2e-11 * scale, alpha
    assert {"contour:pair", "contour:full", "residue:single"} <= seen


@pytest.mark.parametrize("shape", PRESET_NAMES)
def test_optical_theorem_of_the_embedded_map(shape):
    # the integral of |D|^2 over theta equals 4 pi Im D(alpha + pi, alpha)
    # for every incidence, not only the canonical ones: at seeded alpha the
    # map's defect stays below its own output error (one-sided, as the
    # canonical solves' defect stays below e_in in test_bem)
    pipeline = build_pipeline(
        ExperimentConfig(shape=shape, k=5.0, elements_per_wavelength=8.0)
    )
    ref, evaluator = reference_system(pipeline), pipeline.evaluator
    thetas = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    for alpha in np.random.default_rng(11).uniform(0.0, TWO_PI, 4):
        values, _ = evaluator.evaluate_sweep(thetas, alpha)
        energy = TWO_PI / len(thetas) * float(np.sum(np.abs(values) ** 2))
        forward = evaluator.evaluate(alpha + math.pi, alpha)
        defect = abs(energy - 4.0 * math.pi * forward.imag) / energy
        assert defect <= output_error(pipeline, ref, alpha), alpha


@pytest.mark.parametrize("shape, turns", [("square", 4), ("equilateral", 3)])
def test_rotation_identity_of_the_embedded_map(shape, turns):
    # a turn phi of the shape about its vertex mean c maps the solve at
    # alpha onto the one at alpha + phi: with d(t) = (cos t, sin t),
    #   D(theta + phi, alpha + phi)
    #     = exp(ik c.[d(alpha) - d(alpha + phi) + d(theta) - d(theta + phi)])
    #       D(theta, alpha).
    # The canonical solves hold it to rounding; the embedded map to the
    # output errors at alpha and alpha + phi, by the triangle inequality
    k, phi = 5.0, TWO_PI / turns
    pipeline = build_pipeline(ExperimentConfig(shape=shape, k=k))
    ref, evaluator = reference_system(pipeline), pipeline.evaluator
    centre = pipeline.shape.vertices.mean(axis=0)
    thetas = np.linspace(0.0, TWO_PI, 1200, endpoint=False)
    turn = len(thetas) // turns  # thetas[i + turn] = thetas[i] + phi

    def direction(t):
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    def turned_by(t):
        return direction(t) - direction(t + phi)

    for alpha in np.random.default_rng(12).uniform(0.0, TWO_PI, 3):
        phase = np.exp(1j * k * ((turned_by(alpha) + turned_by(thetas)) @ centre))
        solves = pipeline.system.solve_far_fields([alpha, alpha + phi]).value(thetas)
        peak = float(np.max(np.abs(solves[:, 0])))
        turned = np.roll(solves[:, 1], -turn) - phase * solves[:, 0]
        assert float(np.max(np.abs(turned))) <= 1e-12 * peak, alpha
        mapped = [evaluator.evaluate_sweep(thetas, a)[0] for a in (alpha, alpha + phi)]
        turned = np.roll(mapped[1], -turn) - phase * mapped[0]
        e_out = output_error(pipeline, ref, [alpha, alpha + phi], n=len(thetas))
        assert float(np.max(np.abs(turned))) <= 2.0 * e_out * peak, alpha


@pytest.mark.parametrize(
    "shape, psi",
    [("square", 0.0), ("square", math.pi / 4.0), ("equilateral", math.pi / 2.0)],
    ids=["square-0", "square-pi/4", "equilateral-pi/2"],
)
def test_reflection_identity_of_the_embedded_map(shape, psi):
    # a reflection of the shape in the axis at angle psi through its vertex
    # mean c maps the solve at alpha onto the one at 2 psi - alpha: with
    # d(t) = (cos t, sin t) and t' = 2 psi - t,
    #   D(theta', alpha')
    #     = exp(ik c.[d(alpha) - d(alpha') + d(theta) - d(theta')]) D(theta, alpha).
    # The canonical solves hold it to rounding; the embedded map to the
    # output errors at alpha and alpha', by the triangle inequality
    k = 5.0
    pipeline = build_pipeline(ExperimentConfig(shape=shape, k=k))
    ref, evaluator = reference_system(pipeline), pipeline.evaluator
    centre = pipeline.shape.vertices.mean(axis=0)
    n = 1200
    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    # thetas[mirror[i]] = 2 psi - thetas[i] mod 2 pi
    mirror = (round(2.0 * psi / TWO_PI * n) - np.arange(n)) % n

    def direction(t):
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    def reflected_by(t):
        return direction(t) - direction(2.0 * psi - t)

    for alpha in np.random.default_rng(13).uniform(0.0, TWO_PI, 3):
        image = 2.0 * psi - alpha
        phase = np.exp(1j * k * ((reflected_by(alpha) + reflected_by(thetas)) @ centre))
        solves = pipeline.system.solve_far_fields([alpha, image]).value(thetas)
        peak = float(np.max(np.abs(solves[:, 0])))
        defect = solves[mirror, 1] - phase * solves[:, 0]
        assert float(np.max(np.abs(defect))) <= 1e-12 * peak, alpha
        mapped = [evaluator.evaluate_sweep(thetas, a)[0] for a in (alpha, image)]
        defect = mapped[1][mirror] - phase * mapped[0]
        e_out = output_error(pipeline, ref, [alpha, image], n=len(thetas))
        assert float(np.max(np.abs(defect))) <= 2.0 * e_out * peak, alpha
