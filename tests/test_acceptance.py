"""End-to-end acceptance checks for the embedding far-field package.

Each criterion computes its metrics, prints exactly one summary line
(visible with ``pytest -s``, or in the captured stdout of a failing
test), and only then asserts the pinned thresholds.  A failing
criterion therefore still reports the measured numbers.
"""

import itertools
import math
import time

import numpy as np

from embedfar.bem import build_system as build_bem_system
from embedfar.cli import (
    ExperimentConfig,
    build_pipeline,
    input_error,
    reference_system,
    screen_study,
    sweep_columns,
    sweep_errors,
    table_rows,
)
from embedfar.coefficients import (
    build_system as build_coefficient_system,
    column_subset,
    tsvd_pseudoinverse,
)
from embedfar.embedding import (
    EmbeddingBasis,
    contour_eval,
    lambda_weight,
    pole_environment,
    rect_contour,
)
from embedfar.geometry import preset_shape
from embedfar.specialfun import gauss_legendre, hankel1

import helpers

TWO_PI = 2.0 * math.pi


def _report(number, name, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({details})")
    return ok


def _gram_volume(columns):
    gram = columns.conj().T @ columns
    return math.sqrt(max(float(np.linalg.det(gram).real), 0.0))


def test_criterion_01_geometry_presets():
    start = time.perf_counter()
    expected = {
        "square": (2, (3, 3, 3, 3), 8),
        "isosceles-right": (4, (7, 7, 6), 17),
        "screen": (1, (2, 2), 2),
        "equilateral": (3, (5, 5, 5), 12),
    }
    got = {}
    for name in expected:
        shape = preset_shape(name)
        got[name] = (shape.p, tuple(shape.q), shape.m)
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1.0
    _report(
        1,
        "geometry-presets",
        ok,
        "; ".join(f"{n}={got[n]}" for n in expected) + f"; {elapsed:.2f} s",
    )
    assert got == expected
    assert elapsed < 1.0


def test_criterion_02_pole_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(2)

    worst_pole = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.0, TWO_PI))
        zeros = helpers.pole_set(alpha, p)
        worst_pole = max(
            worst_pole, float(np.max(np.abs(lambda_weight(zeros, alpha, p))))
        )

    # product lower bound through the nearest zero and coalescence point
    lower_margin = math.inf
    for _ in range(10_000):
        p = int(rng.integers(1, 7))
        theta = float(rng.uniform(0.0, TWO_PI))
        alpha = float(rng.uniform(0.0, TWO_PI))
        th0, _ = pole_environment(theta, alpha, p)
        star = round(th0 * p / math.pi) * math.pi / p
        bound = (
            (p * p / 8.0)
            * float(helpers.angle_distance(theta, th0))
            * float(helpers.angle_distance(theta, star))
        )
        lower_margin = min(
            lower_margin, abs(float(lambda_weight(theta, alpha, p))) - bound
        )

    # monotone growth off the real axis and the exponential strip bracket
    growth_margin = math.inf
    strip_margin = math.inf
    for p in range(1, 7):
        theta = rng.uniform(0.0, TWO_PI, 1667)
        alpha = float(rng.uniform(0.0, TWO_PI))
        c = rng.uniform(-2.0, 2.0, theta.shape)
        on_axis = np.abs(lambda_weight(theta, alpha, p))
        lifted = np.abs(lambda_weight(theta + 1j * c, alpha, p))
        growth_margin = min(growth_margin, float(np.min(lifted - on_axis)))
        height = rng.uniform(-1.5, 1.5, theta.shape)
        mag = np.abs(lambda_weight(theta + 1j * height, alpha, p))
        grow = np.exp(p * np.abs(height))
        strip_margin = min(
            strip_margin,
            float(np.min(mag - (grow - 3.0) / 2.0)),
            float(np.min((grow + 3.0) / 2.0 - mag)),
        )

    elapsed = time.perf_counter() - start
    ok = (
        worst_pole <= 1e-12
        and lower_margin >= -1e-12
        and growth_margin >= -1e-12
        and strip_margin >= -1e-12
        and elapsed < 5.0
    )
    _report(
        2,
        "pole-structure",
        ok,
        f"max|weight at zeros|={worst_pole:.2e}, "
        f"product-bound margin={lower_margin:.2e}, "
        f"off-axis margin={growth_margin:.2e}, "
        f"strip margin={strip_margin:.2e}; {elapsed:.2f} s",
    )
    assert worst_pole <= 1e-12
    assert lower_margin >= -1e-12
    assert growth_margin >= -1e-12
    assert strip_margin >= -1e-12
    assert elapsed < 5.0


def test_criterion_03_residue_matches_contour():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    while checked < 100:
        p = int(rng.integers(1, 7))
        T, angles, fields = helpers.rank_one_family(p, rng, degree=2)
        basis = EmbeddingBasis(p=p, angles=angles, far_fields=fields)
        alpha = float(rng.uniform(0.0, TWO_PI))
        zeros = helpers.pole_set(alpha, p)
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
        direct = complex(helpers.residue_eval(basis, b, theta, alpha, [chi]))
        contour = rect_contour([theta, chi], 0.2 * sep)
        integral = complex(
            contour_eval(
                lambda z: basis.numerator(b, z), theta, alpha, p, contour
            )
        )
        worst = max(worst, abs(direct - integral) / max(1.0, abs(direct)))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        3,
        "residue-vs-contour",
        ok,
        f"100 configurations, worst relative gap={worst:.2e}; {elapsed:.2f} s",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_04_tsvd_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(4)

    worst_violation = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        delta = 10.0 ** float(rng.uniform(-10.0, 0.0))
        b = tsvd_pseudoinverse(a, delta) @ d
        base = float(np.linalg.norm(d - a @ b))
        probes = [
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(49)
        ]
        probes.append(np.linalg.lstsq(a, d, rcond=None)[0])
        for v in probes:
            competitor = float(np.linalg.norm(d - a @ v))
            competitor += delta * float(np.linalg.norm(v))
            worst_violation = max(
                worst_violation, base - competitor - 1e-10 * (1.0 + competitor)
            )

    worst_inverse = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        q1 = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )[0]
        q2 = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )[0]
        a = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2
        residual = tsvd_pseudoinverse(a, 0.0) @ a - np.eye(n)
        worst_inverse = max(worst_inverse, float(np.max(np.abs(residual))))

    elapsed = time.perf_counter() - start
    ok = worst_violation <= 0.0 and worst_inverse <= 1e-9 and elapsed < 10.0
    _report(
        4,
        "tsvd-contract",
        ok,
        f"worst residual-bound violation={worst_violation:.2e}, "
        f"worst plain-inverse defect={worst_inverse:.2e}; {elapsed:.2f} s",
    )
    assert worst_violation <= 0.0
    assert worst_inverse <= 1e-9
    assert elapsed < 10.0


def test_criterion_05_subset_selection():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    bound = math.factorial(5)
    worst_ratio = math.inf
    independence_failures = 0
    for _ in range(50):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        greedy = column_subset(a, 5)
        picked = a[:, np.asarray(greedy)]
        sigma = np.linalg.svd(picked, compute_uv=False)
        if sigma[-1] <= 1e-12 * sigma[0]:
            independence_failures += 1
        greedy_vol = _gram_volume(picked)
        best = max(
            _gram_volume(a[:, list(combo)])
            for combo in itertools.combinations(range(8), 5)
        )
        worst_ratio = min(worst_ratio, greedy_vol / best)
    elapsed = time.perf_counter() - start
    ok = (
        worst_ratio >= 1.0 / bound - 1e-12
        and independence_failures == 0
        and elapsed < 30.0
    )
    _report(
        5,
        "subset-selection",
        ok,
        f"worst greedy/exhaustive volume ratio={worst_ratio:.3f} "
        f"(bound {1.0 / bound:.5f}), "
        f"independence failures={independence_failures}; {elapsed:.2f} s",
    )
    assert worst_ratio >= 1.0 / bound - 1e-12
    assert independence_failures == 0
    assert elapsed < 30.0


def test_criterion_06_stabilization_headline():
    start = time.perf_counter()
    config = ExperimentConfig(
        shape="square", k=10.0, elements_per_wavelength=16.0
    )
    alpha = 5.0 * math.pi / 4.0
    pipeline = build_pipeline(config)
    ref = reference_system(pipeline)
    e_in = input_error(pipeline, ref)

    thetas = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    naive, stabilized, _, _ = sweep_errors(pipeline, ref, alpha, thetas)
    max_naive = float(np.max(naive[np.isfinite(naive)]))
    max_stab = float(np.max(stabilized))

    # spikes are judged inside each 0.05 rad pole window
    worst_window = 0.0
    for chi in helpers.pole_set(alpha, pipeline.shape.p):
        window = stabilized[helpers.angle_distance(thetas, float(chi)) <= 0.05]
        worst_window = max(
            worst_window, float(np.max(window) / np.median(window))
        )
    global_ratio = max_stab / float(np.median(stabilized))

    # the same sweep at alpha = 0, where the zeros coalesce into double
    # zeros at 0 and pi and the contour:pair branch covers the points
    # between the rectangle round each and the near threshold: its error
    # may spike no more than at the simple zeros above
    _, coalesced, labels, _ = sweep_errors(pipeline, ref, 0.0, thetas)
    coalesced_ratio = float(np.max(coalesced) / np.median(coalesced))
    pair_points = int(np.count_nonzero(labels == "contour:pair"))

    elapsed = time.perf_counter() - start
    ok = (
        e_in <= 1e-3
        and max_naive >= 10.0 * max_stab
        and max_stab <= 1e-2
        and worst_window <= 3.0
        and pair_points > 0
        and coalesced_ratio <= global_ratio
        and elapsed < 300.0
    )
    _report(
        6,
        "stabilization-headline",
        ok,
        f"e_in={e_in:.2e}, max naive={max_naive:.2e}, "
        f"max stabilized={max_stab:.2e} (ratio {max_naive / max_stab:.1f}x), "
        f"worst pole-window max/median={worst_window:.2f}, "
        f"global max/median={global_ratio:.2f}, at alpha=0 "
        f"{coalesced_ratio:.2f} ({pair_points} contour:pair points); "
        f"{elapsed:.1f} s",
    )
    assert e_in <= 1e-3
    assert max_naive >= 10.0 * max_stab
    assert max_stab <= 1e-2
    assert worst_window <= 3.0
    assert pair_points > 0
    assert coalesced_ratio <= global_ratio
    assert elapsed < 300.0


def test_criterion_07_embedding_conditioning():
    start = time.perf_counter()
    refinements = [4.0, 8.0, 16.0]
    # `embedfar table` at k = 5 on a 200 x 200 torus: per shape, one row
    # per refinement, in refinement order
    table = table_rows(
        ExperimentConfig(n_theta=200, n_alpha=200),
        [5.0], ["square", "equilateral"], refinements,
    )
    rows = [
        (row.shape, epw, row.e_in, row.e_out, row.ratio)
        for row, epw in zip(table, refinements * 2)
    ]
    ok = all(1.0 <= ratio <= 1e5 for *_, ratio in rows)
    for shape_name in ("square", "equilateral"):
        e_ins = [r[2] for r in rows if r[0] == shape_name]
        ok = ok and all(a > b for a, b in zip(e_ins, e_ins[1:]))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    details = ", ".join(
        f"{name}@{epw:g}: e_in={e_in:.2e} ratio={ratio:.1f}"
        for name, epw, e_in, _, ratio in rows
    )
    _report(7, "embedding-conditioning", ok, f"{details}; {elapsed:.1f} s")
    for name in ("square", "equilateral"):
        e_ins = [r[2] for r in rows if r[0] == name]
        assert all(a > b for a, b in zip(e_ins, e_ins[1:])), name
    for name, epw, e_in, e_out, ratio in rows:
        assert 1.0 <= ratio <= 1e5, (name, epw, ratio)
    assert elapsed < 600.0


def test_criterion_08_degenerate_recovery():
    start = time.perf_counter()
    # the study's screen part at k = 20: the bare pair {pi/2, 3pi/2} and
    # the triple that adds pi, under strategy two and under strategy one at
    # delta 1e-8.  Strategy two cannot rank-reveal the pair's all-zero
    # system, which the study records as total failure (error one)
    rows = {
        (row.mtilde, row.strategy): row
        for row in screen_study(ExperimentConfig(), [2, 3], [1e-8])
    }
    pair, triple = rows[2, "two"], rows[3, "two"]
    e_out_pair, e_out_pair_one = pair.e_out, rows[2, "one"].e_out
    e_in, e_out_triple = triple.e_in, triple.e_out
    degenerate = pair.status == "degenerate"

    elapsed = time.perf_counter() - start
    ok = (
        e_out_pair >= 0.5
        and e_out_pair_one >= 0.5
        and e_out_triple <= 100.0 * e_in
        and elapsed < 120.0
    )
    _report(
        8,
        "degenerate-recovery",
        ok,
        f"pair e_out={e_out_pair:.2f}"
        + (" (rank-deficient)" if degenerate else "")
        + f", pair strategy-one e_out={e_out_pair_one:.2f}, "
        f"triple e_out={e_out_triple:.2e} vs 100*e_in={100.0 * e_in:.2e} "
        f"({e_out_triple / e_in:.1f}x e_in); {elapsed:.1f} s",
    )
    assert e_out_pair >= 0.5
    assert e_out_pair_one >= 0.5
    assert e_out_triple <= 100.0 * e_in
    assert elapsed < 120.0


def test_criterion_09_condition_blowup():
    start = time.perf_counter()
    shape = preset_shape("equilateral")
    config = ExperimentConfig(shape="equilateral", k=10.0)
    system = build_bem_system(
        shape,
        config.k,
        elements_per_wavelength=config.elements_per_wavelength,
        grading_ratio=config.grading,
        corner_layers=config.grading_layers,
    )
    conds = {}
    for a in (math.pi / 24.0, 1e-3):
        angles = np.mod(a + np.arange(shape.m) * math.pi / 6.0, TWO_PI)
        basis = EmbeddingBasis(
            p=shape.p, angles=angles, far_fields=system.solve_far_fields(angles)
        )
        matrix = build_coefficient_system(basis, shape.m)
        conds[a] = matrix.condition_number
    ratio = conds[1e-3] / conds[math.pi / 24.0]
    elapsed = time.perf_counter() - start
    ok = ratio >= 100.0 and elapsed < 300.0
    _report(
        9,
        "condition-blowup",
        ok,
        f"cond(a=1e-3)={conds[1e-3]:.1f}, "
        f"cond(a=pi/24)={conds[math.pi / 24.0]:.1f}, "
        f"ratio={ratio:.1f} (required >= 100); {elapsed:.1f} s",
    )
    assert ratio >= 100.0, (
        f"condition ratio {ratio:.1f} is below the 100x bar; the blowup "
        f"itself is present (cond grows like 1/a) but at these exact "
        f"parameters the converged ratio tops out near 87x"
    )
    assert elapsed < 300.0


def test_criterion_10_reciprocity():
    start = time.perf_counter()
    config = ExperimentConfig(shape="square", k=5.0)
    pipeline = build_pipeline(config)
    ref = reference_system(pipeline)
    e_in = input_error(pipeline, ref)

    grid_angles = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    grid = sweep_columns(pipeline.evaluator, grid_angles, grid_angles)
    defect = float(np.max(np.abs(grid - grid.T)))
    bound = 10.0 * e_in * float(np.max(np.abs(grid)))
    elapsed = time.perf_counter() - start
    ok = defect <= bound and elapsed < 120.0
    _report(
        10,
        "reciprocity",
        ok,
        f"max grid defect={defect:.2e} vs bound={bound:.2e} "
        f"(e_in={e_in:.2e}); {elapsed:.1f} s",
    )
    assert defect <= bound
    assert elapsed < 120.0


def test_criterion_11_canonical_identity():
    start = time.perf_counter()
    config = ExperimentConfig(shape="square", k=5.0)
    pipeline = build_pipeline(config)
    ref = reference_system(pipeline)
    e_in = input_error(pipeline, ref)
    tol = 10.0 * e_in

    # the sparse solver can only represent unit vectors on its selected
    # index set; off the subset the identity is checked through the
    # reproduction of the stored far field below
    matrix = pipeline.matrix
    subset = sorted(int(i) for i in matrix.subset())
    worst_unit = 0.0
    for j in subset:
        unit = np.zeros(len(pipeline.angles))
        unit[j] = 1.0
        b = pipeline.evaluator.coefficients(pipeline.angles[j])
        worst_unit = max(worst_unit, float(np.max(np.abs(b - unit))))

    thetas = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    worst_repro = 0.0
    for j, alpha_j in enumerate(pipeline.angles):
        stored = pipeline.far_fields[j].value(thetas)
        values, _ = pipeline.evaluator.evaluate_sweep(thetas, float(alpha_j))
        scale = float(np.max(np.abs(stored)))
        worst_repro = max(
            worst_repro, float(np.max(np.abs(values - stored))) / scale
        )

    elapsed = time.perf_counter() - start
    ok = worst_unit <= tol and worst_repro <= tol and elapsed < 60.0
    _report(
        11,
        "canonical-identity",
        ok,
        f"worst unit-vector deviation={worst_unit:.2e} "
        f"({len(subset)}/{len(pipeline.angles)} selected angles), "
        f"worst reproduction error={worst_repro:.2e}, "
        f"tolerance={tol:.2e}; {elapsed:.1f} s",
    )
    assert worst_unit <= tol
    assert worst_repro <= tol
    assert elapsed < 60.0


def test_criterion_12_special_functions():
    start = time.perf_counter()
    # frozen from 50-digit evaluations of the outgoing cylindrical wave
    reference = {
        (0, 0.5): 0.9384698072408129 - 0.44451873350670656j,
        (0, 1.0): 0.7651976865579666 + 0.08825696421567696j,
        (0, 5.0): -0.1775967713143383 - 0.30851762524903376j,
        (0, 50.0): 0.055812327669251816 - 0.09806499547007708j,
        (1, 0.5): 0.2422684576748739 - 1.471472392670243j,
        (1, 1.0): 0.4400505857449335 - 0.7812128213002887j,
        (1, 5.0): -0.32757913759146523 + 0.14786314339122683j,
        (1, 50.0): -0.09751182812517514 - 0.05679566856201477j,
    }
    worst_hankel = 0.0
    for (nu, x), expected in reference.items():
        got = complex(hankel1(nu, x))
        worst_hankel = max(worst_hankel, abs(got - expected) / abs(expected))

    worst_wronskian = 0.0
    for x in (0.1, 1.0, 10.0, 100.0):
        h0 = complex(hankel1(0, x))
        h1 = complex(hankel1(1, x))
        wronskian = h1.real * h0.imag - h0.real * h1.imag
        target = 2.0 / (math.pi * x)
        worst_wronskian = max(
            worst_wronskian, abs(wronskian - target) / target
        )

    nodes, weights = gauss_legendre(20)
    worst_quad = 0.0
    for degree in range(40):
        integral = float(np.sum(weights * nodes**degree))
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        worst_quad = max(worst_quad, abs(integral - exact))

    elapsed = time.perf_counter() - start
    ok = (
        worst_hankel <= 1e-10
        and worst_wronskian <= 1e-9
        and worst_quad <= 1e-13
        and elapsed < 5.0
    )
    _report(
        12,
        "special-functions",
        ok,
        f"worst Hankel relative error={worst_hankel:.2e}, "
        f"worst Wronskian defect={worst_wronskian:.2e}, "
        f"worst quadrature defect={worst_quad:.2e}; {elapsed:.2f} s",
    )
    assert worst_hankel <= 1e-10
    assert worst_wronskian <= 1e-9
    assert worst_quad <= 1e-13
    assert elapsed < 5.0
