"""Boundary-element solver: meshes, densities, and far-field patterns."""

import math

import numpy as np
import pytest

import embedfar.bem as bem
from embedfar.bem import (
    _NEAR_QUAD_ORDER,
    DEFAULT_ELEMENTS_PER_WAVELENGTH,
    MAX_WAVENUMBER,
    _bessel_j,
    _mode_degree,
    _near_pairs,
    assemble,
    build_mesh,
    build_system,
    hankel1,
    symmetry,
)
from embedfar.cli import (
    ExperimentConfig,
    build_pipeline,
    input_error,
    reference_system,
)
from embedfar.embedding import lambda_weight
from embedfar.geometry import PRESET_NAMES, load_geometry_file, preset_shape
from helpers import NodeFarFields, near_pair_mask, perimeter, split_entry


def test_mesh_covers_boundary():
    shape = preset_shape("square")
    mesh = build_mesh(shape, 5.0, elements_per_wavelength=8.0)
    assert np.all(mesh.lengths > 0)
    assert abs(float(np.sum(mesh.lengths)) - perimeter(shape)) <= 1e-12
    assert np.allclose(
        mesh.midpoints, 0.5 * (mesh.starts + mesh.ends), atol=1e-12
    )
    # consecutive elements share endpoints around the closed boundary
    gaps = np.linalg.norm(np.roll(mesh.starts, -1, axis=0) - mesh.ends, axis=1)
    assert float(np.max(gaps)) <= 1e-12


def test_mesh_grades_into_corners():
    shape = preset_shape("square")
    mesh = build_mesh(shape, 5.0, elements_per_wavelength=8.0)
    # strong geometric grading: tiny elements only near the corners
    assert float(np.min(mesh.lengths)) < 1e-4 * float(np.max(mesh.lengths))
    corners = shape.vertices
    smallest = mesh.midpoints[np.argsort(mesh.lengths)[:8]]
    dist = np.min(
        np.linalg.norm(smallest[:, None, :] - corners[None, :, :], axis=2),
        axis=1,
    )
    assert float(np.max(dist)) < 1e-3

    shallow = build_mesh(
        shape, 5.0, elements_per_wavelength=8.0, corner_layers=4
    )
    deep = build_mesh(
        shape, 5.0, elements_per_wavelength=8.0, corner_layers=12
    )
    assert float(np.min(deep.lengths)) < float(np.min(shallow.lengths))
    tight = build_mesh(
        shape, 5.0, elements_per_wavelength=8.0, grading_ratio=0.05
    )
    assert float(np.min(tight.lengths)) < float(np.min(mesh.lengths))


def test_mesh_density_tracks_wavelength():
    # The graded corner layers contribute a fixed element count, so the
    # wavelength rule shows up in the size of the uniform elements.
    shape = preset_shape("square")
    coarse = build_mesh(shape, 5.0, elements_per_wavelength=4.0)
    fine = build_mesh(shape, 5.0, elements_per_wavelength=16.0)
    assert len(fine) > len(coarse)
    ratio = float(np.max(coarse.lengths)) / float(np.max(fine.lengths))
    assert 3.0 < ratio < 5.0
    higher_k = build_mesh(shape, 20.0, elements_per_wavelength=4.0)
    ratio = float(np.max(coarse.lengths)) / float(np.max(higher_k.lengths))
    assert 3.0 < ratio < 5.0


def test_screen_mesh_grades_both_endpoints():
    mesh = build_mesh(preset_shape("screen"), 10.0, elements_per_wavelength=8.0)
    order = np.argsort(mesh.lengths)
    ends = np.array([[0.0, 0.0], [1.0, 0.0]])
    smallest = mesh.midpoints[order[:2]]
    dist = np.linalg.norm(np.sort(smallest, axis=0) - ends, axis=1)
    assert float(np.max(dist)) < 1e-3


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_near_entries_match_per_pair_oracle(name):
    mesh = build_mesh(preset_shape(name), 10.0)
    matrix = assemble(mesh, 10.0).matrix
    scale = np.max(np.abs(matrix))
    rows, cols = np.nonzero(near_pair_mask(mesh))
    # every self entry, its neighbours, and the pairs across each corner
    assert len(rows) > 3 * len(mesh)
    oracle = np.array([split_entry(mesh, 10.0, i, j) for i, j in zip(rows, cols)])
    assert np.max(np.abs(matrix[rows, cols] - oracle)) <= 1e-14 * scale


def test_assembly_batches_near_pairs(monkeypatch):
    calls = []

    def counted(order, x):
        calls.append(np.size(x))
        return hankel1(order, x)

    monkeypatch.setattr(bem, "hankel1", counted)
    for name in ("square", "pentagon", "isosceles-right"):
        calls.clear()
        mesh = build_mesh(preset_shape(name), 10.0)
        system = assemble(mesh, 10.0)
        n, q = system.ff_weights.shape
        far_chunks = math.ceil(n / max(1, bem._ASSEMBLY_CHUNK // (n * q)))
        # the far part's chunks plus one call for every near pair at once
        assert len(calls) <= far_chunks + 1
        # the far part's kernel runs on the first block row alone, and on a
        # mirrored mesh on its first half
        near = np.count_nonzero(near_pair_mask(mesh))
        order, mirrored = symmetry(mesh)
        rows = n // order
        assert mirrored == (name != "isosceles-right")
        computed = math.ceil(rows / 2) if mirrored else rows
        assert sum(calls) == computed * n * q + _NEAR_QUAD_ORDER * near


@pytest.mark.parametrize("refinement", [1.0, 4.0])
@pytest.mark.parametrize("k", [5.0, 10.0, 50.0])
@pytest.mark.parametrize("name, order", [("square", 4), ("equilateral", 3), ("pentagon", 5)])
def test_rotation_order_of_regular_polygons(name, order, k, refinement):
    epw = DEFAULT_ELEMENTS_PER_WAVELENGTH * refinement
    mesh = build_mesh(preset_shape(name), k, elements_per_wavelength=epw)
    # the block is one edge, mirrored across its perpendicular bisector
    assert symmetry(mesh) == (order, True)


def test_rotation_order_of_other_shapes(tmp_path):
    # the screen's block is the whole mesh and has a mirror; the
    # isosceles-right triangle's closes on itself and has none
    for name in ("isosceles-right", "screen"):
        for k in (5.0, 10.0, 50.0):
            for refinement in (1.0, 4.0):
                epw = DEFAULT_ELEMENTS_PER_WAVELENGTH * refinement
                mesh = build_mesh(preset_shape(name), k, elements_per_wavelength=epw)
                assert symmetry(mesh) == (1, name == "screen")
    # a pentagon with one vertex off by 1e-9 is not regular to 1e-12
    path = tmp_path / "pentagon.txt"

    def file_mesh(vertices):
        lines = [f"vertex {float(x)!r} {float(y)!r}\n" for x, y in vertices]
        path.write_text("kind=polygon\n" + "".join(lines))
        return build_mesh(load_geometry_file(path), 10.0)

    vertices = preset_shape("pentagon").vertices.copy()
    assert symmetry(file_mesh(vertices)) == (5, True)
    vertices[2, 1] += 1e-9
    assert symmetry(file_mesh(vertices)) == (1, False)


@pytest.mark.parametrize("refinement", [1.0, 4.0])
@pytest.mark.parametrize("name", ["square", "equilateral", "pentagon", "screen"])
def test_block_row_matches_full_assembly(monkeypatch, name, refinement):
    epw = DEFAULT_ELEMENTS_PER_WAVELENGTH * refinement
    mesh = build_mesh(preset_shape(name), 10.0, elements_per_wavelength=epw)
    rolled = assemble(mesh, 10.0).matrix
    monkeypatch.setattr(bem, "symmetry", lambda mesh: (1, False))
    full = assemble(mesh, 10.0).matrix
    assert np.max(np.abs(rolled - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("refinement", [1.0, 4.0])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_near_pairs_match_mask(name, refinement):
    epw = DEFAULT_ELEMENTS_PER_WAVELENGTH * refinement
    mesh = build_mesh(preset_shape(name), 10.0, elements_per_wavelength=epw)
    rows, cols = _near_pairs(mesh)
    assert np.array_equal(np.stack([rows, cols]), np.nonzero(near_pair_mask(mesh)))


@pytest.mark.parametrize("name", ["equilateral", "pentagon"])
def test_collocation_matrix_is_rotation_invariant(name):
    # rotating a regular polygon by one edge maps each element onto the
    # next edge's element, so the matrix is invariant under that shift
    shape = preset_shape(name)
    mesh = build_mesh(shape, 10.0)
    n_edges = len(shape.edges)
    assert len(mesh) % n_edges == 0
    matrix = assemble(mesh, 10.0).matrix
    shift = np.roll(np.arange(len(mesh)), -(len(mesh) // n_edges))
    defect = np.max(np.abs(matrix - matrix[shift][:, shift]))
    assert defect <= 1e-11 * np.max(np.abs(matrix))


def test_solver_surface(square_k5):
    alphas = [0.3, 2.1, 4.0]
    fields = square_k5.solve_far_fields(alphas)
    assert len(fields) == 3
    thetas = np.linspace(0.0, 2.0 * math.pi, 17)
    values = fields[0].value(thetas)
    assert values.shape == thetas.shape
    assert np.iscomplexobj(values)
    scalar = fields[0].value(1.0)
    assert complex(scalar) == complex(fields[0].value(np.array([1.0]))[0])
    assert fields.value(1.0).shape == (3,)
    # one stacked evaluation matches the columns taken one at a time, and
    # each column matches its own solve, for real and complex theta
    theta_grid = thetas[:, None] + np.array([0.0, 0.02j, -0.3j])
    alone = [square_k5.solve_far_fields(a)[0] for a in alphas]
    for order in (0, 1, 2):
        stack = fields.value(theta_grid, order)
        assert stack.shape == theta_grid.shape + (3,)
        for i, ff in enumerate(fields):
            for single in (ff, alone[i]):
                column = single.value(theta_grid, order)
                scale = float(np.max(np.abs(column)))
                assert float(np.max(np.abs(stack[..., i] - column))) <= 1e-12 * scale
    assert len(list(fields)) == 3
    with pytest.raises(TypeError):
        len(fields[0])


def test_far_field_derivatives_match_finite_differences(square_k5):
    ff = square_k5.solve_far_fields([1.2])[0]
    h = 1e-5
    for theta in (0.4, 2.0, 5.5):
        fd1 = (ff.value(theta + h) - ff.value(theta - h)) / (2.0 * h)
        assert abs(complex(ff.value(theta, 1)) - fd1) <= 1e-8 * max(
            1.0, abs(fd1)
        )
        fd2 = (
            ff.value(theta + h) - 2.0 * ff.value(theta) + ff.value(theta - h)
        ) / (h * h)
        assert abs(complex(ff.value(theta, 2)) - fd2) <= 1e-5 * max(
            1.0, abs(fd2)
        )


@pytest.mark.parametrize("p", [1, 2, 5])
def test_weighted_far_field_is_the_product_rule(square_k5, p):
    # (cos(p theta) + offset) D as a far field of its own, degree N + p:
    # its values and derivatives are the product rule on the solved
    # patterns, on the real axis and off it
    fields = square_k5.solve_far_fields([0.3, 2.1, 4.0])
    thetas = np.linspace(0.0, 2.0 * math.pi, 41)[:, None] + [0.0, 0.05j, -0.1j]
    for ff, offset in ((fields, np.array([0.4, -1.0, 0.9])), (fields[1], -0.7)):
        hat = ff.weighted(p, offset)
        assert hat.degree == ff.degree + p
        assert np.array_equal(hat.centre, ff.centre)
        d = [ff.value(thetas, j) for j in range(3)]
        p_theta = p * (thetas[..., None] if ff.modes.ndim == 2 else thetas)
        cos, sin = np.cos(p_theta), np.sin(p_theta)
        weight = cos + offset
        product = [
            weight * d[0],
            weight * d[1] - p * sin * d[0],
            weight * d[2] - 2 * p * sin * d[1] - p * p * cos * d[0],
        ]
        for order in (0, 1, 2):
            gap = np.abs(hat.value(thetas, order) - product[order])
            assert float(np.max(gap)) <= 1e-13 * float(np.max(np.abs(product[order])))


def test_far_field_product_agrees_across_the_threading_cut():
    # value() runs a product above bem._THREADED_GEMM through scipy's BLAS
    # and a smaller one through numpy's: both read rows @ modes, the
    # smaller ones bit for bit
    system = build_system(preset_shape("pentagon"), 10.0)
    fields = system.solve_far_fields(np.linspace(0.1, 6.0, 45))
    below = bem._THREADED_GEMM // fields.modes.size
    assert below >= 2
    for count in (1, below, below + 1, 200):
        thetas = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        for theta in (thetas, thetas + 0.02j):
            for order in (0, 1, 2):
                got = fields.value(theta, order)
                want = fields.rows(theta, order) @ fields.modes
                if count <= below:
                    assert np.array_equal(got, want)
                scale = float(np.max(np.abs(want)))
                assert float(np.max(np.abs(got - want))) <= 1e-14 * scale


@pytest.mark.parametrize("k", [10.0, 50.0])
@pytest.mark.parametrize("name", ["square", "pentagon", "screen"])
def test_single_far_field_values_do_not_depend_on_theta_count(name, k):
    # a single solve's product is elementwise, not a BLAS matrix-vector
    # product whose rounding follows the number of rows: a column of 200
    # theta, its first 7 and one float theta at a time read the same bits
    system = build_system(preset_shape(name), k)
    fields = system.solve_far_fields(np.linspace(0.1, 6.0, 5))
    thetas = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    for j in range(len(fields)):
        values = fields[j].value(thetas)
        assert np.array_equal(fields[j].value(thetas[:7]), values[:7])
        for i in range(0, len(thetas), 37):
            assert complex(fields[j].value(float(thetas[i]))) == complex(values[i])


def test_far_field_rows_of_one_real_angle(square_k5):
    # a float angle takes the centre's phase as scalars: its row is
    # the array form's to 2 ulp, and a complex angle keeps the array form
    fields = square_k5.solve_far_fields([1.2, 2.0])
    eps = np.finfo(np.float64).eps
    for theta in (0.0, 0.4, 2.0, -3.1, 5.5, 40.0, np.float64(1.7)):
        for order in (0, 1, 2):
            got = fields.rows(theta, order)
            want = fields.rows(np.array([theta]), order)
            assert got.shape == want.shape == (1, len(fields.modes))
            assert np.all(np.abs(got - want) <= 2.0 * eps * np.abs(want))
            z = complex(theta, 0.3)
            assert np.array_equal(fields.rows(z, order), fields.rows(np.array([z]), order))
            assert fields.value(theta, order).shape == (2,)


def test_far_field_rows_of_a_list_of_real_angles():
    # a one-point query reads the rows at alpha, theta and its zeros as a
    # list of floats: bit for bit the array form's rows and the one-float
    # rows stacked, for every order, on a solved pentagon's weighted field
    system = build_system(preset_shape("pentagon"), 10.0)
    hat = system.solve_far_fields(np.linspace(0.1, 6.0, 45)).weighted(5, 0.3)
    angles = [2.0, 0.4, 1.2566370614359172, 1.2566470614359172, -3.1, 40.0]
    for order in (0, 1, 2):
        listed = hat.rows_through(angles, order)
        arrayed = hat.rows_through(np.array(angles), order)
        one_by_one = [hat.rows_through(x, order) for x in angles]
        assert len(listed) == order + 1
        for j in range(order + 1):
            assert listed[j].shape == (len(angles), len(hat.modes))
            assert np.array_equal(listed[j], arrayed[j])
            stacked = np.concatenate([rows[j] for rows in one_by_one])
            assert np.array_equal(listed[j], stacked)
            assert np.array_equal(hat.rows(angles, j), listed[j])


def test_far_field_is_entire_in_theta(square_k5):
    # complex observation angles feed the contour quadrature; values along a
    # short vertical segment must match a Taylor step from the real axis
    ff = square_k5.solve_far_fields([0.9])[0]
    theta = 1.3
    dz = 0.003j
    taylor = (
        complex(ff.value(theta))
        + dz * complex(ff.value(theta, 1))
        + 0.5 * dz * dz * complex(ff.value(theta, 2))
    )
    assert abs(complex(ff.value(theta + dz)) - taylor) <= 1e-5


@pytest.mark.parametrize("k", [5.0, 10.0, MAX_WAVENUMBER])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_far_field_modes_match_node_oracle(name, k):
    # real angles, and complex ones down to |Im theta| = 0.3, the depth
    # test_solver_surface reaches; at MAX_WAVENUMBER only down to 0.02,
    # because the modes' rounding grows like e^{N |Im theta|} there
    # (README, "Far-field modes")
    system = build_system(preset_shape(name), k)
    alphas = np.linspace(0.1, 6.0, 5)
    fields = system.solve_far_fields(alphas)
    oracle = NodeFarFields(system, alphas)
    depths = [0.0, 0.02, -0.02] + ([0.3, -0.3] if k < MAX_WAVENUMBER else [])
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[:, None]
    thetas = thetas + 1j * np.array(depths)
    for order in (0, 1, 2):
        stack = fields.value(thetas, order)
        want = oracle.value(thetas, order)
        for d in range(len(depths)):
            scale = float(np.max(np.abs(want[:, d])))
            assert float(np.max(np.abs(stack[:, d] - want[:, d]))) <= 1e-13 * scale
        # a column view reads the shared modes: the same values up to the
        # rounding of an elementwise sum against a matrix-matrix product
        scale = float(np.max(np.abs(stack)))
        for j in range(len(alphas)):
            column = fields[j].value(thetas, order)
            assert float(np.max(np.abs(column - stack[..., j]))) <= 2e-15 * scale
    # one weighted transform column per element, C-ordered so that the
    # mode products read its transpose without a copy
    assert system.ff_transform.shape == (fields.degree + 1, len(system.mesh))
    assert system.ff_transform.flags.c_contiguous
    # the cut depends on k and the mesh alone
    single = system.solve_far_fields(alphas[2])
    assert fields.degree == fields[3].degree == single.degree
    assert fields.degree >= k * float(
        np.max(np.linalg.norm(system.ff_nodes - fields.centre, axis=-1))
    )


def test_bessel_recurrence_matches_scipy():
    from scipy.special import jn_zeros, jv

    # up to the largest k r of the presets at MAX_WAVENUMBER, and on the
    # zeros of J_0 and J_1, where the ratios J_n / J_{n-1} blow up
    x = np.concatenate(
        [np.linspace(0.0, 46.0, 4001), jn_zeros(0, 10), jn_zeros(1, 10)]
    )
    degree = _mode_degree(46.0)
    exact = jv(np.arange(degree + 1)[:, None], x[None, :])
    assert float(np.max(np.abs(_bessel_j(x, degree) - exact))) <= 1e-14


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_optical_theorem_by_parseval(name):
    # the integral of |D|^2 over theta is 2 pi sum |c_n|^2, and equals
    # 4 pi Im D(alpha + pi, alpha), the forward direction; the defect of a
    # discrete solve sits far below its input error, so this is a one-sided
    # gate on e_in, not an estimate of it
    pipeline = build_pipeline(
        ExperimentConfig(shape=name, k=5.0, elements_per_wavelength=8.0)
    )
    e_in = input_error(pipeline, reference_system(pipeline))
    fields, angles = pipeline.far_fields, pipeline.angles
    energy = 2.0 * math.pi * np.sum(np.abs(fields.modes) ** 2, axis=0)
    forward = np.diagonal(fields.value(angles + math.pi))
    defect = np.abs(energy - 4.0 * math.pi * forward.imag) / energy
    assert float(np.max(defect)) <= e_in


def test_boundary_condition_defect_decreases():
    shape = preset_shape("square")
    alpha = 0.7
    # boundary probes away from the collocation midpoints
    probes = np.array([[0.23, 1.0 + 1e-4], [0.52, 1.0 + 1e-4], [0.81, 1.0 + 1e-4]])
    defects = []
    for epw in (4.0, 16.0):
        system = build_system(shape, 5.0, elements_per_wavelength=epw)
        scattered = NodeFarFields(system, alpha).scattered_field(probes)
        total = scattered + system.incident([alpha], points=probes)
        defects.append(float(np.max(np.abs(total[:, 0]))))
    assert defects[1] < 0.6 * defects[0]
    assert defects[1] < 0.05


def test_far_field_matches_large_radius_field(square_k5):
    # u_s(r, theta) ~ C(k, r) D(theta) for one fixed large radius, so the
    # ratio u_s / D must not depend on theta
    ff = square_k5.solve_far_fields([0.7])[0]
    near = NodeFarFields(square_k5, 0.7)
    r = 1.0e4
    thetas = np.linspace(0.2, 2.0 * math.pi, 8, endpoint=False)
    points = r * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    us = near.scattered_field(points)[:, 0]
    ratios = us / ff.value(thetas)
    spread = np.max(np.abs(ratios - np.mean(ratios)))
    assert spread <= 1e-3 * abs(np.mean(ratios))
    # and the amplitude decays like 1/sqrt(r)
    far = near.scattered_field(points * 4.0)[:, 0]
    decay = np.abs(far / us)
    assert np.allclose(decay, 0.5, atol=1e-3)


def test_reciprocity_of_hat_pattern(square_k5):
    # Lambda-weighted patterns satisfy hat_D(t, a) = -hat_D(a, t) for even p
    p = 2
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False) + 0.13
    fields = square_k5.solve_far_fields(angles)
    values = np.array([ff.value(angles) for ff in fields])  # [j, i] = D(a_i, a_j)
    lam = lambda_weight(angles[None, :], angles[:, None], p)  # [j, i]
    hat = lam * values
    sign = -1.0
    defect = np.max(np.abs(hat - sign * hat.T))
    scale = np.max(np.abs(hat))
    assert defect <= 1e-3 * scale


def test_solver_rejects_empty_and_rough_input():
    shape = preset_shape("square")
    with pytest.raises(ValueError):
        build_system(shape, 5.0, elements_per_wavelength=0.0)


def test_package_exports_resolve():
    import embedfar

    assert [name for name in embedfar.__all__ if not hasattr(embedfar, name)] == []


def test_hankel_reexport_matches_module():
    from embedfar import specialfun

    assert hankel1 is specialfun.hankel1
