"""Rational-angle geometry: presets, derived integers, invariances."""

import math
from fractions import Fraction

import numpy as np
import pytest

from embedfar.geometry import (
    DegenerateEdge,
    NonRationalAngle,
    PRESET_NAMES,
    SelfIntersecting,
    derive_rational_data,
    load_geometry_file,
    preset_shape,
    rationalize_angle,
    shape_from_vertices,
)
from helpers import perimeter

EXPECTED_INTEGERS = {
    "square": (2, (3, 3, 3, 3), 8),
    "equilateral": (3, (5, 5, 5), 12),
    "isosceles-right": (4, (7, 7, 6), 17),
    "screen": (1, (2, 2), 2),
    "pentagon": (5, (7, 7, 7, 7, 7), 30),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_integers(name):
    shape = preset_shape(name)
    p, q, m = EXPECTED_INTEGERS[name]
    assert shape.p == p
    assert tuple(shape.q) == q
    assert shape.m == m
    assert shape.m == sum(shape.q) - len(shape.q)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_angle_bookkeeping(name):
    shape = preset_shape(name)
    for q_j, angle in zip(shape.q, shape.exterior_angles):
        assert abs(math.pi * angle - q_j * math.pi / shape.p) <= 1e-12
    if shape.kind == "polygon":
        # convex n-gon exterior angles (measured outside) sum to (n + 2) pi
        n = len(shape.vertices)
        total = sum(math.pi * a for a in shape.exterior_angles)
        assert abs(total - (n + 2) * math.pi) <= 1e-9


def test_preset_unit_sides():
    for name in ("square", "equilateral", "pentagon"):
        v = preset_shape(name).vertices
        edges = np.diff(np.vstack([v, v[:1]]), axis=0)
        assert np.allclose(np.linalg.norm(edges, axis=1), 1.0, atol=1e-12)
    v = preset_shape("isosceles-right").vertices
    lengths = np.sort(
        np.linalg.norm(np.diff(np.vstack([v, v[:1]]), axis=0), axis=1)
    )
    assert np.allclose(lengths, [1.0, 1.0, math.sqrt(2.0)], atol=1e-12)
    v = preset_shape("screen").vertices
    assert abs(np.linalg.norm(v[1] - v[0]) - 1.0) <= 1e-12


def test_canonical_pose():
    for name in PRESET_NAMES:
        shape = preset_shape(name)
        assert np.allclose(shape.vertices[0], [0.0, 0.0], atol=1e-12)
        assert abs(shape.vertices[1][1]) <= 1e-12
        assert shape.vertices[1][0] > 0.0


@pytest.mark.parametrize("angle", [0.3, 0.7435, 2.0, -1.2])
def test_rigid_motion_invariance(angle):
    base = preset_shape("equilateral")
    rot = np.array(
        [
            [math.cos(angle), -math.sin(angle)],
            [math.sin(angle), math.cos(angle)],
        ]
    )
    moved = base.vertices @ rot.T + np.array([0.4, -2.25])
    shape = shape_from_vertices(moved)
    assert shape.p == base.p
    assert sorted(shape.q) == sorted(base.q)
    assert shape.m == base.m
    # normalization puts the rotated copy back into the canonical pose
    assert np.allclose(shape.vertices[0], [0.0, 0.0], atol=1e-9)
    assert abs(shape.vertices[1][1]) <= 1e-9


def test_scaling_preserves_integers():
    base = preset_shape("isosceles-right")
    shape = shape_from_vertices(base.vertices * 2.5)
    assert (shape.p, shape.m) == (base.p, base.m)
    assert sorted(shape.q) == sorted(base.q)
    assert abs(perimeter(shape) - 2.5 * perimeter(base)) <= 1e-9


def test_orientation_is_normalized():
    base = preset_shape("square")
    shape = shape_from_vertices(base.vertices[::-1])
    assert (shape.p, tuple(sorted(shape.q)), shape.m) == (
        base.p,
        tuple(sorted(base.q)),
        base.m,
    )


def test_derive_rational_data_combines_denominators():
    angles = (Fraction(3, 2), Fraction(5, 3))
    p, q, m = derive_rational_data(angles)
    assert p == 6
    assert q == (9, 10)
    assert m == 17


def test_rationalize_angle():
    a = rationalize_angle(1.5 * math.pi)
    assert (a.numerator, a.denominator) == (3, 2)
    assert abs(math.pi * a - 1.5 * math.pi) <= 1e-15
    with pytest.raises(ValueError):
        rationalize_angle(0.5 * math.pi)  # convex corners only
    with pytest.raises(NonRationalAngle):
        rationalize_angle(math.pi * (1.0 + 101.0 / 200.0), tolerance=1e-9)


def test_nearly_straight_corner_is_rejected():
    # the nearest fraction is 1: a straight corner, outside (pi, 2*pi]
    with pytest.raises(ValueError, match="rounds to pi"):
        rationalize_angle(math.pi * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="rounds to pi"):
        shape_from_vertices([(0, 0), (1, 0), (2, 1e-9), (2, 1), (0, 1)])


def test_rejects_non_rational_polygon():
    with pytest.raises(NonRationalAngle):
        shape_from_vertices(
            [(0.0, 0.0), (1.0, 0.0), (1.001, 1.0), (0.0, 1.0)]
        )


def test_rejects_self_intersection():
    with pytest.raises(SelfIntersecting):
        shape_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_rejects_degenerate_edge():
    with pytest.raises(DegenerateEdge):
        shape_from_vertices([(0, 0), (0, 0), (1, 0), (0, 1)])


def test_screen_requires_two_endpoints():
    with pytest.raises(ValueError):
        shape_from_vertices([(0, 0), (1, 0), (1, 1)], kind="screen")


def test_geometry_file_round_trip(tmp_path):
    path = tmp_path / "square.geom"
    path.write_text(
        "# unit square\n"
        "kind = polygon\n"
        "vertex 0 0\n"
        "vertex 1 0\n"
        "vertex 1 1\n"
        "vertex 0 1\n"
    )
    shape = load_geometry_file(path)
    assert (shape.p, tuple(shape.q), shape.m) == EXPECTED_INTEGERS["square"]

    screen = tmp_path / "screen.geom"
    screen.write_text("kind = screen\nvertex 0 0\nvertex 2 0\n")
    shape = load_geometry_file(screen)
    assert shape.kind == "screen"
    assert (shape.p, tuple(shape.q), shape.m) == (1, (2, 2), 2)


def test_geometry_file_errors(tmp_path):
    bad = tmp_path / "bad.geom"
    bad.write_text("kind = polygon\nvertex 0 0\nbogus line\n")
    with pytest.raises(ValueError, match="vertex"):
        load_geometry_file(bad)

    nokind = tmp_path / "nokind.geom"
    nokind.write_text("vertex 0 0\nvertex 1 0\nvertex 0 1\n")
    with pytest.raises(ValueError, match="kind"):
        load_geometry_file(nokind)

    late = tmp_path / "late.geom"
    late.write_text("vertex 0 0\nkind = polygon\nvertex 1 0\nvertex 0 1\n")
    with pytest.raises(ValueError, match="kind"):
        load_geometry_file(late)

    twice = tmp_path / "twice.geom"
    twice.write_text("kind = polygon\nvertex 0 0\nvertex 2 0\nkind = screen\n")
    with pytest.raises(ValueError, match="second 'kind'"):
        load_geometry_file(twice)

    with pytest.raises(FileNotFoundError):
        load_geometry_file(tmp_path / "missing.geom")
