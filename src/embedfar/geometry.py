"""Rational polygons and screens.

A shape qualifies for the embedding machinery when every exterior angle is a
rational multiple q_j pi / p of pi.  This module validates raw vertex lists,
recovers the rational angle data, and normalizes the geometry so that one edge
lies on the positive horizontal axis (the orientation the far-field weight
function assumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

MAX_ANGLE_DENOMINATOR = 64
DEFAULT_ANGLE_TOLERANCE = 1e-6

PRESET_NAMES = ("square", "equilateral", "isosceles-right", "screen", "pentagon")


class NonRationalAngle(ValueError):
    """Exterior angle is not a rational multiple of pi within tolerance."""


class SelfIntersecting(ValueError):
    """Polygon boundary crosses itself."""


class DegenerateEdge(ValueError):
    """Zero-length or repeated-vertex edge."""


@dataclass(frozen=True)
class RationalShape:
    """Normalized rational polygon or screen.

    vertices are ordered counterclockwise with vertex 0 at the origin and the
    first edge along the positive horizontal axis.  p is the smallest integer
    such that pi/p divides every exterior angle, q_j = exterior_j / (pi/p),
    and m is sum(q_j - 1): the minimum number of canonical incident waves the
    embedding formula needs.
    """

    vertices: np.ndarray
    kind: str
    exterior_angles: tuple[Fraction, ...]  # multiples of pi
    p: int
    q: tuple[int, ...]
    m: int

    @property
    def edges(self):
        """(start, end) vertex pairs; closed loop for polygons."""
        v = self.vertices
        if self.kind == "screen":
            return [(v[0], v[1])]
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def derive_rational_data(angles):
    """(p, q, m) for a sequence of exterior angles, Fractions of pi.

    p is the least common multiple of the reduced denominators, q_j the
    integer angle counts, and m = sum(q_j - 1).
    """
    angles = tuple(angles)
    if not angles:
        raise ValueError("need at least one exterior angle")
    p = 1
    for a in angles:
        p = p * a.denominator // math.gcd(p, a.denominator)
    q = tuple(a.numerator * (p // a.denominator) for a in angles)
    m = sum(qj - 1 for qj in q)
    return p, q, m


def rationalize_angle(omega, tolerance=DEFAULT_ANGLE_TOLERANCE):
    """Nearest rational multiple of pi with denominator <= 64, as the
    reduced Fraction omega / pi.

    Raises NonRationalAngle when no such fraction lies within tolerance, and
    ValueError when omega or the fraction is outside (pi, 2*pi].
    """
    if not math.pi < omega <= 2.0 * math.pi + 1e-12:
        raise ValueError(
            f"exterior angle {omega:.6f} outside (pi, 2*pi]; "
            "only convex corners and screen endpoints are supported"
        )
    frac = Fraction(omega / math.pi).limit_denominator(MAX_ANGLE_DENOMINATOR)
    approx = math.pi * frac.numerator / frac.denominator
    if abs(approx - omega) > tolerance:
        raise NonRationalAngle(
            f"exterior angle {omega!r} is {abs(approx - omega):.2e} away from "
            f"the nearest pi*{frac.numerator}/{frac.denominator}"
        )
    if frac <= 1:  # a nearly straight corner rounds to pi itself
        raise ValueError(f"exterior angle {omega!r} rounds to pi, outside (pi, 2*pi]")
    return frac


def _as_vertex_array(vertices):
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("vertices must be an (n, 2) array")
    return v


def _check_edges(v, closed):
    n = len(v)
    pairs = [(i, (i + 1) % n) for i in range(n)] if closed else [(0, 1)]
    scale = max(1.0, float(np.max(np.abs(v))))
    for i, j in pairs:
        if np.linalg.norm(v[j] - v[i]) <= 1e-12 * scale:
            raise DegenerateEdge(f"edge {i}->{j} has zero length")


def _segments_properly_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(d) < 1e-14:
            return 0
        return 1 if d > 0 else -1

    o1 = orient(p1, p2, p3)
    o2 = orient(p1, p2, p4)
    o3 = orient(p3, p4, p1)
    o4 = orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _check_simple(v):
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue  # shared endpoint
            c, d = v[j], v[(j + 1) % n]
            if _segments_properly_intersect(a, b, c, d):
                raise SelfIntersecting(f"edges {i} and {j} cross")


def _signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _exterior_angles(v):
    """Exterior angle (2*pi - interior) at each vertex of a CCW polygon."""
    n = len(v)
    omegas = []
    for j in range(n):
        u = v[j] - v[j - 1]
        w = v[(j + 1) % n] - v[j]
        turn = math.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1])
        omegas.append(math.pi + turn)
    return omegas


def _normalize(v, closed):
    """Rotate/translate/relabel so the longest edge runs from the origin
    along +x; ties pick the lowest edge index."""
    n = len(v)
    edge_count = n if closed else 1
    lengths = np.array(
        [np.linalg.norm(v[(i + 1) % n] - v[i]) for i in range(edge_count)]
    )
    best = float(np.max(lengths))
    start = int(np.nonzero(lengths >= best * (1.0 - 1e-12))[0][0])

    if closed:
        v = np.roll(v, -start, axis=0)
    origin = v[0].copy()
    direction = v[1] - v[0]
    phi = math.atan2(direction[1], direction[0])
    c, s = math.cos(-phi), math.sin(-phi)
    rot = np.array([[c, -s], [s, c]])
    out = (v - origin) @ rot.T
    out[0] = 0.0
    out[1, 1] = 0.0
    return out


def shape_from_vertices(vertices, kind="polygon"):
    """Validate raw vertices and build the normalized rational shape.

    vertices are the polygon corners in order (either orientation), or the
    two screen endpoints; kind is "polygon" or "screen".
    """
    if kind not in ("polygon", "screen"):
        raise ValueError(f"kind must be 'polygon' or 'screen', got {kind!r}")
    v = _as_vertex_array(vertices)
    closed = kind == "polygon"
    if closed and len(v) < 3:
        raise ValueError("a polygon needs at least three vertices")
    if not closed and len(v) != 2:
        raise ValueError("a screen is defined by exactly two endpoints")
    _check_edges(v, closed)
    if closed:
        _check_simple(v)
        if _signed_area(v) < 0.0:
            v = v[::-1].copy()
    v = _normalize(v, closed)

    if closed:
        angles = tuple(rationalize_angle(w) for w in _exterior_angles(v))
    else:
        angles = (Fraction(2), Fraction(2))
    p, q, m = derive_rational_data(angles)
    return RationalShape(
        vertices=v, kind=kind, exterior_angles=angles, p=p, q=q, m=m
    )


def preset_shape(name):
    """Built-in unit-side shapes: square, equilateral, isosceles-right,
    screen, pentagon."""
    if name == "square":
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        kind = "polygon"
    elif name == "equilateral":
        verts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
        kind = "polygon"
    elif name == "isosceles-right":
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        kind = "polygon"
    elif name == "screen":
        verts = [(0.0, 0.0), (1.0, 0.0)]
        kind = "screen"
    elif name == "pentagon":
        # regular pentagon, unit side length
        radius = 0.5 / math.sin(math.pi / 5.0)
        verts = [
            (
                radius * math.cos(2.0 * math.pi * j / 5.0),
                radius * math.sin(2.0 * math.pi * j / 5.0),
            )
            for j in range(5)
        ]
        kind = "polygon"
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return shape_from_vertices(verts, kind=kind)


def load_geometry_file(path):
    """Read a shape description file.

    Format: first non-comment line `kind=polygon` or `kind=screen`, then one
    `vertex x y` line per corner.  Lines starting with '#' are ignored.
    """
    kind = None
    verts = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("kind"):
            if kind is not None:
                raise ValueError(f"{path}:{lineno}: second 'kind' line")
            _, _, value = line.partition("=")
            kind = value.strip()
            continue
        parts = line.split()
        if kind is None:
            raise ValueError(f"{path}:{lineno}: missing 'kind' line before {raw!r}")
        if parts[0] != "vertex" or len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'vertex x y', got {raw!r}")
        try:
            verts.append((float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad coordinate in {raw!r}") from exc
    if kind is None:
        raise ValueError(f"{path}: missing 'kind=polygon|screen' line")
    if not verts:
        raise ValueError(f"{path}: no vertex lines")
    return shape_from_vertices(verts, kind=kind)
