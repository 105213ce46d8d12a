import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlebos import (
    BosBoundary,
    Containment,
    FootPose,
    Point2,
    Polygon2,
    Side,
    classify_saddle_points,
    posture_catalog,
    random_postures,
    sample_boundary,
)
from saddlebos.oracle import (
    check_containment_agreement,
    check_convexity,
    check_equivariance,
    check_star_shape,
    classify_points,
    point_in_polygon,
)

from helpers import parallel_posture


def unit_square():
    return Polygon2(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def hook():
    return Polygon2(np.array([
        [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0], [2.0, 1.0], [0.0, 1.0],
    ]))


def star_pentagon():
    outer = 1.0
    inner = 0.3
    verts = []
    for k in range(5):
        a_out = math.pi / 2 + k * 2 * math.pi / 5
        a_in = a_out + math.pi / 5
        verts.append((outer * math.cos(a_out), outer * math.sin(a_out)))
        verts.append((inner * math.cos(a_in), inner * math.sin(a_in)))
    return Polygon2(np.array(verts))


# --- point in polygon -------------------------------------------------------


def test_unit_square_classification():
    square = unit_square()
    assert point_in_polygon(square, Point2(0.5, 0.5)) is Containment.INSIDE
    assert point_in_polygon(square, Point2(1.5, 0.5)) is Containment.OUTSIDE
    assert point_in_polygon(square, Point2(1.0, 0.5)) is Containment.ON


def test_point_on_vertex_is_on():
    assert point_in_polygon(unit_square(), Point2(0.0, 0.0)) is Containment.ON


def test_concave_polygon():
    assert point_in_polygon(hook(), Point2(1.0, 0.5)) is Containment.INSIDE
    assert point_in_polygon(hook(), Point2(1.0, 2.0)) is Containment.OUTSIDE
    assert point_in_polygon(hook(), Point2(2.5, 2.0)) is Containment.INSIDE


def edge_probes(verts, stride=1, tol=1e-9):
    """Every ``stride``-th vertex and edge midpoint, as is and moved 0.5 and
    2 tolerances to either side along the normal of the edge that starts or
    sits there."""
    nxt = np.roll(verts, -1, axis=0)
    d = nxt - verts
    normal = np.column_stack((-d[:, 1], d[:, 0])) / np.hypot(d[:, 0], d[:, 1])[:, None]
    base = np.vstack((verts, (verts + nxt) / 2.0))[::stride]
    normals = np.vstack((normal, normal))[::stride]
    return np.vstack([base + k * tol * normals for k in (0.0, 0.5, -0.5, 2.0, -2.0)])


def assert_matches_scalar(polygon, pts, name=""):
    codes = classify_points(polygon, pts)
    names = {1: Containment.INSIDE, 0: Containment.ON, -1: Containment.OUTSIDE}
    bad = [
        (x, y, names[int(code)])
        for code, (x, y) in zip(codes, pts)
        if names[int(code)] is not point_in_polygon(polygon, Point2(x, y))
    ]
    assert not bad, (name, bad[:5])


def stance_polygon(posture):
    return sample_boundary(posture.boundary(), 3600)


def large_triangle():
    # the point one ulp (7.5e-9) above the vertex at y = 59229718.51 is its
    # own projection onto the edge that ends there, yet lies more than
    # 2 * tol above that edge's y range
    return Polygon2(np.array([[0.0, -20432194.02], [1.0, 59229718.51], [-1e8, 0.0]]))


SHAPES = {
    "square": (unit_square, 1),
    "hook": (hook, 1),
    "star-pentagon": (star_pentagon, 1),
    "catalog-3600": (lambda: stance_polygon(posture_catalog()[2]), 24),
    "random-3600": (lambda: stance_polygon(random_postures(1, seed=3)[0]), 24),
    "large-triangle": (large_triangle, 1),
}


def test_classify_points_matches_scalar():
    for name, (make_polygon, stride) in SHAPES.items():
        polygon = make_polygon()
        lo, hi = polygon.bounding_box()
        pad = 0.25 * (hi.x - lo.x)
        rng = np.random.default_rng(8)
        pts = rng.uniform((lo.x - pad, lo.y - pad), (hi.x + pad, hi.y + pad), (500, 2))
        pts[:25, 0] = hi.x  # exactly on the rightmost vertex's vertical line
        x, y = polygon.vertices[1]
        pts[25] = (x, np.nextafter(y, np.inf))  # one ulp above a vertex
        probes = edge_probes(polygon.vertices, stride)
        assert_matches_scalar(polygon, np.vstack((pts, probes)), name)


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(0.5, 1.0), min_size=4, max_size=30),
    radii=st.lists(st.floats(0.1, 2.0), min_size=30, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_points_matches_scalar_on_star_polygons(gaps, radii, seed):
    # every angular gap is below pi, so the polygon is simple and star-shaped
    # about the origin; sorted distinct angles repeat no vertex
    angles = 2.0 * math.pi * np.cumsum(gaps) / sum(gaps)
    r = np.array(radii[: len(angles)])
    polygon = Polygon2(np.column_stack((r * np.cos(angles), r * np.sin(angles))))
    pts = np.random.default_rng(seed).uniform(-2.2, 2.2, (60, 2))
    assert_matches_scalar(polygon, np.vstack((pts, edge_probes(polygon.vertices))))


# --- star shape ---------------------------------------------------------------


def test_star_shape_parallel_posture():
    report = check_star_shape(parallel_posture().boundary(), n=3600)
    assert report.ok
    assert report.n_rays == 3600
    assert set(report.crossings) == {1}


def test_star_shape_minimal_run():
    report = check_star_shape(parallel_posture().boundary(), n=16)
    assert len(report.crossings) == 16
    assert report.ok


def test_star_shape_detects_negated_right_reach():
    posture = parallel_posture()
    params = posture.params()
    broken = replace(params, reach_right=-params.reach_right)
    report = check_star_shape(BosBoundary(broken, posture.frame()), n=720)
    assert not report.ok
    assert len(report.violations) > 0


def test_star_shape_counts_match_explicit_rays():
    # difference-array counting agrees with a brute-force segment test
    poly = sample_boundary(parallel_posture().boundary(), 48)
    report = check_star_shape(parallel_posture().boundary(), n=48)
    verts = poly.vertices
    nxt = np.roll(verts, -1, axis=0)
    for j in range(48):
        phi = (j + 0.5) * 2 * math.pi / 48
        u = np.array([math.cos(phi), math.sin(phi)])
        hits = 0
        for p, q in zip(verts, nxt):
            v = q - p
            denom = u[0] * v[1] - u[1] * v[0]
            if denom == 0.0:
                continue
            t = (p[0] * v[1] - p[1] * v[0]) / denom
            s = (p[0] * u[1] - p[1] * u[0]) / denom
            if t > 0.0 and 0.0 <= s < 1.0:
                hits += 1
        assert report.crossings[j] == hits == 1


# --- convexity ------------------------------------------------------------------


def test_square_is_convex():
    assert check_convexity(unit_square())


def test_star_pentagon_is_not_convex():
    assert not check_convexity(star_pentagon())


def test_collinear_vertices_allowed():
    poly = Polygon2(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert check_convexity(poly)


def test_catalog_polygons_convex():
    for posture in posture_catalog():
        poly = sample_boundary(posture.boundary(), 3600)
        assert check_convexity(poly), posture.name


# --- agreement and equivariance ---------------------------------------------------


def test_containment_agreement_parallel():
    report = check_containment_agreement(
        parallel_posture().boundary(), n_points=20_000, seed=5
    )
    assert report.ok
    assert report.agreement_pct >= 99.8
    assert report.max_disagreement_distance <= 1e-6


def test_agreement_consistent_with_classifiers():
    posture = parallel_posture()
    boundary = posture.boundary()
    poly = sample_boundary(boundary, 3600)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.25, 0.25, (2000, 2))
    radial = classify_saddle_points(boundary, pts)
    even_odd = classify_points(poly, pts)
    assert np.mean(radial == even_odd) >= 0.998


def test_counts_checked():
    posture = parallel_posture()
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n_points must be at least 1, got {n}"):
            check_containment_agreement(posture.boundary(), n_points=n)
        with pytest.raises(ValueError, match=f"n_motions must be at least 1, got {n}"):
            check_equivariance(posture.left, posture.right, n_motions=n)


def test_equivariance_fails_when_a_moved_stance_is_rejected():
    # anchors near 1e9 m: a moved copy's coordinates round by about 1e-7 m,
    # past the feet-vs-frame bound of 1e-9 m
    left = FootPose(Point2(1e9, 1000000000.3), math.radians(90), 0.25, 0.10, Side.LEFT)
    right = FootPose(Point2(1e9, 1e9), math.radians(90), 0.25, 0.10, Side.RIGHT)
    report = check_equivariance(left, right, n_motions=3)
    assert not report.ok
    assert type(report.error) is ValueError
    assert str(report.error).endswith("anchor does not match the frame it was paired with")
    posture = parallel_posture()
    assert check_equivariance(posture.left, posture.right, n_motions=3).error is None


def test_equivariance_catalog():
    for posture in posture_catalog():
        report = check_equivariance(posture.left, posture.right, n_motions=4, seed=1)
        assert report.ok, posture.name
        assert report.max_deviation <= 1e-9
