import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from saddlebos import (
    Containment,
    DegenerateGeometryError,
    FootPose,
    Point2,
    Polygon2,
    Side,
    classify_saddle_points,
    posture_catalog,
    random_postures,
    sample_boundary,
)
from saddlebos import oracle
from saddlebos.oracle import (
    check_containment_agreement,
    check_convexity,
    check_equivariance,
    check_star_shape,
    classify_points,
    point_in_polygon,
)

import even_odd_reference as reference
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
        if names[int(code)] is not reference.point_in_polygon(polygon, Point2(x, y))
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


def test_classify_points_matches_scalar_on_ties():
    # every grid row shares one y and every vertex lies on its own edges, so
    # the sort that orders the points by y meets long runs of equal keys
    polygon = sample_boundary(posture_catalog()[2].boundary(), 720)
    lo, hi = polygon.bounding_box()
    xs, ys = np.meshgrid(np.linspace(lo.x, hi.x, 121), np.linspace(lo.y, hi.y, 121))
    grid = np.column_stack((xs.ravel(), ys.ravel()))
    assert_matches_scalar(polygon, np.vstack((grid, polygon.vertices)))


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


@st.composite
def axis_parallel_polygons(draw):
    """Polygons of 3 to 12 vertices, each vertex either free or sharing x or
    y with the one before (so many edges are axis-parallel), moved by up to
    1e6 m.  Not necessarily simple: the even-odd rule is defined anyway."""
    n = draw(st.integers(3, 12))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    verts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    for i, snap in enumerate(draw(st.lists(st.sampled_from([0, 1, None]), min_size=n, max_size=n))):
        if i and snap is not None:
            verts[i, snap] = verts[i - 1, snap]
    offset = st.floats(-1e6, 1e6, allow_subnormal=False)
    verts = verts + np.array([draw(offset), draw(offset)])
    d = np.roll(verts, -1, axis=0) - verts
    assume((np.hypot(d[:, 0], d[:, 1]) > 1e-6).all())
    return Polygon2(verts)


def ulp_steps(pts, k):
    """``pts`` moved ``k`` ulps towards +inf (or -inf for negative ``k``), in x
    and, separately, in y."""
    moved = []
    for axis in (0, 1):
        q = pts.copy()
        for _ in range(abs(k)):
            q[:, axis] = np.nextafter(q[:, axis], math.copysign(math.inf, k))
        moved.append(q)
    return np.vstack(moved)


@settings(max_examples=80, deadline=None)
@given(
    polygon=axis_parallel_polygons(),
    tol=st.sampled_from([0.0, 1e-9, 1e-3]),
    t=st.floats(0.0, 1.0),
)
@example(
    # one ulp to the right of a vertical edge's midpoint is On at tol 1e-9,
    # though it lies outside the edge's x range: no x margin drops it
    polygon=Polygon2(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + 1e6),
    tol=1e-9,
    t=0.5,
)
@example(
    # one ulp left of the vertex at x = a is On at tol 0: the edge from x = 1
    # computes its end as 1 + (a - 1), which rounds to that point, so a
    # margin of 2 * tol without the four ulps drops it
    polygon=Polygon2(np.array([[1.0, 0.0], [-0.9127555772777217, 0.0], [0.0, 1.0]])),
    tol=0.0,
    t=0.0,
)
def test_on_test_prefilter_keeps_every_on_point(polygon, tol, t):
    # only pairs whose x lies within 2 * tol plus four ulps of an edge's x
    # range are measured; points on, a few ulps off and tol off the edges
    verts = polygon.vertices
    on_edges = verts + t * (np.roll(verts, -1, axis=0) - verts)
    base = np.vstack((edge_probes(verts, tol=tol), on_edges))
    axis_steps = [base + s for s in ((tol, 0.0), (-tol, 0.0), (0.0, tol), (0.0, -tol))]
    pts = np.vstack([base, *axis_steps] + [ulp_steps(base, k) for k in (1, -1, 3, -3)])
    codes = classify_points(polygon, pts, tol)
    want = [reference.point_in_polygon(polygon, Point2(x, y), tol) for x, y in pts]
    assert [c == 0 for c in codes.tolist()] == [w is Containment.ON for w in want]
    if tol > 0.0:
        # at tol 0 the kernel's crossing x, rounded in another order than the
        # reference's, may split a point an ulp off a slanted edge otherwise
        names = {1: Containment.INSIDE, 0: Containment.ON, -1: Containment.OUTSIDE}
        assert [names[c] for c in codes.tolist()] == want


def test_distance_to_edges_matches_the_reference_bit_for_bit():
    # 600 points span 19 of the kernel's blocks, the last one partial
    polygon = stance_polygon(random_postures(1, seed=3)[0])
    lo, hi = polygon.bounding_box()
    pts = np.random.default_rng(2).uniform((lo.x, lo.y), (hi.x, hi.y), (600, 2))
    want = [reference.distance_to_edges(polygon.vertices, p) for p in pts]
    assert oracle._distance_to_edges(polygon.vertices, pts).tolist() == want
    assert oracle._distance_to_edges(polygon.vertices, pts[:0]).shape == (0,)


# --- star shape ---------------------------------------------------------------


def test_star_shape_parallel_posture():
    report = check_star_shape(sample_boundary(parallel_posture().boundary(), 3600))
    assert report.ok
    assert report.n_rays == 3600
    assert set(report.crossings) == {1}


def test_star_shape_minimal_run():
    report = check_star_shape(sample_boundary(parallel_posture().boundary(), 16))
    assert len(report.crossings) == 16
    assert report.ok


def test_star_shape_detects_negated_right_reach():
    # the shape stage rejects a right cap on the left side, so the polygon it
    # would sample is built here: the right cap's vertices mirrored through
    # the origin onto the left cap's side
    boundary = parallel_posture().boundary()
    verts = sample_boundary(boundary, 720).vertices.copy()
    right_cap = np.isclose(np.hypot(*verts.T), -boundary.params.reach_right) & (verts[:, 1] < 0.0)
    verts[right_cap] *= -1.0
    report = check_star_shape(Polygon2(verts))
    assert not report.ok
    assert len(report.violations) > 0


def test_star_shape_counts_match_explicit_rays():
    # difference-array counting agrees with a brute-force segment test
    poly = sample_boundary(parallel_posture().boundary(), 48)
    report = check_star_shape(poly)
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


@pytest.mark.parametrize("index", range(len(posture_catalog())))
def test_containment_agreement_fails_a_radius_off_by_1e_4(monkeypatch, index):
    # validate's defaults: 20 000 points, seeded with the catalog index
    boundary = posture_catalog()[index].boundary()
    assert check_containment_agreement(boundary, n_points=20_000, seed=index).ok
    radial = oracle.classify_saddle_points
    # a classifier whose boundary radius is 1 + 1e-4 times the true one
    monkeypatch.setattr(
        oracle, "classify_saddle_points", lambda b, pts, tol: radial(b, pts / (1 + 1e-4), tol)
    )
    report = check_containment_agreement(boundary, n_points=20_000, seed=index)
    assert not report.ok
    assert report.max_disagreement_distance > oracle.MAX_DISAGREEMENT_DISTANCE


def cornered_polygon(boundary):
    """The boundary sampled at 3600 angles plus its four corners, where a cap
    meets a straight edge, in polar-angle order.  A corner within 1e-12 m of
    a sample is left out."""
    p = boundary.params
    ax, bx = abs(p.span_left), abs(p.span_right)
    h_left = math.sqrt(p.reach_left**2 - ax**2)
    h_right = math.sqrt(p.reach_right**2 - bx**2)
    samples = sample_boundary(boundary, 3600).vertices
    corners = np.array([(ax, h_left), (-ax, h_left), (bx, -h_right), (-bx, -h_right)])
    new = [np.hypot(*(samples - c).T).min() > 1e-12 for c in corners]
    verts = np.vstack((samples, corners[new]))
    return Polygon2(verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=12)  # without its corners, a point 4.0e-5 m off the 3600-gon disagrees
def test_radial_and_even_odd_containment_agree_on_the_cornered_polygon(seed):
    boundary = random_postures(1, seed)[0].boundary()
    polygon = cornered_polygon(boundary)
    lo, hi = polygon.bounding_box()
    pts = np.random.default_rng(seed).uniform((lo.x, lo.y), (hi.x, hi.y), (20_000, 2))
    disagree = pts[classify_saddle_points(boundary, pts, 1e-9) != classify_points(polygon, pts, 1e-9)]
    assert 100.0 * (len(pts) - len(disagree)) / len(pts) >= 99.8
    assert oracle._distance_to_edges(polygon.vertices, disagree).max(initial=0.0) <= 1e-6


def agreement_at_once(boundary, n_points, seed):
    """check_containment_agreement's report from one (n_points, 2) draw,
    with both classifiers run over all the points at once."""
    poly = sample_boundary(boundary, oracle.AGREEMENT_VERTICES)
    lo, hi = poly.bounding_box()
    pts = np.random.default_rng(seed).uniform((lo.x, lo.y), (hi.x, hi.y), size=(n_points, 2))
    tol = oracle.AGREEMENT_TOL
    disagree = pts[oracle.classify_saddle_points(boundary, pts, tol) != classify_points(poly, pts, tol)]
    return oracle.AgreementReport(
        n_points=n_points,
        n_disagreements=len(disagree),
        agreement_pct=100.0 * (n_points - len(disagree)) / n_points,
        max_disagreement_distance=float(
            oracle._distance_to_edges(poly.vertices, disagree).max(initial=0.0)
        ),
    )


@st.composite
def blocks_and_counts(draw):
    block = draw(st.sampled_from([1, 7, 4096]))
    edges = st.sampled_from([n for n in (1, block - 1, block, block + 1) if n >= 1])
    return block, draw(st.one_of(edges, st.integers(1, 3 * block + 2)))


# random-3 has one disagreeing point at validate's defaults
AGREEMENT_POSTURES = [*posture_catalog(), random_postures(1, seed=3)[0]]


@settings(max_examples=40, deadline=None)
@given(
    block_and_count=blocks_and_counts(),
    index=st.integers(0, len(AGREEMENT_POSTURES) - 1),
    seed=st.integers(0, 2**32 - 1),
    radius_off=st.booleans(),
)
@example(block_and_count=(1, 1), index=0, seed=0, radius_off=True)
@example(block_and_count=(7, 6), index=1, seed=1, radius_off=True)
@example(block_and_count=(7, 8), index=2, seed=2, radius_off=False)
@example(block_and_count=(7, 20), index=0, seed=1, radius_off=True)  # a disagreement in the last block
@example(block_and_count=(4096, 4095), index=3, seed=3, radius_off=True)
@example(block_and_count=(4096, 4097), index=4, seed=4, radius_off=True)
@example(block_and_count=(4096, 20_000), index=6, seed=3, radius_off=False)
def test_containment_agreement_blocks_match_one_pass(block_and_count, index, seed, radius_off):
    block, n_points = block_and_count
    boundary = AGREEMENT_POSTURES[index].boundary()
    radial = oracle.classify_saddle_points
    # a radius 5% too large puts disagreeing points in most blocks
    scale = 1.05 if radius_off else 1.0
    with mock.patch.object(
        oracle, "classify_saddle_points", lambda b, pts, tol: radial(b, pts / scale, tol)
    ), mock.patch.object(oracle, "_AGREEMENT_BLOCK", block):
        got = check_containment_agreement(boundary, n_points=n_points, seed=seed)
        assert got == agreement_at_once(boundary, n_points, seed)

    # successive per-block draws are the points of one draw, bit for bit
    lo, hi = sample_boundary(boundary, oracle.AGREEMENT_VERTICES).bounding_box()
    rng = np.random.default_rng(seed)
    sizes = [min(block, n_points - start) for start in range(0, n_points, block)]
    blocks = [rng.uniform((lo.x, lo.y), (hi.x, hi.y), size=(k, 2)) for k in sizes]
    one = np.random.default_rng(seed).uniform((lo.x, lo.y), (hi.x, hi.y), size=(n_points, 2))
    assert np.concatenate(blocks).tobytes() == one.tobytes()


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


def test_negative_seed_is_named():
    posture = parallel_posture()
    message = "seed must be at least 0, got -1"
    with pytest.raises(ValueError, match=message):
        check_containment_agreement(posture.boundary(), n_points=10, seed=-1)
    with pytest.raises(ValueError, match=message):
        check_equivariance(posture.left, posture.right, n_motions=1, seed=-1)
    with pytest.raises(ValueError, match=message):
        random_postures(0, seed=-1)


def test_equivariance_fails_when_a_moved_stance_is_rejected(monkeypatch):
    posture = parallel_posture()
    assert check_equivariance(posture.left, posture.right, n_motions=3).error is None
    # anchors near 1e9 m: the moved copies build, but round by about 1e-7 m
    left = FootPose(Point2(1e9, 1000000000.3), math.radians(90), 0.25, 0.10, Side.LEFT)
    right = FootPose(Point2(1e9, 1e9), math.radians(90), 0.25, 0.10, Side.RIGHT)
    far = check_equivariance(left, right, n_motions=3)
    assert far.error is None and not far.ok

    def rejected(*args):
        raise DegenerateGeometryError("the moved stance has no boundary")

    monkeypatch.setattr(oracle, "transform_posture", rejected)
    report = check_equivariance(posture.left, posture.right, n_motions=3)
    assert not report.ok
    assert type(report.error) is DegenerateGeometryError
    assert str(report.error) == "the moved stance has no boundary"


def test_equivariance_catalog():
    for posture in posture_catalog():
        report = check_equivariance(posture.left, posture.right, n_motions=4, seed=1)
        assert report.ok, posture.name
        assert report.max_deviation <= 1e-9
