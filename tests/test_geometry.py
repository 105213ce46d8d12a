import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from saddlebos import (
    BosBoundary,
    Containment,
    CoincidentFeetError,
    DegenerateGeometryError,
    FootPose,
    Point2,
    Polygon2,
    SaddleBosError,
    SaddleFrame,
    Side,
    StrictModeUnsupportedError,
    bos_polygon_task_space,
    boundary_point,
    contains,
    derive_bos_params,
    saddle_frame_from_ecops,
    sample_boundary,
    to_saddle_space,
    to_task_space,
    transform_posture,
)
from saddlebos.geometry import (
    DEFAULT_CONTAINS_TOL,
    MAX_BOUNDARY_SAMPLES,
    BoundaryMode,
    classify_saddle_points,
    classify_saddle_polar,
    classify_task_segments,
    saddle_array_from_task,
    stance_rows_from_feet,
    task_array_from_saddle,
)
from saddlebos.oracle import check_star_shape
from saddlebos.trial_io import posture_from_parameters, random_postures

import stance_reference as reference
from strict_reference import strict_point
from helpers import parallel_posture, rotate_xy


# --- frame construction -----------------------------------------------------


def test_frame_from_vertical_anchor_line():
    frame = saddle_frame_from_ecops(Point2(0, 0), Point2(0, 0.3))
    assert frame.origin == Point2(0, 0.15)
    assert frame.separation == pytest.approx(0.3, abs=1e-15)
    assert frame.rotation == 0.0


def test_frame_from_horizontal_anchor_line():
    frame = saddle_frame_from_ecops(Point2(0, 0), Point2(0.3, 0))
    assert frame.origin == Point2(0.15, 0)
    assert frame.rotation == pytest.approx(-math.pi / 2, abs=1e-15)


def test_frame_rejects_coincident_anchors():
    with pytest.raises(CoincidentFeetError):
        saddle_frame_from_ecops(Point2(1, 1), Point2(1, 1))


def test_frame_rotation_is_wrapped():
    frame = saddle_frame_from_ecops(Point2(0, 0.3), Point2(0, 0))
    assert -math.pi < frame.rotation <= math.pi


# --- transforms ---------------------------------------------------------------


def test_to_task_identity_frame():
    frame = SaddleFrame(Point2(0, 0), 0.0, 1.0)
    assert to_task_space(frame, Point2(0.1, 0.2)) == Point2(0.1, 0.2)


def test_to_task_rotated_frame():
    frame = SaddleFrame(Point2(0, 1), math.pi / 2, 1.0)
    p = to_task_space(frame, Point2(1, 0))
    assert p.x == pytest.approx(0.0, abs=1e-12)
    assert p.y == pytest.approx(2.0, abs=1e-12)


def test_to_saddle_inverts_example():
    frame = SaddleFrame(Point2(0, 1), math.pi / 2, 1.0)
    p = to_saddle_space(frame, Point2(0, 2))
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(0.0, abs=1e-12)


def test_round_trip_random_points():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        frame = SaddleFrame(
            Point2(*rng.uniform(-10, 10, 2)), rng.uniform(-math.pi, math.pi), rng.uniform(0, 1)
        )
        p = Point2(*rng.uniform(-10, 10, 2))
        q = to_saddle_space(frame, to_task_space(frame, p))
        assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-12


def test_scalar_transforms_match_array_transforms_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(50):
        frame = SaddleFrame(Point2(*rng.uniform(-10, 10, 2)), rng.uniform(-4, 4), 0.3)
        c, s = math.cos(frame.rotation), math.sin(frame.rotation)
        ox, oy = frame.origin
        pts = rng.uniform(-10, 10, (20, 2))
        task = task_array_from_saddle(frame, pts)
        saddle = saddle_array_from_task(frame, pts)
        for (x, y), t, q in zip(pts.tolist(), task.tolist(), saddle.tolist()):
            # the array kernels follow the scalar formulas' arithmetic order
            assert tuple(t) == (c * x - s * y + ox, s * x + c * y + oy)
            dx, dy = x - ox, y - oy
            assert tuple(q) == (c * dx + s * dy, -s * dx + c * dy)
            assert to_task_space(frame, Point2(x, y)) == Point2(*t)
            assert to_saddle_space(frame, Point2(x, y)) == Point2(*q)


def test_anchors_map_to_half_separation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        right = Point2(*rng.uniform(-3, 3, 2))
        left = Point2(*rng.uniform(-3, 3, 2))
        frame = saddle_frame_from_ecops(right, left)
        ls = to_saddle_space(frame, left)
        rs = to_saddle_space(frame, right)
        half = frame.separation / 2
        assert math.hypot(ls.x, ls.y - half) <= 1e-12
        assert math.hypot(rs.x, rs.y + half) <= 1e-12


# --- boundary parameters ------------------------------------------------------


def test_parallel_worked_example():
    posture = parallel_posture()
    params = posture.params()
    assert params.margin_left == pytest.approx(0.05, abs=1e-12)
    assert params.span_left == pytest.approx(0.125, abs=1e-12)
    assert params.margin_right == pytest.approx(-0.05, abs=1e-12)
    assert params.span_right == pytest.approx(0.125, abs=1e-12)
    assert params.reach_left == pytest.approx(0.20, abs=1e-12)
    assert params.reach_right == pytest.approx(-0.20, abs=1e-12)
    assert params.slope_back == pytest.approx(0.0, abs=1e-12)
    assert params.slope_front == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_right_foot_example():
    posture = parallel_posture()
    right = replace(posture.right, orientation=0.0)
    params = derive_bos_params(posture.frame(), posture.left, right)
    assert params.margin_right == pytest.approx(-0.125, abs=1e-12)
    assert params.span_right == pytest.approx(0.05, abs=1e-12)
    assert params.reach_right == pytest.approx(-0.275, abs=1e-12)


def test_orientation_periodicity():
    posture = parallel_posture()
    base = posture.params()
    shifted_left = replace(posture.left, orientation=posture.left.orientation + 2 * math.pi)
    shifted = derive_bos_params(posture.frame(), shifted_left, posture.right)
    for field in ("reach_left", "reach_right", "span_left", "span_right",
                  "margin_left", "margin_right", "slope_back", "slope_front"):
        assert getattr(shifted, field) == pytest.approx(getattr(base, field), abs=1e-12)


def test_reach_identities_hold():
    posture = parallel_posture(0.42)
    params = posture.params()
    sep = posture.frame().separation
    assert params.reach_left == pytest.approx(sep / 2 + params.margin_left, abs=1e-15)
    assert params.reach_right == pytest.approx(-sep / 2 + params.margin_right, abs=1e-15)


def test_swapped_feet_rejected():
    posture = parallel_posture()
    with pytest.raises(ValueError):
        derive_bos_params(posture.frame(), posture.right, posture.left)


def test_mismatched_frame_rejected():
    posture = parallel_posture()
    other = saddle_frame_from_ecops(Point2(1, 0), Point2(1, 0.3))
    with pytest.raises(ValueError):
        derive_bos_params(other, posture.left, posture.right)


@pytest.mark.parametrize("angle", [0.0, 0.7, 2.5, -1.9])
def test_foot_off_its_frame_rejected(angle):
    # a frame is a function of its feet: an anchor one ulp off is another
    # stance unless its frame rounds to the same one, and a frame built from
    # feet far from the origin is their own
    posture = parallel_posture()

    def moved(foot, shift):
        x, y = rotate_xy(foot.ecop.x, foot.ecop.y, angle)
        return replace(foot, ecop=Point2(x + shift[0], y + shift[1]))

    feet = [moved(posture.left, (0.4, -0.2)), moved(posture.right, (0.4, -0.2))]
    frame = saddle_frame_from_ecops(feet[1].ecop, feet[0].ecop)
    params = derive_bos_params(frame, *feet)
    for side in (0, 1):
        rejected = 0
        x, y = feet[side].ecop
        for ecop in [Point2(math.nextafter(x, d), y) for d in (-math.inf, math.inf)] + [
            Point2(x, math.nextafter(y, d)) for d in (-math.inf, math.inf)
        ]:
            off = list(feet)
            off[side] = replace(feet[side], ecop=ecop)
            if saddle_frame_from_ecops(off[1].ecop, off[0].ecop) == frame:
                assert derive_bos_params(frame, *off) == params
                continue
            with pytest.raises(ValueError, match="^the frame was not built from these feet's anchors$"):
                derive_bos_params(frame, *off)
            rejected += 1
        assert rejected

    # the stance moved 1e9 m away, then rotated about the task origin: its
    # anchors round by about 1e-7 m
    far = transform_posture(
        *(replace(foot, ecop=Point2(foot.ecop.x + 1e9, foot.ecop.y + 1e9))
          for foot in (posture.left, posture.right)),
        angle, Point2(0.0, 0.0),
    )
    derive_bos_params(saddle_frame_from_ecops(far[1].ecop, far[0].ecop), *far)


def test_degenerate_slope_denominator():
    # both feet aligned with the anchor line contribute identical margins
    posture = parallel_posture()
    left = replace(posture.left, orientation=math.pi)
    right = replace(posture.right, orientation=math.pi)
    with pytest.raises(DegenerateGeometryError):
        derive_bos_params(posture.frame(), left, right)


@pytest.mark.parametrize("angle, message", [
    # margins of 0.05 and -0.05 m vanish next to a 1e200 m separation
    (math.pi / 2, "the feet's margins vanish in rounding next to the anchor separation"),
    (0.0, "the feet contribute identical margins"),
])
def test_a_vanishing_slope_denominator_names_its_cause(angle, message):
    posture = posture_from_parameters("apart", 1e200, angle, angle)
    with pytest.raises(DegenerateGeometryError, match=message):
        derive_bos_params(posture.frame(), posture.left, posture.right)
    with pytest.raises(DegenerateGeometryError, match=message):
        stance_rows_from_feet(*feet_arrays([(posture.left, posture.right)]))


# --- boundary evaluation ------------------------------------------------------


def test_boundary_point_continuous_examples():
    boundary = parallel_posture().boundary()
    top = boundary_point(boundary, math.pi / 2)
    assert (top.x, top.y) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.20, abs=1e-12))
    front = boundary_point(boundary, 0.0)
    assert (front.x, front.y) == (pytest.approx(0.125, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    back = boundary_point(boundary, math.pi)
    assert (back.x, back.y) == (pytest.approx(-0.125, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_boundary_point_wraps_angle():
    boundary = parallel_posture().boundary()
    a = boundary_point(boundary, 0.3)
    b = boundary_point(boundary, 0.3 + 2 * math.pi)
    assert a.x == pytest.approx(b.x, abs=1e-12)
    assert a.y == pytest.approx(b.y, abs=1e-12)


def test_strict_edges_match_continuous_for_parallel_stance():
    posture = parallel_posture()
    frame, params = posture.frame(), posture.params()
    strict = BosBoundary(params, frame, BoundaryMode.STRICT)
    cont = BosBoundary(params, frame)
    # on the straight edges the two modes give the same vertical lines
    hits = 0
    for phi in (0.8, 1.2, math.pi - 0.8, math.pi + 0.9, -1.0):
        ps = boundary_point(strict, phi)
        if abs(abs(ps.x) - 0.125) <= 1e-12:
            hits += 1
            pc = boundary_point(cont, math.atan2(ps.y, ps.x))
            assert pc.x == pytest.approx(ps.x, abs=1e-12)
            assert pc.y == pytest.approx(ps.y, abs=1e-12)
    assert hits >= 4


def test_strict_traces_verbatim_branches():
    params = parallel_posture().params()
    strict = BosBoundary(params, parallel_posture().frame(), BoundaryMode.STRICT)
    # arc branch: x = reach*sin, y = reach*cos while |x| stays within the span
    p = boundary_point(strict, 0.2)
    assert p.y == pytest.approx(0.2 * math.cos(0.2), abs=1e-12)
    assert p.x == pytest.approx(0.2 * math.sin(0.2), abs=1e-12)
    # line fallback once the arc abscissa exceeds the span
    p = boundary_point(strict, 1.0)
    assert p.x == pytest.approx(0.125, abs=1e-12)
    assert p.y == pytest.approx(0.2 * math.cos(1.0), abs=1e-12)


def test_degenerate_span_rejected():
    params = parallel_posture().params()
    bad = replace(params, span_left=0.25)  # exceeds reach_left
    with pytest.raises(DegenerateGeometryError):
        boundary_point(BosBoundary(bad, parallel_posture().frame()), 0.0)


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_degenerate_caps_fail_at_construction(mode):
    bad = replace(parallel_posture().params(), span_right=0.25)  # exceeds -reach_right
    with pytest.raises(DegenerateGeometryError):
        BosBoundary(bad, parallel_posture().frame(), mode)


def test_sample_boundary_four_points():
    poly = sample_boundary(parallel_posture().boundary(), 4)
    expected = np.array([[0.125, 0.0], [0.0, 0.20], [-0.125, 0.0], [0.0, -0.20]])
    assert np.abs(poly.vertices - expected).max() <= 1e-12


def test_sample_boundary_rejects_tiny_n():
    with pytest.raises(ValueError):
        sample_boundary(parallel_posture().boundary(), 2)


def test_sample_boundary_rejects_counts_above_the_bound():
    # the check runs before anything is allocated; a count this large is never sampled
    with pytest.raises(ValueError, match=f"got {MAX_BOUNDARY_SAMPLES + 1}$"):
        sample_boundary(parallel_posture().boundary(), MAX_BOUNDARY_SAMPLES + 1)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 2000),
    phis=st.lists(st.floats(-20.0, 20.0), max_size=20),
)
def test_strict_points_equal_the_scalar_formulas(seed, n, phis):
    posture = random_postures(1, seed=seed)[0]
    strict = BosBoundary(posture.params(), posture.frame(), BoundaryMode.STRICT)
    grid = TWO_PI * np.arange(n) / n
    want = np.array([tuple(strict_point(strict.params, p)) for p in grid])
    assert sample_boundary(strict, n).vertices.tobytes() == want.tobytes()
    # the branch edges, the angles just beside them, and arbitrary angles
    quarters = [k * math.pi / 2.0 for k in range(4)]
    edges = quarters + [math.nextafter(q, side) for q in quarters for side in (-math.inf, math.inf)]
    for phi in edges + phis:
        got = boundary_point(strict, phi)
        want = strict_point(strict.params, phi % TWO_PI)
        assert (got.x, got.y) == (want.x, want.y)
        assert repr(got) == repr(want)  # -0.0 against 0.0 as well


def test_sample_boundary_counterclockwise():
    poly = sample_boundary(parallel_posture().boundary(), 64)
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    area2 = np.sum(v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0])
    assert area2 > 0


def test_sample_boundary_is_continuous():
    poly = sample_boundary(parallel_posture().boundary(), 3600)
    v = poly.vertices
    gaps = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
    extent = max(np.ptp(v[:, 0]), np.ptp(v[:, 1]))
    assert gaps.max() < 0.01 * extent


def test_sampled_vertices_classify_on():
    boundary = parallel_posture().boundary()
    poly = sample_boundary(boundary, 8)
    for x, y in poly.vertices:
        assert contains(boundary, Point2(x, y)) is Containment.ON


def test_contains_examples():
    boundary = parallel_posture().boundary()
    assert contains(boundary, Point2(0, 0)) is Containment.INSIDE
    assert contains(boundary, Point2(0, 0.21)) is Containment.OUTSIDE
    assert contains(boundary, Point2(0.124, 0)) is Containment.INSIDE


def test_contains_tolerance_band():
    boundary = parallel_posture().boundary()
    assert contains(boundary, Point2(0, 0.2 + 5e-10)) is Containment.ON
    assert contains(boundary, Point2(0, 0.2 + 5e-10), tol=1e-12) is Containment.OUTSIDE


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, -1e-300])
def test_containment_rejects_a_bad_tol(tol):
    posture = parallel_posture()
    boundary = posture.boundary()
    message = "containment tol must be finite and at least 0"
    with pytest.raises(ValueError, match=message):
        classify_saddle_points(boundary, np.zeros((3, 2)), tol)
    table = stance_rows_from_feet(*feet_arrays([(posture.left, posture.right)]))
    with pytest.raises(ValueError, match=message):
        classify_task_segments(table, 3, np.zeros((3, 2)), tol)
    with pytest.raises(ValueError, match=message):
        contains(boundary, Point2(0, 0), tol)
    assert contains(boundary, Point2(0, 0.2), tol=0.0) is Containment.ON


def test_contains_strict_mode_refused():
    posture = parallel_posture()
    strict = BosBoundary(posture.params(), posture.frame(), BoundaryMode.STRICT)
    with pytest.raises(StrictModeUnsupportedError):
        contains(strict, Point2(0, 0))


def test_classify_saddle_polar_needs_one_angle_per_radius():
    boundary = parallel_posture().boundary()
    for radii, phis in ((np.ones(3), np.zeros(2)), (np.ones((3, 1)), np.zeros((3, 1)))):
        with pytest.raises(ValueError, match="^need one radius and one angle per point$"):
            classify_saddle_polar(boundary, radii, phis)


# --- per-segment classification ---------------------------------------------


def feet_arrays(feet):
    """The (m, 5) left and right foot arrays of ``stance_rows_from_feet``
    for m ``(left, right)`` pairs of foot poses."""
    return tuple(
        np.array([(*foot.ecop, foot.orientation, foot.length, foot.width) for foot in side])
        for side in zip(*feet)
    )


def moved_stances(seed, count):
    """``count`` random non-degenerate stances, each moved rigidly in task
    space: its feet, frame and boundary."""
    rng = np.random.default_rng(seed)
    stances = []
    for posture in random_postures(count, seed=seed):
        shift = Point2(*rng.uniform(-2.0, 2.0, 2))
        left, right = transform_posture(posture.left, posture.right, rng.uniform(-4, 4), shift)
        frame = saddle_frame_from_ecops(right.ecop, left.ecop)
        boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
        stances.append(((left, right), frame, boundary))
    return stances


def stance_table(stances):
    """The stance table of ``moved_stances``, built from their feet."""
    return stance_rows_from_feet(*feet_arrays([feet for feet, _, _ in stances]))


def stance_task_points(frame, boundary, count, rng):
    """Task-space points for one stance: half scattered around it, half on
    its boundary vertices pushed +-0.5 and +-2 tol along their radius."""
    verts = sample_boundary(boundary, 48).vertices[rng.integers(0, 48, count)]
    push = rng.choice([-2.0, -0.5, 0.5, 2.0], (count, 1)) * DEFAULT_CONTAINS_TOL
    near_edge = verts * (1.0 + push / np.hypot(verts[:, :1], verts[:, 1:]))
    scattered = rng.uniform(-0.4, 0.4, (count, 2))
    saddle = np.where(rng.random((count, 1)) < 0.5, near_edge, scattered)
    return task_array_from_saddle(frame, saddle)


@pytest.mark.parametrize("step_of", [lambda n: 1, lambda n: 3, lambda n: n, lambda n: n + 5],
                         ids=["1", "3", "n", "n+5"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@example(seed=0, n=10)  # step 3 leaves a last segment of one sample
def test_classify_task_segments_equals_per_segment_calls(step_of, seed, n):
    step = step_of(n)
    stances = moved_stances(seed, -(-n // step))
    rng = np.random.default_rng(seed)
    pts, want_saddle, want_codes = [], [], []
    for k, (_, frame, boundary) in enumerate(stances):
        seg = stance_task_points(frame, boundary, min(step, n - k * step), rng)
        pts.append(seg)
        want_saddle.append(saddle_array_from_task(frame, seg))
        want_codes.append(classify_saddle_points(boundary, want_saddle[-1]))
    saddle, codes = classify_task_segments(stance_table(stances), step, np.concatenate(pts))
    assert saddle.tobytes() == np.concatenate(want_saddle).tobytes()
    assert np.array_equal(codes, np.concatenate(want_codes))
    assert codes.dtype == np.int8


def test_classify_task_segments_needs_one_stance_per_segment():
    stances = moved_stances(1, 3)
    pts = np.zeros((7, 2))
    classify_task_segments(stance_table(stances), 3, pts)
    for wrong in (stances[:2], stances + stances[:1]):
        with pytest.raises(ValueError):
            classify_task_segments(stance_table(wrong), 3, pts)
    with pytest.raises(ValueError, match="step must be at least 1, got 0"):
        classify_task_segments(stance_table(stances), 0, pts)


def test_anchors_inside_for_catalog():
    from saddlebos import posture_catalog

    for posture in posture_catalog():
        boundary = posture.boundary()
        frame = posture.frame()
        for foot in (posture.left, posture.right):
            p = to_saddle_space(frame, foot.ecop)
            assert contains(boundary, p) is Containment.INSIDE, posture.name


# --- full pipeline ------------------------------------------------------------


def test_bos_polygon_mirror_symmetric_for_parallel_stance():
    posture = parallel_posture()
    v = bos_polygon_task_space(posture.left, posture.right, 360).vertices
    n = len(v)
    flipped = np.column_stack((v[:, 0], -v[:, 1]))
    reordered = flipped[(n - np.arange(n)) % n]
    assert np.hypot(*(v - reordered).T).max() <= 1e-9


def test_bos_polygon_translation_equivariance():
    posture = parallel_posture()
    base = bos_polygon_task_space(posture.left, posture.right, 90).vertices
    left, right = transform_posture(posture.left, posture.right, 0.0, Point2(1, 2))
    moved = bos_polygon_task_space(left, right, 90).vertices
    assert np.abs(moved - (base + np.array([1.0, 2.0]))).max() <= 1e-12


def test_bos_polygon_rotation_equivariance():
    posture = parallel_posture()
    angle = math.radians(30)
    base = bos_polygon_task_space(posture.left, posture.right, 90).vertices
    left, right = transform_posture(posture.left, posture.right, angle, Point2(0, 0))
    moved = bos_polygon_task_space(left, right, 90).vertices
    expected = np.array([rotate_xy(x, y, angle) for x, y in base])
    assert np.hypot(*(moved - expected).T).max() <= 1e-9


def test_transform_posture_keeps_relative_orientation():
    posture = parallel_posture()
    left, right = transform_posture(posture.left, posture.right, 1.234, Point2(-4, 2))
    assert left.orientation == posture.left.orientation
    assert right.orientation == posture.right.orientation
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    assert frame.separation == pytest.approx(0.30, abs=1e-12)


# --- type validation ----------------------------------------------------------


def test_point_requires_finite_components():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


def test_foot_pose_validation():
    with pytest.raises(ValueError):
        FootPose(Point2(0, 0), 0.0, -0.25, 0.10, Side.LEFT)
    foot = FootPose(Point2(0, 0), -math.pi / 2, 0.25, 0.10, Side.LEFT)
    assert foot.orientation == pytest.approx(1.5 * math.pi)


@pytest.mark.parametrize("length, width, message", [
    pytest.param(math.inf, 0.10, "left foot length must be finite, got inf", id="inf-length"),
    pytest.param(0.25, math.inf, "left foot width must be finite, got inf", id="inf-width"),
    pytest.param(math.nan, 0.10, "left foot length must be finite, got nan", id="nan-length"),
    pytest.param(-math.inf, 0.10, "left foot length must be finite, got -inf", id="-inf-length"),
])
def test_foot_pose_rejects_non_finite_dimensions(length, width, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FootPose(Point2(0, 0), 0.0, length, width, Side.LEFT)


@pytest.mark.parametrize("orientation, length, width, message", [
    (math.nan, 0.25, 0.10, "right foot orientation must be finite, got nan"),
    (-math.inf, 0.25, 0.10, "right foot orientation must be finite, got -inf"),
    # finiteness is checked before sign, field by field
    (math.nan, -0.25, 0.10, "right foot orientation must be finite, got nan"),
    (0.0, -0.25, math.nan, "right foot width must be finite, got nan"),
    (0.0, 0.0, 0.10, "right foot length must be positive, got 0.0"),
    (0.0, 0.25, -0.10, "right foot width must be positive, got -0.1"),
])
def test_foot_pose_names_the_side_the_field_and_the_value(orientation, length, width, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FootPose(Point2(0, 0), orientation, length, width, Side.RIGHT)


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon2(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Polygon2(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0 + 1e-13], [0.0, 1.0]]))
    poly = Polygon2(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 5.0


@settings(max_examples=200, deadline=None)
@given(
    origin=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    rotation=st.floats(-math.pi, math.pi),
    separation=st.floats(0.0, 1.0),
    p=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
def test_task_point_survives_the_saddle_round_trip(origin, rotation, separation, p):
    # frame origin and point within 10 m: the round trip is exact to 1e-12 m
    frame = SaddleFrame(Point2(*origin), rotation, separation)
    q = to_task_space(frame, to_saddle_space(frame, Point2(*p)))
    assert math.hypot(q.x - p[0], q.y - p[1]) <= 1e-12


# --- one stance implementation ------------------------------------------------

TWO_PI = 2.0 * math.pi
ORIENTATIONS = st.sampled_from([
    0.0, -0.0, math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0), math.pi / 2, math.pi,
    TWO_PI, math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, 7.0), -math.pi / 2,
]) | st.floats(-7.0, 14.0) | st.floats(1.0, 2.2)  # the last: a forward-pointing foot
OVERFLOW = "boundary is too large: a cap radius squared overflows a float"


def scalar_stance_outcome(frame_of, params_of, shape_of, left, right):
    """The frame, parameters, shape and stance row of two feet, as bytes, or
    the error type and message."""
    try:
        frame = frame_of(right.ecop, left.ecop)
        params = params_of(frame, left, right)
        shape = shape_of(params, frame)
    except Exception as exc:  # any error: the library must raise the reference's
        return type(exc), str(exc)
    row = (*frame.origin, math.cos(frame.rotation), math.sin(frame.rotation), *shape)
    return np.array([*frame.origin, frame.rotation, frame.separation, *vars(params).values(),
                     *shape, *row]).tobytes()


def library_shape(params, frame):
    return BosBoundary(params, frame)._shape


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_scalar_stance_equals_the_reference_bit_for_bit(data):
    kind = data.draw(st.sampled_from(
        ["random"] * 4 + ["aligned", "narrow", "coincident", "huge", "apart"]
    ))
    scale = data.draw(st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e9]))
    x, y = (data.draw(st.floats(-scale, scale)) for _ in range(2))
    direction = data.draw(st.floats(-4.0, 4.0))
    separation = {
        "narrow": data.draw(st.floats(0.0, 0.05)),
        "coincident": data.draw(st.sampled_from([0.0, 1e-10, 1e-9, 2e-9])),
        # the margins may vanish in rounding next to the separation
        "apart": data.draw(st.sampled_from([1e14, 1e15, 1e16, 1e17, 1e100, 1e200])),
    }.get(kind, data.draw(st.floats(0.05, 1.0)))
    lengths, widths = [
        [data.draw(st.floats(lo, hi)) for _ in range(2)] for lo, hi in ((0.05, 0.4), (0.03, 0.15))
    ]
    orientations = [data.draw(ORIENTATIONS) for _ in range(2)]
    if kind == "aligned":  # identical margins: no edge slope
        orientations = [data.draw(st.sampled_from([0.0, math.pi, TWO_PI]))] * 2
        lengths, widths = lengths[:1] * 2, widths[:1] * 2
    elif kind == "narrow":
        lengths = [data.draw(st.floats(0.2, 0.4))] * 2
    elif kind == "huge":  # a cap radius squared may overflow
        lengths = [data.draw(st.sampled_from([1e150, 1e154, 1e155, 1e200, 1e300])) for _ in range(2)]
    left = FootPose(Point2(x, y), orientations[0], lengths[0], widths[0], Side.LEFT)
    right = FootPose(
        Point2(x - separation * math.cos(direction), y - separation * math.sin(direction)),
        orientations[1], lengths[1], widths[1], Side.RIGHT,
    )
    want = scalar_stance_outcome(
        reference.saddle_frame_from_ecops, reference.derive_bos_params,
        lambda params, frame: reference.continuous_shape(params), left, right,
    )
    if want[0] is OverflowError:  # the reference's traceback is now a one-line error
        want = (DegenerateGeometryError, OVERFLOW)
    assert scalar_stance_outcome(
        saddle_frame_from_ecops, derive_bos_params, library_shape, left, right
    ) == want


#: 1e-16 to 1e-2 rad either way
NEAR_OFFSETS = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -2.0)
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_stance_is_built_with_a_usable_boundary_or_rejected(data):
    """Build or reject.  Feet near 90 deg + atan(length / width), where a
    foot's span is 0 and both together leave no area, and at other angles
    either fail to build, or sample, classify and map to task space.  An
    accepted boundary keeps every sampled vertex off the origin, along its
    own sample direction and less than pi from its neighbours, so each
    polygon edge subtends a well-defined arc from the origin, and the
    boundary is star-shaped about it."""
    feet = []
    for _ in Side:
        length, width = data.draw(st.floats(0.05, 0.4)), data.draw(st.floats(0.03, 0.15))
        critical = math.pi / 2 + math.atan(length / width)
        feet.append((data.draw(NEAR_OFFSETS.map(lambda d: critical + d) | ORIENTATIONS), length, width))
    x, y = (data.draw(st.floats(-10.0, 10.0)) for _ in range(2))
    separation, direction = data.draw(st.floats(0.05, 1.0)), data.draw(st.floats(-4.0, 4.0))
    left = FootPose(Point2(x, y), *feet[0], Side.LEFT)
    right = FootPose(
        Point2(x - separation * math.cos(direction), y - separation * math.sin(direction)),
        *feet[1], Side.RIGHT,
    )
    try:
        frame = saddle_frame_from_ecops(right.ecop, left.ecop)
        boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
    except (SaddleBosError, ValueError):
        return
    for n in (360, 3600):
        verts = sample_boundary(boundary, n).vertices
        assert np.hypot(verts[:, 0], verts[:, 1]).min() > 1e-12
        phis = TWO_PI * np.arange(n) / n
        assert (verts[:, 0] * np.cos(phis) + verts[:, 1] * np.sin(phis)).min() > 0.0
        theta = np.arctan2(verts[:, 1], verts[:, 0])
        gaps = np.abs(np.mod(np.roll(theta, -1) - theta + math.pi, TWO_PI) - math.pi)
        assert gaps.max() < math.pi - 1e-9
    assert check_star_shape(sample_boundary(boundary, 720)).ok
    assert contains(boundary, Point2(*verts[0])) in Containment
    bos_polygon_task_space(left, right)
