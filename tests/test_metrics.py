import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from saddlebos import (
    BosBoundary,
    ComTrajectory,
    CovarianceEllipse,
    DegenerateCovarianceError,
    EmptyTrajectoryError,
    Point2,
    compute_report,
    covariance_ellipse,
    classify_saddle_points,
    classify_saddle_polar,
    outer_border,
    poi,
    poi360,
    random_postures,
    saddle_polar,
    score_saddle_samples,
    to_task_space,
    transform_posture,
    saddle_frame_from_ecops,
    derive_bos_params,
)
from saddlebos.geometry import (
    TWO_PI,
    _continuous_radii,
    _continuous_shape,
    saddle_array_from_task,
    task_array_from_saddle,
)
from saddlebos import metrics
from saddlebos.metrics import MAX_BINS

from helpers import parallel_posture


def traj_from_xy(points, dt=0.01):
    points = np.asarray(points, dtype=float)
    return ComTrajectory(dt * np.arange(len(points)), points)


def saddle_traj_to_task(frame, saddle_points, dt=0.01):
    task = np.array([tuple(to_task_space(frame, Point2(x, y))) for x, y in saddle_points])
    return traj_from_xy(task, dt)


def scaled_boundary_trajectory(posture, factor, n=500, seed=0):
    """Samples at ``factor`` times the boundary radius, random directions."""
    rng = np.random.default_rng(seed)
    shape = _continuous_shape(posture.params())
    phis = np.sort(rng.uniform(-math.pi, math.pi, n))
    radii = factor * _continuous_radii(shape, phis)
    saddle = np.column_stack((radii * np.cos(phis), radii * np.sin(phis)))
    return saddle_traj_to_task(posture.frame(), saddle)


# --- poi ------------------------------------------------------------------


def test_poi_all_at_origin():
    posture = parallel_posture()
    traj = saddle_traj_to_task(posture.frame(), np.zeros((100, 2)))
    assert poi(traj, posture.boundary(), posture.frame()) == 100.0


def test_poi_simple_ratio():
    posture = parallel_posture()
    saddle = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.1], [0.0, 5.0]])
    traj = saddle_traj_to_task(posture.frame(), saddle)
    assert poi(traj, posture.boundary(), posture.frame()) == 75.0


def test_poi_circle_beyond_reach():
    posture = parallel_posture()
    r = 2 * posture.params().reach_left
    phis = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    saddle = np.column_stack((r * np.cos(phis), r * np.sin(phis)))
    traj = saddle_traj_to_task(posture.frame(), saddle)
    assert poi(traj, posture.boundary(), posture.frame()) == 0.0


def test_poi_counts_on_as_inside():
    posture = parallel_posture()
    traj = saddle_traj_to_task(posture.frame(), [[0.0, 0.20], [0.0, 0.0]])
    assert poi(traj, posture.boundary(), posture.frame()) == 100.0


def test_poi_permutation_invariant():
    posture = parallel_posture()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.3, 0.3, (40, 2))
    traj_a = saddle_traj_to_task(posture.frame(), pts)
    traj_b = saddle_traj_to_task(posture.frame(), pts[rng.permutation(40)])
    assert poi(traj_a, posture.boundary(), posture.frame()) == poi(
        traj_b, posture.boundary(), posture.frame()
    )


def test_poi_rigid_motion_invariant():
    posture = parallel_posture()
    rng = np.random.default_rng(9)
    saddle = rng.uniform(-0.25, 0.25, (64, 2))
    base_traj = saddle_traj_to_task(posture.frame(), saddle)
    base_poi = poi(base_traj, posture.boundary(), posture.frame())
    base_poi360 = poi360(base_traj, posture.boundary(), posture.frame())

    angle, shift = 0.9, Point2(1.2, -0.7)
    left, right = transform_posture(posture.left, posture.right, angle, shift)
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
    c, s = math.cos(angle), math.sin(angle)
    moved = np.column_stack((
        c * base_traj.points[:, 0] - s * base_traj.points[:, 1] + shift.x,
        s * base_traj.points[:, 0] + c * base_traj.points[:, 1] + shift.y,
    ))
    moved_traj = traj_from_xy(moved)
    assert poi(moved_traj, boundary, frame) == base_poi
    assert poi360(moved_traj, boundary, frame) == base_poi360


# --- outer border -----------------------------------------------------------


def test_outer_border_max_per_sector():
    posture = parallel_posture()
    saddle = np.array([[0.1, 0.001], [0.2, 0.002]])  # same sector, different radii
    traj = saddle_traj_to_task(posture.frame(), saddle)
    border = outer_border(traj, posture.frame(), n_bins=360)
    assert border.shape == (1, 2)
    assert border[0, 0] == pytest.approx(0.2, abs=1e-12)


def test_outer_border_one_sample_per_sector():
    posture = parallel_posture()
    phis = (np.arange(360) + 0.5) * (2 * math.pi / 360)
    saddle = np.column_stack((0.05 * np.cos(phis), 0.05 * np.sin(phis)))
    traj = saddle_traj_to_task(posture.frame(), saddle)
    border = outer_border(traj, posture.frame(), n_bins=360)
    assert len(border) == 360


def test_outer_border_concentric_circles():
    posture = parallel_posture()
    phis = (np.arange(90) + 0.5) * (2 * math.pi / 90)
    inner = np.column_stack((0.05 * np.cos(phis), 0.05 * np.sin(phis)))
    outer = np.column_stack((0.10 * np.cos(phis), 0.10 * np.sin(phis)))
    traj = saddle_traj_to_task(posture.frame(), np.vstack((inner, outer)))
    border = outer_border(traj, posture.frame(), n_bins=90)
    radii = np.hypot(border[:, 0], border[:, 1])
    assert len(border) == 90
    assert np.all(np.abs(radii - 0.10) <= 1e-12)


def test_outer_border_needs_enough_bins():
    posture = parallel_posture()
    traj = saddle_traj_to_task(posture.frame(), [[0.01, 0.0]])
    with pytest.raises(ValueError):
        outer_border(traj, posture.frame(), n_bins=4)


def test_outer_border_about_mean():
    posture = parallel_posture()
    saddle = np.array([[0.05, 0.0], [0.07, 0.0], [0.09, 0.0]])
    traj = saddle_traj_to_task(posture.frame(), saddle)
    about_origin = outer_border(traj, posture.frame(), n_bins=8, about="origin")
    about_mean = outer_border(traj, posture.frame(), n_bins=8, about="mean")
    assert len(about_origin) == 1  # all in one sector about the origin
    assert len(about_mean) == 2  # split on both sides of the centroid


def lexsort_outer_border_indices(pts, n_bins, about):
    """The O(n log n) kernel the linear one replaced, kept as the reference:
    sort by (sector, radius) and keep the last sample of each sector."""
    rel = pts - (pts.mean(axis=0) if about == "mean" else np.zeros(2))
    radii = np.hypot(rel[:, 0], rel[:, 1])
    angles = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI)
    bins = np.minimum((angles / (TWO_PI / n_bins)).astype(int), n_bins - 1)
    order = np.lexsort((radii, bins))
    sorted_bins = bins[order]
    is_bin_max = np.empty(len(order), dtype=bool)
    is_bin_max[-1] = True
    is_bin_max[:-1] = sorted_bins[1:] != sorted_bins[:-1]
    return order[is_bin_max]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5000),
    n_bins=st.integers(8, 3600),
    about=st.sampled_from(["origin", "mean"]),
    decimals=st.integers(0, 3),
    quarter_plane=st.booleans(),
)
def test_outer_border_indices_equal_the_lexsort_reference(
    seed, n, n_bins, about, decimals, quarter_plane
):
    from saddlebos.metrics import _outer_border_indices, _polar_about

    rng = np.random.default_rng(seed)
    # a coarse grid and repeated rows force exact radius ties within a sector
    pts = np.round(rng.normal(0.0, 1.0, (n, 2)), decimals)
    if quarter_plane:  # three quarters of the sectors stay empty
        pts = np.abs(pts)
    repeat = rng.random(n) < 0.2
    pts[repeat] = pts[rng.integers(0, n, np.count_nonzero(repeat))]
    # signed zeros, phi = +-pi (negative x, y = +-0.0), the axes, and points
    # built on sector edges
    edges = (TWO_PI / n_bins) * rng.integers(0, n_bins, 64)
    radii = rng.uniform(0.0, 2.0, 64)
    special = np.vstack((
        [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-1.5, 0.0], [-1.5, -0.0],
         [-0.0, 1.5], [0.0, -1.5], [1.5, -0.0], [-1.0, 0.0]],
        np.column_stack((radii * np.cos(edges), radii * np.sin(edges))),
    ))
    swap = rng.random(n) < 0.3
    pts[swap] = special[rng.integers(0, len(special), np.count_nonzero(swap))]
    want = lexsort_outer_border_indices(pts, n_bins, about)
    got = _outer_border_indices(*_polar_about(pts, about), n_bins)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    n_bins=st.integers(8, 64),
    about=st.sampled_from(["origin", "mean"]),
    block=st.sampled_from([1, 7, 64]),
)
def test_outer_border_indices_keep_the_latest_tie_across_blocks(seed, n, n_bins, about, block):
    from saddlebos.metrics import _outer_border_indices, _polar_about

    rng = np.random.default_rng(seed)
    # a handful of distinct points, each repeated all over the trajectory:
    # every sector's peak is tied in many blocks
    pts = np.round(rng.normal(0.0, 1.0, (5, 2)), 1)[rng.integers(0, 5, n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_BLOCK", block)
        got = _outer_border_indices(*_polar_about(pts, about), n_bins)
    assert np.array_equal(got, lexsort_outer_border_indices(pts, n_bins, about))


def test_outer_border_keeps_the_latest_of_equal_radii_in_later_blocks(monkeypatch):
    from saddlebos.metrics import _outer_border_indices

    monkeypatch.setattr(metrics, "_BLOCK", 4)
    radii = np.array([2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0])
    phis = np.full(len(radii), 0.5)  # one sector; the peak is tied in all three blocks
    assert _outer_border_indices(radii, phis, 8).tolist() == [9]


def test_compute_report_sorts_nothing(monkeypatch):
    posture = parallel_posture()
    points = np.random.default_rng(5).normal(0.0, 0.05, (10_000, 2))
    traj = ComTrajectory(0.01 * np.arange(10_000), points)

    def no_sort(*args, **kwargs):
        raise AssertionError("the outer border must not sort")

    for name in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, name, no_sort)
    report = compute_report(traj, posture.boundary(), posture.frame())
    assert report.n_samples == 10_000
    assert 0 < report.n_outer <= 360


@pytest.mark.parametrize("about, passes", [("origin", 1), ("mean", 2)])
def test_compute_report_takes_one_polar_pass_per_centre(monkeypatch, about, passes):
    # the classifier and an origin-centred border share one pass; a border
    # about the mean takes its own
    posture = parallel_posture()
    frame, boundary = posture.frame(), posture.boundary()
    points = np.random.default_rng(6).normal(0.0, 0.05, (1000, 2))
    traj = ComTrajectory(0.01 * np.arange(1000), points)
    calls = {"hypot": 0, "arctan2": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    compute_report(traj, boundary, frame, about=about)
    assert calls == {"hypot": passes, "arctan2": passes}


# --- poi360 -------------------------------------------------------------------


def test_poi360_shrunk_trajectory_fully_inside():
    posture = parallel_posture()
    traj = scaled_boundary_trajectory(posture, 0.9)
    assert poi(traj, posture.boundary(), posture.frame()) == 100.0
    assert poi360(traj, posture.boundary(), posture.frame()) == 100.0


def test_poi360_inflated_ring_fully_outside():
    posture = parallel_posture()
    traj = scaled_boundary_trajectory(posture, 1.1)
    assert poi(traj, posture.boundary(), posture.frame()) == 0.0
    assert poi360(traj, posture.boundary(), posture.frame()) == 0.0


def test_poi360_single_sample():
    posture = parallel_posture()
    traj = saddle_traj_to_task(posture.frame(), [[0.01, 0.02]])
    assert poi360(traj, posture.boundary(), posture.frame()) == 100.0
    border = outer_border(traj, posture.frame())
    assert len(border) == 1


def test_poi360_ignores_dominated_samples():
    from saddlebos.metrics import _outer_border_indices

    posture = parallel_posture()
    rng = np.random.default_rng(17)
    phis = rng.uniform(-math.pi, math.pi, 200)
    radii = rng.uniform(0.05, 0.25, 200)
    saddle = np.column_stack((radii * np.cos(phis), radii * np.sin(phis)))
    border_idx = np.sort(_outer_border_indices(*saddle_polar(saddle), 360))
    assert len(border_idx) < len(saddle)  # some samples are dominated
    traj_full = saddle_traj_to_task(posture.frame(), saddle)
    traj_border_only = saddle_traj_to_task(posture.frame(), saddle[border_idx])
    full = poi360(traj_full, posture.boundary(), posture.frame())
    border_only = poi360(traj_border_only, posture.boundary(), posture.frame())
    assert full == border_only


# --- covariance ellipse ---------------------------------------------------------


def test_covariance_ellipse_against_manual_eigendecomposition():
    a, b = 0.2, 0.1
    pts = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    traj = traj_from_xy(pts)
    ellipse = covariance_ellipse(traj, k_sigma=1.0)
    # manual: mean zero, so cov = diag(sum x^2, sum y^2) / (n - 1)
    expected_major = math.sqrt(2.0 * a * a / 3.0)
    expected_minor = math.sqrt(2.0 * b * b / 3.0)
    assert ellipse.center.x == pytest.approx(0.0, abs=1e-15)
    assert ellipse.center.y == pytest.approx(0.0, abs=1e-15)
    assert ellipse.orientation == pytest.approx(0.0, abs=1e-12)
    assert ellipse.semi_axes[0] == pytest.approx(expected_major, abs=1e-12)
    assert ellipse.semi_axes[1] == pytest.approx(expected_minor, abs=1e-12)


def test_covariance_ellipse_k_sigma_scales():
    pts = np.array([[0.2, 0.0], [-0.2, 0.0], [0.0, 0.1], [0.0, -0.1]])
    one = covariance_ellipse(traj_from_xy(pts), k_sigma=1.0)
    two = covariance_ellipse(traj_from_xy(pts))  # default k = 2
    assert two.semi_axes[0] == pytest.approx(2 * one.semi_axes[0], abs=1e-15)
    assert two.semi_axes[1] == pytest.approx(2 * one.semi_axes[1], abs=1e-15)


def test_covariance_ellipse_isotropic_cloud():
    rng = np.random.default_rng(41)
    pts = rng.normal(0.0, 0.05, (4000, 2))
    ellipse = covariance_ellipse(traj_from_xy(pts))
    assert ellipse.semi_axes[0] == pytest.approx(ellipse.semi_axes[1], rel=0.1)


def test_covariance_ellipse_orientation_modulo_pi():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, 300)
    pts = np.column_stack((t, -t + 1e-4 * rng.normal(size=300)))
    ellipse = covariance_ellipse(traj_from_xy(pts))
    assert 0.0 <= ellipse.orientation < math.pi
    assert ellipse.orientation == pytest.approx(3 * math.pi / 4, abs=0.01)


def test_covariance_ellipse_collinear_degenerate():
    t = np.linspace(0, 1, 10)
    pts = np.column_stack((t, 2 * t))
    with pytest.raises(DegenerateCovarianceError):
        covariance_ellipse(traj_from_xy(pts))


def test_covariance_ellipse_needs_three_samples():
    with pytest.raises(ValueError):
        covariance_ellipse(traj_from_xy([[0.0, 0.0], [1.0, 1.0]]))


def np_cov_ellipse(pts, k_sigma):
    """The ellipse built from ``np.cov``, the reference the centred product
    in :func:`covariance_ellipse` must equal bit for bit; None when the
    cloud is degenerate."""
    eigvals, eigvecs = np.linalg.eigh(np.cov(pts.T, ddof=1))
    if eigvals[0] < 1e-12:
        return None
    major = eigvecs[:, 1]
    return CovarianceEllipse(
        center=Point2(*pts.mean(axis=0)),
        semi_axes=(k_sigma * math.sqrt(eigvals[1]), k_sigma * math.sqrt(eigvals[0])),
        orientation=math.atan2(major[1], major[0]) % math.pi,
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 20_000),
    center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    spreads=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
    angle=st.floats(0.0, math.pi),
    k_sigma=st.sampled_from([1.0, 2.0, 2.4477]),
)
@example(seed=0, n=250_000, center=(0.3, -0.2), spreads=(0.05, 0.02), angle=0.4, k_sigma=2.0)
def test_covariance_ellipse_equals_the_np_cov_reference(seed, n, center, spreads, angle, k_sigma):
    rng = np.random.default_rng(seed)
    c, s = math.cos(angle), math.sin(angle)
    pts = rng.normal(0.0, 1.0, (n, 2)) * spreads @ np.array([[c, s], [-s, c]]) + center
    traj = traj_from_xy(pts)
    want = np_cov_ellipse(traj.points, k_sigma)
    if want is None:
        with pytest.raises(DegenerateCovarianceError):
            covariance_ellipse(traj, k_sigma)
        return
    got = covariance_ellipse(traj, k_sigma)
    assert got == want
    assert repr(got) == repr(want)  # -0.0 against 0.0 as well


@pytest.mark.parametrize("k_sigma", [0.0, -1.0, math.inf, math.nan])
def test_covariance_ellipse_rejects_bad_k_sigma(k_sigma):
    pts = np.array([[0.2, 0.0], [-0.2, 0.0], [0.0, 0.1], [0.0, -0.1]])
    with pytest.raises(ValueError, match="k_sigma"):
        covariance_ellipse(traj_from_xy(pts), k_sigma=k_sigma)


# --- trajectory type and report -------------------------------------------------


def test_empty_trajectory_rejected():
    with pytest.raises(EmptyTrajectoryError):
        ComTrajectory(np.array([]), np.empty((0, 2)))


def test_times_must_increase():
    with pytest.raises(ValueError):
        ComTrajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))


def test_compute_report_bundle():
    posture = parallel_posture()
    traj = scaled_boundary_trajectory(posture, 0.9, n=300)
    report = compute_report(traj, posture.boundary(), posture.frame())
    assert report.poi == 100.0
    assert report.poi360 == 100.0
    assert report.n_samples == 300
    assert 0 < report.n_outer <= 360
    assert report.covariance_ellipse.semi_axes[0] > 0


def test_compute_report_scores_its_saddle_samples():
    posture = parallel_posture()
    frame, boundary = posture.frame(), posture.boundary()
    factors = np.random.default_rng(4).uniform(0.8, 1.2, 400)
    traj = scaled_boundary_trajectory(posture, factors, n=400, seed=4)
    saddle = saddle_array_from_task(frame, traj.points)
    codes = classify_saddle_points(boundary, saddle)
    for about in ("origin", "mean"):
        report = compute_report(traj, boundary, frame, n_bins=90, k_sigma=1.5, about=about)
        assert report == score_saddle_samples(traj, saddle, codes, 90, 1.5, about)
        assert 0.0 < report.poi < 100.0
        assert report.poi == poi(traj, boundary, frame)
        assert report.poi360 == poi360(traj, boundary, frame, n_bins=90, about=about)
    with pytest.raises(ValueError, match="n_bins"):
        score_saddle_samples(traj, saddle, codes, n_bins=7)
    with pytest.raises(ValueError, match=f"n_bins must be at most {MAX_BINS}, got {MAX_BINS + 1}"):
        score_saddle_samples(traj, saddle, codes, n_bins=MAX_BINS + 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Saddle-space points must be finite"):
            score_saddle_samples(traj, np.where(np.arange(400)[:, None] == 7, bad, saddle), codes)
    with pytest.raises(ValueError, match="about"):
        score_saddle_samples(traj, saddle, codes, about="centroid")
    with pytest.raises(ValueError, match="one code per"):
        score_saddle_samples(traj, saddle, codes[:-1])


def boundary_cloud(seed, n):
    """A random stance and ``n`` samples around its boundary, some on it and
    some at the origin, as a task-space trajectory."""
    posture = random_postures(1, seed=seed)[0]
    frame, boundary = posture.frame(), posture.boundary()
    rng = np.random.default_rng(seed)
    phis = rng.uniform(-math.pi, math.pi, n)
    factors = np.where(rng.random(n) < 0.1, 1.0, rng.uniform(0.8, 1.2, n))
    factors[rng.random(n) < 0.02] = 0.0
    radii = factors * _continuous_radii(boundary._shape, phis)
    saddle = np.column_stack((radii * np.cos(phis), radii * np.sin(phis)))
    return traj_from_xy(task_array_from_saddle(frame, saddle)), frame, boundary


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 5000),
    n_bins=st.integers(8, 720),
    about=st.sampled_from(["origin", "mean"]),
    tol=st.sampled_from([0.0, 1e-9, 1e-3]),
)
def test_compute_report_is_one_scoring_path(seed, n, n_bins, about, tol):
    traj, frame, boundary = boundary_cloud(seed, n)
    s = saddle_array_from_task(frame, traj.points)
    codes = classify_saddle_points(boundary, s, tol)
    polar_codes = classify_saddle_polar(boundary, *saddle_polar(s), tol)
    assert np.array_equal(polar_codes, codes)
    assert polar_codes.dtype == codes.dtype
    report = compute_report(traj, boundary, frame, n_bins, 2.0, tol, about)
    assert report == score_saddle_samples(traj, s, codes, n_bins, 2.0, about)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 400),
    n_bins=st.integers(8, 720),
    tol=st.sampled_from([0.0, 1e-9, 1e-3]),
    block=st.sampled_from([1, 7, 64]),
    repeated=st.booleans(),
)
@example(seed=0, n=400, n_bins=64, tol=0.0, block=64, repeated=False)
@example(seed=1, n=400, n_bins=8, tol=0.0, block=64, repeated=True)
def test_compute_report_scores_block_by_block(seed, n, n_bins, tol, block, repeated):
    # blocks far smaller than the trajectory: the codes, the mean centre
    # carried from block to block, and the border of the blocks' borders are
    # those of one full pass.  With n_bins >= block a block may keep every
    # sample; repeated points tie each sector's peak in many blocks.
    traj, frame, boundary = boundary_cloud(seed, n)
    if repeated:
        pick = np.random.default_rng(seed).integers(0, 5, n)
        pick[:5] = np.arange(min(n, 5))
        traj = traj_from_xy(traj.points[pick])
    s = saddle_array_from_task(frame, traj.points)
    codes = classify_saddle_points(boundary, s, tol)
    for about in ("origin", "mean"):
        borders = []

        def spy_score(traj, codes, border, k_sigma, score=metrics._score):
            borders.append(border)
            return score(traj, codes, border, k_sigma)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_BLOCK", block)
            patch.setattr(metrics, "_score", spy_score)
            report = compute_report(traj, boundary, frame, n_bins, 2.0, tol, about)
        assert report == score_saddle_samples(traj, s, codes, n_bins, 2.0, about)
        assert np.array_equal(borders[0], lexsort_outer_border_indices(s, n_bins, about))


@pytest.mark.parametrize("about", ["origin", "mean"])
def test_compute_report_memory_stays_within_20_bytes_per_sample(about):
    # the full-length int8 codes and the ellipse's (n, 2) deviations: no
    # full-length radii, angles or sector bins, and no Saddle-space array
    posture = parallel_posture()
    n = 250_000
    points = np.random.default_rng(8).normal(0.0, 0.1, (n, 2))
    traj = ComTrajectory(0.01 * np.arange(n), points)
    tracemalloc.start()
    try:
        compute_report(traj, posture.boundary(), posture.frame(), about=about)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * n, f"peak {peak / n:.1f} bytes per sample"
