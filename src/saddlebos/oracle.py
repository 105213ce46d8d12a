"""Independent brute-force checks for the boundary geometry.

Containment here is decided with the even-odd crossing rule on a sampled
polygon, a different algorithm family from the radial test used by the main
path, so agreement between the two is meaningful.  Star-shape verification
counts actual ray/polygon-edge crossings, and a rigid-motion check compares
transforming the inputs against transforming the outputs.  These routines
favor obviousness over speed and back both the test suite and the
``validate`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SaddleBosError
from .geometry import (
    TWO_PI,
    BosBoundary,
    Containment,
    FootPose,
    Point2,
    Polygon2,
    bos_polygon_task_space,
    classify_saddle_points,
    sample_boundary,
    seeded_rng,
    transform_posture,
)

# bounds of the agreement and equivariance checks
AGREEMENT_VERTICES = 3600
AGREEMENT_TOL = 1e-9
REQUIRED_AGREEMENT_PCT = 99.8
MAX_DISAGREEMENT_DISTANCE = 1e-6
EQUIVARIANCE_VERTICES = 360
EQUIVARIANCE_TOL = 1e-9

# points per block of _distance_to_edges' point-by-edge arrays
_DISTANCE_CHUNK = 256


@dataclass(frozen=True)
class StarShapeReport:
    """Ray-crossing counts for evenly spread directions; a star-shaped
    boundary crosses each ray exactly once."""

    n_rays: int
    crossings: tuple[int, ...]
    violations: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class AgreementReport:
    """Radial containment versus even-odd polygon containment on random
    points."""

    n_points: int
    n_disagreements: int
    agreement_pct: float
    max_disagreement_distance: float

    @property
    def ok(self) -> bool:
        return (
            self.agreement_pct >= REQUIRED_AGREEMENT_PCT
            and self.max_disagreement_distance <= MAX_DISAGREEMENT_DISTANCE
        )


@dataclass(frozen=True)
class EquivarianceReport:
    """Worst vertex deviation between moving the stance and moving the
    polygon, or the error that rejected a moved stance."""

    n_motions: int
    max_deviation: float
    error: SaddleBosError | ValueError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.max_deviation <= EQUIVARIANCE_TOL


# ---------------------------------------------------------------------------
# Point-in-polygon (even-odd rule)


def _segment_distance(qx, qy, ax, ay, dx, dy) -> np.ndarray:
    """Elementwise distance from the points (qx, qy) to the segments that
    start at (ax, ay) and run along (dx, dy)."""
    t = np.clip(((qx - ax) * dx + (qy - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(qx - (ax + t * dx), qy - (ay + t * dy))


def _distance_to_edges(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each of the (k, 2) points ``pts`` to the nearest edge
    of the polygon ``verts``, a block of points at a time so that the
    point-by-edge arrays stay small."""
    ax, ay = verts.T
    dx, dy = (np.roll(verts, -1, axis=0) - verts).T
    blocks = np.split(pts, range(_DISTANCE_CHUNK, len(pts), _DISTANCE_CHUNK))
    return np.concatenate(
        [_segment_distance(q[:, :1], q[:, 1:], ax, ay, dx, dy).min(axis=1) for q in blocks]
    )


def point_in_polygon(polygon: Polygon2, p: Point2, tol: float = 1e-9) -> Containment:
    """Classify a point against a simple polygon with the even-odd rule;
    points within ``tol`` of an edge are On.  One row of
    :func:`classify_points`."""
    code = classify_points(polygon, p.as_array()[None, :], tol)[0]
    return {1: Containment.INSIDE, 0: Containment.ON, -1: Containment.OUTSIDE}[int(code)]


def classify_points(polygon: Polygon2, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vectorized even-odd containment codes (+1/0/-1) for (n, 2) points.

    Both tests share one list of candidate point/edge pairs: with the points
    sorted by y, two binary searches per edge find the points whose y lies
    within a margin (2 * tol plus four ulps of the largest |y|, so rounding
    cannot hide a point within tol) of the edge's y range.  Pairs inside the
    edge's half-open y interval decide the even-odd crossings, and a point
    within tol of any of its edges, by ``_segment_distance``, is On.
    """
    verts = polygon.vertices
    points = np.asarray(points, dtype=float)
    px, py = points[:, 0], points[:, 1]
    x1, y1 = verts[:, 0], verts[:, 1]
    nxt = np.roll(verts, -1, axis=0)
    x2, y2 = nxt[:, 0], nxt[:, 1]
    abx, aby = x2 - x1, y2 - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(y2 != y1, abx / np.where(y2 != y1, aby, 1.0), 0.0)

    order = np.argsort(py)
    py_sorted = py[order]
    y_lo = np.minimum(y1, y2)
    y_hi = np.maximum(y1, y2)
    margin = 2.0 * tol + 4.0 * np.spacing(np.abs(y1).max())
    first = np.searchsorted(py_sorted, y_lo - margin, side="left")
    last = np.searchsorted(py_sorted, y_hi + margin, side="right")
    pair_counts = last - first
    # pair k of edge j is the point at y-order position first[j] + k
    e = np.repeat(np.arange(len(verts)), pair_counts)
    shift = np.cumsum(pair_counts) - pair_counts - first
    pt = order[np.arange(len(e)) - np.repeat(shift, pair_counts)]
    qx, qy = px[pt], py[pt]
    ax, ay, dx, dy = x1[e], y1[e], abx[e], aby[e]

    crossing = (y_lo[e] <= qy) & (qy < y_hi[e]) & (qx < ax + (qy - ay) * slope[e])
    inside = np.bincount(pt[crossing], minlength=len(points)) % 2 == 1
    codes = np.where(inside, 1, -1).astype(np.int8)

    codes[pt[_segment_distance(qx, qy, ax, ay, dx, dy) <= tol]] = 0
    return codes


# ---------------------------------------------------------------------------
# Star-shape check


def _ray_crossing_counts(verts: np.ndarray, n_rays: int) -> np.ndarray:
    """How many polygon edges each ray from the origin crosses, for rays at
    angles (j + 1/2) * 2pi/n_rays.

    Each edge is visible from the origin over an angular arc narrower than
    pi (a boundary keeps its edges more than 1e-9 m off the origin, or is
    rejected when it is built), so its crossing set is an index range on the
    uniform ray grid; the counts accumulate through a difference array.
    Rays that pass exactly through a vertex may be counted once per adjacent
    edge; the half-offset grid avoids that for boundaries sampled on the
    aligned grid.
    """
    h = TWO_PI / n_rays
    p = verts
    q = np.roll(verts, -1, axis=0)
    theta_p = np.arctan2(p[:, 1], p[:, 0])
    theta_q = np.arctan2(q[:, 1], q[:, 0])
    delta = np.mod(theta_q - theta_p + math.pi, TWO_PI) - math.pi

    start_angle = np.where(delta >= 0.0, theta_p, theta_q)
    width = np.abs(delta)
    a0 = np.mod(start_angle, TWO_PI)
    j_start = np.ceil(a0 / h - 0.5).astype(int)
    j_stop = np.ceil((a0 + width) / h - 0.5).astype(int)

    diff = np.zeros(2 * n_rays + 1, dtype=int)
    np.add.at(diff, j_start, 1)
    np.add.at(diff, j_stop, -1)
    cum = np.cumsum(diff[:-1])
    return cum[:n_rays] + cum[n_rays:]


def check_star_shape(polygon: Polygon2) -> StarShapeReport:
    """Verify that every ray from the stance origin crosses a sampled
    boundary polygon exactly once, with one ray per vertex."""
    n = len(polygon.vertices)
    counts = _ray_crossing_counts(polygon.vertices, n)
    phis = (np.arange(n) + 0.5) * TWO_PI / n
    bad = counts != 1
    return StarShapeReport(
        n_rays=n,
        crossings=tuple(int(c) for c in counts),
        violations=tuple(float(v) for v in phis[bad]),
    )


# ---------------------------------------------------------------------------
# Convexity


def check_convexity(polygon: Polygon2) -> bool:
    """True when all consecutive edge cross products share one sign
    (collinear vertices allowed)."""
    verts = polygon.vertices
    edges = np.roll(verts, -1, axis=0) - verts
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    zero_band = 1e-12 * lengths * np.roll(lengths, -1)
    return not ((cross > zero_band).any() and (cross < -zero_band).any())


# ---------------------------------------------------------------------------
# Cross-implementation agreement and equivariance


def check_containment_agreement(
    boundary: BosBoundary, n_points: int = 100_000, seed: int = 0
) -> AgreementReport:
    """Compare radial containment against even-odd containment on the
    boundary sampled at AGREEMENT_VERTICES angles, for uniform random points
    over its bounding box."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    poly = sample_boundary(boundary, AGREEMENT_VERTICES)
    lo, hi = poly.bounding_box()
    rng = seeded_rng(seed)
    points = rng.uniform((lo.x, lo.y), (hi.x, hi.y), size=(n_points, 2))

    radial = classify_saddle_points(boundary, points, AGREEMENT_TOL)
    even_odd = classify_points(poly, points, AGREEMENT_TOL)
    disagree = points[radial != even_odd]
    max_dist = _distance_to_edges(poly.vertices, disagree).max() if len(disagree) else 0.0
    return AgreementReport(
        n_points=n_points,
        n_disagreements=len(disagree),
        agreement_pct=100.0 * (n_points - len(disagree)) / n_points,
        max_disagreement_distance=float(max_dist),
    )


def check_equivariance(
    left: FootPose,
    right: FootPose,
    n_motions: int = 10,
    seed: int = 0,
) -> EquivarianceReport:
    """Verify that rigid task-space motions commute with the boundary
    pipeline: moving the feet then building the polygon, sampled at
    EQUIVARIANCE_VERTICES angles, matches building the polygon then moving
    it.  A moved stance the pipeline rejects fails the check with that
    error."""
    if n_motions < 1:
        raise ValueError(f"n_motions must be at least 1, got {n_motions}")
    rng = seeded_rng(seed)
    base = bos_polygon_task_space(left, right, EQUIVARIANCE_VERTICES).vertices
    worst = 0.0
    for _ in range(n_motions):
        angle = rng.uniform(-math.pi, math.pi)
        shift = rng.uniform(-5.0, 5.0, size=2)
        try:
            moved_left, moved_right = transform_posture(left, right, angle, Point2(*shift))
            got = bos_polygon_task_space(moved_left, moved_right, EQUIVARIANCE_VERTICES).vertices
        except (SaddleBosError, ValueError) as exc:
            # the pipeline rejects a rigidly moved copy of a stance it built
            return EquivarianceReport(n_motions=n_motions, max_deviation=worst, error=exc)
        c, s = math.cos(angle), math.sin(angle)
        want_x = c * base[:, 0] - s * base[:, 1] + shift[0]
        want_y = s * base[:, 0] + c * base[:, 1] + shift[1]
        dev = float(np.hypot(got[:, 0] - want_x, got[:, 1] - want_y).max())
        worst = max(worst, dev)
    return EquivarianceReport(n_motions=n_motions, max_deviation=worst)
