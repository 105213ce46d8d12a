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
    required_agreement_pct: float
    max_allowed_distance: float

    @property
    def ok(self) -> bool:
        return (
            self.agreement_pct >= self.required_agreement_pct
            and self.max_disagreement_distance <= self.max_allowed_distance
        )


@dataclass(frozen=True)
class EquivarianceReport:
    """Worst vertex deviation between moving the stance and moving the
    polygon, or the error that rejected a moved stance."""

    n_motions: int
    max_deviation: float
    tol: float
    error: SaddleBosError | ValueError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.max_deviation <= self.tol


# ---------------------------------------------------------------------------
# Point-in-polygon (even-odd rule)


def _distance_to_edges(verts: np.ndarray, p: np.ndarray) -> float:
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    t = np.clip(((p - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1]).min())


def _even_odd_inside(verts: np.ndarray, p: np.ndarray) -> bool:
    x1, y1 = verts[:, 0], verts[:, 1]
    nxt = np.roll(verts, -1, axis=0)
    x2, y2 = nxt[:, 0], nxt[:, 1]
    straddle = (y1 > p[1]) != (y2 > p[1])
    if not straddle.any():
        return False
    xc = x1[straddle] + (p[1] - y1[straddle]) * (x2[straddle] - x1[straddle]) / (
        y2[straddle] - y1[straddle]
    )
    return int(np.count_nonzero(p[0] < xc)) % 2 == 1


def point_in_polygon(polygon: Polygon2, p: Point2, tol: float = 1e-9) -> Containment:
    """Classify a point against a simple polygon with the even-odd rule;
    points within ``tol`` of an edge are On."""
    pt = p.as_array()
    if _distance_to_edges(polygon.vertices, pt) <= tol:
        return Containment.ON
    return Containment.INSIDE if _even_odd_inside(polygon.vertices, pt) else Containment.OUTSIDE


def classify_points(polygon: Polygon2, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vectorized even-odd containment codes (+1/0/-1) for (n, 2) points.

    Both tests share one list of candidate point/edge pairs: with the points
    sorted by y, two binary searches per edge find the points whose y lies
    within a margin (2 * tol plus four ulps of the largest |y|, so rounding
    cannot hide a point within tol) of the edge's y range.  Pairs inside the
    edge's half-open y interval decide the even-odd crossings, and a point
    within tol of any of its edges, by ``_distance_to_edges``' formula, is On.
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

    t = np.clip(((qx - ax) * dx + (qy - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    codes[pt[np.hypot(qx - (ax + t * dx), qy - (ay + t * dy)) <= tol]] = 0
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


def check_star_shape(boundary: BosBoundary, n: int = 3600) -> StarShapeReport:
    """Verify that every ray from the stance origin crosses the sampled
    boundary polygon exactly once."""
    poly = sample_boundary(boundary, n)
    counts = _ray_crossing_counts(poly.vertices, n)
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
    boundary: BosBoundary,
    n_vertices: int = 3600,
    n_points: int = 100_000,
    seed: int = 0,
    tol: float = 1e-9,
    required_agreement_pct: float = 99.8,
    max_allowed_distance: float = 1e-6,
) -> AgreementReport:
    """Compare radial containment against even-odd containment on the
    sampled polygon for uniform random points over the bounding box."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    poly = sample_boundary(boundary, n_vertices)
    lo, hi = poly.bounding_box()
    rng = seeded_rng(seed)
    points = rng.uniform((lo.x, lo.y), (hi.x, hi.y), size=(n_points, 2))

    radial = classify_saddle_points(boundary, points, tol)
    even_odd = classify_points(poly, points, tol)
    disagree = np.nonzero(radial != even_odd)[0]
    max_dist = max(
        (_distance_to_edges(poly.vertices, points[i]) for i in disagree), default=0.0
    )
    return AgreementReport(
        n_points=n_points,
        n_disagreements=len(disagree),
        agreement_pct=100.0 * (n_points - len(disagree)) / n_points,
        max_disagreement_distance=float(max_dist),
        required_agreement_pct=required_agreement_pct,
        max_allowed_distance=max_allowed_distance,
    )


def check_equivariance(
    left: FootPose,
    right: FootPose,
    n_motions: int = 10,
    n_vertices: int = 360,
    seed: int = 0,
    tol: float = 1e-9,
) -> EquivarianceReport:
    """Verify that rigid task-space motions commute with the boundary
    pipeline: moving the feet then building the polygon matches building
    the polygon then moving it.  A moved stance the pipeline rejects fails
    the check with that error."""
    if n_motions < 1:
        raise ValueError(f"n_motions must be at least 1, got {n_motions}")
    rng = seeded_rng(seed)
    base = bos_polygon_task_space(left, right, n_vertices).vertices
    worst = 0.0
    for _ in range(n_motions):
        angle = rng.uniform(-math.pi, math.pi)
        shift = rng.uniform(-5.0, 5.0, size=2)
        try:
            moved_left, moved_right = transform_posture(left, right, angle, Point2(*shift))
            got = bos_polygon_task_space(moved_left, moved_right, n_vertices).vertices
        except (SaddleBosError, ValueError) as exc:
            # the pipeline rejects a rigidly moved copy of a stance it built
            return EquivarianceReport(n_motions=n_motions, max_deviation=worst, tol=tol, error=exc)
        c, s = math.cos(angle), math.sin(angle)
        want_x = c * base[:, 0] - s * base[:, 1] + shift[0]
        want_y = s * base[:, 0] + c * base[:, 1] + shift[1]
        dev = float(np.hypot(got[:, 0] - want_x, got[:, 1] - want_y).max())
        worst = max(worst, dev)
    return EquivarianceReport(n_motions=n_motions, max_deviation=worst, tol=tol)
