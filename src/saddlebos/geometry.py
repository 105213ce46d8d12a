"""Stance frame construction and posture-dependent base-of-support geometry.

A bipedal stance is summarized by one anchor point per foot (the extrapolated
centre of pressure, eCoP) plus each foot's orientation and sole dimensions.
From the two anchors this module builds the Saddle frame, a task-space frame
whose y axis runs from the right anchor toward the left one and whose origin
sits at their midpoint.  The base of support (BoS) is generated in that frame
as a closed region whose shape deforms with the stance: a circular cap on the
left side, a circular cap on the right side, and straight front/back edges
joining them.

Two boundary evaluation modes exist.  ``CONTINUOUS`` (the default) resolves
the caps and edges into a single closed, star-shaped curve that supports
containment queries.  ``STRICT`` evaluates the piecewise formulas that define
the caps and edge lines branch by branch; it is kept for traceability and
does not describe a closed curve, so containment is refused in that mode.

A stance is built by three array stages (anchors to frame, feet to shape
parameters, parameters to boundary shape) over many stances at once; the
scalar API runs them on one row.

All angles are radians and all lengths are meters.  Task-space coordinates
live in the fixed laboratory frame; Saddle coordinates in the stance frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    CoincidentFeetError,
    DegenerateGeometryError,
    StrictModeUnsupportedError,
)

TWO_PI = 2.0 * math.pi

#: Separation below which two anchors cannot define a frame.
MIN_ANCHOR_SEPARATION = 1e-9

#: Radius below which a Saddle-space point counts as the origin.
ORIGIN_RADIUS = 1e-12

#: Default tolerance for classifying a point as exactly on the boundary.
DEFAULT_CONTAINS_TOL = 1e-9

#: Largest vertex count :func:`sample_boundary` accepts; callers use at most 3600.
MAX_BOUNDARY_SAMPLES = 1_000_000


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class BoundaryMode(enum.Enum):
    STRICT = "strict"
    CONTINUOUS = "continuous"


class Containment(enum.Enum):
    INSIDE = "inside"
    ON = "on"
    OUTSIDE = "outside"


def wrap_signed(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = (angle + math.pi) % TWO_PI - math.pi
    return math.pi if a == -math.pi else a


def wrap_positive(angle: float) -> float:
    """Wrap an angle to [0, 2*pi); an array is wrapped element-wise."""
    return angle % TWO_PI


def _wrap_signed_array(angle: np.ndarray) -> np.ndarray:
    a = np.mod(angle + math.pi, TWO_PI) - math.pi
    return np.where(a == -math.pi, math.pi, a)


# numpy's arctan2, hypot and square round differently from the math module in
# the last bit, so the stance stages call the math functions element by element
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)
_HYPOT = np.frompyfunc(math.hypot, 2, 1)
_POW = np.frompyfunc(math.pow, 2, 1)


def math_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Element-wise :func:`math.atan2`, rounded as the math module rounds."""
    return _ATAN2(y, x).astype(float)


def math_hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise :func:`math.hypot`, rounded as the math module rounds."""
    return _HYPOT(x, y).astype(float)


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator for ``seed``, which must be at least 0."""
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    return np.random.default_rng(seed)


def _squares(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x**2`` as Python rounds it, and the mask where that raises
    OverflowError (a finite square too large for a float)."""
    x = np.abs(x)  # Python squares a negative float as its absolute value
    overflow = np.isfinite(x) & np.isinf(x * x)
    return _POW(np.where(overflow, 0.0, x), 2.0).astype(float), overflow


@dataclass(frozen=True)
class Point2:
    """A planar point. Components must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point components must be finite, got ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class FootPose:
    """One foot's anchor point, orientation, and sole dimensions.

    ``orientation`` is the clockwise angle from the anchor-connecting line
    (pointing from the right anchor toward the left one) to the foot's
    heel-to-toe axis, stored in [0, 2*pi).  A foot perpendicular to the line
    and pointing forward has orientation pi/2; a foot aligned with the line
    has orientation 0.  ``length`` is the heel-to-metatarsal extent of the
    sole, ``width`` the distance across the metatarsals.
    """

    ecop: Point2
    orientation: float
    length: float
    width: float
    side: Side

    def __post_init__(self):
        if not math.isfinite(self.orientation):
            raise ValueError("orientation must be finite")
        if not (self.length > 0.0 and self.width > 0.0):
            raise ValueError("foot length and width must be positive")
        if not (math.isfinite(self.length) and math.isfinite(self.width)):
            raise ValueError("foot length and width must be finite")
        object.__setattr__(self, "orientation", wrap_positive(self.orientation))


@dataclass(frozen=True)
class SaddleFrame:
    """Stance-aligned frame: origin at the anchor midpoint, y axis along the
    right-to-left anchor line.  ``rotation`` is the angle of the frame's x
    axis measured in task space, wrapped to (-pi, pi]; ``separation`` is the
    distance between the two anchors."""

    origin: Point2
    rotation: float
    separation: float

    def __post_init__(self):
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")
        if not (math.isfinite(self.separation) and self.separation >= 0.0):
            raise ValueError("separation must be non-negative and finite")
        object.__setattr__(self, "rotation", wrap_signed(self.rotation))


@dataclass(frozen=True)
class BosParams:
    """The eight scalars that fix the boundary shape for one stance.

    ``reach_left``/``reach_right`` are the signed radii of the left and right
    caps about the frame origin (right is negative for a normal stance);
    ``margin_left``/``margin_right`` are each foot's contribution beyond its
    own anchor, so reach_left = separation/2 + margin_left and
    reach_right = -separation/2 + margin_right.  ``span_left``/``span_right``
    are the forward half-extents at which each cap stops, and
    ``slope_back``/``slope_front`` are the slopes of the strict-mode edge
    lines (zero for a symmetric parallel stance).
    """

    reach_left: float
    reach_right: float
    margin_left: float
    margin_right: float
    span_left: float
    span_right: float
    slope_back: float
    slope_front: float


@dataclass(frozen=True)
class BosBoundary:
    """A queryable base-of-support boundary in Saddle coordinates.  Its shape
    is resolved at construction, which raises DegenerateGeometryError in
    either mode when the caps cannot close."""

    params: BosParams
    frame: SaddleFrame
    mode: BoundaryMode = BoundaryMode.CONTINUOUS
    _shape: _ContinuousShape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_shape", _continuous_shape(self.params))


@dataclass(frozen=True)
class Polygon2:
    """An implicitly closed planar polygon stored as an (n, 2) float array.

    At least three vertices; consecutive vertices (including the closing
    pair) must be more than 1e-12 m apart.
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must form an (n, 2) array")
        if len(verts) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        gaps = np.hypot(*(np.roll(verts, -1, axis=0) - verts).T)
        if np.any(gaps <= 1e-12):
            raise ValueError("consecutive polygon vertices coincide")
        verts = verts.copy()
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)

    def __len__(self) -> int:
        return len(self.vertices)

    def bounding_box(self) -> tuple[Point2, Point2]:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return Point2(*lo), Point2(*hi)


# ---------------------------------------------------------------------------
# Frame construction and transforms


def saddle_frame_from_ecops(right_ecop: Point2, left_ecop: Point2) -> SaddleFrame:
    """Build the stance frame from the two anchor points.

    The frame origin is the anchor midpoint and the y axis points from the
    right anchor toward the left one, which puts the left anchor at
    (0, +separation/2) in Saddle coordinates.
    """
    (ox, oy, rotation, separation), fault = _frame_stage(*_one_row(*right_ecop, *left_ecop))
    raise_first_fault(_STANCE_FAULTS, fault, separation=separation, origin_x=ox, origin_y=oy)
    return SaddleFrame(Point2(ox.item(), oy.item()), rotation.item(), separation.item())


def to_task_space(frame: SaddleFrame, p_saddle: Point2) -> Point2:
    """Map a Saddle-space point into task space."""
    return Point2(*task_array_from_saddle(frame, p_saddle.as_array()[None, :])[0].tolist())


def to_saddle_space(frame: SaddleFrame, p_task: Point2) -> Point2:
    """Map a task-space point into Saddle space (exact inverse of
    :func:`to_task_space`)."""
    return Point2(*saddle_array_from_task(frame, p_task.as_array()[None, :])[0].tolist())


def task_array_from_saddle(frame: SaddleFrame, pts: np.ndarray) -> np.ndarray:
    """Vectorized Saddle-to-task transform for an (n, 2) array."""
    pts = np.asarray(pts, dtype=float)
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    out = np.empty_like(pts)
    out[:, 0] = c * pts[:, 0] - s * pts[:, 1] + frame.origin.x
    out[:, 1] = s * pts[:, 0] + c * pts[:, 1] + frame.origin.y
    return out


def saddle_array_from_task(frame: SaddleFrame, pts: np.ndarray) -> np.ndarray:
    """Vectorized task-to-Saddle transform for an (n, 2) array."""
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    return _to_saddle(np.asarray(pts, dtype=float), frame.origin.x, frame.origin.y, c, s)


def _to_saddle(pts: np.ndarray, ox, oy, c, s) -> np.ndarray:
    # the frame's origin, cos and sin of its rotation: scalars or one per point
    dx = pts[:, 0] - ox
    dy = pts[:, 1] - oy
    out = np.empty_like(pts)
    out[:, 0] = c * dx + s * dy
    out[:, 1] = -s * dx + c * dy
    return out


def polygon_to_task_space(frame: SaddleFrame, polygon: Polygon2) -> Polygon2:
    return Polygon2(task_array_from_saddle(frame, polygon.vertices))


def transform_posture(
    left: FootPose, right: FootPose, rotation: float, translation: Point2
) -> tuple[FootPose, FootPose]:
    """Apply a rigid task-space motion (rotation about the task origin, then
    translation) to a stance.  Foot orientations are relative to the anchor
    line, so they are unchanged."""
    c = math.cos(rotation)
    s = math.sin(rotation)

    def move(p: Point2) -> Point2:
        return Point2(
            c * p.x - s * p.y + translation.x,
            s * p.x + c * p.y + translation.y,
        )

    return (
        replace(left, ecop=move(left.ecop)),
        replace(right, ecop=move(right.ecop)),
    )


# ---------------------------------------------------------------------------
# Boundary shape


def derive_bos_params(frame: SaddleFrame, left: FootPose, right: FootPose) -> BosParams:
    """Compute the eight boundary shape scalars from a stance.

    The frame must have been built from the same anchor points carried by
    the two feet; this is checked.  Raises DegenerateGeometryError when the
    shared slope denominator vanishes, which happens when the two feet
    contribute identical margins (for example both aligned with the anchor
    line).
    """
    if left.side is not Side.LEFT or right.side is not Side.RIGHT:
        raise ValueError("foot poses passed in the wrong order")
    params, fault = _params_stage(*_one_row(
        *frame.origin, frame.rotation, frame.separation,
        *left.ecop, left.orientation, left.length, left.width,
        *right.ecop, right.orientation, right.length, right.width,
    ))
    raise_first_fault(_STANCE_FAULTS, fault)
    return BosParams(*(v.item() for v in params))


class _ContinuousShape(NamedTuple):
    """Resolved continuous boundary: cap radii, the corners' polar angles with
    positive x (alpha left, beta right) and the corners (+-ax, h_left) and
    (+-bx, -h_right).  Each field is a scalar or holds one value per direction."""

    r_left: float
    r_right: float
    alpha: float
    beta: float
    ax: float
    h_left: float
    bx: float
    h_right: float


def _continuous_shape(params: BosParams) -> _ContinuousShape:
    """The boundary shape of one set of parameters: one row of the shape stage."""
    p = params
    shape, fault = _shape_stage(*_one_row(p.reach_left, p.reach_right, p.span_left, p.span_right))
    raise_first_fault(_STANCE_FAULTS, fault)
    return _ContinuousShape(*(v.item() for v in shape))


# ---------------------------------------------------------------------------
# Stance stages
#
# Each stage maps columns of m stances to result columns and to the code k of
# the first check each stance fails (0: none); code k raises _STANCE_FAULTS[k].
# Every row is computed, faulty or not, so numpy's warnings are off.

_STANCE_FAULTS = (
    None,
    (CoincidentFeetError,  # frame stage
     f"anchor separation {{separation:.3e}} m is below {MIN_ANCHOR_SEPARATION:.0e} m"),
    (ValueError, "point components must be finite, got ({origin_x}, {origin_y})"),
    (ValueError, "separation must be non-negative and finite"),
    (ValueError, "left anchor does not match the frame it was paired with"),  # params stage
    (ValueError, "right anchor does not match the frame it was paired with"),
    (DegenerateGeometryError, "edge slopes are undefined: the feet contribute identical margins"),
    (DegenerateGeometryError,  # shape stage
     "cap half-extent reaches past the cap radius; boundary corners are not real"),
    (DegenerateGeometryError, "boundary is too large: a cap radius squared overflows a float"),
    (DegenerateGeometryError,
     f"front and back edges pass within {MIN_ANCHOR_SEPARATION:.0e} m of the stance origin: "
     "the boundary has no area"),
)


def raise_first_fault(faults: tuple, codes: np.ndarray, **values: np.ndarray) -> None:
    """Raise ``faults[code]``, an exception type and a message template, for the
    first row whose fault code is not 0, with that row of each of ``values``."""
    if codes.any():
        k = np.flatnonzero(codes)[0]
        error, template = faults[codes[k]]
        raise error(template.format(**{name: v[k].item() for name, v in values.items()}))


def fault_codes(first: int, *failed: np.ndarray) -> np.ndarray:
    """Per row, ``first`` + the index of the first check in ``failed`` it fails, or 0."""
    failed = np.array(failed)
    return np.where(failed.any(axis=0), first + failed.argmax(axis=0), 0)


def _one_row(*values: float) -> tuple[np.ndarray, ...]:
    """One (1,) column per value."""
    return tuple(np.array([values], dtype=float).T)


def _frame_stage(rx, ry, lx, ly):
    """:func:`saddle_frame_from_ecops`: origin x and y, rotation wrapped once
    (a :class:`SaddleFrame` wraps it again) and separation, and fault codes."""
    with np.errstate(all="ignore"):
        dx, dy = lx - rx, ly - ry
        separation = math_hypot(dx, dy)
        ox, oy = (rx + lx) / 2.0, (ry + ly) / 2.0
        rotation = _wrap_signed_array(math_atan2(dy, dx) - math.pi / 2.0)
    not_finite = ~(np.isfinite(ox) & np.isfinite(oy)), ~np.isfinite(separation)
    fault = fault_codes(1, separation <= MIN_ANCHOR_SEPARATION, *not_finite)
    return (ox, oy, rotation, separation), fault


def _params_stage(ox, oy, rotation, separation, lx, ly, lo, ll, lw, rx, ry, ro, rl, rw):
    """:func:`derive_bos_params` for frames and feet (anchor x and y, orientation,
    length, width): the eight :class:`BosParams` fields, and fault codes."""
    with np.errstate(all="ignore"):
        # the anchors belong at origin +/- R(rotation) (0, separation/2) in task space
        half = separation / 2.0
        ux, uy = -np.sin(rotation) * half, np.cos(rotation) * half
        off_x = np.array([lx - (ox + ux), rx - (ox - ux)])  # left, right
        off_frame = math_hypot(off_x, np.array([ly - (oy + uy), ry - (oy - uy)])) > 1e-9
        ul, ur = lo - math.pi / 2.0, ro - math.pi / 2.0
        margin_left = 0.5 * (ll * np.sin(ul) + lw * np.cos(ul))
        span_left = 0.5 * (ll * np.cos(ul) - lw * np.sin(ul))
        margin_right = 0.5 * (rl * np.sin(ur) - rw * np.cos(ur))
        span_right = 0.5 * (rl * np.cos(ur) - rw * np.sin(ur))
        reach_left = 0.5 * separation + margin_left
        reach_right = -0.5 * separation + margin_right
        denom = separation + reach_right - reach_left
        slopes = (span_right - span_left) / denom, (span_left - span_right) / denom
    fault = fault_codes(4, *off_frame, np.abs(denom) <= 1e-12)
    params = reach_left, reach_right, margin_left, margin_right, span_left, span_right, *slopes
    return params, fault


def _shape_stage(reach_left, reach_right, span_left, span_right):
    """The resolved :class:`_ContinuousShape` of shape parameters, and fault
    codes: the caps cannot close, a cap radius squared overflows, or the front
    and back edges pass within MIN_ANCHOR_SEPARATION of the origin."""
    ax, bx = np.abs(span_left), np.abs(span_right)
    with np.errstate(all="ignore"):
        squares, overflow = _squares(np.array([reach_left, ax, reach_right, bx]))
        left_sq, ax_sq, right_sq, bx_sq = squares
        h_left, h_right = np.sqrt(left_sq - ax_sq), np.sqrt(right_sq - bx_sq)
        # the front edge's distance from the origin; the back edge mirrors it
        edge_distance = (ax * h_right + bx * h_left) / math_hypot(ax - bx, h_left + h_right)
    fault = fault_codes(7, (ax >= reach_left) | (bx >= np.abs(reach_right)), overflow.any(axis=0),
                        ~(edge_distance > MIN_ANCHOR_SEPARATION))
    alpha, beta = math_atan2(np.array([h_left, h_right]), np.array([ax, bx]))
    return (reach_left, -reach_right, alpha, beta, ax, h_left, bx, h_right), fault


def _continuous_radii(shape: _ContinuousShape, phis: np.ndarray) -> np.ndarray:
    """Boundary radius along each direction ``phis`` in [-pi, pi]: a cap
    radius, or the ray's distance to the front or back edge between corners."""
    phis = np.asarray(phis, dtype=float)
    alpha, beta, ax, h_left, bx, h_right = shape[2:]
    r = np.empty_like(phis)
    left = (phis >= alpha) & (phis <= math.pi - alpha)
    right = (phis >= beta - math.pi) & (phis <= -beta)
    front = (phis > -beta) & (phis < alpha)
    back = ~(left | right | front)
    for mask, value in ((left, shape.r_left), (right, shape.r_right)):
        r[mask] = value[mask] if np.ndim(value) else value
    for mask, ends in ((front, (bx, -h_right, ax, h_left)), (back, (-ax, h_left, -bx, -h_right))):
        if not mask.any():
            continue
        p0, p1, q0, q1 = (v[mask] if np.ndim(v) else v for v in ends)
        vx = q0 - p0
        vy = q1 - p1
        with np.errstate(divide="ignore", invalid="ignore"):
            r[mask] = (p0 * vy - p1 * vx) / (np.cos(phis[mask]) * vy - np.sin(phis[mask]) * vx)
    return r


def _strict_point(params: BosParams, phi: float) -> Point2:
    """Evaluate the piecewise strict-mode formulas at one direction angle in
    [0, 2*pi)."""
    if phi < math.pi:
        y = params.reach_left * math.cos(phi)
        x_arc = params.reach_left * math.sin(phi)
        limit = abs(params.span_left)
    else:
        y = params.reach_right * math.cos(phi)
        x_arc = params.reach_right * math.sin(phi)
        limit = abs(params.span_right)
    if abs(x_arc) <= limit:
        x = x_arc
    elif math.pi / 2.0 <= phi < 3.0 * math.pi / 2.0:
        x = params.slope_back * y - params.span_right
    else:
        x = params.slope_front * y + params.span_right
    return Point2(x, y)


def boundary_point(boundary: BosBoundary, phi: float) -> Point2:
    """Boundary point in the direction ``phi`` (radians from the frame's x
    axis), in Saddle coordinates.

    In continuous mode this is the unique intersection of the ray from the
    origin with the closed cap-and-edge curve; in strict mode the piecewise
    formulas are evaluated verbatim, branch by branch.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if boundary.mode is BoundaryMode.STRICT:
        return _strict_point(boundary.params, wrap_positive(phi))
    w = wrap_signed(phi)
    r = float(_continuous_radii(boundary._shape, np.array([w]))[0])
    return Point2(r * math.cos(w), r * math.sin(w))


def sample_boundary(boundary: BosBoundary, n: int) -> Polygon2:
    """Sample the boundary at n evenly spaced direction angles 2*pi*k/n,
    counterclockwise, in Saddle coordinates."""
    if not 3 <= n <= MAX_BOUNDARY_SAMPLES:
        raise ValueError(f"boundary sample count must lie in [3, {MAX_BOUNDARY_SAMPLES}], got {n}")
    phis = TWO_PI * np.arange(n) / n
    if boundary.mode is BoundaryMode.STRICT:
        verts = np.array([tuple(_strict_point(boundary.params, p)) for p in phis])
    else:
        wrapped = np.mod(phis + math.pi, TWO_PI) - math.pi
        r = _continuous_radii(boundary._shape, wrapped)
        verts = np.column_stack((r * np.cos(wrapped), r * np.sin(wrapped)))
    return Polygon2(verts)


def contains(
    boundary: BosBoundary, p_saddle: Point2, tol: float = DEFAULT_CONTAINS_TOL
) -> Containment:
    """Classify a Saddle-space point against the boundary by comparing its
    radius with the boundary radius along its direction."""
    codes = classify_saddle_points(boundary, p_saddle.as_array()[None, :], tol)
    return {1: Containment.INSIDE, 0: Containment.ON, -1: Containment.OUTSIDE}[int(codes[0])]


def classify_saddle_points(
    boundary: BosBoundary, pts: np.ndarray, tol: float = DEFAULT_CONTAINS_TOL
) -> np.ndarray:
    """Vectorized containment codes for (n, 2) Saddle-space points: +1
    inside, 0 on the boundary (within ``tol``), -1 outside.  It shares its
    per-sample kernel with :func:`classify_task_segments`."""
    return _classify(_continuous(boundary), np.asarray(pts, dtype=float), tol)


def classify_task_segments(
    table: np.ndarray,
    step: int,
    task_pts: np.ndarray,
    tol: float = DEFAULT_CONTAINS_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Saddle-space points and containment codes for (n, 2) task-space samples
    in consecutive segments of ``step`` samples, each in its own stance: row k
    of the ``(ceil(n / step), 12)`` stance ``table`` (see :func:`stance_rows`)
    serves segment k.  Bit for bit :func:`saddle_array_from_task` then
    :func:`classify_saddle_points` per segment, from one call of each kernel."""
    task_pts = np.asarray(task_pts, dtype=float)
    if step < 1:
        raise ValueError(f"segment step must be at least 1, got {step}")
    table = np.asarray(table, dtype=float)
    n_segments = -(-len(task_pts) // step)
    if table.shape != (n_segments, 12):
        raise ValueError(
            f"{n_segments} segments need a ({n_segments}, 12) stance table, got {table.shape}"
        )
    # one stance passes its scalars through: no per-sample shape arrays
    cols = table[0].tolist() if len(table) == 1 else table[np.arange(len(task_pts)) // step].T
    saddle_pts = _to_saddle(task_pts, *cols[:4])
    return saddle_pts, _classify(_ContinuousShape(*cols[4:]), saddle_pts, tol)


def stance_rows(stances: Iterable[tuple[SaddleFrame, BosBoundary]]) -> np.ndarray:
    """The (m, 12) stance table of ``(frame, boundary)`` pairs for
    :func:`classify_task_segments`.  Row k holds frame k's origin x and y, the
    cosine and sine of its rotation, and boundary k's resolved continuous
    shape: cap radii left and right, corner angles alpha and beta, and the
    corners' ax, h_left, bx and h_right.  A strict-mode boundary is refused."""
    rows = [
        (frame.origin.x, frame.origin.y, math.cos(frame.rotation), math.sin(frame.rotation),
         *_continuous(boundary))
        for frame, boundary in stances
    ]
    return np.array(rows, dtype=float).reshape(len(rows), 12)


def stance_rows_from_feet(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """:func:`stance_rows` for m stances given as (m, 5) arrays of left and
    right feet, each row the anchor x and y, orientation, length and width of
    a :class:`FootPose`: the stages that :func:`saddle_frame_from_ecops`,
    :func:`derive_bos_params` and :class:`BosBoundary` run on one stance, so
    each row is theirs bit for bit and the first stance they reject raises."""
    left, right = (np.asarray(f, dtype=float).reshape(-1, 5).T for f in (left, right))
    (ox, oy, rotation, separation), fault = _frame_stage(right[0], right[1], left[0], left[1])
    rotation = _wrap_signed_array(rotation)  # SaddleFrame's second wrap
    params, params_fault = _params_stage(ox, oy, rotation, separation, *left, *right)
    shape, shape_fault = _shape_stage(*params[:2], *params[4:6])
    for later in (params_fault, shape_fault):
        fault = np.where(fault, fault, later)
    raise_first_fault(_STANCE_FAULTS, fault, separation=separation, origin_x=ox, origin_y=oy)
    return np.column_stack((ox, oy, np.cos(rotation), np.sin(rotation), *shape))


def _continuous(boundary: BosBoundary) -> _ContinuousShape:
    if boundary.mode is not BoundaryMode.CONTINUOUS:
        raise StrictModeUnsupportedError("containment needs the closed continuous boundary")
    return boundary._shape


def _classify(shape: _ContinuousShape, pts: np.ndarray, tol: float) -> np.ndarray:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"containment tol must be finite and at least 0, got {tol}")
    r_p = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    r_b = _continuous_radii(shape, phi)
    codes = np.where(r_p < r_b, 1, -1).astype(np.int8)
    codes[np.abs(r_p - r_b) <= tol] = 0
    codes[r_p <= ORIGIN_RADIUS] = 1
    return codes


def bos_polygon_task_space(left: FootPose, right: FootPose, n: int = 360) -> Polygon2:
    """Full pipeline: build the frame from the feet, derive the boundary,
    sample it, and express the polygon in task space."""
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    params = derive_bos_params(frame, left, right)
    poly = sample_boundary(BosBoundary(params, frame), n)
    return polygon_to_task_space(frame, poly)
