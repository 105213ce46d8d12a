"""Derivation of model inputs from a ten-marker motion-capture set.

The marker set covers the pelvis (LASI, RASI, LPSI, RPSI) and both feet
(heel plus first and fifth metatarsal per side).  The centre of mass is
approximated by the ground-plane centroid of the four pelvic markers; each
foot contributes its sole dimensions, its anchor point (eCoP) placed a
configurable fraction of the way from the heel to the metatarsal midpoint,
and its orientation relative to the line connecting the two anchors.

A trial is held column-wise in a :class:`MarkerTrial` (times plus an
``(n, 10, 3)`` coordinate array, NaN where a marker is absent); stances are
read from its rows by :func:`foot_poses_at`, or, for many rows at once, by
:func:`stance_table`.  A :class:`MarkerFrame` is only the public view of one
row, keyed by label.

Capture systems disagree on which axis points up, so every operation takes
an ``up_axis`` argument.  Projection to the ground plane drops that axis and
keeps the remaining two in a right-handed order: z-up keeps (x, y), y-up
keeps (z, x), x-up keeps (y, z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CoincidentFeetError, DegenerateFootError, MissingMarkerError
from .geometry import (
    BosBoundary,
    FootPose,
    Point2,
    Side,
    derive_bos_params,
    math_atan2,
    math_hypot,
    saddle_frame_from_ecops,
    stance_rows_from_feet,
    wrap_positive,
)
from .metrics import ComTrajectory

MARKER_LABELS = (
    "LASI", "RASI", "LPSI", "RPSI",
    "LHEE", "RHEE", "LMT1", "LMT5", "RMT1", "RMT5",
)
PELVIS_LABELS = ("LASI", "RASI", "LPSI", "RPSI")
FOOT_LABELS = {
    Side.LEFT: ("LHEE", "LMT1", "LMT5"),
    Side.RIGHT: ("RHEE", "RMT1", "RMT5"),
}

_GROUND_AXES = {"z": (0, 1), "y": (2, 0), "x": (1, 2)}

_ABSENT = (math.nan, math.nan, math.nan)

#: Sole dimensions below this are treated as marker errors.
MIN_FOOT_DIMENSION = 1e-3


@dataclass(frozen=True)
class MarkerFrame:
    """One time-stamped set of 3D marker positions, keyed by label.

    Markers may be absent (dropped by the capture system); a frame holding
    all ten labels is complete.
    """

    time: float
    positions: Mapping[str, tuple[float, float, float]]

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError("frame time must be finite")
        cleaned = {}
        for label, xyz in self.positions.items():
            if label not in MARKER_LABELS:
                raise ValueError(f"unknown marker label {label!r}")
            x, y, z = (float(v) for v in xyz)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError(f"marker {label!r} has non-finite coordinates")
            cleaned[label] = (x, y, z)
        object.__setattr__(self, "positions", cleaned)

    @property
    def is_complete(self) -> bool:
        return all(label in self.positions for label in MARKER_LABELS)

    @property
    def missing(self) -> tuple[str, ...]:
        return tuple(label for label in MARKER_LABELS if label not in self.positions)


@dataclass(frozen=True, eq=False)
class MarkerTrial:
    """A whole trial, column-wise.

    ``times`` is (n,) and ``xyz`` is (n, 10, 3) in :data:`MARKER_LABELS`
    order, both C-contiguous float64, with NaN coordinates for an absent
    marker; a non-finite time, an infinite coordinate or a marker NaN in only
    some coordinates raises ValueError.  ``complete`` is the (n,) mask of rows
    holding all ten markers.  Indexing and iteration give :class:`MarkerFrame`
    rows.
    """

    times: np.ndarray
    xyz: np.ndarray
    complete: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        if times.ndim != 1 or xyz.shape != (len(times), len(MARKER_LABELS), 3):
            raise ValueError(
                f"a trial needs times (n,) and xyz (n, {len(MARKER_LABELS)}, 3), "
                f"got {times.shape} and {xyz.shape}"
            )
        if not np.isfinite(times).all():
            raise ValueError("trial times must be finite")
        if np.isinf(xyz).any():
            raise ValueError("marker coordinates must be finite, or NaN for an absent marker")
        absent = np.isnan(xyz)
        x_absent = absent[:, :, 0]
        if ((absent[:, :, 1] != x_absent) | (absent[:, :, 2] != x_absent)).any():
            raise ValueError("a marker must be NaN in all three coordinates or in none")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "complete", ~x_absent.any(axis=1))

    @classmethod
    def from_frames(cls, frames: Iterable[MarkerFrame]) -> MarkerTrial:
        frames = list(frames)
        rows = [_row(f) for f in frames]
        xyz = np.array(rows, dtype=np.float64).reshape(len(frames), len(MARKER_LABELS), 3)
        return cls(np.array([f.time for f in frames], dtype=np.float64), xyz)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> MarkerFrame:
        positions = {
            label: tuple(xyz)
            for label, xyz in zip(MARKER_LABELS, self.xyz[i].tolist())
            if not math.isnan(xyz[0])
        }
        return MarkerFrame(self.times[i].item(), positions)

    def __iter__(self) -> Iterator[MarkerFrame]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkerTrial):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.xyz, other.xyz, equal_nan=True
        )

    def select(self, mask: np.ndarray) -> MarkerTrial:
        """The rows where the boolean ``mask`` is true."""
        return MarkerTrial(self.times[mask], self.xyz[mask])


@dataclass(frozen=True)
class FootGeometry:
    """Ground-plane geometry of one foot."""

    heel: Point2
    mt_mid: Point2
    length: float
    width: float
    ecop: Point2
    side: Side


def _row(frame: MarkerFrame) -> list:
    """The frame as a :class:`MarkerTrial` row, NaN for an absent marker."""
    return [frame.positions.get(label, _ABSENT) for label in MARKER_LABELS]


def _ground_axes(up_axis: str) -> tuple[int, int]:
    try:
        return _GROUND_AXES[up_axis]
    except KeyError:
        raise ValueError(f"up_axis must be one of 'x', 'y', 'z', got {up_axis!r}") from None


def ground_projection(xyz: tuple[float, float, float], up_axis: str = "z") -> Point2:
    """Project a 3D marker onto the ground plane by dropping the up axis."""
    i, j = _ground_axes(up_axis)
    return Point2(xyz[i], xyz[j])


def _marker(row: list, label: str, up_axis: str) -> Point2:
    xyz = row[MARKER_LABELS.index(label)]
    if math.isnan(xyz[0]):
        raise MissingMarkerError(label)
    return ground_projection(xyz, up_axis)


def com_from_pelvis(frame: MarkerFrame, up_axis: str = "z") -> Point2:
    """Ground-plane centroid of the four pelvic markers."""
    return Point2(*com_trajectory([frame], up_axis).points[0].tolist())


def foot_geometry(
    frame: MarkerFrame,
    side: Side,
    ecop_fraction: float = 0.5,
    up_axis: str = "z",
) -> FootGeometry:
    """Sole geometry and anchor placement for one foot.

    Width is the metatarsal marker distance, length the heel-to-metatarsal-
    midpoint distance, both in the ground plane.  The anchor (eCoP) sits at
    ``ecop_fraction`` of the way from the heel to the metatarsal midpoint.
    """
    return _foot_geometry(_row(frame), side, ecop_fraction, up_axis)


def _foot_geometry(row: list, side: Side, ecop_fraction: float, up_axis: str) -> FootGeometry:
    if not 0.0 < ecop_fraction < 1.0:
        raise ValueError("ecop_fraction must lie strictly between 0 and 1")
    heel, mt1, mt5 = (_marker(row, label, up_axis) for label in FOOT_LABELS[side])

    width = math.hypot(mt1.x - mt5.x, mt1.y - mt5.y)
    mt_mid = Point2((mt1.x + mt5.x) / 2.0, (mt1.y + mt5.y) / 2.0)
    length = math.hypot(mt_mid.x - heel.x, mt_mid.y - heel.y)
    if width < MIN_FOOT_DIMENSION or length < MIN_FOOT_DIMENSION:
        raise DegenerateFootError(
            f"{side.value} foot dimensions collapse: length={length:.4g} m width={width:.4g} m"
        )
    ecop = Point2(
        heel.x + ecop_fraction * (mt_mid.x - heel.x),
        heel.y + ecop_fraction * (mt_mid.y - heel.y),
    )
    return FootGeometry(heel=heel, mt_mid=mt_mid, length=length, width=width,
                        ecop=ecop, side=side)


def foot_poses(
    frame: MarkerFrame,
    ecop_fraction: float = 0.5,
    up_axis: str = "z",
    anchor: str = "ecop",
) -> tuple[FootPose, FootPose]:
    """Build the (left, right) stance pair from one marker frame.

    ``anchor`` selects what the stance frame is hung on: ``"ecop"`` uses the
    heel-fraction point, ``"mt-mid"`` uses the metatarsal midpoints directly.
    Each foot's orientation is the clockwise angle from the right-to-left
    anchor line to its heel-to-toe axis.
    """
    return _foot_poses(_row(frame), ecop_fraction, up_axis, anchor)


def foot_poses_at(
    trial: MarkerTrial, i: int, ecop_fraction: float = 0.5, up_axis: str = "z", anchor: str = "ecop"
) -> tuple[FootPose, FootPose]:
    """``foot_poses(trial[i], ...)``, read from the trial's arrays without a MarkerFrame."""
    return _foot_poses(trial.xyz[i].tolist(), ecop_fraction, up_axis, anchor)


def _foot_poses(
    row: list, ecop_fraction: float, up_axis: str, anchor: str
) -> tuple[FootPose, FootPose]:
    if anchor not in ("ecop", "mt-mid"):
        raise ValueError(f"anchor must be 'ecop' or 'mt-mid', got {anchor!r}")
    left_geo = _foot_geometry(row, Side.LEFT, ecop_fraction, up_axis)
    right_geo = _foot_geometry(row, Side.RIGHT, ecop_fraction, up_axis)

    def anchor_point(geo: FootGeometry) -> Point2:
        return geo.mt_mid if anchor == "mt-mid" else geo.ecop

    la = anchor_point(left_geo)
    ra = anchor_point(right_geo)
    dx, dy = la.x - ra.x, la.y - ra.y
    if math.hypot(dx, dy) <= 1e-9:
        raise CoincidentFeetError("foot anchors coincide; stance line is undefined")
    line_angle = math.atan2(dy, dx)

    poses = []
    for geo, anchor_pt in ((left_geo, la), (right_geo, ra)):
        axis_angle = math.atan2(geo.mt_mid.y - geo.heel.y, geo.mt_mid.x - geo.heel.x)
        orientation = wrap_positive(line_angle - axis_angle)
        poses.append(
            FootPose(
                ecop=anchor_pt,
                orientation=orientation,
                length=geo.length,
                width=geo.width,
                side=geo.side,
            )
        )
    return poses[0], poses[1]


def stance_table(
    trial: MarkerTrial,
    rows: Sequence[int],
    ecop_fraction: float = 0.5,
    up_axis: str = "z",
    anchor: str = "ecop",
) -> np.ndarray:
    """The (m, 12) stance table (see :func:`geometry.stance_rows`) of the
    trial rows ``rows``, for :func:`geometry.classify_task_segments`.

    Row k equals, bit for bit, ``stance_rows`` of row ``rows[k]``'s frame and
    boundary built through :func:`foot_poses_at`,
    :func:`geometry.saddle_frame_from_ecops`, :func:`geometry.derive_bos_params`
    and :class:`geometry.BosBoundary`, but every stance comes from one array
    pass: marker rows to feet arrays here, feet to frame, shape parameters and
    boundary in :func:`geometry.stance_rows_from_feet`.  When that object path
    would reject some stance, it is re-run on the first such row, in ``rows``
    order, to raise the exception it raises there.
    """
    rows = np.asarray(rows, dtype=np.intp)
    # a bad argument fails every stance
    table, rejected = np.empty((len(rows), 12)), np.ones(len(rows), dtype=bool)
    if anchor in ("ecop", "mt-mid") and 0.0 < ecop_fraction < 1.0 and up_axis in _GROUND_AXES:
        (left, right), feet_rejected = _feet_arrays(trial.xyz[rows], ecop_fraction, up_axis, anchor)
        table, rejected = stance_rows_from_feet(left, right)
        rejected |= feet_rejected
    if rejected.any():
        i = int(rows[rejected.argmax()])
        left, right = foot_poses_at(trial, i, ecop_fraction, up_axis, anchor)
        frame = saddle_frame_from_ecops(right.ecop, left.ecop)
        BosBoundary(derive_bos_params(frame, left, right), frame)
        raise RuntimeError(f"stance_table rejected trial row {i}, which the object path accepts")
    return table


def _feet_arrays(
    xyz: np.ndarray, ecop_fraction: float, up_axis: str, anchor: str
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """``_foot_poses`` over (m, 10, 3) marker rows: the (m, 5) left and right
    FootPose columns (anchor x and y, orientation, length, width) and the (m,)
    mask of rows it would reject."""
    i, j = _GROUND_AXES[up_axis]
    xs, ys = xyz[:, :, i], xyz[:, :, j]
    foot_markers = [MARKER_LABELS.index(label) for side in Side for label in FOOT_LABELS[side]]
    rejected = np.isnan(xs[:, foot_markers]).any(axis=1)
    feet = []
    with np.errstate(all="ignore"):
        for side in Side:
            heel, mt1, mt5 = (MARKER_LABELS.index(label) for label in FOOT_LABELS[side])
            hx, hy = xs[:, heel], ys[:, heel]
            width = math_hypot(xs[:, mt1] - xs[:, mt5], ys[:, mt1] - ys[:, mt5])
            mid_x, mid_y = (xs[:, mt1] + xs[:, mt5]) / 2.0, (ys[:, mt1] + ys[:, mt5]) / 2.0
            length = math_hypot(mid_x - hx, mid_y - hy)
            ecop_x = hx + ecop_fraction * (mid_x - hx)
            ecop_y = hy + ecop_fraction * (mid_y - hy)
            rejected |= ~(np.isfinite(mid_x) & np.isfinite(mid_y))
            rejected |= (width < MIN_FOOT_DIMENSION) | (length < MIN_FOOT_DIMENSION)
            rejected |= ~(np.isfinite(ecop_x) & np.isfinite(ecop_y))
            anchor_pt = (mid_x, mid_y) if anchor == "mt-mid" else (ecop_x, ecop_y)
            feet.append((*anchor_pt, math_atan2(mid_y - hy, mid_x - hx), length, width))
        (lx, ly, *_), (rx, ry, *_) = feet
        dx, dy = lx - rx, ly - ry
        rejected |= math_hypot(dx, dy) <= 1e-9
        line_angle = math_atan2(dy, dx)
        # wrapped twice, as _foot_poses and then FootPose do
        poses = tuple(
            np.column_stack((x, y, wrap_positive(wrap_positive(line_angle - axis)), length, width))
            for x, y, axis, length, width in feet
        )
    return poses, rejected


def com_trajectory(
    trial: MarkerTrial | Iterable[MarkerFrame], up_axis: str = "z"
) -> ComTrajectory:
    """Centre-of-mass trajectory over a trial (or any iterable of frames),
    every row of which must carry the pelvic markers."""
    if not isinstance(trial, MarkerTrial):
        trial = MarkerTrial.from_frames(trial)
    i, j = _ground_axes(up_axis)
    pelvis = trial.xyz[:, [MARKER_LABELS.index(label) for label in PELVIS_LABELS]]
    absent = np.isnan(pelvis[:, :, 0])
    if absent.any():
        first_row = absent[absent.any(axis=1).argmax()]
        raise MissingMarkerError(PELVIS_LABELS[first_row.argmax()])
    # summed left to right from 0, as the built-in sum() of Python <= 3.11
    # does, so that -0.0 markers give +0.0 and rounding follows marker order
    points = np.empty((len(trial), 2))
    for col, axis in enumerate((i, j)):
        p = pelvis[:, :, axis]
        points[:, col] = ((((0.0 + p[:, 0]) + p[:, 1]) + p[:, 2]) + p[:, 3]) / 4.0
    return ComTrajectory(trial.times, points)
