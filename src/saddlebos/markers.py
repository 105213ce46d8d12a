"""Derivation of model inputs from a ten-marker motion-capture set.

The marker set covers the pelvis (LASI, RASI, LPSI, RPSI) and both feet
(heel plus first and fifth metatarsal per side).  The centre of mass is
approximated by the ground-plane centroid of the four pelvic markers; each
foot contributes its sole dimensions, its anchor point (eCoP) placed a
configurable fraction of the way from the heel to the metatarsal midpoint,
and its orientation relative to the line connecting the two anchors.

A trial is held column-wise in a :class:`MarkerTrial` (times plus an
``(n, 10, 3)`` coordinate array, NaN where a marker is absent).  A
:class:`MarkerFrame` is only the public view of one row, keyed by label.
Stances are read from marker rows by one array pass, the feet stage, which
:func:`stance_table` runs over many rows and :func:`foot_poses_at`,
:func:`foot_poses` and :func:`foot_geometry` over one.

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
    FootPose,
    Point2,
    Side,
    fault_codes,
    math_atan2,
    math_hypot,
    raise_first_fault,
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


#: Fault code k of the feet stage raises ``_FEET_FAULTS[k]`` (see
#: :func:`geometry.raise_first_fault`): each foot's checks, then the anchors'.
_FEET_FAULTS = (
    None,
    (MissingMarkerError, "{missing}"),
    (ValueError, "point components must be finite, got ({mid_x}, {mid_y})"),
    (DegenerateFootError,
     "{side} foot dimensions collapse: length={length:.4g} m width={width:.4g} m"),
    (ValueError, "foot length and width must be finite"),
    (ValueError, "point components must be finite, got ({ecop_x}, {ecop_y})"),
    (CoincidentFeetError, "foot anchors coincide; stance line is undefined"),
)


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
    xs, ys = _ground(np.array([_row(frame)], dtype=float), ecop_fraction, up_axis)
    foot, fault = _foot_arrays(xs, ys, side, ecop_fraction)
    raise_first_fault(_FEET_FAULTS, fault, **foot)
    v = {name: column.item() for name, column in foot.items()}
    heel, mt_mid, ecop = (Point2(v[f"{p}_x"], v[f"{p}_y"]) for p in ("heel", "mid", "ecop"))
    return FootGeometry(heel, mt_mid, v["length"], v["width"], ecop, side)


def foot_poses(
    frame: MarkerFrame,
    ecop_fraction: float = 0.5,
    up_axis: str = "z",
    anchor: str = "ecop",
) -> tuple[FootPose, FootPose]:
    """Build the (left, right) stance pair from one marker frame: the
    :func:`foot_poses_at` of a one-row trial."""
    return foot_poses_at(MarkerTrial.from_frames([frame]), 0, ecop_fraction, up_axis, anchor)


def foot_poses_at(
    trial: MarkerTrial, i: int, ecop_fraction: float = 0.5, up_axis: str = "z", anchor: str = "ecop"
) -> tuple[FootPose, FootPose]:
    """Build the (left, right) stance pair from row ``i`` of a trial.

    ``anchor`` selects what the stance frame is hung on: ``"ecop"`` uses the
    heel-fraction point, ``"mt-mid"`` uses the metatarsal midpoints directly.
    Each foot's orientation is the clockwise angle from the right-to-left
    anchor line to its heel-to-toe axis.
    """
    poses, fault, values = _feet_arrays(trial.xyz[i][None], ecop_fraction, up_axis, anchor)
    raise_first_fault(_FEET_FAULTS, fault, **values)
    return tuple(
        FootPose(Point2(x.item(), y.item()), orientation.item(), length.item(), width.item(), side)
        for side, (x, y, orientation, length, width) in zip(Side, poses)
    )


def stance_table(
    trial: MarkerTrial,
    rows: Sequence[int],
    ecop_fraction: float = 0.5,
    up_axis: str = "z",
    anchor: str = "ecop",
) -> np.ndarray:
    """The (m, 12) stance table (see :func:`geometry.stance_rows_from_feet`)
    of the trial rows ``rows``, for :func:`geometry.classify_task_segments`.

    Every stance comes from one array pass: marker rows to feet here, feet
    to frame and boundary in :func:`geometry.stance_rows_from_feet`.
    :func:`foot_poses_at` and the scalar geometry calls run the same stages
    on one row, so row k is bit for bit theirs for row ``rows[k]``, and the
    first row they reject, in ``rows`` order, raises their exception.
    """
    rows = np.asarray(rows, dtype=np.intp)
    poses, fault, values = _feet_arrays(trial.xyz[rows], ecop_fraction, up_axis, anchor)
    # the rows before the first feet fault, whose own faults come first
    n = int((fault != 0).argmax()) if fault.any() else len(rows)
    table = stance_rows_from_feet(*(
        # FootPose wraps an orientation a second time
        np.column_stack((x, y, wrap_positive(orientation), length, width))[:n]
        for x, y, orientation, length, width in poses
    ))
    raise_first_fault(_FEET_FAULTS, fault, **values)
    return table


def _ground(xyz: np.ndarray, ecop_fraction: float, up_axis: str) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 10) ground x and y of (m, 10, 3) marker rows, once the foot
    arguments have been checked."""
    if not 0.0 < ecop_fraction < 1.0:
        raise ValueError("ecop_fraction must lie strictly between 0 and 1")
    i, j = _ground_axes(up_axis)
    return xyz[:, :, i], xyz[:, :, j]


def _foot_arrays(xs: np.ndarray, ys: np.ndarray, side: Side, ecop_fraction: float) -> tuple:
    """:func:`foot_geometry` of m rows of ground x and y: a dict of the heel,
    metatarsal midpoint, length, width, eCoP, heel-to-toe axis angle, side and
    first missing label columns, and fault codes in ``_FEET_FAULTS``."""
    heel, mt1, mt5 = columns = [MARKER_LABELS.index(label) for label in FOOT_LABELS[side]]
    absent = np.isnan(xs[:, columns])
    with np.errstate(all="ignore"):
        hx, hy = xs[:, heel], ys[:, heel]
        width = math_hypot(xs[:, mt1] - xs[:, mt5], ys[:, mt1] - ys[:, mt5])
        mid_x, mid_y = (xs[:, mt1] + xs[:, mt5]) / 2.0, (ys[:, mt1] + ys[:, mt5]) / 2.0
        length = math_hypot(mid_x - hx, mid_y - hy)
        ecop_x = hx + ecop_fraction * (mid_x - hx)
        ecop_y = hy + ecop_fraction * (mid_y - hy)
        axis = math_atan2(mid_y - hy, mid_x - hx)
    fault = fault_codes(
        1, absent.any(axis=1), ~(np.isfinite(mid_x) & np.isfinite(mid_y)),
        (width < MIN_FOOT_DIMENSION) | (length < MIN_FOOT_DIMENSION),
        np.isinf(length) | np.isinf(width),  # FootPose's rule
        ~(np.isfinite(ecop_x) & np.isfinite(ecop_y)),
    )
    foot = dict(heel_x=hx, heel_y=hy, mid_x=mid_x, mid_y=mid_y, length=length, width=width,
                ecop_x=ecop_x, ecop_y=ecop_y, axis=axis, side=np.full(len(xs), side.value),
                missing=np.array(FOOT_LABELS[side])[absent.argmax(axis=1)])
    return foot, fault


def _feet_arrays(xyz: np.ndarray, ecop_fraction: float, up_axis: str, anchor: str) -> tuple:
    """:func:`foot_poses_at` of (m, 10, 3) marker rows: the left and right
    FootPose columns (anchor x and y, orientation wrapped once, length,
    width), fault codes in ``_FEET_FAULTS``, and the foot at fault's values."""
    if anchor not in ("ecop", "mt-mid"):
        raise ValueError(f"anchor must be 'ecop' or 'mt-mid', got {anchor!r}")
    xs, ys = _ground(xyz, ecop_fraction, up_axis)
    feet = (_foot_arrays(xs, ys, side, ecop_fraction) for side in Side)
    (left, left_fault), (right, right_fault) = feet
    point = "mid" if anchor == "mt-mid" else "ecop"
    (lx, ly), (rx, ry) = ((f[f"{point}_x"], f[f"{point}_y"]) for f in (left, right))
    with np.errstate(all="ignore"):
        dx, dy = lx - rx, ly - ry
        coincident = math_hypot(dx, dy) <= 1e-9
        line_angle = math_atan2(dy, dx)
        poses = tuple(
            (x, y, wrap_positive(line_angle - foot["axis"]), foot["length"], foot["width"])
            for x, y, foot in ((lx, ly, left), (rx, ry, right))
        )
    anchors_fault = coincident * (len(_FEET_FAULTS) - 1)
    fault = np.where(left_fault, left_fault, np.where(right_fault, right_fault, anchors_fault))
    values = {name: np.where(left_fault != 0, left[name], right[name]) for name in left}
    return poses, fault, values


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
