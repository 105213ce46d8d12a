"""The scalar stance functions the array stages replaced, kept as the
reference the stance properties compare the library with.

Each function is the object-path body it replaced: one stance at a time in
the math module, raising where the stance is rejected.  They build the
library's own dataclasses, whose checks validate outside input.  Two
behaviours differ on purpose from the library, and the properties map them:
a cap radius whose square overflows raises ``OverflowError`` here, and an
infinite foot dimension read from markers is caught by ``FootPose`` here,
after the anchor check, but by the feet stage in the library.
"""

import math

import numpy as np

from saddlebos.errors import (
    CoincidentFeetError,
    DegenerateFootError,
    DegenerateGeometryError,
    MissingMarkerError,
)
from saddlebos.geometry import (
    MIN_ANCHOR_SEPARATION,
    BosParams,
    FootPose,
    Point2,
    SaddleFrame,
    Side,
    wrap_positive,
    wrap_signed,
)
from saddlebos.markers import FOOT_LABELS, MARKER_LABELS, MIN_FOOT_DIMENSION, FootGeometry, ground_projection


def saddle_frame_from_ecops(right_ecop, left_ecop):
    dx = left_ecop.x - right_ecop.x
    dy = left_ecop.y - right_ecop.y
    separation = math.hypot(dx, dy)
    if separation <= MIN_ANCHOR_SEPARATION:
        raise CoincidentFeetError(
            f"anchor separation {separation:.3e} m is below {MIN_ANCHOR_SEPARATION:.0e} m"
        )
    origin = Point2((right_ecop.x + left_ecop.x) / 2.0, (right_ecop.y + left_ecop.y) / 2.0)
    rotation = wrap_signed(math.atan2(dy, dx) - math.pi / 2.0)
    return SaddleFrame(origin, rotation, separation)


def derive_bos_params(frame, left, right):
    if left.side is not Side.LEFT or right.side is not Side.RIGHT:
        raise ValueError("foot poses passed in the wrong order")
    _check_feet_match_frame(frame, left, right)

    ul = left.orientation - math.pi / 2.0
    ur = right.orientation - math.pi / 2.0
    margin_left = 0.5 * (left.length * math.sin(ul) + left.width * math.cos(ul))
    span_left = 0.5 * (left.length * math.cos(ul) - left.width * math.sin(ul))
    margin_right = 0.5 * (right.length * math.sin(ur) - right.width * math.cos(ur))
    span_right = 0.5 * (right.length * math.cos(ur) - right.width * math.sin(ur))
    reach_left = 0.5 * frame.separation + margin_left
    reach_right = -0.5 * frame.separation + margin_right

    denom = frame.separation + reach_right - reach_left
    if abs(denom) <= 1e-12:
        raise DegenerateGeometryError(
            "edge slopes are undefined: the feet contribute identical margins"
        )
    slope_back = (span_right - span_left) / denom
    slope_front = (span_left - span_right) / denom
    return BosParams(
        reach_left=reach_left,
        reach_right=reach_right,
        margin_left=margin_left,
        margin_right=margin_right,
        span_left=span_left,
        span_right=span_right,
        slope_back=slope_back,
        slope_front=slope_front,
    )


def _check_feet_match_frame(frame, left, right):
    half = frame.separation / 2.0
    ux = -math.sin(frame.rotation) * half
    uy = math.cos(frame.rotation) * half
    for foot, sign in ((left, 1.0), (right, -1.0)):
        want_x = frame.origin.x + sign * ux
        want_y = frame.origin.y + sign * uy
        if math.hypot(foot.ecop.x - want_x, foot.ecop.y - want_y) > 1e-9:
            raise ValueError(
                f"{foot.side.value} anchor does not match the frame it was paired with"
            )


def continuous_shape(params):
    """The eight resolved shape values, in ``_ContinuousShape`` order."""
    ax = abs(params.span_left)
    bx = abs(params.span_right)
    if ax >= params.reach_left or bx >= abs(params.reach_right):
        raise DegenerateGeometryError(
            "cap half-extent reaches past the cap radius; boundary corners are not real"
        )
    h_left = math.sqrt(params.reach_left**2 - ax**2)
    h_right = math.sqrt(params.reach_right**2 - bx**2)
    # the front edge's distance from the origin; the back edge mirrors it.
    # span is 0 only when both heights are, and so is the numerator: the
    # library's 0/0 is NaN, which its check rejects
    span = math.hypot(ax - bx, h_left + h_right)
    if not (span and (ax * h_right + bx * h_left) / span > MIN_ANCHOR_SEPARATION):
        raise DegenerateGeometryError(
            f"front and back edges pass within {MIN_ANCHOR_SEPARATION:.0e} m of the stance "
            "origin: the boundary has no area"
        )
    return (
        params.reach_left, -params.reach_right, math.atan2(h_left, ax), math.atan2(h_right, bx),
        ax, h_left, bx, h_right,
    )


def _marker(row, label, up_axis):
    xyz = row[MARKER_LABELS.index(label)]
    if math.isnan(xyz[0]):
        raise MissingMarkerError(label)
    return ground_projection(xyz, up_axis)


def foot_geometry_of_row(row, side, ecop_fraction, up_axis):
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


def foot_poses_of_row(row, ecop_fraction, up_axis, anchor):
    """The stance pair of one marker row, a list of ten (x, y, z) tuples."""
    if anchor not in ("ecop", "mt-mid"):
        raise ValueError(f"anchor must be 'ecop' or 'mt-mid', got {anchor!r}")
    left_geo = foot_geometry_of_row(row, Side.LEFT, ecop_fraction, up_axis)
    right_geo = foot_geometry_of_row(row, Side.RIGHT, ecop_fraction, up_axis)

    def anchor_point(geo):
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
        poses.append(FootPose(ecop=anchor_pt, orientation=orientation,
                              length=geo.length, width=geo.width, side=geo.side))
    return poses[0], poses[1]


def stance_row(left, right):
    """The stance table row of two feet: frame, parameters and shape from
    the functions above, laid out as ``geometry.stance_rows`` lays it out."""
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    shape = continuous_shape(derive_bos_params(frame, left, right))
    return (frame.origin.x, frame.origin.y, math.cos(frame.rotation), math.sin(frame.rotation),
            *shape)


def stance_table(trial, rows, ecop_fraction, up_axis, anchor):
    """The stance table of trial ``rows``, one stance at a time."""
    table = [
        stance_row(*foot_poses_of_row(trial.xyz[i].tolist(), ecop_fraction, up_axis, anchor))
        for i in rows
    ]
    return np.array(table, dtype=float).reshape(len(table), 12)
