"""Shared builders for the test suite."""

import math
from pathlib import Path

import numpy as np

from saddlebos import FootPose, MarkerFrame, Point2, Side, posture_from_parameters, random_postures
from saddlebos.geometry import wrap_positive

DATA_DIR = Path(__file__).parent / "data"
TRIAL_CSV = DATA_DIR / "trial_parallel_sway.csv"
TRIAL_EXPECTED = DATA_DIR / "trial_parallel_sway.expected.json"


def parallel_posture(separation=0.30, foot_length=0.25, foot_width=0.10):
    return posture_from_parameters(
        "parallel", separation, math.pi / 2, math.pi / 2, foot_length, foot_width
    )


def rotate_xy(x, y, angle):
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


def mirror_about_frame(frame, p):
    """Reflect a task-space point across the frame's x-axis line."""
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    dx, dy = p.x - frame.origin.x, p.y - frame.origin.y
    sx, sy = c * dx + s * dy, -(-s * dx + c * dy)
    return Point2(c * sx - s * sy + frame.origin.x, s * sx + c * sy + frame.origin.y)


def mirrored_posture(left, right, frame):
    """Foot-swapped stance reflected across the frame's x axis."""
    new_left = FootPose(
        mirror_about_frame(frame, right.ecop),
        wrap_positive(math.pi - right.orientation),
        right.length,
        right.width,
        Side.LEFT,
    )
    new_right = FootPose(
        mirror_about_frame(frame, left.ecop),
        wrap_positive(math.pi - left.orientation),
        left.length,
        left.width,
        Side.RIGHT,
    )
    return new_left, new_right


def parallel_marker_frame(time=0.0, com=(0.0, 0.0), center=(0.0, 0.0), separation=0.30):
    """Complete ten-marker frame: parallel feet pointing +x with anchors on a
    vertical line through ``center``, pelvis centred over ``com``."""
    cx, cy = center
    half = separation / 2.0
    positions = {
        "LASI": (com[0] + 0.10, com[1] + 0.09, 0.95),
        "RASI": (com[0] + 0.10, com[1] - 0.09, 0.95),
        "LPSI": (com[0] - 0.10, com[1] + 0.07, 0.95),
        "RPSI": (com[0] - 0.10, com[1] - 0.07, 0.95),
        "LHEE": (cx - 0.125, cy + half, 0.02),
        "RHEE": (cx - 0.125, cy - half, 0.02),
        "LMT1": (cx + 0.125, cy + half - 0.05, 0.01),
        "LMT5": (cx + 0.125, cy + half + 0.05, 0.01),
        "RMT1": (cx + 0.125, cy - half + 0.05, 0.01),
        "RMT5": (cx + 0.125, cy - half - 0.05, 0.01),
    }
    return MarkerFrame(time=time, positions=positions)


def move_xyz(xyz, angle, shift):
    """Rigid ground-plane motion of one z-up marker position."""
    x, y, z = xyz
    rx, ry = rotate_xy(x, y, angle)
    return (rx + shift[0], ry + shift[1], z)


def move_markers(frame, angle, shift):
    """Rigid ground-plane motion of a z-up marker frame."""
    moved = {label: move_xyz(xyz, angle, shift) for label, xyz in frame.positions.items()}
    return MarkerFrame(time=frame.time, positions=moved)


def move_rows(rows, angle, shift):
    """Rigid ground-plane motion of trial rows (see :func:`trial_csv_text`)."""
    return [
        {label: value if label == "time" else move_xyz(value, angle, shift)
         for label, value in row.items()}
        for row in rows
    ]


def posture_feet_markers(posture, center=(0.0, 0.0)):
    """The z-up heel and metatarsal markers, {"L"/"R": {"HEE"/"MT1"/"MT5":
    (x, y, z)}}, of a posture whose anchor line is the task y axis, moved by
    ``center``; each eCoP lies halfway from heel to metatarsal midpoint."""
    feet = {}
    for side, foot in (("L", posture.left), ("R", posture.right)):
        # the anchor line is the task y axis, so the heel-to-toe axis points
        # at pi/2 - orientation
        direction = math.pi / 2.0 - foot.orientation
        ux, uy = math.cos(direction), math.sin(direction)
        half_length, half_width = foot.length / 2.0, foot.width / 2.0
        ex, ey = np.add(center, (foot.ecop.x, foot.ecop.y)).tolist()
        mx, my = ex + half_length * ux, ey + half_length * uy
        feet[side] = {
            "HEE": (ex - half_length * ux, ey - half_length * uy, 0.02),
            "MT1": (mx - half_width * uy, my + half_width * ux, 0.01),
            "MT5": (mx + half_width * uy, my - half_width * ux, 0.01),
        }
    return feet


def sway_trial_rows(seed, n_frames):
    """Rows of a seeded synthetic z-up trial for :func:`trial_csv_text`.

    The feet are the stance of ``random_postures(1, seed)`` (eCoPs halfway
    from heel to metatarsal midpoint), placed near the task origin; each foot
    then drifts on a circle of 2 mm radius over the trial.  The pelvis centroid
    sways along a tilted ellipse, 3 to 20 cm on its long axis and 2 to 5
    times narrower, plus 2 mm of noise, so that some frames of a wide sway
    leave the boundary.
    """
    rng = np.random.default_rng(seed)
    posture = random_postures(1, seed=seed)[0]
    center = rng.uniform(-0.5, 0.5, 2)
    feet = posture_feet_markers(posture, center)
    long_axis = rng.uniform(0.03, 0.2)
    short_axis = long_axis / rng.uniform(2.0, 5.0)
    tilt, phase = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
    cycles = rng.uniform(1.0, 4.0)
    drift_phase = {side: rng.uniform(0.0, 2.0 * math.pi) for side in feet}
    rows = []
    for k in range(n_frames):
        s = 2.0 * math.pi * cycles * k / n_frames + phase
        sway = rotate_xy(long_axis * math.cos(s), short_axis * math.sin(s), tilt)
        com = (center + sway + rng.normal(0.0, 0.002, 2)).tolist()
        row = {
            key: value for key, value in complete_row(round(k * 0.01, 2), com).items()
            if key == "time" or key[1:] in ("ASI", "PSI")
        }
        for side, markers in feet.items():
            turn = 2.0 * math.pi * k / n_frames + drift_phase[side]
            drift = (0.002 * math.cos(turn), 0.002 * math.sin(turn))
            for name, xyz in markers.items():
                row[side + name] = move_xyz(xyz, 0.0, drift)
        rows.append(row)
    return rows


def trial_csv_text(rows):
    """Assemble trial CSV text from rows of dicts: {"time": t, label: (x, y, z) or None}."""
    from saddlebos.trial_io import EXPECTED_COLUMNS
    from saddlebos.markers import MARKER_LABELS

    lines = [",".join(EXPECTED_COLUMNS)]
    for row in rows:
        cells = [f"{row['time']}"]
        for label in MARKER_LABELS:
            xyz = row.get(label)
            cells += ["", "", ""] if xyz is None else [f"{v}" for v in xyz]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def complete_row(time, com=(0.0, 0.0), center=(0.0, 0.0), separation=0.30):
    frame = parallel_marker_frame(time, com, center, separation)
    row = {"time": time}
    row.update(frame.positions)
    return row
