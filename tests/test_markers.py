import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlebos import (
    BosBoundary,
    CoincidentFeetError,
    DegenerateFootError,
    DegenerateGeometryError,
    MarkerFrame,
    MissingMarkerError,
    Side,
    com_from_pelvis,
    com_trajectory,
    derive_bos_params,
    foot_geometry,
    foot_poses,
    foot_poses_at,
    parse_trial_csv,
    saddle_frame_from_ecops,
)
from saddlebos import geometry, markers
from saddlebos.markers import (
    FOOT_LABELS,
    MARKER_LABELS,
    PELVIS_LABELS,
    MarkerTrial,
    ground_projection,
    stance_table,
)

import stance_reference as reference
from helpers import TRIAL_CSV, move_markers, parallel_marker_frame, rotate_xy


def test_com_symmetric_markers():
    frame = MarkerFrame(0.0, {
        "LASI": (0.1, 0.1, 0.9), "RASI": (0.1, -0.1, 0.9),
        "LPSI": (-0.1, 0.1, 0.9), "RPSI": (-0.1, -0.1, 0.9),
    })
    com = com_from_pelvis(frame)
    assert (com.x, com.y) == (0.0, 0.0)


def test_com_centroid():
    frame = MarkerFrame(0.0, {
        "LASI": (0.0, 0.0, 1.0), "RASI": (0.2, 0.0, 1.0),
        "LPSI": (0.0, 0.2, 1.0), "RPSI": (0.2, 0.2, 1.0),
    })
    com = com_from_pelvis(frame)
    assert com.x == pytest.approx(0.1, abs=1e-15)
    assert com.y == pytest.approx(0.1, abs=1e-15)


def test_com_missing_marker():
    frame = MarkerFrame(0.0, {
        "LASI": (0.0, 0.0, 1.0), "RASI": (0.2, 0.0, 1.0), "LPSI": (0.0, 0.2, 1.0),
    })
    with pytest.raises(MissingMarkerError) as err:
        com_from_pelvis(frame)
    assert err.value.label == "RPSI"


def test_foot_geometry_worked_example():
    frame = MarkerFrame(0.0, {
        "RHEE": (0.0, 0.0, 0.02),
        "RMT1": (0.25, 0.05, 0.01),
        "RMT5": (0.25, -0.05, 0.01),
    })
    geo = foot_geometry(frame, Side.RIGHT, ecop_fraction=0.5)
    assert geo.width == pytest.approx(0.10, abs=1e-12)
    assert geo.length == pytest.approx(0.25, abs=1e-12)
    assert (geo.mt_mid.x, geo.mt_mid.y) == (pytest.approx(0.25), pytest.approx(0.0))
    assert (geo.ecop.x, geo.ecop.y) == (pytest.approx(0.125), pytest.approx(0.0))


def test_foot_geometry_fraction_bounds():
    frame = parallel_marker_frame()
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            foot_geometry(frame, Side.LEFT, ecop_fraction=bad)


def test_foot_geometry_degenerate_metatarsals():
    frame = MarkerFrame(0.0, {
        "RHEE": (0.0, 0.0, 0.02),
        "RMT1": (0.25, 0.0, 0.01),
        "RMT5": (0.25, 0.0, 0.01),
    })
    with pytest.raises(DegenerateFootError):
        foot_geometry(frame, Side.RIGHT)


def test_ecop_fraction_half_is_midpoint():
    frame = parallel_marker_frame()
    geo = foot_geometry(frame, Side.LEFT, ecop_fraction=0.5)
    assert geo.ecop.x == pytest.approx((geo.heel.x + geo.mt_mid.x) / 2, abs=1e-15)
    assert geo.ecop.y == pytest.approx((geo.heel.y + geo.mt_mid.y) / 2, abs=1e-15)


def test_parallel_feet_orientations():
    left, right = foot_poses(parallel_marker_frame())
    assert left.orientation == pytest.approx(math.pi / 2, abs=1e-12)
    assert right.orientation == pytest.approx(math.pi / 2, abs=1e-12)
    assert left.side is Side.LEFT and right.side is Side.RIGHT
    assert left.length == pytest.approx(0.25, abs=1e-12)
    assert left.width == pytest.approx(0.10, abs=1e-12)


def test_right_foot_along_anchor_line():
    # right foot rotated to point straight at the left one
    frame = MarkerFrame(0.0, {
        "LASI": (0.0, 0.1, 0.95), "RASI": (0.1, 0.0, 0.95),
        "LPSI": (-0.1, 0.0, 0.95), "RPSI": (0.0, -0.1, 0.95),
        "LHEE": (-0.125, 0.15, 0.02),
        "LMT1": (0.125, 0.10, 0.01), "LMT5": (0.125, 0.20, 0.01),
        "RHEE": (0.0, -0.275, 0.02),
        "RMT1": (0.05, -0.025, 0.01), "RMT5": (-0.05, -0.025, 0.01),
    })
    left, right = foot_poses(frame)
    assert right.orientation == pytest.approx(0.0, abs=1e-12)
    assert left.orientation == pytest.approx(math.pi / 2, abs=1e-12)


def test_orientations_invariant_under_rigid_motion():
    base = parallel_marker_frame()
    left0, right0 = foot_poses(base)
    rng = np.random.default_rng(23)
    for _ in range(20):
        moved = move_markers(base, rng.uniform(-math.pi, math.pi), rng.uniform(-3, 3, 2))
        left, right = foot_poses(moved)
        assert abs(left.orientation - left0.orientation) <= 1e-9
        assert abs(right.orientation - right0.orientation) <= 1e-9
        assert abs(left.length - left0.length) <= 1e-9
        assert abs(left.width - left0.width) <= 1e-9


def test_com_equivariant_under_rigid_motion():
    base = parallel_marker_frame(com=(0.3, -0.2))
    com0 = com_from_pelvis(base)
    angle, shift = 0.7, (1.5, -0.5)
    moved = move_markers(base, angle, shift)
    com1 = com_from_pelvis(moved)
    c, s = math.cos(angle), math.sin(angle)
    assert com1.x == pytest.approx(c * com0.x - s * com0.y + shift[0], abs=1e-12)
    assert com1.y == pytest.approx(s * com0.x + c * com0.y + shift[1], abs=1e-12)


def test_separation_invariant_under_rigid_motion():
    from saddlebos import saddle_frame_from_ecops

    base = parallel_marker_frame()
    left0, right0 = foot_poses(base)
    sep0 = saddle_frame_from_ecops(right0.ecop, left0.ecop).separation
    moved = move_markers(base, -1.1, (0.4, 2.0))
    left, right = foot_poses(moved)
    sep = saddle_frame_from_ecops(right.ecop, left.ecop).separation
    assert abs(sep - sep0) <= 1e-9


def test_mt_mid_anchor_option():
    frame = parallel_marker_frame()
    left, right = foot_poses(frame, anchor="mt-mid")
    # metatarsal midpoints sit at x = +0.125 for this stance
    assert left.ecop.x == pytest.approx(0.125, abs=1e-12)
    assert right.ecop.x == pytest.approx(0.125, abs=1e-12)
    default_left, _ = foot_poses(frame)
    assert default_left.ecop.x == pytest.approx(0.0, abs=1e-12)


def test_coincident_anchors_rejected():
    # both feet collapsed onto the same anchor point
    frame = MarkerFrame(0.0, {
        "LASI": (0.0, 0.1, 0.95), "RASI": (0.1, 0.0, 0.95),
        "LPSI": (-0.1, 0.0, 0.95), "RPSI": (0.0, -0.1, 0.95),
        "LHEE": (-0.125, 0.0, 0.02),
        "LMT1": (0.125, -0.05, 0.01), "LMT5": (0.125, 0.05, 0.01),
        "RHEE": (-0.125, 0.0, 0.02),
        "RMT1": (0.125, 0.05, 0.01), "RMT5": (0.125, -0.05, 0.01),
    })
    with pytest.raises(CoincidentFeetError):
        foot_poses(frame)


def test_ground_projection_axes():
    xyz = (1.0, 2.0, 3.0)
    assert tuple(ground_projection(xyz, "z")) == (1.0, 2.0)
    assert tuple(ground_projection(xyz, "y")) == (3.0, 1.0)
    assert tuple(ground_projection(xyz, "x")) == (2.0, 3.0)
    with pytest.raises(ValueError):
        ground_projection(xyz, "w")


def test_up_axis_plumbs_through():
    base = parallel_marker_frame()
    # cycle coordinates so that the y axis is up and the ground plane (z, x)
    # reproduces the original (x, y)
    swapped = MarkerFrame(0.0, {
        label: (y, z, x) for label, (x, y, z) in base.positions.items()
    })
    left_z, _ = foot_poses(base, up_axis="z")
    left_y, _ = foot_poses(swapped, up_axis="y")
    assert left_y.length == pytest.approx(left_z.length, abs=1e-12)
    assert left_y.orientation == pytest.approx(left_z.orientation, abs=1e-9)
    assert left_y.ecop.x == pytest.approx(left_z.ecop.x, abs=1e-12)
    assert left_y.ecop.y == pytest.approx(left_z.ecop.y, abs=1e-12)


def test_marker_frame_flags_incomplete():
    frame = parallel_marker_frame()
    assert frame.is_complete and frame.missing == ()
    partial = MarkerFrame(0.0, {k: v for k, v in frame.positions.items() if k != "LMT5"})
    assert not partial.is_complete
    assert partial.missing == ("LMT5",)


def test_marker_frame_rejects_unknown_label():
    with pytest.raises(ValueError):
        MarkerFrame(0.0, {"HEAD": (0.0, 0.0, 1.7)})


def test_com_trajectory_over_frames():
    frames = [parallel_marker_frame(time=t / 100, com=(0.01 * t, 0.0)) for t in range(5)]
    traj = com_trajectory(frames)
    assert len(traj) == 5
    assert traj.points[3, 0] == pytest.approx(0.03, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)


def sequential_centroid(values):
    """The reference CoM arithmetic: left to right from zero, then / 4."""
    total = 0
    for v in values:
        total += v
    return total / 4.0


def test_com_trajectory_matches_per_frame_reference_bit_for_bit():
    trial = parse_trial_csv(TRIAL_CSV)
    points = com_trajectory(trial).points
    reference = np.array([
        [sequential_centroid(frame.positions[label][axis] for label in PELVIS_LABELS)
         for axis in (0, 1)]
        for frame in trial
    ])
    per_frame = np.array([tuple(com_from_pelvis(frame)) for frame in trial])
    assert points.tobytes() == reference.tobytes()
    assert per_frame.tobytes() == reference.tobytes()


def pelvis_frame(xs):
    return MarkerFrame(0.0, {label: (x, 0.0, 1.0) for label, x in zip(PELVIS_LABELS, xs)})


def test_com_sums_pelvic_markers_in_label_order():
    # a compensated sum would give 2 / 4
    frame = pelvis_frame((1e16, 1.0, -1e16, 1.0))
    assert com_from_pelvis(frame).x == 0.25
    assert com_trajectory([frame]).points[0, 0] == 0.25


def test_com_of_negative_zero_markers_is_positive_zero():
    frame = pelvis_frame((-0.0,) * 4)
    assert math.copysign(1.0, com_from_pelvis(frame).x) == 1.0
    assert math.copysign(1.0, com_trajectory([frame]).points[0, 0]) == 1.0


def test_com_trajectory_names_first_missing_pelvic_marker():
    frames = [parallel_marker_frame(time=t / 100) for t in range(3)]
    for k, dropped in ((1, ("LPSI", "RPSI")), (2, ("RASI",))):
        positions = {lb: xyz for lb, xyz in frames[k].positions.items() if lb not in dropped}
        frames[k] = MarkerFrame(frames[k].time, positions)
    with pytest.raises(MissingMarkerError) as err:
        com_trajectory(MarkerTrial.from_frames(frames))
    assert err.value.label == "LPSI"


def test_marker_trial_rows_round_trip():
    frames = [parallel_marker_frame(time=t / 100, com=(0.01 * t, 0.0)) for t in range(4)]
    frames[2] = MarkerFrame(frames[2].time, {
        lb: xyz for lb, xyz in frames[2].positions.items() if lb not in ("LASI", "RMT5")
    })
    trial = MarkerTrial.from_frames(frames)
    assert len(trial) == 4
    assert trial.xyz.shape == (4, len(MARKER_LABELS), 3)
    assert trial.times.flags.c_contiguous and trial.xyz.flags.c_contiguous
    assert trial.complete.tolist() == [True, True, False, True]
    assert list(trial) == frames
    assert trial[2].missing == ("LASI", "RMT5")
    assert trial[-1] == frames[-1]
    complete = trial.select(trial.complete)
    assert list(complete) == [frames[0], frames[1], frames[3]]
    assert complete.complete.all()


def test_marker_trial_equality_counts_nan_as_equal():
    frames = [parallel_marker_frame(time=t / 100) for t in range(3)]
    frames[1] = MarkerFrame(frames[1].time, {"LASI": (0.0, 0.0, 1.0)})
    trial = MarkerTrial.from_frames(frames)
    assert trial == MarkerTrial.from_frames(frames)
    assert trial != MarkerTrial(trial.times + 1.0, trial.xyz)
    assert trial != MarkerTrial.from_frames(frames[:2])
    assert trial != frames


def test_marker_trial_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MarkerTrial(np.zeros(3), np.zeros((3, 9, 3)))
    with pytest.raises(ValueError):
        MarkerTrial(np.zeros(3), np.zeros((2, len(MARKER_LABELS), 3)))
    assert len(MarkerTrial.from_frames([])) == 0


def test_marker_trial_rejects_non_finite_times_inf_and_partial_markers():
    base = MarkerTrial.from_frames([parallel_marker_frame(time=t / 100) for t in range(3)])
    for value in (math.nan, math.inf, -math.inf):
        times = base.times.copy()
        times[1] = value
        with pytest.raises(ValueError, match="^trial times must be finite$"):
            MarkerTrial(times, base.xyz)
    for value in (math.inf, -math.inf):
        xyz = base.xyz.copy()
        xyz[2, 4, 1] = value
        with pytest.raises(ValueError, match="^marker coordinates must be finite, or NaN"):
            MarkerTrial(base.times, xyz)
    for axes in ([0], [2], [1, 2]):
        xyz = base.xyz.copy()
        xyz[0, 7, axes] = math.nan
        with pytest.raises(ValueError, match="^a marker must be NaN in all three coordinates"):
            MarkerTrial(base.times, xyz)
    xyz = base.xyz.copy()
    xyz[0, 7] = math.nan
    assert MarkerTrial(base.times, xyz).complete.tolist() == [False, True, True]


def stance_outcome(call):
    """The stance pair with every float as hex, or the error type and message."""
    try:
        poses = call()
    except Exception as exc:  # any error: the two calls must raise the same one
        return type(exc), str(exc)
    return [
        (p.side, p.ecop.x.hex(), p.ecop.y.hex(), p.orientation.hex(), p.length.hex(), p.width.hex())
        for p in poses
    ]


def geometry_outcome(call):
    """A FootGeometry with every float as hex, or the error type and message."""
    try:
        g = call()
    except Exception as exc:  # any error: the two calls must raise the same one
        return type(exc), str(exc)
    points = (g.heel.x, g.heel.y, g.mt_mid.x, g.mt_mid.y, g.ecop.x, g.ecop.y)
    return g.side, g.length.hex(), g.width.hex(), [v.hex() for v in points]


STANCE_FAULTS = (None, "narrow-left", "short-right", "coincident", "missing")


@pytest.mark.parametrize("fault", STANCE_FAULTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_foot_poses_at_equals_foot_poses_of_the_row_bit_for_bit(fault, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xyz = rng.uniform(-2.0, 2.0, (3, len(MARKER_LABELS), 3))
    at = {label: k for k, label in enumerate(MARKER_LABELS)}
    row = xyz[1]  # the faulty row; rows 0 and 2 stay random
    if fault == "narrow-left":
        row[at["LMT5"]] = row[at["LMT1"]]
    elif fault == "short-right":
        row[at["RHEE"]] = (row[at["RMT1"]] + row[at["RMT5"]]) / 2.0
    elif fault == "coincident":
        for left, right in zip(FOOT_LABELS[Side.LEFT], FOOT_LABELS[Side.RIGHT]):
            row[at[right]] = row[at[left]]
    elif fault == "missing":
        row[at[data.draw(st.sampled_from(FOOT_LABELS[Side.LEFT] + FOOT_LABELS[Side.RIGHT]))]] = math.nan
    trial = MarkerTrial(np.array([0.0, 0.01, 0.02]), xyz)
    i = data.draw(st.integers(-3, 2))
    kwargs = dict(
        ecop_fraction=data.draw(st.sampled_from([0.0, 1.0, -0.25, 1.5]) | st.floats(0.0, 1.0)),
        up_axis=data.draw(st.sampled_from("xyz")),
        anchor=data.draw(st.sampled_from(["ecop", "mt-mid"])),
    )
    got = stance_outcome(lambda: foot_poses_at(trial, i, **kwargs))
    assert got == stance_outcome(lambda: foot_poses(trial[i], **kwargs))
    row = trial.xyz[i].tolist()
    assert got == stance_outcome(lambda: reference.foot_poses_of_row(row, **kwargs))
    if fault and i % 3 == 1 and 0.0 < kwargs["ecop_fraction"] < 1.0:
        assert isinstance(got, tuple), "the fault should have raised"
    del kwargs["anchor"]
    for side in Side:
        assert geometry_outcome(lambda: foot_geometry(trial[i], side, **kwargs)) == geometry_outcome(
            lambda: reference.foot_geometry_of_row(row, side, **kwargs)
        )


def stance_from_helpers(rng, time):
    """A random non-degenerate stance: canonical parallel feet, each turned
    up to 0.5 rad about the origin, then moved as a whole."""
    frame = parallel_marker_frame(
        time, com=tuple(rng.uniform(-0.05, 0.05, 2)), separation=rng.uniform(0.2, 0.5)
    )
    turned = {
        side: move_markers(frame, rng.uniform(-0.5, 0.5), (0.0, 0.0)) for side in FOOT_LABELS
    }
    positions = dict(frame.positions)
    for side, labels in FOOT_LABELS.items():
        positions.update({label: turned[side].positions[label] for label in labels})
    return move_markers(
        MarkerFrame(time, positions), rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0, 2)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    anchor=st.sampled_from(["ecop", "mt-mid"]),
)
def test_foot_poses_at_is_rigid_motion_equivariant(seed, angle, shift, anchor):
    rng = np.random.default_rng(seed)
    frames = [stance_from_helpers(rng, t / 100) for t in range(3)]
    trial = MarkerTrial.from_frames(frames)
    moved = MarkerTrial.from_frames(move_markers(f, angle, shift) for f in frames)
    for i in range(len(trial)):
        for p, q in zip(foot_poses_at(trial, i, anchor=anchor), foot_poses_at(moved, i, anchor=anchor)):
            assert abs(math.remainder(q.orientation - p.orientation, 2 * math.pi)) <= 1e-12
            assert abs(q.length - p.length) <= 1e-12
            assert abs(q.width - p.width) <= 1e-12
            x, y = rotate_xy(p.ecop.x, p.ecop.y, angle)
            assert math.hypot(q.ecop.x - x - shift[0], q.ecop.y - y - shift[1]) <= 1e-12


# --- stance table -----------------------------------------------------------

STANCE_KINDS = (
    "normal", "narrow", "zero-width", "zero-length", "coincident", "missing", "aligned"
)


def foot_markers(heel, angle, length, width):
    """Ground points of a heel and its two metatarsal markers."""
    c, s = math.cos(angle), math.sin(angle)
    mid = (heel[0] + length * c, heel[1] + length * s)
    return [heel, (mid[0] - width / 2 * s, mid[1] + width / 2 * c),
            (mid[0] + width / 2 * s, mid[1] - width / 2 * c)]


def stance_ground(kind, u):
    """Ground points of the six foot markers (left then right, heel, MT1,
    MT5) of one stance of ``kind``, shaped by the numbers ``u`` in [0, 1)."""
    length = [0.2 + 0.1 * u[0], 0.2 + 0.1 * u[1]]
    width = [0.06 + 0.06 * u[2], 0.06 + 0.06 * u[3]]
    angle = [u[4] - 0.5, u[5] - 0.5]
    separation = 0.15 + 0.45 * u[6]
    if kind == "narrow":  # parallel feet closer than a foot is long: the caps cannot close
        separation, angle = 0.12 * u[6], [0.0, 0.0]
    elif kind in ("zero-width", "zero-length"):
        (width if kind == "zero-width" else length)[int(u[7] < 0.5)] = 0.0
    if kind == "aligned":  # both feet along the anchor line: no edge slope
        left = foot_markers((0.0, 0.2), math.pi / 2, 0.25, 0.1)
        right = foot_markers((0.0, -0.45), math.pi / 2, 0.25, 0.1)
    else:
        left = foot_markers((-length[0] / 2, separation / 2), angle[0], length[0], width[0])
        right = foot_markers((-length[1] / 2, -separation / 2), angle[1], length[1], width[1])
    if kind == "coincident":
        right = left
    return left + right


def marker_trial(kinds, us, up_axis, turn, offset):
    """A trial with one row per stance kind, its ground plane turned by
    ``turn`` and moved by ``offset`` along both axes."""
    foot_at = [MARKER_LABELS.index(label) for side in Side for label in FOOT_LABELS[side]]
    c, s = math.cos(turn), math.sin(turn)
    ground = np.zeros((len(kinds), len(MARKER_LABELS), 2))
    ground[:, :4] = [(0.1, 0.09), (0.1, -0.09), (-0.1, 0.07), (-0.1, -0.07)]
    for row, kind, u in zip(ground, kinds, us):
        row[foot_at] = [(c * x - s * y + offset, s * x + c * y + offset) for x, y in stance_ground(kind, u)]
    height = np.full(ground.shape[:2], 0.02)
    gx, gy = ground[..., 0], ground[..., 1]
    xyz = np.stack({"z": (gx, gy, height), "y": (gy, height, gx), "x": (height, gx, gy)}[up_axis], axis=-1)
    for k, (kind, u) in enumerate(zip(kinds, us)):
        if kind == "missing":
            xyz[k, foot_at[int(u[7] * 6)]] = math.nan
    return MarkerTrial(np.arange(len(kinds)) / 100.0, xyz)


def table_outcome(call):
    """The table's bytes, or the error type and message."""
    try:
        table = call()
    except Exception as exc:  # any error: both paths must raise the same one
        return type(exc), str(exc)
    return table.shape, table.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stance_table_equals_the_object_path_bit_for_bit(data):
    n = data.draw(st.integers(1, 6))
    kinds = data.draw(st.lists(
        st.sampled_from(("normal",) * 4 + STANCE_KINDS), min_size=n, max_size=n
    ))
    us = [data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=8, max_size=8))
          for _ in range(n)]
    up_axis = data.draw(st.sampled_from("xyz"))
    turn = data.draw(st.sampled_from([0.0]) | st.floats(-4.0, 4.0))
    offset = data.draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, -1e9]))
    trial = marker_trial(kinds, us, up_axis, turn, offset)
    # no rows is covered by test_stance_table_checks_its_arguments_without_rows
    rows = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=8))
    args = (
        data.draw(st.sampled_from([0.5, 0.0, 1.0, -0.25, 1.5]) | st.floats(0.0, 1.0)),
        up_axis,
        data.draw(st.sampled_from(["ecop", "mt-mid"])),
    )
    assert table_outcome(lambda: stance_table(trial, rows, *args)) == table_outcome(
        lambda: reference.stance_table(trial, rows, *args)
    )


def test_stance_table_checks_its_arguments_without_rows():
    trial = marker_trial(["normal"], [[0.5] * 8], "z", 0.0, 0.0)
    assert stance_table(trial, []).shape == (0, 12)
    for kwargs, message in (
        (dict(ecop_fraction=1.0), "ecop_fraction must lie strictly between 0 and 1"),
        (dict(up_axis="w"), "up_axis must be one of 'x', 'y', 'z', got 'w'"),
        (dict(anchor="heel"), "anchor must be 'ecop' or 'mt-mid', got 'heel'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            stance_table(trial, [], **kwargs)


@pytest.mark.parametrize("kind, error, message", [
    ("narrow", DegenerateGeometryError, "cap half-extent reaches past the cap radius"),
    ("zero-width", DegenerateFootError, "foot dimensions collapse"),
    ("zero-length", DegenerateFootError, "foot dimensions collapse"),
    ("coincident", CoincidentFeetError, "foot anchors coincide"),
    ("missing", MissingMarkerError, "is missing"),
    ("aligned", DegenerateGeometryError, "edge slopes are undefined"),
])
@pytest.mark.parametrize("up_axis", ["x", "y", "z"])
def test_stance_table_raises_for_the_first_failing_row(kind, error, message, up_axis):
    us = [[0.5] * 7 + [0.8]] * 4
    trial = marker_trial(["normal", kind, "normal", "narrow"], us, up_axis, 0.3, 2.0)
    for anchor in ("ecop", "mt-mid"):
        with pytest.raises(error, match=message):
            stance_table(trial, [0, 2, 1, 3], 0.5, up_axis, anchor)
        with pytest.raises(error, match=message):
            reference.stance_table(trial, [1], 0.5, up_axis, anchor)
        assert stance_table(trial, [2, 0], 0.5, up_axis, anchor).shape == (2, 12)


def test_stance_table_reads_an_infinite_foot_width_as_foot_pose_does():
    trial = marker_trial(["normal"] * 2, [[0.5] * 8] * 2, "z", 0.0, 0.0)
    xyz = trial.xyz.copy()
    xyz[1, MARKER_LABELS.index("RMT1"), 0] = 1e308
    xyz[1, MARKER_LABELS.index("RMT5"), 0] = -1e308
    trial = MarkerTrial(trial.times, xyz)
    for call in (lambda: stance_table(trial, [0, 1]), lambda: foot_poses_at(trial, 1)):
        with pytest.raises(ValueError, match="^foot length and width must be finite$"):
            call()


# --- one stance implementation ------------------------------------------------

STAGES = (
    (markers, "_foot_arrays"),
    (geometry, "_frame_stage"),
    (geometry, "_params_stage"),
    (geometry, "_shape_stage"),
)


@pytest.mark.parametrize("module, stage", STAGES, ids=[name for _, name in STAGES])
def test_every_stance_call_runs_the_array_stages(monkeypatch, module, stage):
    trial = marker_trial(["normal"] * 2, [[0.5] * 8] * 2, "z", 0.0, 0.0)
    left, right = foot_poses_at(trial, 0)
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    params = derive_bos_params(frame, left, right)

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(module, stage, reached)
    calls = {
        "_foot_arrays": {
            "foot_geometry": lambda: foot_geometry(trial[0], Side.LEFT),
            "foot_poses": lambda: foot_poses(trial[0]),
            "foot_poses_at": lambda: foot_poses_at(trial, 1),
        },
        "_frame_stage": {
            "saddle_frame_from_ecops": lambda: saddle_frame_from_ecops(right.ecop, left.ecop),
        },
        "_params_stage": {"derive_bos_params": lambda: derive_bos_params(frame, left, right)},
        "_shape_stage": {"BosBoundary": lambda: BosBoundary(params, frame)},
    }[stage]
    calls["stance_table"] = lambda: stance_table(trial, [0, 1])
    for call in calls.values():
        with pytest.raises(Reached):
            call()
