import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import saddlebos
from saddlebos import cli
from saddlebos.cli import main
from saddlebos import (
    BosBoundary,
    DegenerateGeometryError,
    FootPose,
    classify_saddle_points,
    com_trajectory,
    compute_report,
    derive_bos_params,
    export_polygon,
    export_report,
    foot_poses,
    parse_trial_csv,
    polygon_to_task_space,
    posture_catalog,
    read_polygon,
    read_report,
    saddle_frame_from_ecops,
    sample_boundary,
    score_saddle_samples,
)
from saddlebos.geometry import MAX_BOUNDARY_SAMPLES, saddle_array_from_task
from saddlebos import trial_io
from saddlebos.markers import MarkerFrame, MarkerTrial, stance_table
from saddlebos.trial_io import round12

from helpers import (
    TRIAL_CSV,
    complete_row,
    move_markers,
    move_rows,
    parallel_marker_frame,
    posture_feet_markers,
    rotate_xy,
    sway_trial_rows,
    trial_csv_text,
)


def write_trial(tmp_path, rows, name="trial.csv"):
    path = tmp_path / name
    path.write_text(trial_csv_text(rows), encoding="utf-8")
    return path


def centered_trial(tmp_path, n=20, name="trial.csv"):
    """CoM wobbling tightly around the anchor midpoint (inside for sure)."""
    rows = [
        complete_row(round(k * 0.01, 2), com=(0.01 * math.sin(k), 0.01 * math.cos(k)))
        for k in range(n)
    ]
    return write_trial(tmp_path, rows, name)


BOS_ARGS = [
    "bos", "--d", "0.30", "--theta-lf", "90", "--theta-rf", "90",
    "--foot-length", "0.25", "--foot-width", "0.10",
]


# --- bos -------------------------------------------------------------------


def test_bos_inline_polygon(tmp_path, capsys):
    out = tmp_path / "bos.csv"
    assert main(BOS_ARGS + ["--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["frame"]["separation"] == 0.3
    assert info["shape"]["reach_left"] == 0.2
    poly = read_polygon(out)
    assert abs(np.abs(poly.vertices[:, 1]).max() - 0.20) <= 1e-9
    assert len(poly) == 360


def test_bos_missing_required_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bos", "--d", "0.30"])  # --out is required
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_bos_incomplete_inline_posture(tmp_path, capsys):
    out = tmp_path / "bos.csv"
    assert main(["bos", "--d", "0.30", "--out", str(out)]) == 2
    assert "inline posture" in capsys.readouterr().err


def test_bos_samples_flag(tmp_path, capsys):
    out = tmp_path / "bos.csv"
    assert main(BOS_ARGS + ["--samples", "8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9  # header + 8 vertices


def test_bos_degenerate_geometry_exit_code(tmp_path, capsys):
    out = tmp_path / "bos.csv"
    code = main([
        "bos", "--d", "0.30", "--theta-lf", "0", "--theta-rf", "0", "--out", str(out),
    ])
    assert code == 2
    assert "DegenerateGeometryError" in capsys.readouterr().err


def test_bos_posture_file(tmp_path, capsys):
    posture = tmp_path / "posture.json"
    posture.write_text(json.dumps({
        "name": "file-stance", "separation": 0.4,
        "left_angle_deg": 90, "right_angle_deg": 90,
    }))
    out = tmp_path / "bos.json"
    assert main(["bos", "--posture-file", str(posture), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["posture"] == "file-stance"
    assert len(read_polygon(out)) == 360


def test_bos_rejects_samples_above_the_bound(tmp_path, capsys):
    out = tmp_path / "bos.csv"
    code = main(BOS_ARGS + ["--samples", str(MAX_BOUNDARY_SAMPLES + 1), "--out", str(out)])
    captured = capsys.readouterr()
    assert_one_line_input_error(code, captured.err, f"got {MAX_BOUNDARY_SAMPLES + 1}")
    assert captured.out == "" and not out.exists()


def test_bos_strict_mode(tmp_path, capsys):
    out = tmp_path / "bos.csv"
    assert main(BOS_ARGS + ["--mode", "strict", "--out", str(out)]) == 0
    json.loads(capsys.readouterr().out)
    read_polygon(out)


# --- analyze ----------------------------------------------------------------


def test_analyze_centered_com(tmp_path, capsys):
    trial = centered_trial(tmp_path)
    assert main(["analyze", "--markers", str(trial)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["poi"] == 100.0
    assert report["poi360"] == 100.0
    assert report["n_samples"] == 20


def test_analyze_report_file_and_extras(tmp_path, capsys):
    trial = centered_trial(tmp_path)
    out = tmp_path / "report.json"
    poly_out = tmp_path / "bos.csv"
    com_out = tmp_path / "saddle_com.csv"
    code = main([
        "analyze", "--markers", str(trial), "--out", str(out),
        "--polygon-out", str(poly_out), "--saddle-com-out", str(com_out),
    ])
    assert code == 0
    report = read_report(out)
    assert report.poi == 100.0
    assert len(read_polygon(poly_out)) == 360
    com_lines = com_out.read_text().splitlines()
    assert com_lines[0] == "x,y"
    assert len(com_lines) == 21


def test_analyze_fixed_posture_file(tmp_path, capsys):
    trial = centered_trial(tmp_path)
    posture = tmp_path / "posture.json"
    posture.write_text(json.dumps({
        "name": "fixed", "separation": 0.30,
        "left_angle_deg": 90, "right_angle_deg": 90,
    }))
    assert main(["analyze", "--markers", str(trial), "--posture-file", str(posture)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["poi"] == 100.0


def test_analyze_refit_feet(tmp_path, capsys):
    trial = centered_trial(tmp_path)
    assert main(["analyze", "--markers", str(trial), "--refit-feet-every", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["poi"] == 100.0


def test_analyze_corrupt_row_exit_2(tmp_path, capsys):
    text = trial_csv_text([complete_row(0.0), complete_row(0.01)])
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[5] = "bogus"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], lines[1], ",".join(cells)]) + "\n", encoding="utf-8")
    assert main(["analyze", "--markers", str(path)]) == 2
    err = capsys.readouterr().err
    assert "BadRowError" in err and "row 2" in err


def wobble_rows(n):
    return [
        complete_row(round(k * 0.01, 2), com=(0.01 * math.sin(k), 0.01 * math.cos(k)))
        for k in range(n)
    ]


def test_analyze_too_many_incomplete_frames_exit_3(tmp_path, capsys):
    rows = wobble_rows(10)
    for k in range(8, 10):
        rows[k]["LASI"] = None  # 20% incomplete
    trial = write_trial(tmp_path, rows)
    assert main(["analyze", "--markers", str(trial)]) == 3
    assert "DataQualityError" in capsys.readouterr().err


def test_analyze_few_incomplete_frames_tolerated(tmp_path, capsys):
    rows = wobble_rows(20)
    rows[7]["RMT1"] = None  # 5% incomplete
    trial = write_trial(tmp_path, rows)
    assert main(["analyze", "--markers", str(trial)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["n_samples"] == 19
    assert "dropped 1 incomplete" in captured.err


def test_analyze_copies_the_trial_only_to_drop_frames(tmp_path, capsys, monkeypatch):
    selected = []
    select = MarkerTrial.select

    def counting_select(self, mask):
        selected.append(len(self))
        return select(self, mask)

    monkeypatch.setattr(MarkerTrial, "select", counting_select)
    assert main(["analyze", "--markers", str(TRIAL_CSV)]) == 0
    assert selected == [] and capsys.readouterr().err == ""
    rows = wobble_rows(20)
    rows[7]["RMT1"] = None
    assert main(["analyze", "--markers", str(write_trial(tmp_path, rows))]) == 0
    assert selected == [20] and "dropped 1 incomplete" in capsys.readouterr().err


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    assert main(["analyze", "--markers", str(tmp_path / "nope.csv")]) == 2


def assert_one_line_input_error(code, err, message):
    assert code == 2
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, message", [
    (["--bins", "0"], "n_bins must be at least 8"),
    (["--bins", "3"], "n_bins must be at least 8"),
    (["--k-sigma", "-1"], "k_sigma must be finite and positive"),
    (["--k-sigma", "nan"], "k_sigma must be finite and positive"),
    (["--refit-feet-every", "-1"], "--refit-feet-every must be at least 0"),
])
def test_analyze_rejects_out_of_range_flags(tmp_path, capsys, flags, message):
    code = main(["analyze", "--markers", str(centered_trial(tmp_path)), *flags])
    assert_one_line_input_error(code, capsys.readouterr().err, message)


def test_analyze_rejects_refit_with_posture_file(tmp_path, capsys):
    posture = tmp_path / "posture.json"
    posture.write_text('{"separation": 0.3, "left_angle_deg": 90, "right_angle_deg": 90}')
    code = main([
        "analyze", "--markers", str(centered_trial(tmp_path)),
        "--posture-file", str(posture), "--refit-feet-every", "5",
    ])
    message = "--refit-feet-every cannot be combined with --posture-file"
    assert_one_line_input_error(code, capsys.readouterr().err, message)


def assert_analyze_matches_library_report(tmp_path, left, right, *flags):
    """``analyze``'s report and Saddle-CoM files are byte for byte those the
    library writes for the stance of ``left`` and ``right``."""
    complete = [f for f in parse_trial_csv(TRIAL_CSV) if f.is_complete]
    out, com = tmp_path / "report.json", tmp_path / "com.csv"
    argv = ["analyze", "--markers", str(TRIAL_CSV), *flags, "--out", str(out)]
    assert main(argv + ["--saddle-com-out", str(com)]) == 0
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
    traj = com_trajectory(complete)
    want = tmp_path / "want.json"
    export_report(compute_report(traj, boundary, frame), want)
    assert out.read_bytes() == want.read_bytes()
    want_com = trial_io.xy_csv_text(saddle_array_from_task(frame, traj.points))
    assert com.read_bytes() == want_com.encode()


def test_analyze_matches_library_report(tmp_path):
    first = next(f for f in parse_trial_csv(TRIAL_CSV) if f.is_complete)
    assert_analyze_matches_library_report(tmp_path, *foot_poses(first))


def test_analyze_posture_file_matches_library_report(tmp_path):
    posture = tmp_path / "posture.json"
    posture.write_text('{"separation": 0.3, "left_angle_deg": 80, "right_angle_deg": 100}')
    spec, = trial_io.load_postures(posture)
    assert_analyze_matches_library_report(
        tmp_path, spec.left, spec.right, "--posture-file", str(posture)
    )


def analyze_outputs(tmp_path, trial, name, *flags):
    """The report, polygon and Saddle-space CoM files of one analyze run."""
    paths = [tmp_path / f"{name}-{kind}" for kind in ("report.json", "bos.csv", "com.csv")]
    assert main([
        "analyze", "--markers", str(trial), *flags, "--out", str(paths[0]),
        "--polygon-out", str(paths[1]), "--saddle-com-out", str(paths[2]),
    ]) == 0
    return [path.read_bytes() for path in paths]


@pytest.mark.parametrize("every", ["3000", "5000"])
def test_analyze_refit_longer_than_trial_is_static(tmp_path, capsys, every):
    static = analyze_outputs(tmp_path, TRIAL_CSV, "static")
    assert analyze_outputs(tmp_path, TRIAL_CSV, "refit", "--refit-feet-every", every) == static


def test_analyze_refit_scores_each_block_against_its_own_stance(tmp_path, capsys):
    # ten frames on one stance, then the same ten moved rigidly half a meter away
    rows = []
    for k in range(20):
        wobble = (0.01 * math.sin(k % 10), 0.01 * math.cos(k % 10))
        frame = parallel_marker_frame(round(k * 0.01, 2), com=wobble)
        if k >= 10:
            frame = move_markers(frame, 0.7, (0.5, 0.2))
        rows.append({"time": frame.time, **frame.positions})
    trial = write_trial(tmp_path, rows)
    report, _, com = analyze_outputs(tmp_path, trial, "refit", "--refit-feet-every", "10")
    assert json.loads(report)["poi"] == 100.0
    saddle = np.loadtxt(com.decode().splitlines()[1:], delimiter=",")
    np.testing.assert_allclose(saddle[10:], saddle[:10], rtol=0, atol=1e-9)
    static, _, _ = analyze_outputs(tmp_path, trial, "static")
    assert json.loads(static)["poi"] == 50.0


def drifting_feet_trial(tmp_path, n=30):
    """Feet that turn and slide a little every frame, with a CoM that sways
    out of the boundary now and then."""
    rows = []
    for k in range(n):
        sway = (0.15 * math.sin(0.7 * k), 0.12 * math.cos(0.4 * k))
        separation = 0.30 + 0.01 * math.sin(k)
        frame = parallel_marker_frame(round(k * 0.01, 2), com=sway, separation=separation)
        frame = move_markers(frame, 0.03 * k, (0.004 * k, -0.002 * k))
        rows.append({"time": frame.time, **frame.positions})
    return write_trial(tmp_path, rows, "drifting.csv")


def library_outputs(tmp_path, trial, every):
    """The analyze files for ``--refit-feet-every every``, assembled from
    per-segment public library calls."""
    complete = parse_trial_csv(trial)
    traj = com_trajectory(complete)
    saddle, codes, stances = [], [], []
    for start in range(0, len(complete), every):
        left, right = foot_poses(complete[start])
        frame = saddle_frame_from_ecops(right.ecop, left.ecop)
        boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
        saddle.append(saddle_array_from_task(frame, traj.points[start:start + every]))
        codes.append(classify_saddle_points(boundary, saddle[-1]))
        stances.append((frame, boundary))
    saddle = np.concatenate(saddle)
    paths = [tmp_path / f"library-{every}-{kind}" for kind in ("report.json", "bos.csv", "com.csv")]
    export_report(score_saddle_samples(traj, saddle, np.concatenate(codes)), paths[0])
    frame, boundary = stances[0]
    export_polygon(polygon_to_task_space(frame, sample_boundary(boundary, 360)), paths[1])
    lines = ["x,y"] + [f"{round12(x):.12g},{round12(y):.12g}" for x, y in saddle]
    paths[2].write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return [path.read_bytes() for path in paths]


@pytest.mark.parametrize("every", [1, 7, 100])
def test_analyze_refit_matches_per_segment_library_calls(tmp_path, capsys, every):
    trial = drifting_feet_trial(tmp_path)
    got = analyze_outputs(tmp_path, trial, f"cli-{every}", "--refit-feet-every", str(every))
    assert got == library_outputs(tmp_path, trial, every)
    assert 0.0 < json.loads(got[0])["poi"] < 100.0


@pytest.mark.parametrize("samples", ["2", str(MAX_BOUNDARY_SAMPLES + 1)])
def test_analyze_rejects_polygon_samples_before_writing(tmp_path, capsys, samples):
    polygon = tmp_path / "bos.csv"
    code = main([
        "analyze", "--markers", str(centered_trial(tmp_path)), "--samples", samples,
        "--polygon-out", str(polygon),
    ])
    captured = capsys.readouterr()
    assert_one_line_input_error(code, captured.err, f"got {samples}")
    assert captured.out == "" and not polygon.exists()


def test_analyze_stance_error_mid_trial_writes_nothing(tmp_path, capsys):
    rows = wobble_rows(20)
    rows[10]["LMT5"] = rows[10]["LMT1"]  # the left foot has no width on frame 10
    trial = write_trial(tmp_path, rows)
    paths = [tmp_path / name for name in ("report.json", "bos.csv", "com.csv")]
    code = main([
        "analyze", "--markers", str(trial), "--refit-feet-every", "1", "--out", str(paths[0]),
        "--polygon-out", str(paths[1]), "--saddle-com-out", str(paths[2]),
    ])
    captured = capsys.readouterr()
    assert_one_line_input_error(code, captured.err, "DegenerateFootError")
    assert captured.out == ""
    assert not any(path.exists() for path in paths)


def analyze_error(tmp_path, capsys, rows, *flags):
    """The stderr of an analyze run on ``rows`` that must fail with exit 2,
    print nothing to stdout and write no file."""
    trial = write_trial(tmp_path, rows)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main([
        "analyze", "--markers", str(trial), *flags, "--out", str(out / "report.json"),
        "--polygon-out", str(out / "bos.csv"), "--saddle-com-out", str(out / "com.csv"),
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert not list(out.iterdir())
    return captured.err


def narrow_stance(row):
    """Parallel feet 0.10 m apart: shorter than a foot is long, so the caps cannot close."""
    row.update(complete_row(row["time"], separation=0.10))


def zero_width(row):
    row["LMT5"] = row["LMT1"]


def coincident(row):
    for side in ("HEE", "MT1", "MT5"):
        row["R" + side] = row["L" + side]


CAP_DEGENERATE = (
    "DegenerateGeometryError: cap half-extent reaches past the cap radius; "
    "boundary corners are not real\n"
)
ZERO_WIDTH = "DegenerateFootError: left foot dimensions collapse: length=0.255 m width=0 m\n"
COINCIDENT = "CoincidentFeetError: foot anchors coincide; stance line is undefined\n"


def test_analyze_refit_reports_the_first_failing_stance(tmp_path, capsys):
    rows = wobble_rows(20)
    narrow_stance(rows[5])
    zero_width(rows[10])
    assert analyze_error(tmp_path, capsys, rows, "--refit-feet-every", "1") == CAP_DEGENERATE
    assert analyze_error(tmp_path, capsys, rows, "--refit-feet-every", "10") == ZERO_WIDTH


@pytest.mark.parametrize("fault, message", [(zero_width, ZERO_WIDTH), (coincident, COINCIDENT)])
@pytest.mark.parametrize("every", ["1", "7"])
def test_analyze_refit_stance_error_mid_trial(tmp_path, capsys, fault, message, every):
    rows = wobble_rows(20)
    fault(rows[14])  # a refit frame for both steps
    assert analyze_error(tmp_path, capsys, rows, "--refit-feet-every", every) == message
    fault(rows[10])
    rows[14] = wobble_rows(15)[14]
    if every == "7":  # frame 10 is not a refit frame: its stance is never built
        trial = write_trial(tmp_path, rows)
        assert main(["analyze", "--markers", str(trial), "--refit-feet-every", every]) == 0
    else:
        assert analyze_error(tmp_path, capsys, rows, "--refit-feet-every", every) == message


def test_analyze_refit_builds_objects_for_the_first_stance_only(tmp_path, capsys, monkeypatch):
    built = {}
    for cls in (FootPose, BosBoundary):
        def counted(self, original=cls.__post_init__, name=cls.__name__):
            built[name] = built.get(name, 0) + 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    refit = analyze_outputs(tmp_path, TRIAL_CSV, "refit", "--refit-feet-every", "1")
    assert built == {"FootPose": 2, "BosBoundary": 1}
    monkeypatch.undo()
    assert refit[1] == analyze_outputs(tmp_path, TRIAL_CSV, "static")[1]


def test_analyze_rejects_a_posture_file_as_bos_does(tmp_path, capsys):
    posture = tmp_path / "posture.json"
    posture.write_text('{"separation": 0.3, "left_angle_deg": 0, "right_angle_deg": 0}')
    assert main(["bos", "--posture-file", str(posture), "--out", str(tmp_path / "bos.csv")]) == 2
    bos_err = capsys.readouterr().err
    assert bos_err == (
        "DegenerateGeometryError: edge slopes are undefined: the feet contribute identical margins\n"
    )
    code = main(["analyze", "--markers", str(TRIAL_CSV), "--posture-file", str(posture)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", bos_err)


def analyze_report(tmp_path, trial, *flags):
    path = tmp_path / "report.json"
    assert main(["analyze", "--markers", str(trial), *flags, "--out", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


#: the order in which a z-up marker's (x, y, z) is written for another up
#: axis, so that dropping that axis leaves the same ground (x, y)
UP_AXIS_ORDER = {"x": (2, 0, 1), "y": (1, 2, 0)}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300), data=st.data())
def test_analyze_report_follows_a_rigid_motion_of_the_trial(tmp_path, capsys, seed, n, data):
    """Frame independence, end to end.  Moving every marker of a trial by one
    rigid ground-plane motion leaves PoI, PoI360, the outer-border size and
    the ellipse's semi-axes as they were, moves the ellipse centre by the
    motion and turns its orientation by the motion's angle (mod pi), for
    static feet and for a refit every frame and every N frames.  No example
    is skipped.  The semi-axes are compared within 1e-9 m, as the centre is:
    the motion moves their last bits, and the report rounds them to 12
    significant digits.  The trial written with x or y up and read with
    ``--up-axis`` gives the z-up run's report, polygon and Saddle-CoM file
    byte for byte."""
    angle = data.draw(st.floats(-math.pi, math.pi), label="angle")
    shift = [data.draw(st.floats(-5.0, 5.0), label="shift") for _ in range(2)]
    every = data.draw(st.integers(2, n), label="every")
    up_axis = data.draw(st.sampled_from(sorted(UP_AXIS_ORDER)), label="up_axis")
    rows = sway_trial_rows(seed, n)
    still_trial = write_trial(tmp_path, rows, "still.csv")
    moved_trial = write_trial(tmp_path, move_rows(rows, angle, shift), "moved.csv")
    order = UP_AXIS_ORDER[up_axis]
    turned_rows = [
        {label: value if label == "time" else tuple(value[k] for k in order)
         for label, value in row.items()}
        for row in rows
    ]
    turned_trial = write_trial(tmp_path, turned_rows, "turned.csv")
    for flags in ([], ["--refit-feet-every", "1"], ["--refit-feet-every", str(every)]):
        outputs = analyze_outputs(tmp_path, still_trial, "still", *flags)
        assert analyze_outputs(tmp_path, turned_trial, "turned", "--up-axis", up_axis, *flags) == outputs
        still = json.loads(outputs[0])
        moved = analyze_report(tmp_path, moved_trial, *flags)
        for key in ("poi", "poi360", "n_samples", "n_outer"):
            assert moved[key] == still[key], (key, flags)
        before, after = still["covariance_ellipse"], moved["covariance_ellipse"]
        assert after["semi_axes"] == pytest.approx(before["semi_axes"], rel=0, abs=1e-9)
        want = np.add(rotate_xy(*before["center"], angle), shift)
        assert math.dist(after["center"], want) <= 1e-9, flags
        turn = (after["orientation_rad"] - before["orientation_rad"] - angle) % math.pi
        assert min(turn, math.pi - turn) <= 1e-9, flags


def test_analyze_uses_first_complete_frame_for_feet(tmp_path, capsys):
    rows = wobble_rows(20)
    rows[0]["LHEE"] = None  # force the stance to come from the second frame
    trial = write_trial(tmp_path, rows)
    assert main(["analyze", "--markers", str(trial)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_samples"] == 19
    assert report["poi"] == 100.0


# --- sweep ------------------------------------------------------------------


def test_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["sweep", "--out", str(out)]) == 0
    catalog_names = [p.name for p in posture_catalog()]
    files = sorted(f.name for f in out.glob("bos_*.csv"))
    assert files == sorted(f"bos_{name}.csv" for name in catalog_names)
    summary = json.loads((out / "summary.json").read_text())
    assert [p["name"] for p in summary["postures"]] == catalog_names
    assert all("metrics" not in p for p in summary["postures"])


def test_sweep_with_markers(tmp_path, capsys):
    trial = centered_trial(tmp_path)
    out = tmp_path / "results"
    assert main(["sweep", "--out", str(out), "--markers", str(trial)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all("metrics" in p for p in summary["postures"])
    parallel = summary["postures"][0]
    assert parallel["metrics"]["poi"] == 100.0


@pytest.mark.parametrize("flags, config, message", [
    (["--bins", "3"], None, "n_bins must be at least 8"),
    (["--k-sigma", "-1"], None, "k_sigma must be finite and positive"),
    ([], {"bins": 3}, "n_bins must be at least 8"),
])
def test_sweep_rejected_setting_writes_nothing(tmp_path, capsys, monkeypatch, flags, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("SADDLE_BOS_CONFIG", str(path))
    out = tmp_path / "results"
    code = main(["sweep", "--out", str(out), "--markers", str(TRIAL_CSV), *flags])
    captured = capsys.readouterr()
    assert_one_line_input_error(code, captured.err, message)
    assert captured.out == ""
    assert not list(out.glob("bos_*.csv")) and not (out / "summary.json").exists()


def test_stances_are_read_without_marker_frames(tmp_path, capsys, monkeypatch):
    row_trial = tmp_path / "blank-line.csv"  # a blank line sends it to the row reader
    row_trial.write_text(TRIAL_CSV.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    read_by_rows = []
    real_read_rows = trial_io._read_rows
    monkeypatch.setattr(
        trial_io, "_read_rows", lambda path: read_by_rows.append(path) or real_read_rows(path)
    )

    def no_frames(self):
        raise AssertionError("a MarkerFrame was built")

    monkeypatch.setattr(MarkerFrame, "__post_init__", no_frames)
    for argv in (
        ["analyze", "--markers", str(TRIAL_CSV), "--refit-feet-every", "1"],
        ["sweep", "--out", str(tmp_path / "results"), "--markers", str(TRIAL_CSV)],
        ["analyze", "--markers", str(row_trial), "--refit-feet-every", "7"],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    assert read_by_rows == [str(row_trial)]


def test_sweep_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["sweep", "--out", str(out1)]) == 0
    assert main(["sweep", "--out", str(out2)]) == 0
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        if f1.suffix == ".json":
            assert json.loads(f1.read_text()) == json.loads(f2.read_text())
        else:
            assert f1.read_bytes() == f2.read_bytes()


def test_each_posture_frame_is_built_once(tmp_path, capsys, monkeypatch):
    frames, postures = [], []
    for name, log in (("saddle_frame_from_ecops", frames), ("posture_from_parameters", postures)):
        def logged(*args, real=getattr(trial_io, name), log=log):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(trial_io, name, logged)
    boundary = posture_catalog()[0].boundary()
    assert (len(frames), boundary.frame) == (1, saddle_frame_from_ecops(*frames[0]))
    frames.clear()
    postures.clear()
    trial_io.random_postures(5, seed=0)
    assert len(frames) == len(postures) == 6  # one frame per candidate, the rejected one too
    frames.clear()
    assert main(["sweep", "--out", str(tmp_path / "results"), "--markers", str(TRIAL_CSV)]) == 0
    assert len(frames) == len(posture_catalog())


# --- validate ---------------------------------------------------------------

VALIDATE_FAST = ["validate", "--random-postures", "2", "--rays", "360",
                 "--points", "2000", "--motions", "2"]


def test_validate_passes_and_is_deterministic(capsys):
    assert main(VALIDATE_FAST + ["--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(VALIDATE_FAST + ["--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second
    findings = json.loads(first)
    assert findings["passed"] is True
    assert findings["n_failed_checks"] == 0
    assert findings["n_postures"] == 8  # catalog + 2 random


@pytest.mark.parametrize("flags, message", [
    (["--points", "0"], "n_points must be at least 1, got 0"),
    (["--points", "-1"], "n_points must be at least 1, got -1"),
    (["--motions", "0"], "n_motions must be at least 1, got 0"),
    (["--motions", "-1"], "n_motions must be at least 1, got -1"),
    (["--random-postures", "-1"], "random posture count n must be at least 0, got -1"),
    (["--rays", str(MAX_BOUNDARY_SAMPLES + 1)], f"got {MAX_BOUNDARY_SAMPLES + 1}"),
    (["--seed", "-1"], "seed must be at least 0, got -1"),
])
def test_validate_rejects_out_of_range_counts(capsys, flags, message):
    code = main(VALIDATE_FAST + flags)
    captured = capsys.readouterr()
    assert_one_line_input_error(code, captured.err, message)
    assert captured.out == ""


def test_validate_detects_degenerate_posture(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "degenerate", "separation": 0.30,
        "left_angle_deg": 0, "right_angle_deg": 0,
    }))
    code = main(VALIDATE_FAST + ["--posture-file", str(bad)])
    assert code == 1
    findings = json.loads(capsys.readouterr().out)
    assert findings["passed"] is False
    degenerate = [f for f in findings["findings"] if f["posture"] == "degenerate"]
    assert degenerate[0]["checks"]["construct"]["error"] == "DegenerateGeometryError"


def test_validate_detects_cap_degenerate_posture(tmp_path, capsys):
    # the feet's spans reach past the cap radii: the edge slopes exist, the corners do not
    bad = tmp_path / "narrow.json"
    bad.write_text(json.dumps({
        "name": "narrow", "separation": 0.05,
        "left_angle_deg": 90, "right_angle_deg": 90,
    }))
    assert main(VALIDATE_FAST + ["--posture-file", str(bad)]) == 1
    findings = json.loads(capsys.readouterr().out)
    narrow = [f for f in findings["findings"] if f["posture"] == "narrow"]
    assert list(narrow[0]["checks"]) == ["construct"]
    assert narrow[0]["checks"]["construct"]["error"] == "DegenerateGeometryError"
    assert findings["n_failed_checks"] == 1


def test_validate_records_an_overflowing_posture_and_goes_on(tmp_path, capsys):
    bad = tmp_path / "overflow.json"
    bad.write_text(OVERFLOW_POSTURE)
    assert main(["validate", "--random-postures", "0", "--posture-file", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    findings = json.loads(captured.out)
    assert findings["n_postures"] == 7 and findings["n_failed_checks"] == 1
    error, detail = OVERFLOW_MESSAGE.split(": ", 1)
    construct = findings["findings"][-1]["checks"]["construct"]
    assert construct["error"] == error and construct["detail"].startswith(detail)


FAR_POSTURE = ('{"left": {"ecop": [1e9, 1000000000.3], "angle_deg": 90}, '
               '"right": {"ecop": [1e9, 1e9], "angle_deg": 90}}')


def test_validate_records_a_far_posture_that_bos_accepts(tmp_path, capsys):
    # rigidly moved copies of the stance build, but their polygons round by
    # about 1e-7 m: a failed equivariance check, not an input error
    far = tmp_path / "far.json"
    far.write_text(FAR_POSTURE)
    assert main(["bos", "--posture-file", str(far), "--out", str(tmp_path / "far.csv")]) == 0
    capsys.readouterr()
    assert main(["validate", "--random-postures", "0", "--posture-file", str(far)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    findings = json.loads(captured.out)
    assert findings["n_postures"] == 7 and findings["n_failed_checks"] == 1
    checks = findings["findings"][-1]["checks"]
    assert checks["equivariance"] == {"ok": False, "max_deviation": 3.37174788087e-07}
    assert [name for name, check in checks.items() if not check["ok"]] == ["equivariance"]


# --- validate in several processes -------------------------------------------

DEGENERATE_POSTURE = {"name": "degenerate", "separation": 0.30,
                      "left_angle_deg": 0, "right_angle_deg": 0}
# 90 deg + atan(0.25 / 0.10): the front and back edges pass through the
# origin, so the boundary has no area
ZERO_AREA_POSTURE = {"name": "zero-area", "separation": 0.30,
                     "left_angle_deg": 158.19859051364818,
                     "right_angle_deg": 158.19859051364818}


def run_validate(monkeypatch, capsys, n_cpus, argv):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: n_cpus)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def posture_file(tmp_path, *postures):
    path = tmp_path / "postures.json"
    path.write_text(json.dumps(list(postures)), encoding="utf-8")
    return str(path)


NO_AREA = ("DegenerateGeometryError: front and back edges pass within 1e-09 m of the stance "
           "origin: the boundary has no area")
# the right foot's margin exceeds half the separation: the right cap would lie
# on the left side
RIGHT_CAP_ON_THE_LEFT_POSTURE = {"name": "right-cap-on-the-left", "separation": 0.16,
                                 "left_angle_deg": 90, "right_angle_deg": 160}
NO_CORNERS = ("DegenerateGeometryError: cap half-extent reaches past the cap radius; boundary "
              "corners are not real")


def test_a_stance_with_no_area_is_rejected_alike_everywhere(tmp_path, capsys):
    for posture, message in ((ZERO_AREA_POSTURE, NO_AREA), (RIGHT_CAP_ON_THE_LEFT_POSTURE, NO_CORNERS)):
        out = tmp_path / posture["name"]
        out.mkdir()
        path = posture_file(out, posture)
        feet = posture_feet_markers(trial_io.load_postures(path)[0])
        row = complete_row(0.0) | {
            side + name: xyz for side, markers in feet.items() for name, xyz in markers.items()
        }
        trial = write_trial(out, [row], "stance.csv")
        bos = ["bos", "--posture-file", path, "--out", str(out / "bos.csv")]
        analyze = ["analyze", "--markers", str(TRIAL_CSV), "--posture-file", path]
        for argv in (bos, bos + ["--mode", "strict"], analyze,
                     analyze + ["--polygon-out", str(out / "polygon.csv")],
                     ["analyze", "--markers", str(trial)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", message + "\n"), argv
        assert not (out / "bos.csv").exists() and not (out / "polygon.csv").exists()

        with pytest.raises(DegenerateGeometryError) as raised:
            stance_table(parse_trial_csv(trial), [0])
        assert f"{type(raised.value).__name__}: {raised.value}" == message

        validate = ["validate", "--random-postures", "0", "--points", "2000", "--posture-file", path]
        assert main(validate) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        findings = json.loads(captured.out)
        error, detail = message.split(": ", 1)
        assert findings["n_failed_checks"] == 1
        assert findings["findings"][-1]["checks"] == {
            "construct": {"ok": False, "error": error, "detail": detail}
        }


def test_validate_findings_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys):
    extra = posture_file(tmp_path, DEGENERATE_POSTURE, json.loads(FAR_POSTURE), ZERO_AREA_POSTURE)
    argv = VALIDATE_FAST + ["--posture-file", extra]
    serial = run_validate(monkeypatch, capsys, 1, argv)
    assert serial[0] == 1 and serial[2] == ""
    findings = json.loads(serial[1])
    assert findings["n_postures"] == 11 and findings["n_failed_checks"] == 3
    for n_cpus in (2, 3):
        assert run_validate(monkeypatch, capsys, n_cpus, argv) == serial
        assert_no_child_left()


def test_validate_reports_a_child_error_as_one_line(monkeypatch, capsys):
    check = cli._check_posture

    def failing_at_the_last(args, i, posture):
        if i == 5:  # six catalog postures on two CPUs: the child checks the last three
            raise DegenerateGeometryError("the last posture has no boundary")
        return check(args, i, posture)

    monkeypatch.setattr(cli, "_check_posture", failing_at_the_last)
    argv = ["validate", "--random-postures", "0", "--points", "2000"]
    serial = run_validate(monkeypatch, capsys, 1, argv)
    assert_one_line_input_error(
        serial[0], serial[2], "DegenerateGeometryError: the last posture has no boundary"
    )
    assert serial[1] == ""
    assert run_validate(monkeypatch, capsys, 2, argv) == serial
    assert_no_child_left()


def test_validate_reaps_its_children_after_a_parent_error(monkeypatch, capsys):
    code, out, err = run_validate(monkeypatch, capsys, 2, VALIDATE_FAST + ["--points", "0"])
    assert_one_line_input_error(code, err, "n_points must be at least 1, got 0")
    assert out == ""
    assert_no_child_left()


def test_validate_kills_its_children_when_interrupted(monkeypatch, capsys):
    check = cli._check_posture

    def interrupted_at_the_first(args, i, posture):
        if i == 0:
            raise KeyboardInterrupt
        return check(args, i, posture)

    monkeypatch.setattr(cli, "_check_posture", interrupted_at_the_first)
    with pytest.raises(KeyboardInterrupt):
        run_validate(monkeypatch, capsys, 2, ["validate"])
    assert_no_child_left()


def test_validate_checks_a_silent_childs_block_itself(monkeypatch, capsys):
    serial = run_validate(monkeypatch, capsys, 1, VALIDATE_FAST)

    def unpicklable(obj, *args, **kwargs):
        raise pickle.PicklingError("no result")

    # the children inherit the patch and send nothing
    monkeypatch.setattr(pickle, "dumps", unpicklable)
    assert run_validate(monkeypatch, capsys, 3, VALIDATE_FAST) == serial
    assert_no_child_left()


def test_validate_runs_in_process_without_fork(monkeypatch, capsys):
    serial = run_validate(monkeypatch, capsys, 1, VALIDATE_FAST)
    monkeypatch.delattr(os, "fork")
    assert run_validate(monkeypatch, capsys, 2, VALIDATE_FAST) == serial


PERFBENCH_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


@pytest.mark.parametrize("label, argv", [
    ("full", ["validate"]),
    ("quarter", ["validate", "--random-postures", "0"]),
])
def test_validate_stdout_matches_the_recorded_digest(capsys, label, argv):
    # the benchmark checks validate's output against these digests, so a
    # change in its bytes fails here first
    code = main(argv)
    out = capsys.readouterr().out
    recorded = json.loads(PERFBENCH_DIGESTS.read_text(encoding="utf-8"))["validate"][label]
    assert hashlib.sha256(out.encode()).hexdigest() == recorded["stdout"]
    assert code == (0 if json.loads(out)["passed"] else 1)


def test_cli_imports_no_process_pool():
    code = ("import sys, saddlebos.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(Path(saddlebos.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


# --- config -----------------------------------------------------------------


def test_env_config_defaults(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 24}))
    monkeypatch.setenv("SADDLE_BOS_CONFIG", str(config))
    out = tmp_path / "bos.csv"
    assert main(BOS_ARGS + ["--out", str(out)]) == 0
    assert len(read_polygon(out)) == 24
    # explicit flag wins
    out2 = tmp_path / "bos2.csv"
    assert main(BOS_ARGS + ["--samples", "48", "--out", str(out2)]) == 0
    assert len(read_polygon(out2)) == 48


def test_env_config_rejects_unknown_keys(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sample": 24}))
    monkeypatch.setenv("SADDLE_BOS_CONFIG", str(config))
    assert main(BOS_ARGS + ["--out", str(tmp_path / "bos.csv")]) == 2


@pytest.mark.parametrize("data", [
    {"samples": 3.7}, {"samples": True}, {"k_sigma": True}, {"k_sigma": "2"}, {"mode": 1},
])
def test_env_config_rejects_mistyped_values(tmp_path, capsys, monkeypatch, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    monkeypatch.setenv("SADDLE_BOS_CONFIG", str(config))
    code = main(BOS_ARGS + ["--out", str(tmp_path / "bos.csv")])
    key = next(iter(data))
    assert_one_line_input_error(code, capsys.readouterr().err, f"config key {key!r}")


def test_env_config_int_for_float_key(tmp_path, capsys, monkeypatch):
    trial = centered_trial(tmp_path)
    assert main(["analyze", "--markers", str(trial), "--k-sigma", "3.0"]) == 0
    by_flag = capsys.readouterr().out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_sigma": 3}))
    monkeypatch.setenv("SADDLE_BOS_CONFIG", str(config))
    assert main(["analyze", "--markers", str(trial)]) == 0
    assert capsys.readouterr().out == by_flag


# --- malformed input corpus -------------------------------------------------

FOOT = '{"ecop": [0.0, 0.15], "angle_deg": 90}'
POSTURE_CORPUS = [
    ("[1, 2]", "posture entry 0 must be a JSON object, got 1"),
    ('{"left": [0, 0], "right": ' + FOOT + "}", "left foot must be a JSON object"),
    ('{"separation": true, "left_angle_deg": 90, "right_angle_deg": 90}',
     "key 'separation' must be a number, got True"),
    ('{"separation": null, "left_angle_deg": 90, "right_angle_deg": 90}',
     "key 'separation' must be a number, got None"),
    ('{"separation": 0.3, "left_angle_deg": "90", "right_angle_deg": 90}',
     "key 'left_angle_deg' must be a number"),
    ('{"name": ["a"], "separation": 0.3, "left_angle_deg": 90, "right_angle_deg": 90}',
     "posture entry 0 key 'name' must be a string"),
    ('{"left": {"ecop": 5, "angle_deg": 90}, "right": ' + FOOT + "}",
     "left foot key 'ecop' must be a list of two numbers, got 5"),
    ('{"left": {"ecop": [1], "angle_deg": 90}, "right": ' + FOOT + "}",
     "left foot key 'ecop' must be a list of two numbers"),
    ('{"left": ' + FOOT + ', "right": {"ecop": [0, false], "angle_deg": 90}}',
     "right foot key 'ecop' must be a list of two numbers"),
    ('{"left": ' + FOOT + ', "right": {"ecop": [0, 0], "angle_deg": 90, "width": true}}',
     "right foot key 'width' must be a number"),
]
HUGE_CONFIG = '{"k_sigma": 1' + "0" * 400 + "}"
HUGE_POSTURES = [
    ("separation", '{"separation": 1' + "0" * 400 + ', "left_angle_deg": 90, "right_angle_deg": 90}',
     "key 'separation' is too large for a float"),
    ("ecop", '{"left": {"ecop": [0, 1' + "0" * 400 + '], "angle_deg": 90}, "right": ' + FOOT + "}",
     "left foot key 'ecop' is too large for a float"),
]
# a finite foot whose cap radius squared overflows, and an infinite foot
OVERFLOW_POSTURE = ('{"separation": 0.3, "left_angle_deg": 180, "right_angle_deg": 0, '
                    '"foot_length": 1e200}')
OVERFLOW_MESSAGE = "DegenerateGeometryError: boundary is too large: a cap radius squared overflows"
INFINITE_POSTURE = ('{"separation": 0.3, "left_angle_deg": 90, "right_angle_deg": 90, '
                    '"foot_length": Infinity}')
INFINITE_MESSAGE = "ValueError: left foot length must be finite, got inf\n"
# feet whose margins, 0.05 and -0.05 m, vanish in rounding next to the separation
FAR_APART_POSTURE = '{"separation": 1e200, "left_angle_deg": 90, "right_angle_deg": 90}'
FAR_APART_MESSAGE = ("DegenerateGeometryError: edge slopes are undefined: "
                     "the feet's margins vanish in rounding next to the anchor separation\n")
NAN_SEPARATION_POSTURE = '{"separation": NaN, "left_angle_deg": 90, "right_angle_deg": 90}'
TOO_MANY_BINS = "n_bins must be at most 1000000, got 1000001"
CONFIG_CORPUS = [
    ('{"contains_tol": 1e400}', "containment tol must be finite and at least 0, got inf"),
    ('{"contains_tol": -1}', "containment tol must be finite and at least 0, got -1.0"),
    ('{"bins": 1000001}', TOO_MANY_BINS),
]


def corpus_argv(command, out, posture=None):
    """``command`` with every output it can write sent into ``out``."""
    trial = ["--markers", str(TRIAL_CSV)]
    extra = ["--posture-file", str(posture)] if posture else []
    return {
        "bos": ["bos", "--out", str(out / "bos.csv")] + extra,
        "analyze": ["analyze", *trial, "--out", str(out / "report.json"),
                    "--polygon-out", str(out / "polygon.csv"),
                    "--saddle-com-out", str(out / "saddle_com.csv")] + extra,
        "sweep": ["sweep", *trial, "--out", str(out)],
        "validate": VALIDATE_FAST + extra,
    }[command]


@pytest.mark.parametrize("command, posture, config, flags, message", [
    *((cmd, text, None, [], msg) for text, msg in POSTURE_CORPUS for cmd in ("bos", "analyze")),
    ("validate", POSTURE_CORPUS[0][0], None, [], POSTURE_CORPUS[0][1]),
    *(("analyze", None, text, [], msg) for text, msg in CONFIG_CORPUS),
    *(("sweep", None, text, [], msg) for text, msg in CONFIG_CORPUS),
    ("analyze", None, None, ["--bins", "1000001"], TOO_MANY_BINS),
    ("sweep", None, None, ["--bins", "1000001"], TOO_MANY_BINS),
    # a JSON integer too large for a float
    *(pytest.param(cmd, text, None, [], msg, id=f"{cmd}-huge-{key}")
      for key, text, msg in HUGE_POSTURES for cmd in ("bos", "analyze")),
    pytest.param("analyze", None, HUGE_CONFIG, [], "config key 'k_sigma'", id="analyze-huge-k_sigma"),
    *(pytest.param(cmd, OVERFLOW_POSTURE, None, [], OVERFLOW_MESSAGE, id=f"{cmd}-overflowing-foot")
      for cmd in ("bos", "analyze")),
    *(pytest.param(cmd, INFINITE_POSTURE, None, [], INFINITE_MESSAGE, id=f"{cmd}-infinite-foot")
      for cmd in ("bos", "analyze", "validate")),
    *(pytest.param(cmd, FAR_APART_POSTURE, None, [], FAR_APART_MESSAGE, id=f"{cmd}-margins-lost")
      for cmd in ("bos", "analyze")),
    # a non-finite inline foot names its side, its field and its value
    *(pytest.param("bos", None, None, ["--d", "0.3", "--theta-lf", lf, "--theta-rf", rf] + extra,
                   f"ValueError: {message}\n", id=f"bos-{label}")
      for label, lf, rf, extra, message in (
          ("nan-foot-length", "90", "90", ["--foot-length", "nan"],
           "left foot length must be finite, got nan"),
          ("nan-orientation", "nan", "90", [], "left foot orientation must be finite, got nan"),
          ("inf-orientation", "90", "inf", [], "right foot orientation must be finite, got inf"),
      )),
    # a non-finite separation, inline and from a posture file
    *(pytest.param("bos", None, None, ["--d", d, "--theta-lf", "90", "--theta-rf", "90"],
                   f"ValueError: separation must be positive and finite, got {d}\n",
                   id=f"bos-d-{d}") for d in ("nan", "inf")),
    *(pytest.param(cmd, NAN_SEPARATION_POSTURE, None, [],
                   "ValueError: separation must be positive and finite, got nan\n",
                   id=f"{cmd}-nan-separation") for cmd in ("bos", "analyze")),
])
def test_malformed_input_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command, posture, config, flags, message
):
    posture_file = config_file = None
    if posture is not None:
        posture_file = tmp_path / "posture.json"
        posture_file.write_text(posture)
    if config is not None:
        config_file = tmp_path / "config.json"
        config_file.write_text(config)
        monkeypatch.setenv("SADDLE_BOS_CONFIG", str(config_file))
    out = tmp_path / "out"
    out.mkdir()
    code = main(corpus_argv(command, out, posture_file) + flags)
    captured = capsys.readouterr()
    assert_one_line_input_error(code, captured.err, message)
    assert captured.out == ""
    assert not [p for p in out.rglob("*") if p.is_file()]


def malformed_csv(kind):
    """The bundled trial, broken in one way."""
    header, first, second, *rest = TRIAL_CSV.read_bytes().split(b"\n")
    return {
        "empty": b"",
        "header only": header + b"\n",
        "short row": b"\n".join([header, first, second.rpartition(b",")[0], *rest]),
        "non-numeric cell": b"\n".join([header, first.replace(b"0.95", b"abc", 1), second, *rest]),
        "wrong header": b"\n".join([header.replace(b"LASI_x", b"LASI_q"), first, second, *rest]),
        "NUL byte": b"\n".join([header, first + b"\x00", second, *rest]),
        "UTF-8 BOM": b"\xef\xbb\xbf" + b"\n".join([header, first, second, *rest]),
        "non-UTF-8 byte": b"\n".join([header, first.replace(b"0.95", b"0.9\xff", 1), second, *rest]),
    }[kind]


@pytest.mark.parametrize("kind, code, message", [
    ("empty", 2, "BadHeaderError: file is empty"),
    ("header only", 3, "DataQualityError: trial holds no frames"),
    ("short row", 2, "BadRowError: row 2, field 'row': expected 31 fields, got 30"),
    ("non-numeric cell", 2, "BadRowError: row 1, field 'LASI_z': not a number: 'abc'"),
    ("wrong header", 2, "BadHeaderError: header is missing columns: LASI_x"),
    ("NUL byte", 2, "BadRowError: row 1, field 'RMT5_z': not a number: '0.01\\x00'"),
    ("UTF-8 BOM", 2, "BadHeaderError: header is missing columns: time"),
    ("non-UTF-8 byte", 2, "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
])
def test_malformed_csv_exits_2_or_3_and_writes_nothing(tmp_path, capsys, kind, code, message):
    trial = tmp_path / "trial.csv"
    trial.write_bytes(malformed_csv(kind))
    out = tmp_path / "out"
    out.mkdir()
    argv = corpus_argv("analyze", out)
    argv[argv.index(str(TRIAL_CSV))] = str(trial)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not list(out.iterdir())
