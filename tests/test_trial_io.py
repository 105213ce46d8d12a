import json
import math
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from saddlebos import (
    BadHeaderError,
    BadRowError,
    NonMonotonicTimeError,
    Polygon2,
    MetricsReport,
    CovarianceEllipse,
    Point2,
    export_polygon,
    export_report,
    load_postures,
    parse_trial_csv,
    posture_catalog,
    random_postures,
    read_polygon,
    read_report,
)
from saddlebos.markers import MarkerTrial
from saddlebos.trial_io import EXPECTED_COLUMNS, _has_margin, _read_rows, round12, xy_csv_text
from saddlebos.geometry import _continuous_shape

from helpers import TRIAL_CSV, complete_row, trial_csv_text


# --- trial CSV -----------------------------------------------------------------


def write_trial(tmp_path, rows):
    path = tmp_path / "trial.csv"
    path.write_text(trial_csv_text(rows), encoding="utf-8")
    return path


def test_parse_two_rows(tmp_path):
    path = write_trial(tmp_path, [complete_row(0.0), complete_row(0.01)])
    frames = parse_trial_csv(path)
    assert len(frames) == 2
    assert frames[0].is_complete and frames[1].is_complete
    assert frames[1].time == pytest.approx(0.01)


def test_header_missing_columns(tmp_path):
    text = trial_csv_text([complete_row(0.0)])
    lines = text.splitlines()
    header = [c for c in lines[0].split(",") if not c.startswith("RMT5")]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([",".join(header)] + lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(BadHeaderError) as err:
        parse_trial_csv(path)
    assert set(err.value.missing) == {"RMT5_x", "RMT5_y", "RMT5_z"}


def test_reordered_header_rejected(tmp_path):
    cols = list(EXPECTED_COLUMNS)
    cols[1], cols[2] = cols[2], cols[1]
    path = tmp_path / "bad.csv"
    path.write_text(",".join(cols) + "\n", encoding="utf-8")
    with pytest.raises(BadHeaderError):
        parse_trial_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(BadHeaderError):
        parse_trial_csv(path)


def test_non_monotonic_time(tmp_path):
    path = write_trial(tmp_path, [complete_row(0.0), complete_row(0.0)])
    with pytest.raises(NonMonotonicTimeError) as err:
        parse_trial_csv(path)
    assert err.value.row == 2


def test_blank_triple_marks_marker_absent(tmp_path):
    row = complete_row(0.0)
    row["LMT1"] = None
    path = write_trial(tmp_path, [row])
    frames = parse_trial_csv(path)
    assert not frames[0].is_complete
    assert frames[0].missing == ("LMT1",)


def test_partial_blank_triple_rejected(tmp_path):
    text = trial_csv_text([complete_row(0.0)])
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[EXPECTED_COLUMNS.index("LHEE_y")] = ""
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], ",".join(cells)]) + "\n", encoding="utf-8")
    with pytest.raises(BadRowError) as err:
        parse_trial_csv(path)
    assert err.value.row == 1
    assert err.value.field == "LHEE"


def test_unparseable_cell_names_row_and_field(tmp_path):
    text = trial_csv_text([complete_row(0.0), complete_row(0.01)])
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[EXPECTED_COLUMNS.index("RASI_z")] = "oops"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], lines[1], ",".join(cells)]) + "\n", encoding="utf-8")
    with pytest.raises(BadRowError) as err:
        parse_trial_csv(path)
    assert err.value.row == 2
    assert err.value.field == "RASI_z"


def test_non_finite_cell_rejected(tmp_path):
    text = trial_csv_text([complete_row(0.0)])
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[EXPECTED_COLUMNS.index("LASI_x")] = "nan"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], ",".join(cells)]) + "\n", encoding="utf-8")
    with pytest.raises(BadRowError):
        parse_trial_csv(path)


def test_thousands_separators_rejected(tmp_path):
    text = trial_csv_text([complete_row(0.0)])
    lines = text.splitlines()
    cells = lines[1].split(",")
    # a comma inside a quoted cell would be a locale-style decimal; refuse it
    cells[EXPECTED_COLUMNS.index("LPSI_x")] = '"1,5"'
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], ",".join(cells)]) + "\n", encoding="utf-8")
    with pytest.raises(BadRowError):
        parse_trial_csv(path)


def test_wrong_field_count_rejected(tmp_path):
    text = trial_csv_text([complete_row(0.0)])
    lines = text.splitlines()
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], lines[1] + ",0.5"]) + "\n", encoding="utf-8")
    with pytest.raises(BadRowError):
        parse_trial_csv(path)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "trial.csv"
    path.write_text(TRIAL_CSV.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert parse_trial_csv(path) == parse_trial_csv(TRIAL_CSV)


def test_blank_lines_still_count_as_rows(tmp_path):
    lines = trial_csv_text([complete_row(0.0), complete_row(0.01)]).splitlines()
    path = tmp_path / "trial.csv"
    path.write_text("\n".join([lines[0], lines[1], "", lines[2], ","]) + "\n", encoding="utf-8")
    with pytest.raises(BadRowError, match="row 4, field 'row': expected 31 fields, got 2"):
        parse_trial_csv(path)


def reference_trial(path):
    trial = _read_rows(path)
    assert isinstance(trial, MarkerTrial)
    return trial


def assert_same_trial(got, want):
    assert got == want
    # bit for bit, so that -0.0 and NaN payloads count too
    assert got.times.tobytes() == want.times.tobytes()
    assert got.xyz.tobytes() == want.xyz.tobytes()


def dropout_trial(tmp_path):
    """Blank triples at the start, middle and end of rows, two of them adjacent."""
    rows = [complete_row(round(0.01 * k, 2), com=(0.01 * k, -0.02 * k)) for k in range(6)]
    rows[1]["LASI"] = None
    rows[2]["RMT5"] = None
    rows[3]["LMT1"] = rows[3]["LMT5"] = None
    rows[5]["RMT1"] = rows[5]["RMT5"] = None
    return write_trial(tmp_path, rows)


def test_plain_trials_take_the_column_reader(tmp_path, monkeypatch):
    trials = [TRIAL_CSV, dropout_trial(tmp_path)]
    want = [reference_trial(path) for path in trials]

    def no_row_reader(path):
        raise AssertionError(f"{path} fell back to the row reader")

    monkeypatch.setattr("saddlebos.trial_io._read_rows", no_row_reader)
    for path, reference in zip(trials, want):
        assert_same_trial(parse_trial_csv(path), reference)
    assert parse_trial_csv(trials[1]).complete.tolist() == [True, False, False, False, True, False]


COLUMN_COUNT = len(EXPECTED_COLUMNS)

# cells the fast path must leave to the row reader, plus strings over its own
# byte alphabet that one number parser might accept and the other not
ODD_CELLS = st.sampled_from([
    "nan", "NaN", "inf", "-inf", "1e999", "-1e999", " 1.5", "1.5 ", "1_0", "0x1p3",
    '"1,5"', "", "+", "-", ".", "e5", "1e", "1.2.3", "--1", "+.5", "5.", ".5e-3",
    "1E+05", "-0", "-0.0", "00.1", "1e-400",
]) | st.text(alphabet="0123456789.eE+-", min_size=1, max_size=5)


NUMBER_STYLES = ("{!r}", "{:.3f}", "{:.6e}", "{:g}", "{:.12g}")


def number_cell(rng):
    value = rng.choice([-0.0, 0.0, rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-8, 8)])
    return rng.choice(NUMBER_STYLES).format(value)


def blank_markers(rng):
    """Markers to blank in one row: none, a few anywhere, the first (LASI),
    the last (RMT5, which ends the line), or a run of adjacent ones."""
    kind = rng.choice(["none", "none", "some", "first", "last", "run"])
    if kind == "some":
        return rng.sample(range(10), rng.randint(1, 3))
    if kind == "run":
        first = rng.randint(0, 8)
        return range(first, rng.randint(first + 2, 10))
    return {"none": [], "first": [0], "last": [9]}[kind]


@st.composite
def trial_texts(draw):
    """Trial CSV text: a valid table, then up to three injected faults.

    The valid table comes from one drawn seed, which keeps each example to a
    few dozen choices; the faults are drawn one by one."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    times = sorted(rng.sample(range(-1000, 1000), rng.randint(0, 5)))
    rows = []
    for t in times:
        row = [rng.choice(NUMBER_STYLES).format(t / 100)]
        row += [number_cell(rng) for _ in range(COLUMN_COUNT - 1)]
        for k in blank_markers(rng):
            row[1 + 3 * k : 4 + 3 * k] = ["", "", ""]
        rows.append(row)
    if rows and draw(st.booleans()):
        rows[-1][-3:] = ["", "", ""]  # the file's last cell is blank
    header = list(EXPECTED_COLUMNS)
    lines_before = {}
    widths = {}
    newline = "\n"
    for fault in draw(st.lists(st.sampled_from([
        "partial", "odd", "time", "ragged", "blank-line", "crlf", "header",
    ]), max_size=3)):
        if fault == "crlf":
            newline = "\r\n"
        elif fault == "header":
            header[0] = " time"
        elif fault == "blank-line":
            at = draw(st.integers(0, len(rows)))
            lines_before[at] = lines_before.get(at, 0) + 1
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if fault == "partial":
                k = draw(st.integers(0, 9))
                for a in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2)):
                    row[1 + 3 * k + a] = ""
            elif fault == "odd":
                row[draw(st.integers(0, COLUMN_COUNT - 1))] = draw(ODD_CELLS)
            elif fault == "time":
                row[0] = draw(st.sampled_from(["", rows[0][0], rows[-1][0], "-5.0"]))
            else:
                widths[id(row)] = draw(st.integers(1, COLUMN_COUNT + 1))
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        row = (row + ["0.5"])[: widths.get(id(row), COLUMN_COUNT)]
        lines += [""] * lines_before.get(i, 0) + [",".join(row)]
    lines += [""] * lines_before.get(len(rows), 0)
    ending = newline if draw(st.booleans()) else ""
    return newline.join(lines) + ending


def outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # every error the two readers raise is compared
        return None, (type(exc), str(exc))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=trial_texts())
def test_column_reader_agrees_with_row_reader(tmp_path, text):
    path = tmp_path / "trial.csv"
    path.write_bytes(text.encode("ascii"))
    got, got_error = outcome(parse_trial_csv, path)
    want, want_error = outcome(reference_trial, path)
    assert got_error == want_error
    if want is not None:
        assert_same_trial(got, want)


HEADER_TEXT = ",".join(EXPECTED_COLUMNS) + "\n"
ROW_TEXT = trial_csv_text([complete_row(0.0)]).splitlines()[1]


@pytest.mark.parametrize("text", [
    HEADER_TEXT,  # header only
    HEADER_TEXT + "," + ROW_TEXT.partition(",")[2] + "\n",  # the body opens with a blank time
    HEADER_TEXT + "\n" + ROW_TEXT + "\n",  # the body opens with a blank line
    HEADER_TEXT + ROW_TEXT,  # no final newline
    HEADER_TEXT + ROW_TEXT.rpartition(",")[0] + ",",  # no final newline after a blank cell
    HEADER_TEXT + ROW_TEXT.rsplit(",", 3)[0] + ",,,",  # RMT5 blank, no final newline
], ids=["header-only", "blank-time-first", "blank-line-first", "no-newline",
        "partial-last-no-newline", "blank-last-no-newline"])
@pytest.mark.filterwarnings("error")  # a warning would reach the CLI's stderr
def test_column_reader_agrees_with_row_reader_on_fixed_cases(tmp_path, text):
    path = tmp_path / "trial.csv"
    path.write_bytes(text.encode("ascii"))
    got, got_error = outcome(parse_trial_csv, path)
    want, want_error = outcome(reference_trial, path)
    assert got_error == want_error
    if want is not None:
        assert_same_trial(got, want)


def long_trial_text(n_rows, dropout, seed=0):
    """A wide trial laid out like a recording: 12-digit pelvis coordinates,
    short fixed foot coordinates, ``dropout`` of the rows missing a marker."""
    rng = np.random.default_rng(seed)
    pelvis = rng.uniform(-0.5, 1.0, (n_rows, 12))
    feet = [0.225, 0.35, 0.02, 0.225, 0.05, 0.02, 0.475, 0.3, 0.01, 0.475, 0.4, 0.01,
            0.475, 0.1, 0.01, 0.475, 0.0, 0.01]
    line = "%.2f," + "%.12g," * 12 + ",".join(f"{v:g}" for v in feet) + "\n"
    lines = [line % (k / 100, *pelvis[k]) for k in range(n_rows)]
    for k in rng.choice(n_rows, round(dropout * n_rows), replace=False):
        cells = lines[k].split(",")
        marker = rng.integers(10)
        cells[1 + 3 * marker : 4 + 3 * marker] = ["", "", ""]
        lines[k] = ",".join(cells) + ("" if marker < 9 else "\n")
    return HEADER_TEXT + "".join(lines)


def test_column_reader_holds_one_copy(tmp_path, monkeypatch):
    path = tmp_path / "long.csv"
    path.write_text(long_trial_text(20_000, 0.01), encoding="ascii")
    size = path.stat().st_size

    def no_row_reader(path):
        raise AssertionError(f"{path} fell back to the row reader")

    monkeypatch.setattr("saddlebos.trial_io._read_rows", no_row_reader)
    tracemalloc.start()
    try:
        trial = parse_trial_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trial) == 20_000 and int((~trial.complete).sum()) == 200
    assert peak <= 2.2 * size, f"peak {peak} bytes for a {size}-byte file"


# --- posture catalog -------------------------------------------------------------


def test_catalog_has_six_valid_postures():
    catalog = posture_catalog()
    assert len(catalog) == 6
    for posture in catalog:
        params = posture.params()  # raises on degeneracy
        _continuous_shape(params)
        assert params.reach_left > 0
        assert params.reach_right < 0


def test_catalog_first_is_parallel():
    first = posture_catalog()[0]
    assert first.name == "parallel"
    assert first.frame().separation == pytest.approx(0.30, abs=1e-12)
    assert first.left.orientation == pytest.approx(math.pi / 2, abs=1e-12)
    assert first.right.orientation == pytest.approx(math.pi / 2, abs=1e-12)


def test_catalog_contains_orthogonal_posture():
    assert any(p.right.orientation == 0.0 for p in posture_catalog())


def test_catalog_names_unique():
    names = [p.name for p in posture_catalog()]
    assert len(set(names)) == 6


def test_random_postures_deterministic_and_valid():
    a = random_postures(25, seed=42)
    b = random_postures(25, seed=42)
    assert len(a) == 25
    for pa, pb in zip(a, b):
        assert pa.left == pb.left and pa.right == pb.right
        assert _has_margin(pa, pa.params(), 0.01)
    c = random_postures(5, seed=43)
    assert c[0].left != a[0].left


def test_random_postures_count_checked():
    assert random_postures(0) == []
    with pytest.raises(ValueError, match="random posture count n must be at least 0, got -1"):
        random_postures(-1)


# --- polygon export ---------------------------------------------------------------


def square():
    return Polygon2(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


# every 64-bit pattern is a float: NaN payloads, subnormals and both zeros too
FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# 1.000000000003e-312 is a subnormal whose 12 digits, 1e-312, read back as a
# float that prints as 9.99999999998e-313
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.000000000003e-312,
    sys.float_info.min, -sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
    math.nextafter(sys.float_info.min, 1.0), sys.float_info.max, -sys.float_info.max,
])


@settings(max_examples=300)
@given(values=st.lists(st.floats() | FLOAT_BITS | EDGE_FLOATS, max_size=40))
def test_xy_csv_text_prints_each_value_as_round12(values):
    points = np.array(values[: len(values) // 2 * 2], dtype=np.float64).reshape(-1, 2)
    want = "x,y\n" + "".join(f"{round12(x):.12g},{round12(y):.12g}\n" for x, y in points)
    assert xy_csv_text(points) == want


def test_polygon_csv_has_header_and_rows(tmp_path):
    path = tmp_path / "poly.csv"
    export_polygon(square(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == "x,y"


def test_polygon_round_trip_csv(tmp_path):
    rng = np.random.default_rng(1)
    poly = Polygon2(np.column_stack((
        np.cos(np.linspace(0, 2 * math.pi, 50, endpoint=False)) + rng.uniform(0, 1e-3, 50),
        np.sin(np.linspace(0, 2 * math.pi, 50, endpoint=False)),
    )))
    path = tmp_path / "poly.csv"
    export_polygon(poly, path)
    back = read_polygon(path)
    assert np.abs(back.vertices - poly.vertices).max() <= 1e-11


def test_polygon_round_trip_json(tmp_path):
    path = tmp_path / "poly.json"
    export_polygon(square(), path)
    data = json.loads(path.read_text())
    assert data["closed"] is True
    back = read_polygon(path)
    assert np.abs(back.vertices - square().vertices).max() <= 1e-11


def test_polygon_export_unwritable_path():
    with pytest.raises(OSError):
        export_polygon(square(), "/nonexistent-dir/poly.csv")


def test_polygon_format_override(tmp_path):
    path = tmp_path / "poly.data"
    with pytest.raises(ValueError):
        export_polygon(square(), path)
    export_polygon(square(), path, fmt="csv")
    assert read_polygon(path, fmt="csv").vertices.shape == (4, 2)


# --- report export ---------------------------------------------------------------


def sample_report():
    return MetricsReport(
        poi=87.654321,
        poi360=100.0,
        n_samples=3000,
        n_outer=360,
        covariance_ellipse=CovarianceEllipse(
            center=Point2(0.123456789012345, -0.2),
            semi_axes=(0.25, 0.125),
            orientation=1.0471975511965976,
        ),
    )


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    export_report(sample_report(), path)
    back = read_report(path)
    assert back.poi == pytest.approx(87.6543, abs=5e-5)
    assert back.poi360 == 100.0
    assert back.n_samples == 3000
    assert back.n_outer == 360
    assert back.covariance_ellipse.semi_axes == (0.25, 0.125)


def test_report_percentages_at_four_decimals(tmp_path):
    path = tmp_path / "report.json"
    export_report(sample_report(), path)
    data = json.loads(path.read_text())
    assert data["poi"] == 87.6543
    assert list(data) == ["poi", "poi360", "n_samples", "n_outer", "covariance_ellipse"]


def test_report_missing_parent_dir(tmp_path):
    with pytest.raises(OSError):
        export_report(sample_report(), tmp_path / "missing" / "report.json")


def test_report_export_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    export_report(sample_report(), p1)
    export_report(sample_report(), p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- posture files ----------------------------------------------------------------


def test_load_posture_compact_form(tmp_path):
    path = tmp_path / "posture.json"
    path.write_text(json.dumps({
        "name": "custom", "separation": 0.4,
        "left_angle_deg": 90, "right_angle_deg": 80,
        "foot_length": 0.26, "foot_width": 0.09,
    }))
    (posture,) = load_postures(path)
    assert posture.name == "custom"
    assert posture.frame().separation == pytest.approx(0.4, abs=1e-12)
    assert posture.right.orientation == pytest.approx(math.radians(80), abs=1e-12)
    assert posture.left.length == 0.26


def test_load_posture_explicit_form(tmp_path):
    path = tmp_path / "posture.json"
    path.write_text(json.dumps([{
        "name": "shifted",
        "left": {"ecop": [0.1, 0.5], "angle_deg": 90, "length": 0.25, "width": 0.1},
        "right": {"ecop": [0.1, 0.2], "angle_deg": 90, "length": 0.25, "width": 0.1},
    }]))
    (posture,) = load_postures(path)
    assert posture.left.ecop == Point2(0.1, 0.5)
    assert posture.frame().separation == pytest.approx(0.3, abs=1e-12)


def test_load_posture_missing_key(tmp_path):
    path = tmp_path / "posture.json"
    path.write_text(json.dumps({"name": "broken", "separation": 0.4}))
    with pytest.raises(ValueError):
        load_postures(path)
