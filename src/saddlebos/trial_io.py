"""Trial ingestion, posture definitions, and plot-ready exports.

Marker trials arrive as wide CSV, one row per frame.  The header is fixed::

    time,LASI_x,LASI_y,LASI_z,RASI_x,...,RMT5_z

covering the ten marker labels in the order LASI, RASI, LPSI, RPSI, LHEE,
RHEE, LMT1, LMT5, RMT1, RMT5, three coordinate columns each.  Units are
meters and seconds, decimal point only.  A marker is absent in a frame when
all three of its cells are blank; a partially blank triple is rejected.
Timestamps must be strictly increasing.  Blank lines are skipped, but the
row numbers in errors still count them.

A trial is read in one pass with numpy.  The file is read once, its blank
cells are filled with ``nan`` in one copy of it, made only when there are
any, and ``loadtxt`` parses that buffer in place, so at most two copies of
the file's bytes are alive at once.  A file the fast path does not
recognise as plainly valid (other bytes than digits, ``.eE+-``, commas and
``\n``, blank lines, a blank time, ragged rows, a partial triple, a
non-finite value, time not strictly increasing) is read again row by row,
which returns the same values or raises the error naming the row and field.

Polygons export to CSV (``x,y`` rows) or JSON with 12 significant digits;
metric reports export to JSON with a fixed key order and percentages at four
decimal places, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadHeaderError,
    BadRowError,
    DegenerateGeometryError,
    NonMonotonicTimeError,
)
from .geometry import (
    BosBoundary,
    BosParams,
    FootPose,
    Point2,
    Polygon2,
    SaddleFrame,
    Side,
    derive_bos_params,
    saddle_frame_from_ecops,
    seeded_rng,
)
from .markers import MARKER_LABELS, MarkerTrial
from .metrics import CovarianceEllipse, MetricsReport

EXPECTED_COLUMNS = ("time",) + tuple(
    f"{label}_{axis}" for label in MARKER_LABELS for axis in "xyz"
)

_HEADER_LINE = (",".join(EXPECTED_COLUMNS) + "\n").encode("ascii")
_NUMBER_BYTES = b"0123456789.eE+-,\n"
# what is left of a plainly valid file once the number bytes are removed
_HEADER_LETTERS = _HEADER_LINE.translate(None, _NUMBER_BYTES)
# a newline that opens a blank line or a row with a blank time
_BLANK_LINE_OR_TIME = re.compile(rb"\n[\n,]")
_COMMA, _NEWLINE = b",\n"
# bytes per block of the blank-cell scan: its masks stay small beside the file
_SCAN_BLOCK = 1 << 16

DEFAULT_FOOT_LENGTH = 0.25
DEFAULT_FOOT_WIDTH = 0.10


# ---------------------------------------------------------------------------
# Trial CSV


def parse_trial_csv(path) -> MarkerTrial:
    """Read a wide-format marker trial.

    The file is read once; blank cells are filled in one copy of it, made
    only when there are any, so at most two copies of its bytes are alive at
    once.  Raises BadHeaderError, BadRowError, or NonMonotonicTimeError on
    malformed input; see the module docstring for the schema.
    """
    trial = _read_columns(path)
    return trial if trial is not None else _read_rows(path)


def _read_columns(path) -> MarkerTrial | None:
    """The trial in ``path`` if it is plainly valid, else None (never raises
    on bad input: the row reader then finds and reports the fault)."""
    with open(path, "rb") as fh:
        data = fh.read()
    # blank lines and blank times are searched for from the header's own
    # newline, so a body that opens with either is caught too
    newline = len(_HEADER_LINE) - 1
    if (
        not data.startswith(_HEADER_LINE)
        or len(data) == len(_HEADER_LINE)  # no rows
        or data.translate(None, _NUMBER_BYTES) != _HEADER_LETTERS
        or _BLANK_LINE_OR_TIME.search(data, newline)
    ):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    data = _fill_blank_cells(data)
    # BytesIO shares the bytes rather than copying them; ``#`` is not in the
    # byte alphabet, so loadtxt need not look for comments
    body = io.BytesIO(data)
    body.seek(len(_HEADER_LINE))
    try:
        table = np.loadtxt(body, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    del body, data  # before MarkerTrial copies the table
    if table.shape[1] != len(EXPECTED_COLUMNS):
        return None
    try:
        trial = MarkerTrial(table[:, 0], table[:, 1:].reshape(len(table), len(MARKER_LABELS), 3))
    except ValueError:
        return None
    return None if (np.diff(trial.times) <= 0.0).any() else trial


def _fill_blank_cells(data: bytes) -> bytes:
    """``data`` with ``nan`` after every comma that ends a blank cell (one
    followed by a comma or a newline); ``data`` itself when there is none."""
    byte = np.frombuffer(data, np.uint8)
    found = []
    for lo in range(0, len(byte) - 1, _SCAN_BLOCK):
        pair = byte[lo : lo + _SCAN_BLOCK + 1]  # each byte of the block and the next
        after = pair[1:]
        blank = (pair[:-1] == _COMMA) & ((after == _COMMA) | (after == _NEWLINE))
        found.append(np.flatnonzero(blank) + (lo + 1))
    cuts = np.concatenate(found).tolist() if found else []
    if not cuts:
        return data
    view = memoryview(data)
    pieces = []
    prev = 0
    for cut in cuts:
        pieces += (view[prev:cut], b"nan")
        prev = cut
    pieces.append(view[prev:])
    return b"".join(pieces)


def _read_rows(path) -> MarkerTrial:
    """Row-by-row reader: the reference for the schema and its errors."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BadHeaderError(EXPECTED_COLUMNS, "file is empty") from None
        header = [col.strip() for col in header]
        if header != list(EXPECTED_COLUMNS):
            missing = [col for col in EXPECTED_COLUMNS if col not in header]
            raise BadHeaderError(missing)

        times, rows = [], []  # one time and 30 coordinates per row
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(EXPECTED_COLUMNS):
                raise BadRowError(row_num, "row", f"expected {len(EXPECTED_COLUMNS)} fields, got {len(row)}")
            if row[0].strip() == "":
                raise BadRowError(row_num, "time", "blank")
            time = _require_cell(row[0], row_num, "time")
            if times and time <= times[-1]:
                raise NonMonotonicTimeError(row_num)

            coords = []
            for k, label in enumerate(MARKER_LABELS):
                cells = row[1 + 3 * k : 4 + 3 * k]
                blanks = [c.strip() == "" for c in cells]
                if all(blanks):
                    coords += [math.nan] * 3
                    continue
                if any(blanks):
                    raise BadRowError(row_num, label, "marker has a partially blank coordinate triple")
                coords += [_require_cell(cells[a], row_num, f"{label}_{'xyz'[a]}") for a in range(3)]
            times.append(time)
            rows.append(coords)
    xyz = np.array(rows, dtype=np.float64).reshape(len(rows), len(MARKER_LABELS), 3)
    return MarkerTrial(np.array(times, dtype=np.float64), xyz)


def _require_cell(cell: str, row_num: int, field: str) -> float:
    try:
        value = float(cell.strip())
    except ValueError:
        raise BadRowError(row_num, field, f"not a number: {cell.strip()!r}") from None
    if not math.isfinite(value):
        raise BadRowError(row_num, field, f"non-finite value: {cell.strip()!r}")
    return value


# ---------------------------------------------------------------------------
# Postures


@dataclass(frozen=True)
class PostureSpec:
    """A named stance: one FootPose per side."""

    name: str
    left: FootPose
    right: FootPose

    def frame(self) -> SaddleFrame:
        return saddle_frame_from_ecops(self.right.ecop, self.left.ecop)

    def params(self) -> BosParams:
        return derive_bos_params(self.frame(), self.left, self.right)

    def boundary(self) -> BosBoundary:
        frame = self.frame()
        return BosBoundary(derive_bos_params(frame, self.left, self.right), frame)


def posture_from_parameters(
    name: str,
    separation: float,
    left_angle: float,
    right_angle: float,
    foot_length: float = DEFAULT_FOOT_LENGTH,
    foot_width: float = DEFAULT_FOOT_WIDTH,
) -> PostureSpec:
    """Canonically placed stance: anchors on the task y axis at
    (0, +separation/2) and (0, -separation/2), angles in radians."""
    if not (separation > 0.0 and math.isfinite(separation)):
        raise ValueError(f"separation must be positive and finite, got {separation}")
    half = separation / 2.0
    return PostureSpec(
        name=name,
        left=FootPose(Point2(0.0, half), left_angle, foot_length, foot_width, Side.LEFT),
        right=FootPose(Point2(0.0, -half), right_angle, foot_length, foot_width, Side.RIGHT),
    )


_CATALOG_TABLE = (
    # name, separation, left angle deg, right angle deg
    ("parallel", 0.30, 90.0, 90.0),
    ("orthogonal-right", 0.30, 90.0, 0.0),
    ("toes-out", 0.35, 70.0, 110.0),
    ("toes-in", 0.35, 110.0, 70.0),
    ("wide-parallel", 0.50, 90.0, 90.0),
    ("staggered", 0.28, 75.0, 75.0),
)


def posture_catalog(
    foot_length: float = DEFAULT_FOOT_LENGTH,
    foot_width: float = DEFAULT_FOOT_WIDTH,
) -> list[PostureSpec]:
    """The six validation stances: parallel, orthogonal, toes-out, toes-in,
    wide, and staggered, with shared sole dimensions."""
    return [
        posture_from_parameters(
            name, sep, math.radians(lo), math.radians(ro), foot_length, foot_width
        )
        for name, sep, lo, ro in _CATALOG_TABLE
    ]


def random_postures(
    n: int,
    seed: int = 0,
    separation_range: tuple[float, float] = (0.24, 0.55),
    angle_range_deg: tuple[float, float] = (70.0, 110.0),
    foot_length_range: tuple[float, float] = (0.22, 0.28),
    foot_width_range: tuple[float, float] = (0.08, 0.12),
    margin: float = 0.01,
) -> list[PostureSpec]:
    """Seeded non-degenerate random stances for validation sweeps.

    Rejection sampling keeps every stance at least ``margin`` away from the
    boundary-construction degeneracies (cap corners, edge slopes) and keeps
    both anchors strictly interior.
    """
    if n < 0:
        raise ValueError(f"random posture count n must be at least 0, got {n}")
    rng = seeded_rng(seed)
    out: list[PostureSpec] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * max(n, 1):
            raise RuntimeError("random posture sampling failed to converge")
        sep = rng.uniform(*separation_range)
        la = math.radians(rng.uniform(*angle_range_deg))
        ra = math.radians(rng.uniform(*angle_range_deg))
        fl = rng.uniform(*foot_length_range)
        fw = rng.uniform(*foot_width_range)
        posture = posture_from_parameters(f"random-{len(out)}", sep, la, ra, fl, fw)
        try:
            boundary = posture.boundary()
        except DegenerateGeometryError:
            continue
        if not _has_margin(boundary, margin):
            continue
        out.append(posture)
    return out


def _has_margin(boundary: BosBoundary, margin: float) -> bool:
    params, sep = boundary.params, boundary.frame.separation
    return (
        params.reach_left - abs(params.span_left) >= margin
        and -params.reach_right - abs(params.span_right) >= margin
        and abs(params.span_left) >= margin
        and abs(params.span_right) >= margin
        and abs(sep + params.reach_right - params.reach_left) >= margin
        and params.margin_left >= 0.002
        and params.margin_right <= -0.002
    )


# ---------------------------------------------------------------------------
# Posture files (JSON)


def load_postures(path) -> list[PostureSpec]:
    """Read stance definitions from a JSON file.

    The file holds one object or a list of objects.  The compact form gives
    stance parameters (angles in degrees) with canonical anchor placement::

        {"name": "parallel", "separation": 0.30,
         "left_angle_deg": 90, "right_angle_deg": 90,
         "foot_length": 0.25, "foot_width": 0.10}

    The explicit form places each foot individually::

        {"name": "shifted", "left": {"ecop": [0.1, 0.4], "angle_deg": 90,
         "length": 0.25, "width": 0.10}, "right": {...}}
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data if isinstance(data, list) else [data]
    return [_posture_from_dict(entry, i) for i, entry in enumerate(entries)]


def _posture_from_dict(entry, index: int) -> PostureSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"posture entry {index} must be a JSON object, got {entry!r}")
    name = entry.get("name", f"posture-{index}")
    if not isinstance(name, str):
        raise ValueError(f"posture entry {index} key 'name' must be a string, got {name!r}")
    where = f"posture entry {name!r}"
    if "left" in entry and "right" in entry:
        return PostureSpec(
            name=name,
            left=_foot_from_dict(entry["left"], Side.LEFT, where),
            right=_foot_from_dict(entry["right"], Side.RIGHT, where),
        )
    return posture_from_parameters(
        name,
        _number(entry, "separation", where),
        math.radians(_number(entry, "left_angle_deg", where)),
        math.radians(_number(entry, "right_angle_deg", where)),
        _number(entry, "foot_length", where, DEFAULT_FOOT_LENGTH),
        _number(entry, "foot_width", where, DEFAULT_FOOT_WIDTH),
    )


def _foot_from_dict(entry, side: Side, where: str) -> FootPose:
    where = f"{where} {side.value} foot"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, got {entry!r}")
    if "ecop" not in entry:
        raise ValueError(f"{where} is missing key 'ecop'")
    ecop = entry["ecop"]
    if not (isinstance(ecop, list) and len(ecop) == 2 and all(map(_is_number, ecop))):
        raise ValueError(f"{where} key 'ecop' must be a list of two numbers, got {ecop!r}")
    return FootPose(
        ecop=Point2(*(_float(v, f"{where} key 'ecop'") for v in ecop)),
        orientation=math.radians(_number(entry, "angle_deg", where)),
        length=_number(entry, "length", where, DEFAULT_FOOT_LENGTH),
        width=_number(entry, "width", where, DEFAULT_FOOT_WIDTH),
        side=side,
    )


def _is_number(value) -> bool:
    """A JSON int or decimal; ``true`` and ``false`` are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(entry: dict, key: str, where: str, default: float | None = None) -> float:
    """``entry[key]`` as a float, or ``default`` when the key is absent and
    a default is given."""
    if key not in entry:
        if default is None:
            raise ValueError(f"{where} is missing key {key!r}")
        return default
    value = entry[key]
    if not _is_number(value):
        raise ValueError(f"{where} key {key!r} must be a number, got {value!r}")
    return _float(value, f"{where} key {key!r}")


def _float(value, what: str) -> float:
    """A JSON number as a float; ``what`` names it when it is too large."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


# ---------------------------------------------------------------------------
# Exports


def round12(value: float) -> float:
    """Round to 12 significant digits for stable serialized output."""
    return float(f"{value:.12g}")


def xy_csv_text(points) -> str:
    """``x,y`` CSV text of (n, 2) points, each value printed as
    ``f"{round12(v):.12g}"``, in one formatting pass."""
    values = np.asarray(points, dtype=np.float64).reshape(-1)
    flat = values.tolist()
    # a normal float prints as its round12 does; the 12 digits of a subnormal
    # can read back as a neighbour that prints differently, so it is rounded
    for i in np.flatnonzero((values != 0.0) & (np.abs(values) < sys.float_info.min)).tolist():
        flat[i] = round12(flat[i])
    return "x,y\n" + ("%.12g,%.12g\n" * (len(flat) // 2)) % tuple(flat)


def round12_pairs(points) -> list[list[float]]:
    """``[[round12(x), round12(y)], ...]`` of (n, 2) points, in one
    formatting pass: each value printed as ``%.12g`` and read back."""
    values = np.asarray(points, dtype=np.float64).reshape(-1)
    text = ("%.12g " * len(values)) % tuple(values.tolist())
    return np.array(text.split(), dtype=np.float64).reshape(-1, 2).tolist()


def export_polygon(polygon: Polygon2, path, fmt: str | None = None) -> None:
    """Write a polygon as CSV (``x,y`` rows) or JSON, 12 significant digits.

    ``fmt`` defaults to the file extension (.csv or .json).
    """
    fmt = _resolve_format(path, fmt)
    if fmt == "csv":
        text = xy_csv_text(polygon.vertices)
    else:
        payload = {
            "vertices": round12_pairs(polygon.vertices),
            "closed": True,
        }
        text = json.dumps(payload) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_polygon(path, fmt: str | None = None) -> Polygon2:
    """Read a polygon written by :func:`export_polygon`."""
    fmt = _resolve_format(path, fmt)
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "x,y":
            raise ValueError(f"{path}: not a polygon CSV (missing 'x,y' header)")
        verts = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]
    else:
        verts = json.loads(text)["vertices"]
    return Polygon2(np.array(verts, dtype=float))


def _resolve_format(path, fmt: str | None) -> str:
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported polygon format {fmt!r} (use 'csv' or 'json')")
    return fmt


def report_to_dict(report: MetricsReport) -> dict:
    """Fixed-order JSON-ready form of a metrics report (percentages at four
    decimal places)."""
    ellipse = report.covariance_ellipse
    return {
        "poi": round(report.poi, 4),
        "poi360": round(report.poi360, 4),
        "n_samples": report.n_samples,
        "n_outer": report.n_outer,
        "covariance_ellipse": {
            "center": [round12(ellipse.center.x), round12(ellipse.center.y)],
            "semi_axes": [round12(ellipse.semi_axes[0]), round12(ellipse.semi_axes[1])],
            "orientation_rad": round12(ellipse.orientation),
        },
    }


def export_report(report: MetricsReport, path) -> None:
    """Write one metrics report as JSON with deterministic key order."""
    text = json.dumps(report_to_dict(report), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_report(path) -> MetricsReport:
    """Read a metrics report written by :func:`export_report`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    ellipse = data["covariance_ellipse"]
    return MetricsReport(
        poi=float(data["poi"]),
        poi360=float(data["poi360"]),
        n_samples=int(data["n_samples"]),
        n_outer=int(data["n_outer"]),
        covariance_ellipse=CovarianceEllipse(
            center=Point2(*ellipse["center"]),
            semi_axes=(float(ellipse["semi_axes"][0]), float(ellipse["semi_axes"][1])),
            orientation=float(ellipse["orientation_rad"]),
        ),
    )
