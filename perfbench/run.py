"""Benchmark for saddlebos: end-to-end numbers and a traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-long --seed 1 --seconds 25 --trace 0

``--trace 0`` spawns the real CLI (``python -m saddlebos``) or calls the
library, untraced, in a closed loop: one caller, each operation waits for
the previous one.  ``--trace 1`` runs the same operations in-process, with
and without the span recorder of ``tracing.py``, and reports per-layer
numbers.  Every operation's output is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from trialgen import Trial, make_trial  # noqa: E402
from tracing import GROUPS, ITEMS, NAME, PARENT, GROUP, OP, Tracer, nesting_problems, self_times  # noqa: E402

DEFAULT_SEED = 0
MIN_CYCLES = 3
SETUP_REPEATS = 5
ORACLE_VERTICES = 3600
# Self times of one traced operation must add up to its wall time, measured
# around the call, within this slack.
TRACE_SLACK_S = 0.001
TRACE_SLACK_SHARE = 0.01

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "growth_x": "ratio",
}

PER_LAYER = {
    "startup.import_s": "s",
    "startup.numpy_import_s": "s",
    "startup.interpreter_s": "s",
    "trial_io.parse_s": "s",
    "trial_io.parse_rows_per_s": "1/s",
    "trial_io.export_s": "s",
    "trial_io.postures_s": "s",
    "markers.com_s": "s",
    "markers.stance_s": "s",
    "markers.stance_calls": "count",
    "geometry.build_s": "s",
    "geometry.boundaries_built": "count",
    "geometry.transform_s": "s",
    "geometry.points_transformed": "count",
    "geometry.classify_s": "s",
    "geometry.classify_calls": "count",
    "geometry.points_classified": "count",
    "geometry.sample_s": "s",
    "metrics.report_s": "s",
    "metrics.border_s": "s",
    "metrics.ellipse_s": "s",
    "metrics.transforms_per_sample": "ratio",
    "oracle.even_odd_s": "s",
    "oracle.edge_distance_s": "s",
    "oracle.edge_distance_calls": "count",
    "oracle.star_s": "s",
    "oracle.agreement_s": "s",
    "oracle.equivariance_s": "s",
    "oracle.failed_checks": "count",
    "cli.self_s": "s",
    "cli.segments": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

CLI_ROOT = "cli.self"
HARNESS_ROOT = "bench.harness"

_SETUP_SCRIPT = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import {module}; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SADDLE_BOS_CONFIG")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Operations and their outcomes


@dataclass
class Outcome:
    """What one operation produced."""

    code: int
    artifacts: dict[str, bytes]
    stderr: str = ""
    wall: float = 0.0
    rss_mb: float = 0.0


@dataclass
class Op:
    """One kind of operation of a workload.

    ``argv`` is the CLI command line (CLI workloads); ``call`` runs the
    operation in-process and returns (exit code, artifacts) for the library
    workload.  ``items`` is what the operation scores: frames, postures or
    samples.  ``check`` returns the problems found in an outcome.
    """

    label: str
    items: int
    check: Callable[[Outcome], list[str]]
    argv: list[str] = field(default_factory=list)
    files: dict[str, Path] = field(default_factory=dict)
    call: Callable[[], tuple[int, dict[str, bytes]]] | None = None


def _read_files(op: Op) -> dict[str, bytes]:
    return {name: path.read_bytes() for name, path in op.files.items() if path.exists()}


def _clear_files(op: Op) -> None:
    for path in op.files.values():
        path.unlink(missing_ok=True)


def spawn_cli(op: Op) -> Outcome:
    """Run ``python -m saddlebos <argv>`` and wait for it, untraced."""
    _clear_files(op)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "saddlebos", *op.argv],
            stdout=out, stderr=err, env=child_env(), cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=code,
        artifacts={"stdout": out_path.read_bytes(), **_read_files(op)},
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def call_in_process(op: Op, tracer: Tracer | None = None) -> Outcome:
    """Run the operation in this process: ``cli.main(argv)`` or ``op.call``.

    With a tracer, the call is the root span of one traced operation.
    """
    _clear_files(op)
    out, err = io.StringIO(), io.StringIO()
    root = HARNESS_ROOT if op.call else CLI_ROOT
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code, artifacts = _invoke(op)
            else:
                with tracer.operation(root, root):
                    code, artifacts = _invoke(op)
        except Exception:  # the operation failed; its check reports the traceback
            code, artifacts = 1, {}
            traceback.print_exc()
    wall = perf_counter() - start
    if op.call is None:
        artifacts = {"stdout": out.getvalue().encode(), **_read_files(op)}
    return Outcome(code=code, artifacts=artifacts, stderr=err.getvalue(), wall=wall)


def _invoke(op: Op) -> tuple[int, dict[str, bytes]]:
    if op.call is not None:
        return op.call()
    from saddlebos import cli

    return cli.main(op.argv), {}


# ---------------------------------------------------------------------------
# Checks


def _even_odd_codes(frame, boundary, task_points):
    """Containment codes by the oracle's even-odd rule on a fine polygon --
    a different algorithm from the radial test under test."""
    from saddlebos import oracle
    from saddlebos.geometry import sample_boundary, saddle_array_from_task

    pts = saddle_array_from_task(frame, task_points)
    return oracle.classify_points(sample_boundary(boundary, ORACLE_VERTICES), pts)


def poi_problems(poi: float, inside: int, n: int) -> list[str]:
    """Compare a reported PoI with an even-odd recount.  A few samples may
    fall between the polygon's chords and the curve; PoI is rounded to four
    decimals."""
    allowed = 1 + n // 100_000
    if abs(poi - 100.0 * inside / n) > 100.0 * allowed / n + 5e-5:
        return [f"PoI {poi} disagrees with even-odd recount {100.0 * inside / n:.4f}"]
    return []


def cli_problems(outcome: Outcome, codes: tuple[int, ...]) -> list[str]:
    """Exit code and traceback checks shared by every operation."""
    problems = []
    if outcome.code not in codes:
        problems.append(f"exit code {outcome.code}, expected one of {codes}")
    if "Traceback" in outcome.stderr:
        problems.append("traceback on stderr")
    return problems


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One benchmark workload; README.md says why each was chosen.

    ``layers`` are the layers in which every traced operation of the
    workload must record at least one span.
    """

    name = ""
    setup_module = "saddlebos.cli"
    layers: tuple[str, ...] = ()

    def prepare(self, seed: int) -> dict[str, Op]:
        """Write the seed's inputs and return the operations of one measured
        cycle, in order, by label.  A label ending in ``full`` is a measured
        operation; one ending in ``quarter`` is the same operation on the
        first quarter of the input, for growth_x."""
        raise NotImplementedError


def kind(op: Op) -> str:
    """``full`` or ``quarter``."""
    return op.label.split("/")[-1]


def full_ops(ops: dict[str, Op]) -> list[Op]:
    return [op for op in ops.values() if kind(op) == "full"]


class Analyze(Workload):
    layers = ("trial_io", "markers", "geometry", "metrics")

    def __init__(self, name, duration_s, dropout, foot_drift_m, flags, outputs):
        self.name = name
        self.duration_s, self.dropout, self.foot_drift_m = duration_s, dropout, foot_drift_m
        self.flags, self.outputs = flags, outputs

    def prepare(self, seed):
        trial = make_trial(self.duration_s, seed, self.dropout, self.foot_drift_m)
        ops = {}
        for label, part in (("full", trial), ("quarter", trial.head(trial.n_frames // 4))):
            csv = WORK / f"{label}.csv"
            csv.write_text(part.text, encoding="utf-8", newline="\n")
            files = {name: WORK / f"{label}-{name}{suffix}" for name, (_, suffix) in self.outputs.items()}
            argv = ["analyze", "--markers", str(csv), *self.flags]
            for name, (flag, _) in self.outputs.items():
                argv += [flag, str(files[name])]
            ops[label] = Op(label, part.n_complete, _AnalyzeCheck(part), argv, files)
        return ops


class _AnalyzeCheck:
    """Checks one analyze output against the trial the generator made."""

    def __init__(self, trial: Trial):
        self.trial = trial

    @cached_property
    def inside(self) -> int:
        from saddlebos.geometry import BosBoundary, derive_bos_params, saddle_frame_from_ecops
        from saddlebos.markers import MarkerFrame, foot_poses
        import numpy as np

        trial = self.trial
        rows_of = {}
        for k, block in enumerate(trial.block_of):
            if trial.complete[k]:
                rows_of.setdefault(block, []).append(k)
        inside = 0
        for block, rows in rows_of.items():
            feet = trial.feet[block]
            # the CLI reads the markers back at 12 significant digits
            positions = {lb: tuple(float(f"{v:.12g}") for v in xyz) for lb, xyz in feet.items()}
            left, right = foot_poses(MarkerFrame(0.0, positions))
            frame = saddle_frame_from_ecops(right.ecop, left.ecop)
            boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
            codes = _even_odd_codes(frame, boundary, np.array([trial.com[k] for k in rows]))
            inside += int((codes >= 0).sum())
        return inside

    def __call__(self, outcome: Outcome) -> list[str]:
        problems = cli_problems(outcome, (0,))
        trial = self.trial
        dropped = trial.n_frames - trial.n_complete
        note = f"note: dropped {dropped} incomplete frames\n" if dropped else ""
        if outcome.stderr != note:
            problems.append(f"stderr {outcome.stderr[:200]!r}, expected {note!r}")
        try:
            report = json.loads(outcome.artifacts["report"])
        except (KeyError, ValueError):
            return problems + ["no readable report"]
        if report["n_samples"] != trial.n_complete:
            problems.append(f"n_samples {report['n_samples']} != {trial.n_complete} complete frames")
        problems += poi_problems(report["poi"], self.inside, trial.n_complete)
        saddle_com = outcome.artifacts.get("saddle_com")
        if saddle_com is not None and saddle_com.count(b"\n") != trial.n_complete + 1:
            problems.append("Saddle-space CoM file does not hold one row per complete frame")
        return problems


class Validate(Workload):
    name = "validate"
    layers = ("geometry", "oracle")

    def prepare(self, seed):
        # ``full`` is validate with every flag at its default; ``quarter``
        # drops the 20 random postures and keeps the 6 catalog stances.
        return {
            "full": Op("full", 26, _ValidateCheck("full", 26), ["validate"]),
            "quarter": Op("quarter", 6, _ValidateCheck("quarter", 6),
                          ["validate", "--random-postures", "0"]),
        }


class _ValidateCheck:
    """Checks validate's findings and keeps the verdict of the last output
    it read.  validate's input does not depend on the benchmark seed, so its
    output must match the digest recorded for it at every seed."""

    def __init__(self, label: str, n_postures: int):
        self.label, self.n_postures = label, n_postures
        self.verdict, self.failed_checks = "no readable output", 0

    def __call__(self, outcome: Outcome) -> list[str]:
        problems = cli_problems(outcome, (0, 1))
        try:
            data = json.loads(outcome.artifacts["stdout"])
            failed = [
                f"{entry['posture']} {name} {check}"
                for entry in data["findings"]
                for name, check in entry["checks"].items()
                if not check["ok"]
            ]
        except (KeyError, ValueError):
            return problems + ["no readable findings"]
        self.failed_checks = len(failed)
        self.verdict = f"exit {outcome.code}, {len(failed)} failed check(s): " + "; ".join(failed)
        if not data["n_postures"] == len(data["findings"]) == self.n_postures:
            problems.append(f"n_postures {data['n_postures']}, {len(data['findings'])} findings")
        if data["n_failed_checks"] != len(failed):
            problems.append(f"n_failed_checks {data['n_failed_checks']} != {len(failed)} in findings")
        if data["passed"] != (not failed) or outcome.code != (1 if failed else 0):
            problems.append("verdict does not match the findings")
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["validate"][self.label]
        if digests(outcome) != recorded:
            problems.append("findings differ from those recorded in digests.json")
        return problems


def validate_notes(workload: Workload, ops: dict[str, Op]) -> list[str]:
    """validate's verdict, read by the check of its full operation."""
    if not isinstance(workload, Validate):
        return []
    return ["validate verdict at its defaults: " + ops["full"].check.verdict]


class ScoreBatch(Workload):
    name = "score-batch"
    setup_module = "saddlebos"
    layers = ("geometry", "metrics")
    n_samples = 250_000
    n_random = 2

    def prepare(self, seed):
        import numpy as np
        from saddlebos import metrics as mt, trial_io as tio
        from saddlebos.geometry import task_array_from_saddle

        rng = np.random.default_rng(seed)
        times = np.arange(self.n_samples) / 100.0
        ops = {}
        for posture in tio.posture_catalog() + tio.random_postures(self.n_random, seed=seed):
            frame, boundary = posture.frame(), posture.boundary()
            f = rng.uniform(0.15, 0.35, size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
            saddle = np.column_stack((
                0.11 * np.sin(2 * np.pi * f[0] * times + phase[0]),
                (0.5 * frame.separation + 0.02) * np.sin(2 * np.pi * f[1] * times + phase[1])
                + 0.02 * np.sin(2 * np.pi * 3 * f[2] * times + phase[2]),
            )) + rng.normal(0.0, 0.004, size=(self.n_samples, 2))
            points = task_array_from_saddle(frame, saddle)
            recount = _EvenOddRecount(frame, boundary, points)
            for label, n in (("full", self.n_samples), ("quarter", self.n_samples // 4)):
                traj = mt.ComTrajectory(times[:n], points[:n])
                ops[f"{posture.name}/{label}"] = Op(
                    f"{posture.name}/{label}", n,
                    _ScoreCheck(recount, n),
                    call=_report_call(traj, boundary, frame),
                )
        return ops


def _report_call(traj, boundary, frame):
    def call():
        from saddlebos import metrics as mt
        from saddlebos.trial_io import report_to_dict

        report = mt.compute_report(traj, boundary, frame)
        return 0, {"report": json.dumps(report_to_dict(report)).encode()}

    return call


class _EvenOddRecount:
    """Even-odd codes of one trajectory, computed once and shared by the
    checks of its full run and of its first quarter."""

    def __init__(self, frame, boundary, points):
        self.frame, self.boundary, self.points = frame, boundary, points

    @cached_property
    def codes(self):
        return _even_odd_codes(self.frame, self.boundary, self.points)


class _ScoreCheck:
    def __init__(self, recount: _EvenOddRecount, n: int):
        self.recount, self.n = recount, n

    def __call__(self, outcome: Outcome) -> list[str]:
        problems = cli_problems(outcome, (0,))
        if "report" not in outcome.artifacts:
            return problems + ["no report"]
        report = json.loads(outcome.artifacts["report"])
        if report["n_samples"] != self.n:
            problems.append(f"n_samples {report['n_samples']} != {self.n}")
        inside = int((self.recount.codes[: self.n] >= 0).sum())
        return problems + poi_problems(report["poi"], inside, self.n)


WORKLOADS = {
    w.name: w
    for w in (
        Analyze(
            "analyze-long", duration_s=200.0, dropout=0.01, foot_drift_m=0.0,
            flags=[], outputs={"report": ("--out", ".json")},
        ),
        Analyze(
            "analyze-refit", duration_s=120.0, dropout=0.0, foot_drift_m=0.01,
            flags=["--refit-feet-every", "1"],
            outputs={
                "report": ("--out", ".json"),
                "polygon": ("--polygon-out", ".csv"),
                "saddle_com": ("--saddle-com-out", ".csv"),
            },
        ),
        Validate(),
        ScoreBatch(),
    )
}


# ---------------------------------------------------------------------------
# Verification shared by both modes


class Verifier:
    """Checks every outcome: its own check, identical bytes across the
    invocations of one operation, and the recorded digests."""

    def __init__(self, workload: Workload, seed: int):
        self.expected = {}
        if seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
            self.expected = recorded.get(workload.name, {})
            if not self.expected:
                raise SystemExit(f"no recorded digests for {workload.name} in {DIGESTS}")
        self.first: dict[str, dict[str, bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, op: Op, outcome: Outcome) -> None:
        problems = op.check(outcome)
        first = self.first.setdefault(op.label, outcome.artifacts)
        if outcome.artifacts != first:
            problems.append("output differs from the first invocation in this run")
        if self.expected and digests(outcome) != self.expected.get(op.label):
            problems.append("output digest differs from the one recorded in digests.json")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op.label}: " + "; ".join(problems))


def digests(outcome: Outcome) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outcome.artifacts.items())}


# ---------------------------------------------------------------------------
# Measurement


def closed_loop(seconds: float, min_cycles: int, cycle: Callable[[int], None]) -> int:
    """Run cycles back to back; stop before a cycle that would overrun
    ``seconds``, once at least ``min_cycles`` ran."""
    start = perf_counter()
    durations = []
    while True:
        t = perf_counter()
        cycle(len(durations))
        durations.append(perf_counter() - t)
        if len(durations) >= min_cycles and perf_counter() - start + median(durations) > seconds:
            return len(durations)


def measure_setup(module: str, repeats: int) -> list[tuple[float, float, float]]:
    """(wall, numpy import, full import) of fresh interpreters importing
    ``module``."""
    script = _SETUP_SCRIPT.format(module=module)
    runs = []
    for _ in range(repeats):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, check=True)
        wall = perf_counter() - start
        numpy_s, import_s = (float(v) for v in done.stdout.split())
        runs.append((wall, numpy_s, import_s))
    return runs


def library_peak_mb(ops: dict[str, Op], outcomes: list) -> float:
    """Largest tracemalloc peak of one untimed in-process call of each full
    operation: the memory the library allocates, numpy buffers included,
    without the inputs the benchmark holds."""
    peak = 0
    for op in full_ops(ops):
        tracemalloc.start()
        try:
            outcomes.append((op, call_in_process(op)))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def run_untraced(workload, ops, seconds, verify) -> tuple[dict, list]:
    """Closed loop of cycles; each cycle times one fresh-interpreter import,
    then every operation of the workload once, so the start-up time that
    growth_x subtracts is taken in the same stretch of machine time."""
    measure_setup(workload.setup_module, 1)  # fills the bytecode cache
    setup, growth, full_walls, quarter_walls, rss = [], [], [], [], []
    outcomes = []
    in_process = any(op.call for op in ops.values())

    def cycle(k):
        setup.append(measure_setup(workload.setup_module, 1)[0][0])
        spent = {"full": [0.0, 0], "quarter": [0.0, 0]}
        for op in ops.values():
            outcome = call_in_process(op) if in_process else spawn_cli(op)
            outcomes.append((op, outcome))
            # a CLI operation pays interpreter start-up; the in-process call does not
            spent[kind(op)][0] += outcome.wall - (0.0 if in_process else setup[-1])
            spent[kind(op)][1] += op.items
            (full_walls if kind(op) == "full" else quarter_walls).append(outcome.wall)
            rss.append(outcome.rss_mb)
        growth.append((spent["full"][0] / spent["full"][1]) / (spent["quarter"][0] / spent["quarter"][1]))

    cycles = closed_loop(seconds, MIN_CYCLES, cycle)
    peak_rss = library_peak_mb(ops, outcomes) if in_process else max(rss)
    for op, outcome in outcomes:
        verify(op, outcome)

    items = full_ops(ops)[0].items
    wall = median(full_walls)
    metrics = {
        "setup_s": median(setup),
        "wall_s": wall,
        "items_per_s": items / wall,
        "peak_rss_mb": peak_rss,
        "growth_x": median(growth),
    }
    summary = [
        f"cycles: {cycles}; operations: {len(full_walls)} full ({items} items each), "
        f"{len(quarter_walls)} on the first quarter",
        f"full wall s: median {wall:.4f}, min {min(full_walls):.4f}, max {max(full_walls):.4f}; "
        f"quarter wall s: median {median(quarter_walls):.4f}",
        "setup s: " + ", ".join(f"{s:.4f}" for s in setup),
        "growth_x per cycle: " + ", ".join(f"{g:.3f}" for g in growth),
    ] + validate_notes(workload, ops)
    return metrics, summary


def run_traced(workload, ops, seconds, verify) -> tuple[dict, list]:
    measure_setup(workload.setup_module, 1)  # fills the bytecode cache
    setup = measure_setup(workload.setup_module, SETUP_REPEATS)
    tracer = Tracer()
    untraced, traced = [], []
    outcomes = []
    fulls = full_ops(ops)

    def cycle(k):
        op = fulls[k % len(fulls)]
        outcome = call_in_process(op)
        untraced.append(outcome.wall)
        outcomes.append((op, outcome))
        with tracer.patched():
            outcome = call_in_process(op, tracer)
        traced.append(outcome.wall)
        outcomes.append((op, outcome))

    cycles = closed_loop(seconds, 1, cycle)
    for op, outcome in outcomes:
        verify(op, outcome)

    TRACES.mkdir(exist_ok=True)
    tracer.dump(TRACES / f"{workload.name}.json")
    layer, problems = layer_metrics(tracer.spans, traced, workload.layers)
    verify.problems += problems
    numpy_s = median(r[1] for r in setup)
    import_s = median(r[2] for r in setup)
    metrics = {
        "startup.import_s": import_s,
        "startup.numpy_import_s": numpy_s,
        "startup.interpreter_s": median(r[0] for r in setup) - import_s,
        **layer,
        "oracle.failed_checks": ops["full"].check.failed_checks if isinstance(workload, Validate) else 0,
        "trace.wall_s": median(traced),
        "trace.overhead_s": median(traced) - median(untraced),
    }
    summary = [
        f"traced operations: {cycles}, traced wall median {median(traced):.4f} s, "
        f"untraced {median(untraced):.4f} s",
        f"spans recorded: {len(tracer.spans)}, written to {TRACES.name}/{workload.name}.json",
    ] + validate_notes(workload, ops)
    return metrics, summary


def layer_metrics(spans: list[list], walls: list[float], layers: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Per-layer metrics, averaged over the traced operations, and the
    checks of the spans: they nest (``tracing.nesting_problems``), every
    operation records spans in each of ``layers``, and each operation's
    self times add up to its wall time.  The self times of one operation
    sum to its root span's duration by construction, so the last check
    catches time spent outside the root span, around the call."""
    n_ops = len(walls)
    selfs = self_times(spans)
    touched = [set() for _ in range(n_ops)]
    group_s = dict.fromkeys(GROUPS + (CLI_ROOT, HARNESS_ROOT), 0.0)
    op_sum = [0.0] * n_ops
    counts = {}
    is_metric_span = [False] * len(spans)
    scored_samples = transformed_in_metrics = 0

    def count(key, n=1):
        counts[key] = counts.get(key, 0) + n

    for i, (record, own) in enumerate(zip(spans, selfs)):
        group, parent = record[GROUP], record[PARENT]
        touched[record[OP]].add(group.split(".")[0])
        group_s[group] += own
        op_sum[record[OP]] += own
        count(record[NAME])
        count(group + ".items", record[ITEMS])
        in_metrics = parent >= 0 and (is_metric_span[parent] or spans[parent][GROUP].startswith("metrics."))
        is_metric_span[i] = in_metrics
        if group == "metrics.report" and not in_metrics:
            scored_samples += record[ITEMS]
        if group == "geometry.transform" and in_metrics:
            transformed_in_metrics += record[ITEMS]
        if group == "geometry.classify" and parent >= 0 and spans[parent][GROUP] == CLI_ROOT:
            count("cli.segments")

    problems = nesting_problems(spans)
    problems += [
        f"traced operation {k}: no span in layer(s) {', '.join(sorted(set(layers) - seen))}"
        for k, seen in enumerate(touched)
        if not seen >= set(layers)
    ]
    problems += [
        f"traced operation {k}: self times add up to {s:.6f} s, wall {w:.6f} s"
        for k, (s, w) in enumerate(zip(op_sum, walls))
        if abs(s - w) > TRACE_SLACK_S + TRACE_SLACK_SHARE * w
    ]
    parse_s = group_s["trial_io.parse"] / n_ops
    rows = counts.get("trial_io.parse.items", 0) / n_ops
    per_op = {
        f"{group}_s": group_s[group] / n_ops
        for group in GROUPS if f"{group}_s" in PER_LAYER
    }
    return {
        **per_op,
        "trial_io.parse_rows_per_s": rows / parse_s if parse_s else 0.0,
        "markers.stance_calls": counts.get("markers.foot_poses", 0) / n_ops,
        "geometry.boundaries_built": counts.get("geometry.derive_bos_params", 0) / n_ops,
        "geometry.points_transformed": counts.get("geometry.transform.items", 0) / n_ops,
        "geometry.classify_calls": counts.get("geometry.classify_saddle_points", 0) / n_ops,
        "geometry.points_classified": counts.get("geometry.classify.items", 0) / n_ops,
        "metrics.transforms_per_sample": transformed_in_metrics / scored_samples if scored_samples else 0.0,
        "oracle.edge_distance_calls": counts.get("oracle._distance_to_edges", 0) / n_ops,
        "cli.self_s": group_s[CLI_ROOT] / n_ops,
        "cli.segments": counts.get("cli.segments", 0) / n_ops,
    }, problems


# ---------------------------------------------------------------------------
# Entry point


def environment() -> dict:
    from importlib.metadata import version

    quota = "unknown"
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            text = Path(path).read_text().split()
        except OSError:
            continue
        if path.endswith("cpu.max"):
            quota = "unlimited" if text[0] == "max" else f"{int(text[0]) / int(text[1]):.2f} CPUs"
        else:
            period = int(Path(path).with_name("cpu.cfs_period_us").read_text())
            quota = "unlimited" if int(text[0]) < 0 else f"{int(text[0]) / period:.2f} CPUs"
        break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "saddlebos" / "cli.py").is_file():
        print(f"error: no saddlebos sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SADDLE_BOS_CONFIG", None)

    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        ops = workload.prepare(args.seed)
        verify = Verifier(workload, args.seed)
        run = run_traced if args.trace else run_untraced
        metrics, summary = run(workload, ops, args.seconds, verify)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print("environment: " + json.dumps(environment()))
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in summary:
        print("  " + line)
    print(f"  fail_pct: {100.0 * verify.failed / verify.attempted:.2f} "
          f"({verify.failed} of {verify.attempted} operations failed)")
    for problem in verify.problems[:20]:
        print("  FAILED " + problem)
    print(json.dumps({
        "correct": not verify.problems,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
