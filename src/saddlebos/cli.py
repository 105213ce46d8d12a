"""Command-line front end.

Four subcommands compose the library into end-to-end workflows:

* ``bos``      -- boundary polygon for one stance given inline or by file
* ``analyze``  -- stability metrics for a marker trial
* ``sweep``    -- polygons (and optionally metrics) for the whole catalog
* ``validate`` -- geometric self-checks, reported as JSON findings

Angles are degrees at this boundary and radians inside the library.  All
outputs use fixed float formatting so identical inputs yield byte-identical
files.  Exit codes: 0 success, 1 validation failure, 2 input or geometry
error, 3 data-quality failure.

``validate`` checks its postures in up to as many processes as it has CPUs,
forked from this one; its output does not depend on that number.

The environment variable ``SADDLE_BOS_CONFIG`` may point to a JSON file with
default settings; explicit flags win over it.  Each setting is resolved once,
in :func:`main`, and the library validates the values it is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NoReturn

from . import markers as mk
from . import metrics as mt
from . import trial_io as tio
from .errors import DataQualityError, SaddleBosError
from .geometry import (
    BosBoundary,
    BosParams,
    BoundaryMode,
    classify_saddle_points,
    classify_task_segments,
    derive_bos_params,
    saddle_array_from_task,
    saddle_frame_from_ecops,
    sample_boundary,
    polygon_to_task_space,
)

CONFIG_ENV_VAR = "SADDLE_BOS_CONFIG"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_DATA_QUALITY = 3

MAX_INCOMPLETE_FRACTION = 0.10


@dataclass
class RunConfig:
    """Tunable settings shared by the subcommands."""

    ecop_fraction: float = 0.5
    mode: str = "continuous"
    samples: int = 360
    bins: int = 360
    k_sigma: float = 2.0
    up_axis: str = "z"
    contains_tol: float = 1e-9


#: JSON value types a config file may give for each setting type.  A JSON
#: boolean is never accepted, although Python counts it as an int.
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _load_config() -> RunConfig:
    """The defaults, overridden by the JSON file ``SADDLE_BOS_CONFIG`` names."""
    config = RunConfig()
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return config
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
    for key, value in data.items():
        kind = type(getattr(config, key))
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
            raise ValueError(f"config key {key!r} in {path} must be a {kind.__name__}, got {value!r}")
        try:
            setattr(config, key, kind(value))
        except OverflowError:
            raise ValueError(f"config key {key!r} in {path} is too large for a float") from None
    return config


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _frame_dict(frame) -> dict:
    return {
        "origin": [tio.round12(frame.origin.x), tio.round12(frame.origin.y)],
        "rotation_rad": tio.round12(frame.rotation),
        "separation": tio.round12(frame.separation),
    }


def _params_dict(params: BosParams) -> dict:
    return {f.name: tio.round12(getattr(params, f.name)) for f in fields(BosParams)}


# ---------------------------------------------------------------------------
# bos


def _single_posture(path) -> tio.PostureSpec:
    postures = tio.load_postures(path)
    if len(postures) != 1:
        raise ValueError("--posture-file must hold exactly one posture for this command")
    return postures[0]


def _posture_from_args(args) -> tio.PostureSpec:
    if args.posture_file:
        return _single_posture(args.posture_file)
    inline = (args.d, args.theta_lf, args.theta_rf)
    if any(v is None for v in inline):
        raise ValueError(
            "give a full inline posture (--d, --theta-lf, --theta-rf) or --posture-file"
        )
    return tio.posture_from_parameters(
        "inline",
        args.d,
        math.radians(args.theta_lf),
        math.radians(args.theta_rf),
        args.foot_length,
        args.foot_width,
    )


def cmd_bos(args, config: RunConfig) -> int:
    posture = _posture_from_args(args)
    frame = posture.frame()
    params = derive_bos_params(frame, posture.left, posture.right)
    mode = BoundaryMode(config.mode)
    boundary = BosBoundary(params, frame, mode)
    n = config.samples
    polygon = polygon_to_task_space(frame, sample_boundary(boundary, n))
    tio.export_polygon(polygon, args.out)
    _emit_json(
        {
            "posture": posture.name,
            "mode": mode.value,
            "samples": n,
            "frame": _frame_dict(frame),
            "shape": _params_dict(params),
            "polygon_file": str(args.out),
        },
        None,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _load_trial(args):
    trial = tio.parse_trial_csv(args.markers)
    n_total = len(trial)
    n_incomplete = n_total - int(trial.complete.sum())
    if n_total == 0:
        raise DataQualityError("trial holds no frames")
    if n_incomplete / n_total > MAX_INCOMPLETE_FRACTION:
        raise DataQualityError(
            f"{n_incomplete} of {n_total} frames are incomplete "
            f"(limit is {MAX_INCOMPLETE_FRACTION:.0%})"
        )
    return (trial.select(trial.complete) if n_incomplete else trial), n_incomplete


def cmd_analyze(args, config: RunConfig) -> int:
    if args.refit_feet_every < 0:
        raise ValueError(f"--refit-feet-every must be at least 0, got {args.refit_feet_every}")
    if args.refit_feet_every and args.posture_file:
        raise ValueError("--refit-feet-every cannot be combined with --posture-file")
    complete, n_incomplete = _load_trial(args)
    traj = mk.com_trajectory(complete, config.up_axis)
    posture = _single_posture(args.posture_file) if args.posture_file else None
    # contiguous segments, each scored against its own stance; static feet and
    # a fixed posture are one segment of every complete frame
    step = args.refit_feet_every or len(complete)
    anchor = "mt-mid" if args.d_from_mt_mid else "ecop"

    # the first stance (the only one for static feet or a fixed posture) is
    # built as objects, which also give the polygon; the stances of several
    # segments come from one array pass over the trial
    if posture is None:
        left, right = mk.foot_poses_at(complete, 0, config.ecop_fraction, config.up_axis, anchor)
    else:
        left, right = posture.left, posture.right
    frame = saddle_frame_from_ecops(right.ecop, left.ecop)
    boundary = BosBoundary(derive_bos_params(frame, left, right), frame)
    if step < len(complete):
        table = mk.stance_table(
            complete, range(0, len(complete), step), config.ecop_fraction, config.up_axis, anchor
        )
        saddle_pts, codes = classify_task_segments(table, step, traj.points, config.contains_tol)
    else:
        saddle_pts = saddle_array_from_task(frame, traj.points)
        codes = classify_saddle_points(boundary, saddle_pts, config.contains_tol)
    report = mt.score_saddle_samples(traj, saddle_pts, codes, config.bins, config.k_sigma)

    if args.polygon_out:
        polygon = polygon_to_task_space(frame, sample_boundary(boundary, config.samples))
        tio.export_polygon(polygon, args.polygon_out)
    if args.out:
        tio.export_report(report, args.out)
    else:
        _emit_json(tio.report_to_dict(report), None)
    if args.saddle_com_out:
        Path(args.saddle_com_out).write_text(
            tio.xy_csv_text(saddle_pts), encoding="utf-8", newline="\n"
        )
    if n_incomplete:
        print(f"note: dropped {n_incomplete} incomplete frames", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args, config: RunConfig) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = None
    if args.markers:
        complete, _ = _load_trial(args)
        left, right = mk.foot_poses_at(complete, 0, config.ecop_fraction, config.up_axis)
        trial_frame = saddle_frame_from_ecops(right.ecop, left.ecop)
        traj = mk.com_trajectory(complete, config.up_axis)

    summary = {"postures": []}
    for posture in tio.posture_catalog():
        boundary = posture.boundary()
        frame, params = boundary.frame, boundary.params
        polygon_file = out_dir / f"bos_{posture.name}.csv"
        entry = {
            "name": posture.name,
            "frame": _frame_dict(frame),
            "shape": _params_dict(params),
            "polygon_file": polygon_file.name,
        }
        # scored before the polygon is written, so a rejected setting writes nothing
        if traj is not None:
            report = mt.compute_report(
                traj, boundary, trial_frame, config.bins, config.k_sigma, config.contains_tol
            )
            entry["metrics"] = tio.report_to_dict(report)
        tio.export_polygon(
            polygon_to_task_space(frame, sample_boundary(boundary, config.samples)), polygon_file
        )
        summary["postures"].append(entry)

    _emit_json(summary, out_dir / "summary.json")
    print(f"wrote {len(summary['postures'])} postures to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _failed_check(exc: Exception) -> dict:
    return {"ok": False, "error": type(exc).__name__, "detail": str(exc)}


def _check_posture(args, i: int, posture: tio.PostureSpec) -> dict:
    """The findings for posture ``i``, whose random checks are seeded with
    ``args.seed + i``."""
    from . import oracle  # deferred: keeps analyze/bos startup light

    entry = {"posture": posture.name, "checks": {}}
    try:
        boundary = posture.boundary()
    except SaddleBosError as exc:
        entry["checks"]["construct"] = _failed_check(exc)
        return entry

    polygon = sample_boundary(boundary, args.rays)
    star = oracle.check_star_shape(polygon)
    entry["checks"]["star_shape"] = {
        "ok": star.ok,
        "n_rays": star.n_rays,
        "violations": [
            tio.round12(v) for v in star.violations[:8]
        ],
    }
    convex = oracle.check_convexity(polygon)
    entry["checks"]["convexity"] = {"ok": bool(convex)}
    # the agreement polygon stays fine-grained regardless of --rays: a
    # coarse polygon's chord error would swamp the disagreement bound
    agreement = oracle.check_containment_agreement(
        boundary,
        n_points=args.points,
        seed=args.seed + i,
    )
    entry["checks"]["containment_agreement"] = {
        "ok": agreement.ok,
        "agreement_pct": round(agreement.agreement_pct, 4),
        "max_disagreement_distance": tio.round12(agreement.max_disagreement_distance),
    }
    equivariance = oracle.check_equivariance(
        posture.left, posture.right, n_motions=args.motions, seed=args.seed + i
    )
    entry["checks"]["equivariance"] = (
        _failed_check(equivariance.error)
        if equivariance.error is not None
        else {"ok": equivariance.ok, "max_deviation": tio.round12(equivariance.max_deviation)}
    )
    return entry


def _check_block(args, postures: list, block: range) -> list[dict]:
    return [_check_posture(args, i, postures[i]) for i in block]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _check_block_in_child(args, postures: list, block: range, write_fd: int) -> NoReturn:
    """Body of a forked child: check ``block`` and send its findings, or the
    exception it hit, pickled through ``write_fd``.  It leaves by
    ``os._exit`` whatever happens, so it never flushes the parent's buffers,
    prints a traceback or runs the parent's cleanup; a result that cannot be
    pickled is not sent."""
    try:
        try:
            result = _check_block(args, postures, block)
        except Exception as exc:
            result = exc
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _check_postures(args, postures: list) -> list[dict]:
    """Every posture's findings, in posture order, checked in up to one
    process per usable CPU.

    The postures are cut into contiguous blocks.  A forked child checks each
    later block while this process checks the first; then the children's
    results are read in order.  So the first error in posture order is the
    one raised, as in one loop, and the findings do not depend on the number
    of blocks.  A child that sends no readable result has its block checked
    here instead.  Every child is reaped, and killed first if this process
    stops before it has read the child's result.
    """
    from . import oracle  # noqa: F401  imported before the fork, so no child imports it again

    n_blocks = min(_usable_cpus(), len(postures)) if hasattr(os, "fork") else 1
    cuts = [len(postures) * k // n_blocks for k in range(n_blocks + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    children = []  # (pid, read end of its pipe, block) of each unreaped child
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _check_block_in_child(args, postures, block, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), block))
        findings = _check_block(args, postures, blocks[0])
        while children:
            pid, pipe, block = children[0]
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            del children[0]
            try:
                result = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):  # the child sent no whole result
                result = _check_block(args, postures, block)
            if isinstance(result, Exception):
                raise result
            findings += result
        return findings
    finally:
        if children:  # this process stopped before it read every result
            import signal

            for pid, pipe, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def cmd_validate(args, config: RunConfig) -> int:
    postures = tio.posture_catalog()
    postures += tio.random_postures(args.random_postures, seed=args.seed)
    if args.posture_file:
        postures += tio.load_postures(args.posture_file)

    findings = _check_postures(args, postures)
    n_failed = sum(
        1 for entry in findings for check in entry["checks"].values() if not check["ok"]
    )
    _emit_json(
        {
            "seed": args.seed,
            "n_postures": len(postures),
            "n_failed_checks": n_failed,
            "passed": n_failed == 0,
            "findings": findings,
        },
        None,
    )
    return EXIT_OK if n_failed == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlebos",
        description="Posture-adaptive base-of-support tracking and stability metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bos = sub.add_parser("bos", help="boundary polygon for one stance")
    bos.add_argument("--d", type=float, help="anchor separation in meters")
    bos.add_argument("--theta-lf", type=float, help="left foot angle in degrees")
    bos.add_argument("--theta-rf", type=float, help="right foot angle in degrees")
    bos.add_argument("--foot-length", type=float, default=tio.DEFAULT_FOOT_LENGTH)
    bos.add_argument("--foot-width", type=float, default=tio.DEFAULT_FOOT_WIDTH)
    bos.add_argument("--posture-file", help="JSON stance definition instead of inline flags")
    bos.add_argument("--mode", choices=["continuous", "strict"], default=None)
    bos.add_argument("--samples", type=int, default=None, help="polygon vertex count")
    bos.add_argument("--out", required=True, help="polygon output path (.csv or .json)")
    bos.set_defaults(func=cmd_bos)

    analyze = sub.add_parser("analyze", help="stability metrics for a marker trial")
    analyze.add_argument("--markers", required=True, help="trial CSV path")
    analyze.add_argument("--posture-file", help="fixed stance instead of feet from markers")
    analyze.add_argument("--ecop-fraction", dest="ecop_fraction", type=float, default=None)
    analyze.add_argument("--up-axis", dest="up_axis", choices=["x", "y", "z"], default=None)
    analyze.add_argument("--bins", type=int, default=None, help="outer-border sector count")
    analyze.add_argument("--k-sigma", dest="k_sigma", type=float, default=None)
    analyze.add_argument("--samples", type=int, default=None)
    analyze.add_argument(
        "--refit-feet-every",
        type=int,
        default=0,
        metavar="N",
        help="re-derive the stance every N frames instead of once (0 = static feet)",
    )
    analyze.add_argument(
        "--d-from-mt-mid",
        action="store_true",
        help="anchor the stance on the metatarsal midpoints instead of the eCoPs",
    )
    analyze.add_argument("--out", help="report path (default: stdout)")
    analyze.add_argument("--polygon-out", help="also write the task-space boundary polygon")
    analyze.add_argument("--saddle-com-out", help="also write Saddle-space CoM samples as CSV")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="polygons and metrics for the posture catalog")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--markers", help="optional trial CSV to score against each posture")
    sweep.add_argument("--ecop-fraction", dest="ecop_fraction", type=float, default=None)
    sweep.add_argument("--up-axis", dest="up_axis", choices=["x", "y", "z"], default=None)
    sweep.add_argument("--samples", type=int, default=None)
    sweep.add_argument("--bins", type=int, default=None)
    sweep.add_argument("--k-sigma", dest="k_sigma", type=float, default=None)
    sweep.set_defaults(func=cmd_sweep)

    validate = sub.add_parser("validate", help="run the geometric self-checks")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--random-postures", dest="random_postures", type=int, default=20)
    validate.add_argument("--posture-file", help="extra stances to check")
    validate.add_argument("--rays", type=int, default=720, help="star-shape ray count")
    validate.add_argument("--points", type=int, default=20_000, help="agreement sample count")
    validate.add_argument("--motions", type=int, default=3, help="rigid motions per posture")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        flags = {
            f.name: getattr(args, f.name)
            for f in fields(RunConfig)
            if getattr(args, f.name, None) is not None
        }
        return args.func(args, replace(_load_config(), **flags))
    except DataQualityError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA_QUALITY
    except (SaddleBosError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
