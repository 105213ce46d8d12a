"""Scaling guards that need no clock: the ``tracemalloc`` peak of a call on
four times the input stays within 4.5 times its peak on the input, which a
quadratic intermediate, or a full-length array kept per block, would break."""

import math
import tracemalloc

import numpy as np
import pytest

from saddlebos import (
    ComTrajectory,
    Polygon2,
    classify_saddle_points,
    compute_report,
    export_polygon,
    score_saddle_samples,
)
from saddlebos.geometry import saddle_array_from_task

from helpers import parallel_posture

N = 50_000


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_linear_memory(make_call, n=N):
    make_call(100)()  # lazy imports and first-call set-up are not the call's
    small, large = make_call(n), make_call(4 * n)
    at_n, at_4n = peak_bytes(small), peak_bytes(large)
    assert at_4n <= 4.5 * at_n, f"peak {at_n} bytes at n, {at_4n} at 4n"


def trajectory(n):
    points = np.random.default_rng(n).normal(0.0, 0.1, (n, 2))
    return ComTrajectory(0.01 * np.arange(n), points)


@pytest.mark.parametrize("about", ["origin", "mean"])
def test_compute_report_memory_grows_linearly(about):
    posture = parallel_posture()
    frame, boundary = posture.frame(), posture.boundary()

    def make_call(n):
        traj = trajectory(n)
        return lambda: compute_report(traj, boundary, frame, about=about)

    assert_linear_memory(make_call)


@pytest.mark.parametrize("about", ["origin", "mean"])
def test_score_saddle_samples_memory_grows_linearly(about):
    posture = parallel_posture()
    frame, boundary = posture.frame(), posture.boundary()

    def make_call(n):
        traj = trajectory(n)
        saddle = saddle_array_from_task(frame, traj.points)
        codes = classify_saddle_points(boundary, saddle)
        return lambda: score_saddle_samples(traj, saddle, codes, about=about)

    assert_linear_memory(make_call)


def test_json_polygon_export_memory_grows_linearly(tmp_path):
    def make_call(n):
        angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        polygon = Polygon2(np.column_stack((np.cos(angles), np.sin(angles))))
        return lambda: export_polygon(polygon, tmp_path / f"{n}.json")

    assert_linear_memory(make_call, n=20_000)
