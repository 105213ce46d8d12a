"""Scaling guards that need no clock: the ``tracemalloc`` peak of a call on
four times the input stays within 4.5 times its peak on the input, which a
quadratic intermediate, or a full-length array kept per block, would break.
Where a call works in fixed-size blocks, its peak must not grow at all."""

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
    random_postures,
    sample_boundary,
    score_saddle_samples,
)
from saddlebos import oracle
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


def test_containment_agreement_memory_does_not_grow_with_the_points():
    # the points are drawn and compared in blocks of oracle._AGREEMENT_BLOCK
    boundary = random_postures(1, seed=3)[0].boundary()
    oracle.check_containment_agreement(boundary, n_points=100)
    at_n = peak_bytes(lambda: oracle.check_containment_agreement(boundary, n_points=20_000))
    at_4n = peak_bytes(lambda: oracle.check_containment_agreement(boundary, n_points=80_000))
    assert at_4n <= 1.25 * at_n, f"peak {at_n} bytes at 20 000 points, {at_4n} at 80 000"


def test_distance_to_edges_point_by_edge_blocks_stay_small():
    polygon = sample_boundary(random_postures(1, seed=3)[0].boundary(), 3600)
    lo, hi = polygon.bounding_box()
    pts = np.random.default_rng(2).uniform((lo.x, lo.y), (hi.x, hi.y), (2_000, 2))
    peak = peak_bytes(lambda: oracle._distance_to_edges(polygon.vertices, pts))
    assert peak < 8e6, f"peak {peak} bytes on 2 000 points against a 3600-gon"
