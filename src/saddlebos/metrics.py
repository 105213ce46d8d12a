"""Stability-inclusion statistics for a centre-of-mass trajectory.

PoI is the percentage of trajectory samples lying inside the base-of-support
boundary.  PoI360 restricts that count to the trajectory's angular outer
border: the farthest sample reached in each of a set of equal angular
sectors about the stance origin, so it measures whether the explored range
of motion stays inside the boundary rather than how much time was spent
inside.  A two-sigma covariance ellipse summarizes the sample cloud.

Samples on the boundary (within tolerance) count as inside for both
percentages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError, EmptyTrajectoryError
from .geometry import (
    DEFAULT_CONTAINS_TOL,
    TWO_PI,
    BosBoundary,
    Point2,
    SaddleFrame,
    classify_saddle_points,
    classify_saddle_polar,
    saddle_array_from_task,
    saddle_polar,
)

#: Most angular sectors an outer border may use; its per-sector arrays are O(n_bins).
MAX_BINS = 1_000_000

# samples per block of the scoring pass: a block's temporaries stay in cache
_BLOCK = 32_768


@dataclass(frozen=True)
class ComTrajectory:
    """Time-stamped task-space centre-of-mass samples.

    ``times`` is (n,), strictly increasing; ``points`` is (n, 2).
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        if len(times) == 0:
            raise EmptyTrajectoryError("a trajectory needs at least one sample")
        points = np.asarray(self.points, dtype=float)
        if points.shape != (len(times), 2):
            raise ValueError("points must be an (n, 2) array matching times")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(points))):
            raise ValueError("trajectory samples must be finite")
        if len(times) > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        times = times.copy()
        points = points.copy()
        times.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class CovarianceEllipse:
    """k-sigma ellipse of a sample cloud: centre, (major, minor) semi-axes,
    and the major-axis angle in [0, pi)."""

    center: Point2
    semi_axes: tuple[float, float]
    orientation: float


@dataclass(frozen=True)
class MetricsReport:
    poi: float
    poi360: float
    n_samples: int
    n_outer: int
    covariance_ellipse: CovarianceEllipse


def _inside_pct(codes: np.ndarray) -> float:
    """Percentage of containment codes that are inside or on the boundary."""
    return 100.0 * int(np.count_nonzero(codes >= 0)) / len(codes)


def poi(
    traj: ComTrajectory,
    boundary: BosBoundary,
    frame: SaddleFrame,
    tol: float = DEFAULT_CONTAINS_TOL,
) -> float:
    """Percentage of trajectory samples inside the boundary."""
    pts = saddle_array_from_task(frame, traj.points)
    return _inside_pct(classify_saddle_points(boundary, pts, tol))


def _check_about(about: str) -> None:
    if about not in ("origin", "mean"):
        raise ValueError(f"about must be 'origin' or 'mean', got {about!r}")


def _polar_about(pts: np.ndarray, about: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`saddle_polar` of (n, 2) Saddle-space samples about the outer
    border's binning centre: the stance origin or the mean sample (``about``)."""
    _check_about(about)
    return saddle_polar(pts - _column_sums(pts) / len(pts) if about == "mean" else pts)


def _column_sums(pts: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Column sums of (n, 2) ``pts``, added one row after another onto
    ``start`` when it is given: the order in which ``pts.mean(axis=0)`` adds,
    so ``_column_sums(pts) / n`` is that mean bit for bit, and a sum carried
    from block to block is the whole array's."""
    if start is not None:
        pts = np.concatenate((start[None], pts))
    return np.cumsum(pts, axis=0)[-1]


def _blocks(n: int):
    """Slices of consecutive ``_BLOCK``-sample blocks that cover ``range(n)``."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _outer_border_indices(radii: np.ndarray, phis: np.ndarray, n_bins: int) -> np.ndarray:
    """Index of the farthest sample per nonempty angular sector, ordered by
    sector, from the samples' radii and angles in [-pi, pi] about the binning
    centre: the binning every outer-border consumer shares.  Of equally far
    samples in a sector the latest (largest index) is kept.  Linear time, no
    sort: a scatter-max pass, block by block, bins the samples and finds each
    sector's peak radius, a second pass the last sample at that peak.  The
    border of the borders of consecutive runs, in order, is that of all."""
    if n_bins < 8:
        raise ValueError(f"n_bins must be at least 8, got {n_bins}")
    if n_bins > MAX_BINS:
        raise ValueError(f"n_bins must be at most {MAX_BINS}, got {n_bins}")
    peak = np.full(n_bins, -np.inf)
    bins = np.empty(len(radii), dtype=np.intp)
    for block in _blocks(len(radii)):
        angles = phis[block]
        # np.mod(phis, TWO_PI) bit for bit, apart from -0.0, which is bin 0 either way
        angles = np.where(angles < 0.0, angles + TWO_PI, angles)
        np.minimum((angles / (TWO_PI / n_bins)).astype(int), n_bins - 1, out=bins[block])
        np.maximum.at(peak, bins[block], radii[block])
    at_peak = np.flatnonzero(radii == peak[bins])
    last = np.full(n_bins, -1, dtype=np.intp)
    np.maximum.at(last, bins[at_peak], at_peak)
    return last[last >= 0]


def outer_border(
    traj: ComTrajectory,
    frame: SaddleFrame,
    n_bins: int = 360,
    about: str = "origin",
) -> np.ndarray:
    """Saddle-space outer-border samples of the trajectory.

    Samples are binned by angle into ``n_bins`` equal sectors and the
    maximum-radius sample of each nonempty sector is kept, the latest of
    equally far ones: the farthest point the trajectory reached in every
    direction.  ``about`` selects the reference point for binning, the
    stance origin (default) or the mean sample position.
    """
    pts = saddle_array_from_task(frame, traj.points)
    return pts[_outer_border_indices(*_polar_about(pts, about), n_bins)]


def poi360(
    traj: ComTrajectory,
    boundary: BosBoundary,
    frame: SaddleFrame,
    n_bins: int = 360,
    tol: float = DEFAULT_CONTAINS_TOL,
    about: str = "origin",
) -> float:
    """PoI restricted to the trajectory's angular outer border."""
    border = outer_border(traj, frame, n_bins, about)
    return _inside_pct(classify_saddle_points(boundary, border, tol))


def covariance_ellipse(traj: ComTrajectory, k_sigma: float = 2.0) -> CovarianceEllipse:
    """k-sigma ellipse of the sample cloud via eigendecomposition of the 2x2
    sample covariance (n-1 normalization)."""
    if not (math.isfinite(k_sigma) and k_sigma > 0.0):
        raise ValueError(f"k_sigma must be finite and positive, got {k_sigma}")
    if len(traj) < 3:
        raise ValueError("covariance ellipse needs at least 3 samples")
    pts = traj.points
    center = _column_sums(pts) / len(pts)  # pts.mean(axis=0) bit for bit, in half its time
    # np.cov(pts.T, ddof=1) bit for bit, without computing the mean again
    dev = pts - center
    cov = np.dot(dev.T, dev) * np.true_divide(1, len(pts) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] < 1e-12:
        raise DegenerateCovarianceError(
            f"smallest covariance eigenvalue {eigvals[0]:.3e} is below 1e-12"
        )
    major = eigvecs[:, 1]
    orientation = math.atan2(major[1], major[0]) % math.pi
    return CovarianceEllipse(
        center=Point2(*center),
        semi_axes=(k_sigma * math.sqrt(eigvals[1]), k_sigma * math.sqrt(eigvals[0])),
        orientation=orientation,
    )


def score_saddle_samples(
    traj: ComTrajectory,
    saddle_pts: np.ndarray,
    codes: np.ndarray,
    n_bins: int = 360,
    k_sigma: float = 2.0,
    about: str = "origin",
) -> MetricsReport:
    """Full metrics bundle from the (n, 2) Saddle-space samples of a
    trajectory and their (n,) containment codes, as from
    :func:`classify_saddle_points`; each sample may be in its own stance's
    frame."""
    if np.shape(saddle_pts) != (len(traj), 2) or np.shape(codes) != (len(traj),):
        raise ValueError("need one Saddle-space point and one code per trajectory sample")
    saddle_pts = np.asarray(saddle_pts, dtype=float)
    if not np.all(np.isfinite(saddle_pts)):
        raise ValueError("Saddle-space points must be finite")
    border = _outer_border_indices(*_polar_about(saddle_pts, about), n_bins)
    return _score(traj, codes, border, k_sigma)


def compute_report(
    traj: ComTrajectory,
    boundary: BosBoundary,
    frame: SaddleFrame,
    n_bins: int = 360,
    k_sigma: float = 2.0,
    tol: float = DEFAULT_CONTAINS_TOL,
    about: str = "origin",
) -> MetricsReport:
    """Full metrics bundle for one trajectory against one boundary: the
    :func:`score_saddle_samples` of its Saddle-space samples and their codes.
    The samples are transformed, put in polar form and classified one block
    of ``_BLOCK`` at a time, so no block's temporaries leave the cache and
    only the codes are kept at full length.  The polar pass about the stance
    origin serves the classifier and, for ``about="origin"``, the outer
    border; ``about="mean"`` transforms each block again about the mean.
    Each block of more than ``n_bins`` samples keeps only its own border,
    and the border of what the blocks keep is the whole trajectory's: a
    sector's peak is the largest of its blocks' peaks, and the latest
    sample at it the latest of the blocks' latest."""
    n = len(traj)
    codes = np.empty(n, dtype=np.int8)
    kept = []  # per block: global indices, radii and angles of the samples it keeps

    def keep_border(block, radii, phis):
        if len(radii) <= n_bins:  # no more samples than sectors: nothing to drop
            kept.append((np.arange(block.start, block.start + len(radii)), radii, phis))
        else:
            at = _outer_border_indices(radii, phis, n_bins)
            kept.append((block.start + at, radii[at], phis[at]))

    sums = None
    for block in _blocks(n):
        pts = saddle_array_from_task(frame, traj.points[block])
        radii, phis = saddle_polar(pts)
        codes[block] = classify_saddle_polar(boundary, radii, phis, tol)
        if about == "origin":
            keep_border(block, radii, phis)
        elif about == "mean":
            sums = _column_sums(pts, sums)
    if about != "origin":  # the border bins about another centre
        _check_about(about)
        center = sums / n
        for block in _blocks(n):
            pts = saddle_array_from_task(frame, traj.points[block]) - center
            radii, phis = saddle_polar(pts)
            keep_border(block, radii, phis)
    del pts, radii, phis
    index, radii, phis = (np.concatenate(parts) for parts in zip(*kept))
    del kept[:]
    border = index[_outer_border_indices(radii, phis, n_bins)]
    del index, radii, phis  # not alive while the ellipse is built
    return _score(traj, codes, border, k_sigma)


def _score(
    traj: ComTrajectory, codes: np.ndarray, border: np.ndarray, k_sigma: float
) -> MetricsReport:
    """The report of a trajectory from its samples' containment codes and its
    outer border's indices: the one scorer behind :func:`compute_report` and
    :func:`score_saddle_samples`."""
    return MetricsReport(
        poi=_inside_pct(codes),
        poi360=_inside_pct(codes[border]),
        n_samples=len(traj),
        n_outer=len(border),
        covariance_ellipse=covariance_ellipse(traj, k_sigma),
    )
