"""Posture-adaptive base-of-support tracking for bipedal stance analysis.

The package builds a stance-aligned frame (the Saddle frame) from two
per-foot anchor points, generates the posture-deformed base-of-support
boundary, and scores centre-of-mass trajectories against it with
stability-inclusion percentages (PoI and PoI360).
"""

from .errors import (
    BadHeaderError,
    BadRowError,
    CoincidentFeetError,
    DataQualityError,
    DegenerateCovarianceError,
    DegenerateFootError,
    DegenerateGeometryError,
    EmptyTrajectoryError,
    MissingMarkerError,
    NonMonotonicTimeError,
    SaddleBosError,
    StrictModeUnsupportedError,
)
from .geometry import (
    BosBoundary,
    BosParams,
    BoundaryMode,
    Containment,
    FootPose,
    Point2,
    Polygon2,
    SaddleFrame,
    Side,
    bos_polygon_task_space,
    boundary_point,
    classify_saddle_points,
    classify_saddle_polar,
    contains,
    derive_bos_params,
    polygon_to_task_space,
    saddle_frame_from_ecops,
    saddle_polar,
    sample_boundary,
    to_saddle_space,
    to_task_space,
    transform_posture,
)
from .markers import (
    FootGeometry,
    MarkerFrame,
    MarkerTrial,
    com_from_pelvis,
    com_trajectory,
    foot_geometry,
    foot_poses,
    foot_poses_at,
)
from .metrics import (
    ComTrajectory,
    CovarianceEllipse,
    MetricsReport,
    compute_report,
    covariance_ellipse,
    outer_border,
    poi,
    poi360,
    score_saddle_samples,
)
from .trial_io import (
    PostureSpec,
    export_polygon,
    export_report,
    load_postures,
    parse_trial_csv,
    posture_catalog,
    posture_from_parameters,
    random_postures,
    read_polygon,
    read_report,
)

__version__ = "0.1.0"
