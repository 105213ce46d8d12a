"""Exception types raised by the saddlebos package."""

import copyreg


class SaddleBosError(Exception):
    """Base class for all saddlebos-specific errors.

    Every subclass survives pickling with its type, message and attributes.
    """

    def __reduce__(self):
        # rebuilt through __new__, not __init__: a subclass's __init__ formats
        # its message from arguments that ``args`` no longer holds
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class CoincidentFeetError(SaddleBosError):
    """The two foot anchor points are too close to define a stance frame."""


class DegenerateGeometryError(SaddleBosError):
    """Boundary parameters do not describe a well-formed support region."""


class StrictModeUnsupportedError(SaddleBosError):
    """The operation needs a closed boundary, which strict mode does not give."""


class MissingMarkerError(SaddleBosError):
    """A required marker label is absent from the frame."""

    def __init__(self, label: str):
        super().__init__(f"marker {label!r} is missing")
        self.label = label


class DegenerateFootError(SaddleBosError):
    """Foot markers are too close together to define the sole geometry."""


class EmptyTrajectoryError(SaddleBosError):
    """A trajectory with no samples cannot be analyzed."""


class DegenerateCovarianceError(SaddleBosError):
    """The sample covariance of the trajectory is rank deficient."""


class BadHeaderError(SaddleBosError):
    """Trial CSV header does not match the documented schema."""

    def __init__(self, missing, message=None):
        self.missing = tuple(missing)
        if message is None:
            if self.missing:
                message = "header is missing columns: " + ", ".join(self.missing)
            else:
                message = "header does not match the expected column order"
        super().__init__(message)


class BadRowError(SaddleBosError):
    """A trial CSV data row could not be parsed."""

    def __init__(self, row: int, field: str, reason: str = "unparseable value"):
        super().__init__(f"row {row}, field {field!r}: {reason}")
        self.row = row
        self.field = field


class NonMonotonicTimeError(SaddleBosError):
    """Frame timestamps must be strictly increasing."""

    def __init__(self, row: int):
        super().__init__(f"row {row}: time is not strictly increasing")
        self.row = row


class DataQualityError(SaddleBosError):
    """Too large a share of frames is incomplete for a trustworthy analysis."""
