"""Exception types shared across the package."""


class PatchFitError(Exception):
    """Base class for all patchfit-specific failures."""


class RankDeficiencyError(PatchFitError):
    """Control-point system is singular; raised for unregularized solves."""


class DegenerateGeometryError(PatchFitError):
    """Point cloud has no usable 2D structure (collinear or near-collinear)."""


class EmptySelectionError(PatchFitError):
    """No boundary voxels found, or a selection produced no points."""


class ProjectionError(PatchFitError):
    """Foot-point search hit a non-finite objective or derivatives."""


class FileFormatError(PatchFitError):
    """A data file failed to parse; message includes location context."""


class PerimeterTruncationWarning(UserWarning):
    """Region growth touched the grid perimeter; selection may be truncated."""
