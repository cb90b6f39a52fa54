"""Exception types shared across the package, and the argument checks:
``_integer`` is the one check of every integer argument (a count, an order,
a size or a seed) of a public function or settings class, ``_integers``
applies it to a tuple, and ``_nonnegative_real`` checks a real-valued
setting. The README's Library section states the rule and its messages.
"""

from __future__ import annotations

import math
import numbers


def _integer(name: str, value, low: int | None, high: int | None = None) -> int:
    """``value`` as an int, checked to be an integer of at least ``low`` and, given
    ``high``, at most ``high``; a ``low`` of None sets no lower bound."""
    if type(value) is not int:  # skips the ~0.5 us abstract-class check; a fit makes hundreds
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return value


def _integers(name: str, values, count: int, low: int | None = None) -> tuple[int, ...]:
    """``values``, a tuple or list of ``count`` integers, each checked by ``_integer``
    as ``name[k]``."""
    if not (isinstance(values, (tuple, list)) and len(values) == count):
        raise ValueError(f"{name} must be {count} integers, got {values!r}")
    return tuple(_integer(f"{name}[{k}]", value, low) for k, value in enumerate(values))


def _nonnegative_real(name: str, value) -> None:
    """Raise ``{name} must be finite and nonnegative`` unless ``value`` is a real
    number (bools are not) that is finite and at least 0."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


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
