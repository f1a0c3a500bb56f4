"""Domain error types, each carrying a short code for CLI error lines,
and the two argument checks every module shares."""

from __future__ import annotations

import math


def check_positive_int(name: str, value) -> None:
    """Reject anything but an int >= 1 (bool included)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_positive_float(name: str, value: float) -> None:
    """Reject anything but a finite number > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


class ArrayGainError(ValueError):
    """Base class for every domain error raised by this package."""

    code = "input"


class DegenerateElementError(ArrayGainError):
    """Beamwidths the float arithmetic cannot carry: a width that is not
    finite and > 0, a gain 2 / (bw_elev * bw_azim) that is not a normal
    float, or a nominal width that is subnormal at the element budget."""

    code = "element"


class EirpTooLowError(ArrayGainError):
    """EIRP budget below what a single element already emits."""

    code = "eirp"


class UnidentifiableSpreadError(ArrayGainError):
    """No usable measurement pair for an axis."""

    code = "estimate"


class GridResolutionError(ArrayGainError):
    """Angular grid too coarse for the pattern or spread placed on it,
    or too large to allocate."""

    code = "oracle"


class OracleUnavailableError(ArrayGainError):
    """The numerical oracles need numpy, and it is not installed."""

    code = "oracle"


class ScenarioError(ArrayGainError):
    """Malformed scenario input (file or flags)."""

    code = "scenario"


class MeasurementError(ArrayGainError):
    """Malformed measurement CSV."""

    code = "measurements"
