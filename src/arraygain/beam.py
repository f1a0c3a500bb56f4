"""Gaussian beam model: directional gain and spread-widened beamwidths.

A single beam is modeled as a separable Gaussian power pattern

    g(phi, theta) = (2 / (bw_azim * bw_elev))
                    * exp(-phi**2 / (2 * bw_azim**2))
                    * exp(-theta**2 / (2 * bw_elev**2))

whose peak, the directional gain, is the peak-to-average power ratio
2 / (bw_azim * bw_elev).  A rows x cols planar array of identical
elements at half-wavelength spacing narrows each element beamwidth by
the element count along that axis.  Multipath angular spread convolves
the pattern with the channel's own Gaussian spectrum, so the effective
beamwidth per axis is the root-sum-square of the nominal beamwidth and
the spread, and effective gain always sits at or below both the nominal
gain and the budget-level upper bound computed in
:mod:`arraygain.optimize`.

All beamwidths and spreads are RMS values in radians.  Gains are linear
power ratios unless a name ends in ``_dbi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateElementError
from .units import db_to_linear, linear_to_db

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ElementPattern:
    """RMS beamwidths of one array element, radians.

    Attributes
    ----------
    bw_elev_rad : float
        Elevation RMS beamwidth, > 0.
    bw_azim_rad : float
        Azimuth RMS beamwidth, > 0.
    """

    bw_elev_rad: float
    bw_azim_rad: float

    def __post_init__(self) -> None:
        for name, value in (("bw_elev_rad", self.bw_elev_rad), ("bw_azim_rad", self.bw_azim_rad)):
            if not (math.isfinite(value) and value > 0.0):
                raise DegenerateElementError(f"degenerate element: {name} = {value!r}")

    @property
    def gain_linear(self) -> float:
        """Directional gain implied by the two beamwidths."""
        return 2.0 / (self.bw_elev_rad * self.bw_azim_rad)


@dataclass(frozen=True)
class ArrayGeometry:
    """Element counts of a planar array: rows vertically, cols horizontally."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        for name, value in (("rows", self.rows), ("cols", self.cols)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class AngularSpread:
    """Channel RMS angular spreads, radians: zsd in elevation, asd in azimuth."""

    zsd_rad: float
    asd_rad: float

    def __post_init__(self) -> None:
        for name, value in (("zsd_rad", self.zsd_rad), ("asd_rad", self.asd_rad)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @property
    def is_zero(self) -> bool:
        return self.zsd_rad == 0.0 and self.asd_rad == 0.0


@dataclass(frozen=True)
class BeamPattern:
    """RMS beamwidths of a whole-array beam (nominal or effective), radians."""

    bw_elev_rad: float
    bw_azim_rad: float

    def __post_init__(self) -> None:
        for name, value in (("bw_elev_rad", self.bw_elev_rad), ("bw_azim_rad", self.bw_azim_rad)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class GainReport:
    """Nominal gain, effective gain, and upper bound for one geometry.

    The effective gain can never exceed the nominal gain (spread only
    widens the beam) nor the budget-level bound; construction enforces
    both orderings to 1e-12 relative.
    """

    nominal_gain_linear: float
    effective_gain_linear: float
    upper_bound_linear: float
    nominal_gain_dbi: float
    effective_gain_dbi: float
    upper_bound_dbi: float

    def __post_init__(self) -> None:
        if self.effective_gain_linear > self.nominal_gain_linear * (1.0 + _REL_TOL):
            raise ValueError("effective gain exceeds nominal gain")
        if self.effective_gain_linear > self.upper_bound_linear * (1.0 + _REL_TOL):
            raise ValueError("effective gain exceeds the upper bound")

    @classmethod
    def from_linear(cls, nominal: float, effective: float, bound: float) -> GainReport:
        return cls(
            nominal_gain_linear=nominal,
            effective_gain_linear=effective,
            upper_bound_linear=bound,
            nominal_gain_dbi=linear_to_db(nominal),
            effective_gain_dbi=linear_to_db(effective),
            upper_bound_dbi=linear_to_db(bound),
        )


def element_pattern_from_gain(gain_dbi: float) -> ElementPattern:
    """Element beamwidths from a single element gain, symmetric in both axes.

    Inverts the directional-gain relation for a symmetric element:
    gain = 2 / bw**2, so bw = sqrt(2 / gain_linear).

    Parameters
    ----------
    gain_dbi : float
        Element gain in dBi, any finite value.

    Returns
    -------
    ElementPattern
        Equal elevation and azimuth beamwidths.

    Examples
    --------
    >>> element_pattern_from_gain(0.0).bw_elev_rad == math.sqrt(2)
    True
    >>> element_pattern_from_gain(10 * math.log10(2)).bw_azim_rad
    1.0
    """
    if not math.isfinite(gain_dbi):
        raise ValueError(f"gain_dbi must be finite, got {gain_dbi!r}")
    try:
        bw = math.sqrt(2.0 / db_to_linear(gain_dbi))
    except (OverflowError, ZeroDivisionError):
        bw = 0.0
    if bw <= 0.0 or not math.isfinite(bw):
        # so extreme that the beamwidth leaves double range in one
        # direction or the other
        raise DegenerateElementError(f"degenerate element: {gain_dbi} dBi has no representable beamwidth")
    return ElementPattern(bw_elev_rad=bw, bw_azim_rad=bw)


def nominal_beamwidths(element: ElementPattern, geom: ArrayGeometry) -> BeamPattern:
    """Free-space beam of the full array: each axis narrows by its element count.

    Parameters
    ----------
    element : ElementPattern
    geom : ArrayGeometry

    Returns
    -------
    BeamPattern
        bw_elev / rows in elevation, bw_azim / cols in azimuth.
    """
    return BeamPattern(
        bw_elev_rad=element.bw_elev_rad / geom.rows,
        bw_azim_rad=element.bw_azim_rad / geom.cols,
    )


def directional_gain(pattern: BeamPattern) -> float:
    """Peak-to-average power ratio of a Gaussian beam: 2 / (bw_azim * bw_elev).

    Examples
    --------
    >>> directional_gain(BeamPattern(1.0, 2.0))
    1.0
    """
    return 2.0 / (pattern.bw_azim_rad * pattern.bw_elev_rad)


def effective_beamwidths(nominal: BeamPattern, spread: AngularSpread) -> BeamPattern:
    """Widen a nominal beam by the channel spread, root-sum-square per axis.

    Convolving a Gaussian beam with a Gaussian angular spectrum adds
    variances, so each axis widens to hypot(beamwidth, spread).  Zero
    spread returns the nominal widths unchanged (exactly).
    """
    return BeamPattern(
        bw_elev_rad=math.hypot(nominal.bw_elev_rad, spread.zsd_rad),
        bw_azim_rad=math.hypot(nominal.bw_azim_rad, spread.asd_rad),
    )


def _upper_bound(n_elements: float, element: ElementPattern, spread: AngularSpread) -> float:
    # AM-GM floor of the widened beamwidth product at budget n_elements:
    # bw_v*bw_h >= asd*zsd + bw_elev*bw_azim/n, equality when the geometry
    # matches the spread ratio. Shared with optimize.gain_upper_bound.
    return 2.0 / (
        spread.asd_rad * spread.zsd_rad
        + element.bw_elev_rad * element.bw_azim_rad / n_elements
    )


def effective_gain_value(
    element: ElementPattern, rows: float, cols: float, spread: AngularSpread
) -> float:
    """Effective gain for possibly non-integer element counts.

    Same math as :func:`effective_gain` but takes real-valued rows/cols
    and returns just the linear gain.  Used to evaluate the continuous
    optimum, the integer scan with its envelope, and sweep rows.
    """
    if rows <= 0.0 or cols <= 0.0:
        raise ValueError("rows and cols must be positive")
    bw_elev = math.hypot(element.bw_elev_rad / rows, spread.zsd_rad)
    bw_azim = math.hypot(element.bw_azim_rad / cols, spread.asd_rad)
    return 2.0 / (bw_elev * bw_azim)


def effective_gain(
    element: ElementPattern, geom: ArrayGeometry, spread: AngularSpread
) -> GainReport:
    """Full gain report for one geometry under one channel spread.

    Composes nominal_beamwidths, effective_beamwidths and
    directional_gain, and attaches the element-budget upper bound at
    N = rows * cols.

    Parameters
    ----------
    element : ElementPattern
    geom : ArrayGeometry
    spread : AngularSpread

    Returns
    -------
    GainReport
        Nominal, effective and bound gains, linear and dBi.
    """
    nominal = nominal_beamwidths(element, geom)
    widened = effective_beamwidths(nominal, spread)
    return GainReport.from_linear(
        nominal=directional_gain(nominal),
        effective=directional_gain(widened),
        bound=_upper_bound(geom.n_elements, element, spread),
    )
