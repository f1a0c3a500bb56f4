"""Gaussian beam model: one beam type and one gain path.

A single beam is modeled as a separable Gaussian power pattern

    g(phi, theta) = (2 / (bw_azim * bw_elev))
                    * exp(-phi**2 / (2 * bw_azim**2))
                    * exp(-theta**2 / (2 * bw_elev**2))

whose peak, the directional gain, is the peak-to-average power ratio
2 / (bw_azim * bw_elev).  :class:`ElementPattern` holds the two RMS
widths of any such beam: an element's, an array's nominal beam, or a
beam fitted to a sampled pattern.  A rows x cols planar array of
identical elements at half-wavelength spacing narrows each element
beamwidth by the element count along that axis.  Multipath angular
spread convolves the pattern with the channel's own Gaussian spectrum,
so the effective beamwidth per axis is the root-sum-square of the
nominal beamwidth and the spread.  That widening is computed in one
place, :func:`effective_gain_value`, and :func:`effective_gain` reports
it.  The effective gain always sits at or below both the nominal gain
and the budget-level upper bound computed in :mod:`arraygain.optimize`.

All beamwidths and spreads are RMS values in radians.  Gains are linear
power ratios unless a name ends in ``_dbi``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DegenerateElementError, check_positive_int
from .units import db_to_linear, linear_to_db

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ElementPattern:
    """RMS beamwidths of a Gaussian beam, radians.

    The beam may be one array element's, a whole array's nominal beam
    (:func:`nominal_beamwidths`) or one fitted to a sampled pattern
    (:func:`arraygain.oracle.fitted_rms_widths`).  Widths whose gain
    2 / (bw_elev * bw_azim) is beyond float range raise
    :class:`DegenerateElementError`, like widths that are not > 0.

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
        product = self.bw_elev_rad * self.bw_azim_rad
        if product == 0.0 or 2.0 / product == math.inf:
            raise DegenerateElementError(
                "degenerate element: gain beyond float range at "
                f"{self.bw_elev_rad!r} x {self.bw_azim_rad!r} rad"
            )

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
        check_positive_int("rows", self.rows)
        check_positive_int("cols", self.cols)

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


def nominal_beamwidths(element: ElementPattern, geom: ArrayGeometry) -> ElementPattern:
    """Free-space beam of the full array: each axis narrows by its element count.

    Parameters
    ----------
    element : ElementPattern
    geom : ArrayGeometry

    Returns
    -------
    ElementPattern
        bw_elev / rows in elevation, bw_azim / cols in azimuth.
    """
    return ElementPattern(
        bw_elev_rad=element.bw_elev_rad / geom.rows,
        bw_azim_rad=element.bw_azim_rad / geom.cols,
    )


def _check_array_gain(n_elements: int, element: ElementPattern) -> None:
    # N * G_e is the gain at zero spread and bounds every gain of an array
    # of at most N elements, so past this check none overflows
    try:
        overflows = n_elements * element.gain_linear == math.inf
    except OverflowError:
        raise ValueError(
            f"n_elements must be at most {sys.float_info.max:.6g}, got a larger integer"
        ) from None
    if overflows:
        raise ValueError(
            f"array gain beyond float range: {n_elements} elements x {element.gain_linear:.6g}"
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

    Each axis widens to hypot(element beamwidth / count, spread), and the
    gain is 2 / (product of the widths).  Takes real-valued rows/cols and
    returns just the linear gain.  Used by :func:`effective_gain` and to
    evaluate the continuous optimum and the integer scan with its
    envelope; ``sweep`` repeats its operations a block of rows at a time.
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

    The nominal gain is the gain at zero spread, the effective gain is
    :func:`effective_gain_value` at ``spread``, and the bound is the
    element-budget upper bound at N = rows * cols.  An array whose
    nominal gain N * G_e is beyond float range raises ValueError; a
    subnormal nominal width whose rounding breaks the report's orderings
    raises DegenerateElementError.

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
    _check_array_gain(geom.n_elements, element)
    # building the beam rejects a width that underflows to 0
    nominal = nominal_beamwidths(element, geom)
    try:
        return GainReport.from_linear(
            # hypot(x, 0) is exactly x, so this is effective_gain_value at zero spread
            nominal=nominal.gain_linear,
            effective=effective_gain_value(element, geom.rows, geom.cols, spread),
            bound=_upper_bound(geom.n_elements, element, spread),
        )
    except ValueError:
        # a subnormal width loses precision, enough to break the orderings
        for name in ("bw_elev_rad", "bw_azim_rad"):
            width = getattr(nominal, name)
            if width < sys.float_info.min:
                raise DegenerateElementError(
                    f"degenerate element: nominal {name} = {width!r} is subnormal"
                ) from None
        raise
