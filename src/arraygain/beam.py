"""Gaussian beam model: one beam type and one gain model.

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
nominal beamwidth and the spread.  That widening lives in this module
alone: :func:`effective_gain_value` for one geometry, :func:`pair_gains_dbi`
for a list and :func:`row_gains_dbi` for a run of columns.  The effective
gain always sits at or below both the nominal gain and the budget-level
upper bound computed in :mod:`arraygain.optimize`.

All beamwidths and spreads are RMS values in radians.  Gains are linear
power ratios unless a name ends in ``_dbi``.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import mul, truediv

from .errors import DegenerateElementError, check_positive_int
from .units import db_to_linear, linear_to_db
from .value import Value, setfield

_REL_TOL = 1e-12
# the smallest normal float: below it a float loses precision
_NORMAL = sys.float_info.min


class ElementPattern(Value):
    """RMS beamwidths of a Gaussian beam, radians.

    The beam may be one array element's, a whole array's nominal beam
    (:func:`nominal_beamwidths`) or one fitted to a sampled pattern
    (:func:`arraygain.oracle.fitted_rms_widths`).  Widths whose gain
    2 / (bw_elev * bw_azim) is not a normal float raise
    :class:`DegenerateElementError`, like widths that are not > 0.

    Attributes
    ----------
    bw_elev_rad : float
        Elevation RMS beamwidth, > 0.
    bw_azim_rad : float
        Azimuth RMS beamwidth, > 0.
    """

    __slots__ = ("bw_elev_rad", "bw_azim_rad")

    def __init__(self, bw_elev_rad: float, bw_azim_rad: float) -> None:
        for name, value in (("bw_elev_rad", bw_elev_rad), ("bw_azim_rad", bw_azim_rad)):
            if not (math.isfinite(value) and value > 0.0):
                raise DegenerateElementError(f"degenerate element: {name} = {value!r}")
        product = bw_elev_rad * bw_azim_rad
        if product == 0.0 or not _NORMAL <= 2.0 / product < math.inf:
            raise DegenerateElementError(
                "degenerate element: gain beyond float range at "
                f"{bw_elev_rad!r} x {bw_azim_rad!r} rad"
            )
        setfield(self, "bw_elev_rad", bw_elev_rad)
        setfield(self, "bw_azim_rad", bw_azim_rad)

    @property
    def gain_linear(self) -> float:
        """Directional gain implied by the two beamwidths."""
        return 2.0 / (self.bw_elev_rad * self.bw_azim_rad)


class ArrayGeometry(Value):
    """Element counts of a planar array: rows vertically, cols horizontally."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int) -> None:
        check_positive_int("rows", rows)
        check_positive_int("cols", cols)
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


class AngularSpread(Value):
    """Channel RMS angular spreads, radians: zsd in elevation, asd in azimuth."""

    __slots__ = ("zsd_rad", "asd_rad")

    def __init__(self, zsd_rad: float, asd_rad: float) -> None:
        for name, value in (("zsd_rad", zsd_rad), ("asd_rad", asd_rad)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        setfield(self, "zsd_rad", zsd_rad)
        setfield(self, "asd_rad", asd_rad)

    @property
    def is_zero(self) -> bool:
        return self.zsd_rad == 0.0 and self.asd_rad == 0.0


class GainReport(Value):
    """Nominal gain, effective gain, and upper bound for one geometry.

    The effective gain can never exceed the nominal gain (spread only
    widens the beam) nor the budget-level bound; construction enforces
    both orderings to 1e-12 relative.
    """

    __slots__ = (
        "nominal_gain_linear",
        "effective_gain_linear",
        "upper_bound_linear",
        "nominal_gain_dbi",
        "effective_gain_dbi",
        "upper_bound_dbi",
    )

    def __init__(
        self,
        nominal_gain_linear: float,
        effective_gain_linear: float,
        upper_bound_linear: float,
        nominal_gain_dbi: float,
        effective_gain_dbi: float,
        upper_bound_dbi: float,
    ) -> None:
        if effective_gain_linear > nominal_gain_linear * (1.0 + _REL_TOL):
            raise ValueError("effective gain exceeds nominal gain")
        if effective_gain_linear > upper_bound_linear * (1.0 + _REL_TOL):
            raise ValueError("effective gain exceeds the upper bound")
        setfield(self, "nominal_gain_linear", nominal_gain_linear)
        setfield(self, "effective_gain_linear", effective_gain_linear)
        setfield(self, "upper_bound_linear", upper_bound_linear)
        setfield(self, "nominal_gain_dbi", nominal_gain_dbi)
        setfield(self, "effective_gain_dbi", effective_gain_dbi)
        setfield(self, "upper_bound_dbi", upper_bound_dbi)

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
        # the linear gain leaves double range; ElementPattern refuses the rest
        raise DegenerateElementError(
            f"degenerate element: {gain_dbi} dBi has no representable beamwidth"
        ) from None
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


def _check_budget(n_elements: int, element: ElementPattern, spread: AngularSpread) -> None:
    # A geometry of rows * cols <= N elements has nominal widths of at least
    # bw / N and a gain between the 1 x 1 gain and N * G_e.  Once those are
    # normal floats, so is every width and gain that any such geometry takes
    # on, and nothing downstream needs a fallback for the float range
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements!r}")
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
    for name in ("bw_elev_rad", "bw_azim_rad"):
        width = getattr(element, name) / n_elements
        if width < _NORMAL:
            raise DegenerateElementError(
                f"degenerate element: nominal {name} = {width!r} is subnormal"
            )
    least = effective_gain_value(element, 1, 1, spread)
    if least < _NORMAL:
        raise ValueError(f"gain beyond float range: the 1 x 1 gain is {least!r}")


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
    envelope; :func:`pair_gains_dbi` repeats its operations over a list.
    """
    if rows <= 0.0 or cols <= 0.0:
        raise ValueError("rows and cols must be positive")
    bw_elev = math.hypot(element.bw_elev_rad / rows, spread.zsd_rad)
    bw_azim = math.hypot(element.bw_azim_rad / cols, spread.asd_rad)
    return 2.0 / (bw_elev * bw_azim)


def _widths(bw: float, counts, spread: float):
    # hypot(bw / c, spread) for each c in counts.  hypot(x, 0.0) is exactly x
    # (C99 F.10.4.3), so a zero spread drops that stage and no bit changes
    nominal = map(truediv, repeat(bw), counts)
    return map(math.hypot, nominal, repeat(spread)) if spread else nominal


def pair_gains_dbi(element: ElementPattern, rows, cols, spread: AngularSpread):
    """Lazy dBi gains of r x c for r and c taken in step from ``rows`` and ``cols``.

    Each is ``linear_to_db(effective_gain_value(element, r, c, spread))``
    float operation for float operation, with no count checked.
    :func:`_check_budget` keeps each within about 1e-12 dB of the exact
    gain: it makes every width and gain a normal float, where truediv,
    hypot, mul and log10 err by a few ulps.
    """
    elevs = _widths(element.bw_elev_rad, rows, spread.zsd_rad)
    widths = map(mul, elevs, _widths(element.bw_azim_rad, cols, spread.asd_rad))
    return map(mul, repeat(10.0), map(math.log10, map(truediv, repeat(2.0), widths)))


def row_gains_dbi(element: ElementPattern, rows: int, cols, spread: AngularSpread):
    """:func:`pair_gains_dbi` for one ``rows``, its elevation width computed once."""
    elev = repeat(math.hypot(element.bw_elev_rad / rows, spread.zsd_rad))
    widths = map(mul, elev, _widths(element.bw_azim_rad, cols, spread.asd_rad))
    return map(mul, repeat(10.0), map(math.log10, map(truediv, repeat(2.0), widths)))


def effective_gain(
    element: ElementPattern, geom: ArrayGeometry, spread: AngularSpread
) -> GainReport:
    """Full gain report for one geometry under one channel spread.

    The nominal gain is the gain at zero spread, the effective gain is
    :func:`effective_gain_value` at ``spread``, and the bound is the
    element-budget upper bound at N = rows * cols.  Inputs whose gains
    at that budget leave the normal float range raise ValueError, and a
    nominal width below it raises DegenerateElementError.

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
    _check_budget(geom.n_elements, element, spread)
    return _report(element, geom, spread)


def _report(element: ElementPattern, geom: ArrayGeometry, spread: AngularSpread) -> GainReport:
    # effective_gain past its budget check, for a caller that has run it
    return GainReport.from_linear(
        # hypot(x, 0) is exactly x, so this is effective_gain_value at zero spread
        nominal=nominal_beamwidths(element, geom).gain_linear,
        effective=effective_gain_value(element, geom.rows, geom.cols, spread),
        bound=_upper_bound(geom.n_elements, element, spread),
    )
