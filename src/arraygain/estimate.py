"""Angular-spread estimation from sub-array gain measurements.

Switching a planar array between sub-array configurations changes the
nominal beamwidths in a known way while the channel spread stays fixed,
so gain ratios between configurations pin down the spread.  With
a = (asd / bw_azim_elem)**2 and z = (zsd / bw_elev_elem)**2, the
effective gain of an n x k sub-array satisfies

    G(n, k)**2 is proportional to 1 / ((1/n**2 + z) * (1/k**2 + a))

Two measurements sharing n and differing in k cancel everything except
a: with r = (G(n, k2) / G(n, k1))**2,

    a * (r - 1) = 1/k1**2 - r/k2**2

Each such pair gives one linear equation; redundant pairs are combined
by least squares and the result clamped to zero from below.  All of it
is scale-invariant (only gain ratios enter), so measurements may be in
any consistent relative scale, e.g. from
:func:`relative_gains_from_power`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beam import AngularSpread, ElementPattern
from .errors import IndeterminatePairError, InvalidPairError, UnidentifiableSpreadError
from .errors import check_positive_float, check_positive_int

_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class SubArrayGain:
    """One measured effective gain for an n x k sub-array (relative scale ok)."""

    rows: int
    cols: int
    gain_linear: float

    def __post_init__(self) -> None:
        check_positive_int("rows", self.rows)
        check_positive_int("cols", self.cols)
        check_positive_float("gain_linear", self.gain_linear)


@dataclass(frozen=True)
class SpreadEstimate:
    """Normalized squared spreads with the pair bookkeeping behind them.

    asd_over_bhe_sq is (asd / element azimuth beamwidth)**2 and
    zsd_over_bve_sq its elevation counterpart, both clamped to >= 0.
    Skipped counts record indeterminate pairs dropped from the fit.
    """

    asd_over_bhe_sq: float
    zsd_over_bve_sq: float
    n_pairs_asd: int
    n_pairs_zsd: int
    n_skipped_asd: int = 0
    n_skipped_zsd: int = 0

    def __post_init__(self) -> None:
        if self.asd_over_bhe_sq < 0.0 or self.zsd_over_bve_sq < 0.0:
            raise ValueError("spread estimates must be clamped to >= 0")

    def absolute_spread(self, element: ElementPattern) -> AngularSpread:
        """Denormalize to radians using the element's beamwidths."""
        return AngularSpread(
            zsd_rad=math.sqrt(self.zsd_over_bve_sq) * element.bw_elev_rad,
            asd_rad=math.sqrt(self.asd_over_bhe_sq) * element.bw_azim_rad,
        )


def _pair_coeffs(gain_small: float, count_small: int, gain_large: float, count_large: int):
    # one linear equation  a * x = b  in the squared normalized spread x,
    # from two gains sharing the other axis; counts ordered ascending so
    # the equation is the same whichever way the caller listed the pair
    r = (gain_large / gain_small) ** 2
    a = r - 1.0
    b = 1.0 / count_small**2 - r / count_large**2
    return a, b


def _pair_equation(m_a: SubArrayGain, m_b: SubArrayGain, axis: str):
    if axis == "ASD":
        shared_a, shared_b = m_a.rows, m_b.rows
        vary_a, vary_b = m_a.cols, m_b.cols
    else:
        shared_a, shared_b = m_a.cols, m_b.cols
        vary_a, vary_b = m_a.rows, m_b.rows
    if shared_a != shared_b or vary_a == vary_b:
        raise InvalidPairError(
            f"invalid pair: {axis} pair needs ({m_a.rows}x{m_a.cols}, {m_b.rows}x{m_b.cols}) "
            "to share one axis and differ in the other"
        )
    if vary_a < vary_b:
        a, b = _pair_coeffs(m_a.gain_linear, vary_a, m_b.gain_linear, vary_b)
    else:
        a, b = _pair_coeffs(m_b.gain_linear, vary_b, m_a.gain_linear, vary_a)
    if abs(a) <= _RATIO_TOL:
        raise IndeterminatePairError(
            f"indeterminate pair: equal gains for {m_a.rows}x{m_a.cols} "
            f"and {m_b.rows}x{m_b.cols}"
        )
    return a, b


def estimate_asd_sq_pair(m_a: SubArrayGain, m_b: SubArrayGain) -> float:
    """Squared normalized azimuth spread from one pair sharing a row count.

    Order-independent and scale-invariant; the raw value may be negative
    under noise (callers clamp).

    Raises
    ------
    InvalidPairError
        If rows differ or cols coincide.
    IndeterminatePairError
        If the gain ratio is 1 within 1e-12 (spread swamps both
        apertures, the equation degenerates).
    """
    a, b = _pair_equation(m_a, m_b, "ASD")
    return b / a


def estimate_zsd_sq_pair(m_a: SubArrayGain, m_b: SubArrayGain) -> float:
    """Elevation mirror of :func:`estimate_asd_sq_pair`: shared cols, rows vary."""
    a, b = _pair_equation(m_a, m_b, "ZSD")
    return b / a


def _axis_fit(measurements: list[SubArrayGain], axis: str) -> tuple[float, int, int]:
    coeffs: list[tuple[float, float]] = []
    skipped = 0
    for i in range(len(measurements)):
        for j in range(i + 1, len(measurements)):
            m_a, m_b = measurements[i], measurements[j]
            if axis == "ASD":
                usable = m_a.rows == m_b.rows and m_a.cols != m_b.cols
            else:
                usable = m_a.cols == m_b.cols and m_a.rows != m_b.rows
            if not usable:
                continue
            try:
                coeffs.append(_pair_equation(m_a, m_b, axis))
            except IndeterminatePairError:
                skipped += 1
    if not coeffs:
        raise UnidentifiableSpreadError(axis)
    if len(coeffs) == 1:
        # single equation solved directly so the result is bit-identical
        # to the corresponding pair estimator
        a, b = coeffs[0]
        raw = b / a
    else:
        raw = sum(a * b for a, b in coeffs) / sum(a * a for a, _ in coeffs)
    return max(raw, 0.0), len(coeffs), skipped


def estimate_ls(measurements: list[SubArrayGain]) -> SpreadEstimate:
    """Least-squares spread estimate over every usable measurement pair.

    Enumerates all unordered pairs: same rows and differing cols feed
    the azimuth fit, same cols and differing rows the elevation fit.
    Each pair contributes one equation a_i * x = b_i; the fit is
    sum(a_i b_i) / sum(a_i^2), clamped to 0 from below.  Indeterminate
    pairs are skipped and counted, not fatal.

    Parameters
    ----------
    measurements : list of SubArrayGain
        Any consistent relative scale.

    Returns
    -------
    SpreadEstimate

    Raises
    ------
    UnidentifiableSpreadError
        If an axis ends up with no usable pair at all.
    """
    if len(measurements) < 2:
        raise UnidentifiableSpreadError("ASD")
    asd_sq, n_asd, skip_asd = _axis_fit(measurements, "ASD")
    zsd_sq, n_zsd, skip_zsd = _axis_fit(measurements, "ZSD")
    return SpreadEstimate(
        asd_over_bhe_sq=asd_sq,
        zsd_over_bve_sq=zsd_sq,
        n_pairs_asd=n_asd,
        n_pairs_zsd=n_zsd,
        n_skipped_asd=skip_asd,
        n_skipped_zsd=skip_zsd,
    )


def predict_subarray_gain(
    reference: SubArrayGain,
    estimate: SpreadEstimate,
    target_rows: int,
    target_cols: int,
) -> float:
    """Gain of an unmeasured sub-array from one reference and the estimate.

    G(m1, m2) = G(n1, k1) * sqrt(1/n1^2 + z) * sqrt(1/k1^2 + a)
                          / (sqrt(1/m1^2 + z) * sqrt(1/m2^2 + a))

    A target equal to the reference returns the reference gain exactly;
    at zero estimated spread this reduces to the aperture product law
    (m1 * m2) / (n1 * k1).
    """
    check_positive_int("target_rows", target_rows)
    check_positive_int("target_cols", target_cols)
    z = estimate.zsd_over_bve_sq
    a = estimate.asd_over_bhe_sq
    scale = (
        math.sqrt(1.0 / reference.rows**2 + z) * math.sqrt(1.0 / reference.cols**2 + a)
    ) / (
        math.sqrt(1.0 / target_rows**2 + z) * math.sqrt(1.0 / target_cols**2 + a)
    )
    return reference.gain_linear * scale


def relative_gains_from_power(measurements, baseline_index: int) -> list[SubArrayGain]:
    """Convert raw Tx/Rx power logs to relative gains against a baseline.

    Per entry, delta_dB = (rx - rx_base) - (tx - tx_base); path loss,
    cable loss and any other common-mode term cancel in the double
    difference.  The baseline entry gets gain exactly 1.0.

    Parameters
    ----------
    measurements : iterable
        Items are (rows, cols, tx_power_dbm, rx_power_dbm) tuples or any
        object with those four attributes.
    baseline_index : int
        Which entry anchors the relative scale.

    Returns
    -------
    list of SubArrayGain
        Same order as the input.
    """
    records = []
    for m in measurements:
        if hasattr(m, "rows"):
            records.append((m.rows, m.cols, m.tx_power_dbm, m.rx_power_dbm))
        else:
            rows, cols, tx, rx = m
            records.append((rows, cols, tx, rx))
    if not records:
        raise ValueError("measurements is empty")
    if not 0 <= baseline_index < len(records):
        raise ValueError(
            f"baseline_index {baseline_index} out of range for {len(records)} measurements"
        )
    _, _, tx_base, rx_base = records[baseline_index]
    gains = []
    for i, (rows, cols, tx, rx) in enumerate(records):
        if i == baseline_index:
            gain = 1.0
        else:
            delta_db = (rx - rx_base) - (tx - tx_base)
            gain = 10.0 ** (delta_db / 10.0)
        gains.append(SubArrayGain(rows=rows, cols=cols, gain_linear=gain))
    return gains
