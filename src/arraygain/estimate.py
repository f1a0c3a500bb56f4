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

Each such pair gives one linear equation, and the elevation fit solves
the same equation with rows and cols swapped.  Redundant pairs are
combined by least squares and the result clamped to zero from below.
All of it is scale-invariant (only gain ratios enter), so measurements
may be in any consistent relative scale, e.g. the gains that
:func:`relative_gains_from_power` makes of (rows, cols, tx_power_dbm,
rx_power_dbm) tuples.  A gain ratio, a squared count or a fit that overflows
a float raises ValueError.  Predictions take their gains from :mod:`arraygain.beam`.
"""

from __future__ import annotations

import math

from .beam import AngularSpread, ElementPattern, _check_budget, effective_gain_value
from .errors import IndeterminatePairError, InvalidPairError, UnidentifiableSpreadError
from .errors import check_positive_float, check_positive_int
from .value import Value, setfield

_RATIO_TOL = 1e-12
# the element whose absolute spreads are the normalized ones
_UNIT = ElementPattern(1.0, 1.0)


class SubArrayGain(Value):
    """One measured effective gain for an n x k sub-array (relative scale ok)."""

    __slots__ = ("rows", "cols", "gain_linear")

    def __init__(self, rows: int, cols: int, gain_linear: float) -> None:
        check_positive_int("rows", rows)
        check_positive_int("cols", cols)
        check_positive_float("gain_linear", gain_linear)
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "gain_linear", gain_linear)


class SpreadEstimate(Value):
    """Normalized squared spreads with the pair bookkeeping behind them.

    asd_over_bhe_sq is (asd / element azimuth beamwidth)**2 and
    zsd_over_bve_sq its elevation counterpart, both clamped to >= 0.
    Skipped counts record indeterminate pairs dropped from the fit.
    """

    __slots__ = (
        "asd_over_bhe_sq",
        "zsd_over_bve_sq",
        "n_pairs_asd",
        "n_pairs_zsd",
        "n_skipped_asd",
        "n_skipped_zsd",
    )

    def __init__(
        self,
        asd_over_bhe_sq: float,
        zsd_over_bve_sq: float,
        n_pairs_asd: int,
        n_pairs_zsd: int,
        n_skipped_asd: int = 0,
        n_skipped_zsd: int = 0,
    ) -> None:
        if asd_over_bhe_sq < 0.0 or zsd_over_bve_sq < 0.0:
            raise ValueError("spread estimates must be clamped to >= 0")
        setfield(self, "asd_over_bhe_sq", asd_over_bhe_sq)
        setfield(self, "zsd_over_bve_sq", zsd_over_bve_sq)
        setfield(self, "n_pairs_asd", n_pairs_asd)
        setfield(self, "n_pairs_zsd", n_pairs_zsd)
        setfield(self, "n_skipped_asd", n_skipped_asd)
        setfield(self, "n_skipped_zsd", n_skipped_zsd)

    def absolute_spread(self, element: ElementPattern) -> AngularSpread:
        """Denormalize to radians using the element's beamwidths."""
        return AngularSpread(
            zsd_rad=math.sqrt(self.zsd_over_bve_sq) * element.bw_elev_rad,
            asd_rad=math.sqrt(self.asd_over_bhe_sq) * element.bw_azim_rad,
        )


def _point(m: SubArrayGain, axis: str) -> tuple[int, int, SubArrayGain]:
    # (shared count, varying count, measurement): azimuth pairs share rows
    # and vary cols, elevation pairs the transpose
    return (m.rows, m.cols, m) if axis == "ASD" else (m.cols, m.rows, m)


def _pair_coeffs(p, q) -> tuple[float, float] | None:
    # one linear equation  a * x = b  in the squared normalized spread x,
    # or None unless the two points share one count and differ in the
    # other; the smaller varying count goes first, so the equation is the
    # same whichever way the caller listed the pair
    if p[0] != q[0] or p[1] == q[1]:
        return None
    (_, count_small, small), (_, count_large, large) = (p, q) if p[1] < q[1] else (q, p)
    ratio = large.gain_linear / small.gain_linear
    if ratio * ratio == math.inf:
        raise ValueError(
            f"squared gain ratio of {large.rows}x{large.cols} "
            f"to {small.rows}x{small.cols} overflows"
        )
    r = ratio**2
    a = r - 1.0
    if abs(a) <= _RATIO_TOL:
        raise IndeterminatePairError(
            f"indeterminate pair: equal gains for {p[2].rows}x{p[2].cols} "
            f"and {q[2].rows}x{q[2].cols}"
        )
    try:
        return a, 1.0 / count_small**2 - r / count_large**2
    except OverflowError:
        raise ValueError(f"squared count of {large.rows}x{large.cols} overflows") from None


def _pair_estimate(m_a: SubArrayGain, m_b: SubArrayGain, axis: str) -> float:
    coeffs = _pair_coeffs(_point(m_a, axis), _point(m_b, axis))
    if coeffs is None:
        raise InvalidPairError(
            f"invalid pair: {axis} pair needs ({m_a.rows}x{m_a.cols}, {m_b.rows}x{m_b.cols}) "
            "to share one axis and differ in the other"
        )
    return coeffs[1] / coeffs[0]


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
    ValueError
        If the squared gain ratio overflows.
    """
    return _pair_estimate(m_a, m_b, "ASD")


def estimate_zsd_sq_pair(m_a: SubArrayGain, m_b: SubArrayGain) -> float:
    """Elevation mirror of :func:`estimate_asd_sq_pair`: shared cols, rows vary."""
    return _pair_estimate(m_a, m_b, "ZSD")


def _axis_fit(measurements: list[SubArrayGain], axis: str) -> tuple[float, int, int]:
    points = [_point(m, axis) for m in measurements]
    coeffs: list[tuple[float, float]] = []
    skipped = 0
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            try:
                pair = _pair_coeffs(p, q)
            except IndeterminatePairError:
                skipped += 1
                continue
            if pair is not None:
                coeffs.append(pair)
    if not coeffs:
        raise UnidentifiableSpreadError(axis)
    if len(coeffs) == 1:
        # single equation solved directly so the result is bit-identical
        # to the corresponding pair estimator
        a, b = coeffs[0]
        raw = b / a
    else:
        num = sum(a * b for a, b in coeffs)
        den = sum(a * a for a, _ in coeffs)
        if not (math.isfinite(num) and math.isfinite(den)):
            raise ValueError(f"{axis} least-squares sums overflow: gains too far apart")
        raw = num / den
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
    ValueError
        If a squared gain ratio or a least-squares sum overflows.
    """
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

    Both gains are :func:`arraygain.beam.effective_gain_value` for an
    element of unit widths, whose absolute spreads are the normalized ones:

    G(m1, m2) = G(n1, k1) * sqrt(1/n1^2 + z) * sqrt(1/k1^2 + a)
                          / (sqrt(1/m1^2 + z) * sqrt(1/m2^2 + a))

    A target equal to the reference returns the reference gain exactly;
    at zero estimated spread this reduces to the aperture product law
    (m1 * m2) / (n1 * k1).
    """
    check_positive_int("target_rows", target_rows)
    check_positive_int("target_cols", target_cols)
    spread = estimate.absolute_spread(_UNIT)
    _check_budget(target_rows * target_cols, _UNIT, spread)  # every width and gain a normal float
    target = effective_gain_value(_UNIT, target_rows, target_cols, spread)
    return reference.gain_linear * (
        target / effective_gain_value(_UNIT, reference.rows, reference.cols, spread)
    )


def relative_gains_from_power(measurements, baseline_index: int) -> list[SubArrayGain]:
    """Convert raw Tx/Rx power logs to relative gains against a baseline.

    Per entry, delta_dB = (rx - rx_base) - (tx - tx_base); path loss,
    cable loss and any other common-mode term cancel in the double
    difference.  The baseline entry gets gain exactly 1.0.  An entry whose
    gain against it is not a positive finite float raises ValueError.

    Parameters
    ----------
    measurements : iterable of tuple
        (rows, cols, tx_power_dbm, rx_power_dbm) tuples, as
        :func:`arraygain.scenario.load_measurements_csv` returns them.
    baseline_index : int
        Which entry anchors the relative scale.

    Returns
    -------
    list of SubArrayGain
        Same order as the input.
    """
    records = list(measurements)
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
            try:
                gain = 10.0 ** (delta_db / 10.0)
            except OverflowError:
                gain = math.inf
            if not 0.0 < gain < math.inf:
                raise ValueError(
                    f"measurement {i}: a gain of {delta_db:.6g} dB over the baseline "
                    "leaves the float range"
                )
        gains.append(SubArrayGain(rows=rows, cols=cols, gain_linear=gain))
    return gains
