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
a float raises ValueError, and so does a list of more than 1,000
measurements, whose pairs grow as its square.  Predictions take their gains
from :mod:`arraygain.beam`.
"""

from __future__ import annotations

import math

from .beam import AngularSpread, ElementPattern, _check_budget, effective_gain_value
from .errors import UnidentifiableSpreadError, check_positive_float, check_positive_int
from .value import Value, setfield

_RATIO_TOL = 1e-12
# every pair is kept until its axis is fitted, so time and memory grow as
# the square of the list: 1,000 measurements that share one count make
# 499,500 pairs, which the CLI fits in about 0.5 s and 80 MiB on a 2-core host
_MAX_MEASUREMENTS = 1000
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
        n_skipped_asd: int,
        n_skipped_zsd: int,
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


def _axis_fit(measurements: list[SubArrayGain], axis: str) -> tuple[float, int, int]:
    # (shared count, varying count, measurement): azimuth pairs share rows
    # and vary cols, elevation pairs the transpose
    points = [(m.rows, m.cols, m) if axis == "ASD" else (m.cols, m.rows, m) for m in measurements]
    coeffs: list[tuple[float, float]] = []
    skipped = 0
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if p[0] != q[0] or p[1] == q[1]:
                continue
            # one linear equation  a * x = b  per pair; the smaller varying
            # count goes first, so it is the same whichever way the pair is listed
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
                # equal gains: the spread swamps both apertures
                skipped += 1
                continue
            try:
                coeffs.append((a, 1.0 / count_small**2 - r / count_large**2))
            except OverflowError:
                raise ValueError(f"squared count of {large.rows}x{large.cols} overflows") from None
    if not coeffs:
        raise UnidentifiableSpreadError(f"{axis} unidentifiable")
    if len(coeffs) == 1:
        # one pair: its equation solved as b / a, since the sums would
        # divide a * b by a**2, which can differ in the last bit
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

    Enumerates all unordered pairs in list order: same rows and differing
    cols feed the azimuth fit, same cols and differing rows the elevation
    fit.  Each pair contributes one equation a_i * x = b_i; the fit is
    sum(a_i b_i) / sum(a_i^2), clamped to 0 from below.  An axis with a
    single pair, as three measurements such as 4x4, 4x8 and 8x4 give,
    solves that pair's equation directly: b / a.  A pair of equal gains
    (ratio 1 within 1e-12) is indeterminate; it is skipped and counted,
    not fatal.

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
        If there are more than 1,000 measurements, or a squared gain
        ratio or a least-squares sum overflows.
    """
    if len(measurements) > _MAX_MEASUREMENTS:
        raise ValueError(
            f"at most {_MAX_MEASUREMENTS} measurements can be fitted, got {len(measurements)}"
        )
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
    (m1 * m2) / (n1 * k1).  Both geometries are checked as a budget of
    the larger of their element counts, so every width and gain is a
    normal float; beyond that, a ValueError names the larger sub-array.
    """
    check_positive_int("target_rows", target_rows)
    check_positive_int("target_cols", target_cols)
    spread = estimate.absolute_spread(_UNIT)
    rows, cols = target_rows, target_cols
    if reference.rows * reference.cols > rows * cols:
        rows, cols = reference.rows, reference.cols
    try:
        _check_budget(rows * cols, _UNIT, spread)
    except ValueError:
        raise ValueError(f"gain of the {rows}x{cols} sub-array leaves the float range") from None
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
        # the baseline's own delta is exactly 0.0, so its gain is exactly 1.0
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
