"""Spread estimation from sub-array gain measurements.

Exercises the fit of three measurements, one pair equation per axis,
the least-squares fit over many pairs, forward gain prediction, and
relative-gain extraction from raw power readings.  Round trips are
checked against gains synthesized with the forward model, so the
estimator is tested end to end.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    SpreadEstimate,
    SubArrayGain,
    UnidentifiableSpreadError,
    effective_gain,
    element_pattern_from_gain,
    estimate_ls,
    predict_subarray_gain,
    relative_gains_from_power,
)
from arraygain.estimate import _MAX_MEASUREMENTS


def _forward_gain(element, rows, cols, spread):
    return effective_gain(element, ArrayGeometry(rows, cols), spread).effective_gain_linear


def _measurements(element, spread, shapes, scale=1.0):
    return [
        SubArrayGain(rows, cols, scale * _forward_gain(element, rows, cols, spread))
        for rows, cols in shapes
    ]


_ELEMENT = element_pattern_from_gain(5.0)


def _spread_from_normalized(zsd_sq, asd_sq):
    return AngularSpread(
        zsd_rad=math.sqrt(zsd_sq) * _ELEMENT.bw_elev_rad,
        asd_rad=math.sqrt(asd_sq) * _ELEMENT.bw_azim_rad,
    )


def _pair_sq(small, large, count_small, count_large):
    # the pair equation  a * x = b  solved directly: with r the squared gain
    # ratio, a = r - 1 and b = 1/count_small**2 - r/count_large**2
    r = (large.gain_linear / small.gain_linear) ** 2
    return (1.0 / count_small**2 - r / count_large**2) / (r - 1.0)


# --- three measurements: one pair per axis ------------------------------

def test_pair_zero_spread_gives_exact_zero():
    spread = AngularSpread(0.0, 0.0)
    estimate = estimate_ls(_measurements(_ELEMENT, spread, [(4, 4), (4, 8), (8, 4)]))
    assert estimate.asd_over_bhe_sq == 0.0
    assert estimate.zsd_over_bve_sq == 0.0


def test_pair_round_trip_asd():
    spread = _spread_from_normalized(0.0, 0.01)
    estimate = estimate_ls(_measurements(_ELEMENT, spread, [(4, 4), (4, 8), (8, 4)]))
    assert estimate.asd_over_bhe_sq == pytest.approx(0.01, rel=1e-12)


def test_pair_round_trip_zsd():
    spread = _spread_from_normalized(0.0025, 0.0)
    estimate = estimate_ls(_measurements(_ELEMENT, spread, [(4, 4), (16, 4), (4, 8)]))
    assert estimate.zsd_over_bve_sq == pytest.approx(0.0025, rel=1e-12)


def test_pair_is_order_independent():
    spread = _spread_from_normalized(0.0009, 0.04)
    meas = _measurements(_ELEMENT, spread, [(4, 4), (4, 16), (16, 4)])
    estimates = {estimate_ls(list(order)) for order in itertools.permutations(meas)}
    assert len(estimates) == 1


def test_pair_equal_gains_indeterminate():
    # equal gains leave the pair equation 0 * x = b: skipped and counted,
    # and with no other pair the axis is unidentifiable
    spread = _spread_from_normalized(0.0025, 0.0)
    equal = [SubArrayGain(4, 4, 100.0), SubArrayGain(4, 8, 100.0)]
    rows = _measurements(_ELEMENT, spread, [(8, 4), (16, 4)])
    with pytest.raises(UnidentifiableSpreadError, match="ASD unidentifiable"):
        estimate_ls(equal + rows)
    estimate = estimate_ls(equal + rows + [SubArrayGain(4, 16, 200.0)])
    assert (estimate.n_pairs_asd, estimate.n_skipped_asd) == (2, 1)


def test_pair_shape_mismatch_rejected():
    # 4x4-8x8 and 4x8-8x4 share no count: neither is used nor skipped
    spread = _spread_from_normalized(0.0009, 0.04)
    estimate = estimate_ls(_measurements(_ELEMENT, spread, [(4, 4), (8, 8), (4, 8), (8, 4)]))
    assert (estimate.n_pairs_asd, estimate.n_pairs_zsd) == (2, 2)
    assert (estimate.n_skipped_asd, estimate.n_skipped_zsd) == (0, 0)


def test_subarray_gain_validation():
    with pytest.raises(ValueError):
        SubArrayGain(0, 4, 1.0)
    with pytest.raises(ValueError):
        SubArrayGain(4, 4, 0.0)
    with pytest.raises(ValueError):
        SubArrayGain(True, 4, 1.0)
    with pytest.raises(ValueError):
        SubArrayGain(4, 4, math.inf)


# --- least-squares fit --------------------------------------------------

def test_ls_single_pair_matches_pair_estimator():
    spread = _spread_from_normalized(0.0016, 0.0121)
    shapes = [(4, 4), (4, 8), (8, 4)]
    meas = _measurements(_ELEMENT, spread, shapes)
    estimate = estimate_ls(meas)
    assert estimate.asd_over_bhe_sq == _pair_sq(meas[0], meas[1], 4, 8)
    assert estimate.zsd_over_bve_sq == _pair_sq(meas[0], meas[2], 4, 8)
    assert estimate.n_pairs_asd == 1
    assert estimate.n_pairs_zsd == 1


def test_ls_round_trip_five_shapes():
    spread = _spread_from_normalized(0.0009, 0.04)
    shapes = [(4, 4), (4, 8), (4, 16), (8, 4), (16, 4)]
    estimate = estimate_ls(_measurements(_ELEMENT, spread, shapes))
    assert estimate.asd_over_bhe_sq == pytest.approx(0.04, rel=1e-10)
    assert estimate.zsd_over_bve_sq == pytest.approx(0.0009, rel=1e-10)
    assert estimate.n_pairs_asd == 3
    assert estimate.n_pairs_zsd == 3

    absolute = estimate.absolute_spread(_ELEMENT)
    assert absolute.asd_rad == pytest.approx(spread.asd_rad, rel=1e-10)
    assert absolute.zsd_rad == pytest.approx(spread.zsd_rad, rel=1e-10)


def test_ls_clamps_to_zero_under_noise():
    rng = np.random.default_rng(7)
    spread = AngularSpread(0.0, 0.0)
    shapes = [(4, 4), (4, 8), (4, 16), (8, 4), (16, 4)]
    clamped = 0
    for _ in range(50):
        meas = [
            SubArrayGain(r, c, _forward_gain(_ELEMENT, r, c, spread) * (1 + 0.03 * float(rng.standard_normal())))
            for r, c in shapes
        ]
        estimate = estimate_ls(meas)
        assert estimate.asd_over_bhe_sq >= 0.0
        assert estimate.zsd_over_bve_sq >= 0.0
        if estimate.asd_over_bhe_sq == 0.0 or estimate.zsd_over_bve_sq == 0.0:
            clamped += 1
    assert clamped > 0


def test_ls_invariant_under_common_gain_scale():
    spread = _spread_from_normalized(0.0009, 0.04)
    shapes = [(4, 4), (4, 8), (4, 16), (8, 4), (16, 4)]
    plain = estimate_ls(_measurements(_ELEMENT, spread, shapes))
    scaled = estimate_ls(_measurements(_ELEMENT, spread, shapes, scale=7.3))
    # gain ratios shift by one ulp under the common factor, nothing more
    assert scaled.asd_over_bhe_sq == pytest.approx(plain.asd_over_bhe_sq, rel=1e-12)
    assert scaled.zsd_over_bve_sq == pytest.approx(plain.zsd_over_bve_sq, rel=1e-12)


def test_ls_counts_skipped_pairs():
    shapes_gains = [
        SubArrayGain(4, 4, 1.0),
        SubArrayGain(4, 8, 1.0),
        SubArrayGain(4, 16, 2.0),
    ]
    spread = _spread_from_normalized(0.0025, 0.0)
    rows = [
        SubArrayGain(8, 4, _forward_gain(_ELEMENT, 8, 4, spread)),
        SubArrayGain(16, 4, _forward_gain(_ELEMENT, 16, 4, spread)),
    ]
    # (4,4)-(4,8) has equal gains so it must be skipped, not fatal
    estimate = estimate_ls(shapes_gains + rows)
    assert estimate.n_skipped_asd == 1
    assert estimate.n_pairs_asd == 2


def test_ls_unidentifiable_axes():
    spread = _spread_from_normalized(0.0009, 0.04)
    only_cols = _measurements(_ELEMENT, spread, [(4, 4), (4, 8), (4, 16)])
    with pytest.raises(UnidentifiableSpreadError, match="ZSD unidentifiable") as info:
        estimate_ls(only_cols)
    assert info.value.axis == "ZSD"

    only_rows = _measurements(_ELEMENT, spread, [(4, 4), (8, 4), (16, 4)])
    with pytest.raises(UnidentifiableSpreadError, match="ASD unidentifiable") as info:
        estimate_ls(only_rows)
    assert info.value.axis == "ASD"

    with pytest.raises(UnidentifiableSpreadError, match="ASD"):
        estimate_ls(_measurements(_ELEMENT, spread, [(4, 4)]))


def test_spread_estimate_validation():
    with pytest.raises(ValueError):
        SpreadEstimate(-1e-3, 0.0, 1, 1, 0, 0)
    # the skipped counts have no default
    with pytest.raises(TypeError):
        SpreadEstimate(0.25, 0.5, 3, 1)


@pytest.mark.parametrize(
    "cls, fields, text, bad, message",
    [
        (
            SubArrayGain, {"rows": 4, "cols": 8, "gain_linear": 0.5},
            "SubArrayGain(rows=4, cols=8, gain_linear=0.5)",
            {"rows": 4, "cols": 8, "gain_linear": 0.0}, "gain_linear must be finite and > 0, got 0.0",
        ),
        (
            SpreadEstimate,
            {
                "asd_over_bhe_sq": 0.25, "zsd_over_bve_sq": 0.5, "n_pairs_asd": 3,
                "n_pairs_zsd": 1, "n_skipped_asd": 2, "n_skipped_zsd": 0,
            },
            "SpreadEstimate(asd_over_bhe_sq=0.25, zsd_over_bve_sq=0.5, n_pairs_asd=3, "
            "n_pairs_zsd=1, n_skipped_asd=2, n_skipped_zsd=0)",
            {
                "asd_over_bhe_sq": 0.25, "zsd_over_bve_sq": -0.5, "n_pairs_asd": 1,
                "n_pairs_zsd": 1, "n_skipped_asd": 0, "n_skipped_zsd": 0,
            },
            "spread estimates must be clamped to >= 0",
        ),
    ],
    ids=["SubArrayGain", "SpreadEstimate"],
)
def test_value_types(cls, fields, text, bad, message, check_value_type):
    check_value_type(cls, fields, text, bad, message)


# --- prediction ---------------------------------------------------------

def test_predict_identity_at_reference_shape():
    spread = _spread_from_normalized(0.0009, 0.04)
    ref = SubArrayGain(8, 4, _forward_gain(_ELEMENT, 8, 4, spread))
    estimate = estimate_ls(
        _measurements(_ELEMENT, spread, [(4, 4), (4, 8), (8, 4), (16, 4)])
    )
    assert predict_subarray_gain(ref, estimate, 8, 4) == ref.gain_linear


def test_predict_aperture_law_at_zero_spread():
    estimate = SpreadEstimate(0.0, 0.0, 1, 1, 0, 0)
    ref = SubArrayGain(4, 4, 1.0)
    assert predict_subarray_gain(ref, estimate, 8, 8) == 4.0


def test_predict_closed_loop():
    spread = _spread_from_normalized(0.0009, 0.04)
    shapes = [(4, 4), (4, 8), (4, 16), (8, 4), (16, 4)]
    meas = _measurements(_ELEMENT, spread, shapes)
    estimate = estimate_ls(meas)
    predicted = predict_subarray_gain(meas[0], estimate, 16, 16)
    truth = _forward_gain(_ELEMENT, 16, 16, spread)
    assert predicted == pytest.approx(truth, rel=1e-9)


def test_predict_matches_the_normalized_formula():
    # the closed form in normalized spreads, kept here as the reference
    # for the prediction that beam computes on a unit element
    def reference(ref, z, a, rows, cols):
        scale = (
            math.sqrt(1.0 / ref.rows**2 + z) * math.sqrt(1.0 / ref.cols**2 + a)
        ) / (math.sqrt(1.0 / rows**2 + z) * math.sqrt(1.0 / cols**2 + a))
        return ref.gain_linear * scale

    rng = np.random.default_rng(11)
    for _ in range(2000):
        z, a = 10.0 ** rng.uniform(-8.0, 4.0, size=2) * (rng.random(2) > 0.1)
        counts = 2 ** rng.integers(0, 11, size=4)
        rows, cols, target_rows, target_cols = (int(count) for count in counts)
        ref = SubArrayGain(rows, cols, float(10.0 ** rng.uniform(-3.0, 3.0)))
        estimate = SpreadEstimate(float(a), float(z), 1, 1, 0, 0)
        predicted = predict_subarray_gain(ref, estimate, target_rows, target_cols)
        expected = reference(ref, float(z), float(a), target_rows, target_cols)
        assert predicted == pytest.approx(expected, rel=1e-13), (ref, estimate)


@pytest.mark.parametrize(
    "rows, cols, spread_sq",
    [(10**400, 1, 0.01), (10**200, 10**200, 0.0)],
    ids=["count", "zero-spread-widths"],
)
def test_predict_checks_the_reference_count(rows, cols, spread_sq):
    # a reference count beyond float range gave OverflowError, and widths
    # whose product is 0 gave ZeroDivisionError
    estimate = SpreadEstimate(spread_sq, spread_sq, 1, 1, 0, 0)
    with pytest.raises(ValueError, match=f"^gain of the {rows}x{cols} sub-array leaves the float range$"):
        predict_subarray_gain(SubArrayGain(rows, cols, 1.0), estimate, 2, 2)


def test_predict_validates_targets():
    estimate = SpreadEstimate(0.0, 0.0, 1, 1, 0, 0)
    ref = SubArrayGain(4, 4, 1.0)
    with pytest.raises(ValueError):
        predict_subarray_gain(ref, estimate, 0, 8)
    with pytest.raises(ValueError):
        predict_subarray_gain(ref, estimate, 8, 8.0)


# --- relative gains from raw powers ------------------------------------

def test_relative_gains_baseline_is_exactly_one():
    readings = [(4, 4, 10.0, -70.0), (4, 8, 10.0, -67.0), (8, 4, 10.0, -66.5)]
    gains = relative_gains_from_power(readings, baseline_index=0)
    assert gains[0].gain_linear == 1.0
    assert gains[0].rows == 4 and gains[0].cols == 4


def test_relative_gains_tx_rx_deltas():
    # +10 dB received on +3 dB transmitted is a +7 dB gain step
    readings = [(4, 4, 10.0, -70.0), (8, 8, 13.0, -60.0)]
    gains = relative_gains_from_power(readings, baseline_index=0)
    assert gains[1].gain_linear == pytest.approx(10.0 ** 0.7, rel=1e-12)


def test_relative_gains_cancel_common_mode():
    base = [(4, 4, 10.0, -60.5), (4, 8, 10.0, -57.25)]
    shifted = [(4, 4, 12.0, -58.5), (4, 8, 12.0, -55.25)]
    a = relative_gains_from_power(base, baseline_index=0)
    b = relative_gains_from_power(shifted, baseline_index=0)
    assert a[1].gain_linear == b[1].gain_linear


@pytest.mark.parametrize("rx", [4000.0, -4000.0])
def test_relative_gains_beyond_float_range_raise(rx):
    # 10 ** 407 overflows and 10 ** -393 underflows to zero
    with pytest.raises(ValueError, match="measurement 1: .* leaves the float range"):
        relative_gains_from_power([(4, 4, 10.0, -70.0), (4, 8, 10.0, rx)], baseline_index=0)


def test_pair_whose_squared_ratio_overflows_raises():
    # (1e160)**2 overflows, and 1e300 / 1e-300 already does; the larger
    # count is named first whichever way the pair is listed
    for small, large in ((1.0, 1e160), (1e-300, 1e300)):
        pair = [SubArrayGain(4, 4, small), SubArrayGain(4, 8, large)]
        for meas in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="squared gain ratio of 4x8 to 4x4 overflows"):
                estimate_ls([*meas, SubArrayGain(8, 4, 2.0)])


def test_ls_whose_sums_overflow_raises_instead_of_nan():
    # every squared ratio fits a float, but (1e150**2 - 1)**2 does not:
    # the sums were inf and -inf, and their quotient nan
    meas = [
        SubArrayGain(4, 4, 1.0), SubArrayGain(4, 8, 1e150), SubArrayGain(4, 16, 1e-150),
        SubArrayGain(8, 4, 2.0),
    ]
    with pytest.raises(ValueError, match="ASD least-squares sums overflow"):
        estimate_ls(meas)


def test_ls_refuses_more_measurements_than_the_limit():
    # the pairs grow as the square of the list, so a long list is refused
    # before any pair is formed; k x k measurements make no pair at all
    meas = [SubArrayGain(k, k, 1.0) for k in range(1, _MAX_MEASUREMENTS + 2)]
    with pytest.raises(
        ValueError,
        match=f"^at most {_MAX_MEASUREMENTS} measurements can be fitted, got {_MAX_MEASUREMENTS + 1}$",
    ):
        estimate_ls(meas)
    with pytest.raises(UnidentifiableSpreadError):
        estimate_ls(meas[:-1])


def test_relative_gains_validation():
    with pytest.raises(ValueError):
        relative_gains_from_power([], baseline_index=0)
    with pytest.raises(ValueError):
        relative_gains_from_power([(4, 4, 10.0, -70.0)], baseline_index=5)
