"""Spread estimation from sub-array gain measurements.

Exercises the pair equations, the least-squares fit over many pairs,
forward gain prediction, and relative-gain extraction from raw power
readings.  Round trips are checked against gains synthesized with the
forward model, so the estimator is tested end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    IndeterminatePairError,
    InvalidPairError,
    SpreadEstimate,
    SubArrayGain,
    UnidentifiableSpreadError,
    effective_gain,
    element_pattern_from_gain,
    estimate_asd_sq_pair,
    estimate_ls,
    estimate_zsd_sq_pair,
    predict_subarray_gain,
    relative_gains_from_power,
)
from arraygain.scenario import MeasurementRecord


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


# --- single-pair estimators ---------------------------------------------

def test_pair_zero_spread_gives_exact_zero():
    spread = AngularSpread(0.0, 0.0)
    a4 = SubArrayGain(4, 4, _forward_gain(_ELEMENT, 4, 4, spread))
    a8 = SubArrayGain(4, 8, _forward_gain(_ELEMENT, 4, 8, spread))
    assert estimate_asd_sq_pair(a4, a8) == 0.0


def test_pair_round_trip_asd():
    spread = _spread_from_normalized(0.0, 0.01)
    a4 = SubArrayGain(4, 4, _forward_gain(_ELEMENT, 4, 4, spread))
    a8 = SubArrayGain(4, 8, _forward_gain(_ELEMENT, 4, 8, spread))
    assert estimate_asd_sq_pair(a4, a8) == pytest.approx(0.01, rel=1e-12)


def test_pair_round_trip_zsd():
    spread = _spread_from_normalized(0.0025, 0.0)
    z4 = SubArrayGain(4, 4, _forward_gain(_ELEMENT, 4, 4, spread))
    z16 = SubArrayGain(16, 4, _forward_gain(_ELEMENT, 16, 4, spread))
    assert estimate_zsd_sq_pair(z4, z16) == pytest.approx(0.0025, rel=1e-12)


def test_pair_is_order_independent():
    spread = _spread_from_normalized(0.0, 0.04)
    a4 = SubArrayGain(4, 4, _forward_gain(_ELEMENT, 4, 4, spread))
    a16 = SubArrayGain(4, 16, _forward_gain(_ELEMENT, 4, 16, spread))
    assert estimate_asd_sq_pair(a4, a16) == estimate_asd_sq_pair(a16, a4)


def test_pair_equal_gains_indeterminate():
    a4 = SubArrayGain(4, 4, 100.0)
    a8 = SubArrayGain(4, 8, 100.0)
    with pytest.raises(IndeterminatePairError, match="indeterminate pair"):
        estimate_asd_sq_pair(a4, a8)


def test_pair_shape_mismatch_rejected():
    spread = _spread_from_normalized(0.0, 0.01)
    a = SubArrayGain(4, 4, _forward_gain(_ELEMENT, 4, 4, spread))
    b = SubArrayGain(8, 8, _forward_gain(_ELEMENT, 8, 8, spread))
    with pytest.raises(InvalidPairError, match="invalid pair"):
        estimate_asd_sq_pair(a, b)
    same_cols = SubArrayGain(8, 4, _forward_gain(_ELEMENT, 8, 4, spread))
    with pytest.raises(InvalidPairError):
        estimate_asd_sq_pair(a, same_cols)
    with pytest.raises(InvalidPairError):
        estimate_zsd_sq_pair(a, b)


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
    assert estimate.asd_over_bhe_sq == estimate_asd_sq_pair(meas[0], meas[1])
    assert estimate.zsd_over_bve_sq == estimate_zsd_sq_pair(meas[0], meas[2])
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
        SpreadEstimate(-1e-3, 0.0, 1, 1)


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
            {"asd_over_bhe_sq": 0.25, "zsd_over_bve_sq": -0.5, "n_pairs_asd": 1, "n_pairs_zsd": 1},
            "spread estimates must be clamped to >= 0",
        ),
    ],
    ids=["SubArrayGain", "SpreadEstimate"],
)
def test_value_types(cls, fields, text, bad, message, check_value_type):
    check_value_type(cls, fields, text, bad, message)


def test_spread_estimate_defaults_count_no_skipped_pairs():
    assert SpreadEstimate(0.25, 0.5, 3, 1) == SpreadEstimate(
        asd_over_bhe_sq=0.25, zsd_over_bve_sq=0.5, n_pairs_asd=3, n_pairs_zsd=1,
        n_skipped_asd=0, n_skipped_zsd=0,
    )


# --- prediction ---------------------------------------------------------

def test_predict_identity_at_reference_shape():
    spread = _spread_from_normalized(0.0009, 0.04)
    ref = SubArrayGain(8, 4, _forward_gain(_ELEMENT, 8, 4, spread))
    estimate = estimate_ls(
        _measurements(_ELEMENT, spread, [(4, 4), (4, 8), (8, 4), (16, 4)])
    )
    assert predict_subarray_gain(ref, estimate, 8, 4) == ref.gain_linear


def test_predict_aperture_law_at_zero_spread():
    estimate = SpreadEstimate(0.0, 0.0, 1, 1)
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


def test_predict_validates_targets():
    estimate = SpreadEstimate(0.0, 0.0, 1, 1)
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


def test_relative_gains_accept_record_objects():
    records = [
        MeasurementRecord(4, 4, 10.0, -70.0),
        MeasurementRecord(4, 8, 10.0, -67.0),
    ]
    gains = relative_gains_from_power(records, baseline_index=0)
    assert gains[1].gain_linear == pytest.approx(10.0 ** 0.3, rel=1e-12)


def test_relative_gains_validation():
    with pytest.raises(ValueError):
        relative_gains_from_power([], baseline_index=0)
    with pytest.raises(ValueError):
        relative_gains_from_power([(4, 4, 10.0, -70.0)], baseline_index=5)
