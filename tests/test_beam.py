"""Core beam model: gain/beamwidth algebra and its invariants.

Groups:
  1. type validation
  2. element beamwidth from gain
  3. nominal and effective beamwidths
  4. directional and effective gain, including the two reference points
     (8 dBi element, 16 deg / 1 deg spread) at 19.91 and 24.31 dBi
  5. randomized invariants: monotonicity, widening, zero-spread
     consistency, effective <= min(nominal, bound), the report bit for
     bit against a composition kept here as the reference, and the run
     form of the gain bit for bit against the scalar form
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    DegenerateElementError,
    ElementPattern,
    GainReport,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    nominal_beamwidths,
)
from arraygain.beam import pair_gains_dbi, row_gains_dbi
from arraygain.units import linear_to_db


def _reference_gains(element, geom, spread):
    # nominal widths -> hypot widening -> 2 / (product), written out apart
    # from the package's one gain path
    nominal_elev = element.bw_elev_rad / geom.rows
    nominal_azim = element.bw_azim_rad / geom.cols
    widened_elev = math.hypot(nominal_elev, spread.zsd_rad)
    widened_azim = math.hypot(nominal_azim, spread.asd_rad)
    bound = 2.0 / (
        spread.asd_rad * spread.zsd_rad
        + element.bw_elev_rad * element.bw_azim_rad / geom.n_elements
    )
    return (
        2.0 / (nominal_azim * nominal_elev),
        2.0 / (widened_azim * widened_elev),
        bound,
    )


# --- 1. type validation -------------------------------------------------

def test_element_pattern_rejects_bad_widths():
    with pytest.raises(DegenerateElementError, match="degenerate element"):
        ElementPattern(bw_elev_rad=0.0, bw_azim_rad=1.0)
    with pytest.raises(DegenerateElementError):
        ElementPattern(bw_elev_rad=1.0, bw_azim_rad=-0.5)
    with pytest.raises(DegenerateElementError):
        ElementPattern(bw_elev_rad=math.nan, bw_azim_rad=1.0)
    # each width is fine, but the gain 2 / product is not a normal float: the
    # product underflows or 2 / product overflows, or the product overflows
    # (a zero gain) or 2 / product is subnormal
    for elev, azim in [
        (1e-200, 1e-200), (1e-160, 1e-160), (1e-300, 1e-9), (1e155, 1e155), (1e154, 1e154),
    ]:
        with pytest.raises(DegenerateElementError, match="beyond float range"):
            ElementPattern(bw_elev_rad=elev, bw_azim_rad=azim)
    assert ElementPattern(bw_elev_rad=1e-150, bw_azim_rad=1e-150).gain_linear == pytest.approx(2e300)


def test_geometry_requires_positive_integers():
    geom = ArrayGeometry(rows=8, cols=16)
    assert geom.n_elements == 128
    for rows, cols in [(0, 4), (4, 0), (-1, 4), (2.0, 4), (True, 4)]:
        with pytest.raises(ValueError):
            ArrayGeometry(rows=rows, cols=cols)


def test_spread_rejects_negative_or_nonfinite():
    assert AngularSpread(zsd_rad=0.0, asd_rad=0.0).is_zero
    with pytest.raises(ValueError):
        AngularSpread(zsd_rad=-0.1, asd_rad=0.0)
    with pytest.raises(ValueError):
        AngularSpread(zsd_rad=0.0, asd_rad=math.inf)


def test_gain_report_orderings_enforced():
    with pytest.raises(ValueError, match="exceeds nominal"):
        GainReport.from_linear(nominal=10.0, effective=11.0, bound=20.0)
    with pytest.raises(ValueError, match="exceeds the upper bound"):
        GainReport.from_linear(nominal=20.0, effective=11.0, bound=10.0)


@pytest.mark.parametrize(
    "cls, fields, text, bad, message",
    [
        (
            ElementPattern, {"bw_elev_rad": 0.5, "bw_azim_rad": 0.25},
            "ElementPattern(bw_elev_rad=0.5, bw_azim_rad=0.25)",
            {"bw_elev_rad": 0.0, "bw_azim_rad": 1.0}, "degenerate element: bw_elev_rad = 0.0",
        ),
        (
            ArrayGeometry, {"rows": 32, "cols": 8}, "ArrayGeometry(rows=32, cols=8)",
            {"rows": 4, "cols": 2.0}, "cols must be a positive integer, got 2.0",
        ),
        (
            AngularSpread, {"zsd_rad": 0.125, "asd_rad": 0.5},
            "AngularSpread(zsd_rad=0.125, asd_rad=0.5)",
            {"zsd_rad": 0.0, "asd_rad": -0.5}, "asd_rad must be finite and >= 0, got -0.5",
        ),
        (
            GainReport,
            {
                "nominal_gain_linear": 10.0, "effective_gain_linear": 2.0,
                "upper_bound_linear": 4.0, "nominal_gain_dbi": 10.0,
                "effective_gain_dbi": 3.0, "upper_bound_dbi": 6.0,
            },
            "GainReport(nominal_gain_linear=10.0, effective_gain_linear=2.0, "
            "upper_bound_linear=4.0, nominal_gain_dbi=10.0, effective_gain_dbi=3.0, "
            "upper_bound_dbi=6.0)",
            {
                "nominal_gain_linear": 1.0, "effective_gain_linear": 2.0,
                "upper_bound_linear": 4.0, "nominal_gain_dbi": 0.0,
                "effective_gain_dbi": 3.0, "upper_bound_dbi": 6.0,
            },
            "effective gain exceeds nominal gain",
        ),
    ],
    ids=["ElementPattern", "ArrayGeometry", "AngularSpread", "GainReport"],
)
def test_value_types(cls, fields, text, bad, message, check_value_type):
    check_value_type(cls, fields, text, bad, message)


# --- 2. element from gain ----------------------------------------------

def test_element_from_gain_identities():
    # linear gain 2 means bw = sqrt(2/2) = 1 exactly
    pattern = element_pattern_from_gain(10.0 * math.log10(2.0))
    assert pattern.bw_elev_rad == pytest.approx(1.0, rel=1e-12)
    assert pattern.bw_azim_rad == pattern.bw_elev_rad

    assert element_pattern_from_gain(0.0).bw_elev_rad == math.sqrt(2.0)


def test_element_from_gain_5dbi():
    pattern = element_pattern_from_gain(5.0)
    assert pattern.bw_elev_rad == pytest.approx(math.sqrt(2.0 / 10.0**0.5), rel=1e-15)
    assert pattern.bw_elev_rad == pytest.approx(0.79527, abs=5e-6)


def test_element_from_gain_degenerate_and_invalid():
    with pytest.raises(DegenerateElementError, match="degenerate element"):
        element_pattern_from_gain(4000.0)
    with pytest.raises(DegenerateElementError):
        element_pattern_from_gain(-4000.0)
    with pytest.raises(ValueError):
        element_pattern_from_gain(math.nan)


def test_element_gain_round_trip():
    for dbi in (-3.0, 0.0, 5.0, 8.0, 12.5):
        pattern = element_pattern_from_gain(dbi)
        assert 10.0 * math.log10(pattern.gain_linear) == pytest.approx(dbi, abs=1e-12)


# --- 3. beamwidths ------------------------------------------------------

def test_nominal_beamwidths_divide_by_counts():
    unit = ElementPattern(bw_elev_rad=1.0, bw_azim_rad=1.0)
    assert nominal_beamwidths(unit, ArrayGeometry(1, 1)) == ElementPattern(1.0, 1.0)

    five = element_pattern_from_gain(5.0)
    beam = nominal_beamwidths(five, ArrayGeometry(16, 16))
    assert beam.bw_elev_rad == pytest.approx(0.049704, abs=5e-7)
    assert beam.bw_azim_rad == beam.bw_elev_rad

    eight = element_pattern_from_gain(8.0)
    beam = nominal_beamwidths(eight, ArrayGeometry(8, 16))
    assert beam.bw_elev_rad == pytest.approx(0.070376, abs=5e-7)
    assert beam.bw_azim_rad == pytest.approx(0.035188, abs=5e-7)


def test_effective_beamwidths_pythagorean():
    # each axis widens to hypot(3, 4) = hypot(4, 3) = 5
    gain = effective_gain_value(ElementPattern(3.0, 4.0), 1, 1, AngularSpread(4.0, 3.0))
    assert gain == 2.0 / 25.0


# --- 4. gains -----------------------------------------------------------

def test_directional_gain_basics():
    assert ElementPattern(1.0, 2.0).gain_linear == 1.0
    sqrt2 = math.sqrt(2.0)
    assert ElementPattern(sqrt2, sqrt2).gain_linear == pytest.approx(1.0, rel=1e-15)


def test_nominal_gain_256_elements_5dbi():
    five = element_pattern_from_gain(5.0)
    beam = nominal_beamwidths(five, ArrayGeometry(32, 8))
    assert 10.0 * math.log10(beam.gain_linear) == pytest.approx(29.08, abs=0.05)


def test_reference_effective_gains(spread_deg):
    eight = element_pattern_from_gain(8.0)
    spread = spread_deg(zsd=1.0, asd=16.0)
    wide = effective_gain(eight, ArrayGeometry(8, 16), spread)
    assert wide.effective_gain_dbi == pytest.approx(19.91, abs=0.02)
    tall = effective_gain(eight, ArrayGeometry(42, 3), spread)
    assert tall.effective_gain_dbi == pytest.approx(24.31, abs=0.02)


def test_tall_vs_square_vs_fat_deltas(spread_deg):
    five = element_pattern_from_gain(5.0)
    spread = spread_deg(zsd=0.6, asd=14.0)
    g = {
        geom: effective_gain(five, ArrayGeometry(*geom), spread).effective_gain_dbi
        for geom in [(64, 4), (16, 16), (1, 256)]
    }
    assert g[(64, 4)] - g[(16, 16)] == pytest.approx(4.0, abs=0.3)
    assert g[(64, 4)] - g[(1, 256)] == pytest.approx(16.0, abs=0.5)


def test_gain_report_db_fields_match_linear(spread_deg):
    report = effective_gain(
        element_pattern_from_gain(5.0), ArrayGeometry(8, 4), spread_deg(2.0, 11.0)
    )
    for linear, dbi in [
        (report.nominal_gain_linear, report.nominal_gain_dbi),
        (report.effective_gain_linear, report.effective_gain_dbi),
        (report.upper_bound_linear, report.upper_bound_dbi),
    ]:
        assert dbi == pytest.approx(10.0 * math.log10(linear), rel=1e-12)


def test_zero_spread_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dbi = float(rng.uniform(-3.0, 12.0))
        rows = int(rng.integers(1, 64))
        cols = int(rng.integers(1, 64))
        element = element_pattern_from_gain(dbi)
        report = effective_gain(element, ArrayGeometry(rows, cols), AngularSpread(0.0, 0.0))
        expected = rows * cols * element.gain_linear
        assert report.effective_gain_linear == pytest.approx(expected, rel=1e-12)
        assert report.effective_gain_linear == report.nominal_gain_linear


def test_effective_gain_value_matches_integer_path(spread_deg):
    element = element_pattern_from_gain(8.0)
    spread = spread_deg(1.0, 16.0)
    report = effective_gain(element, ArrayGeometry(8, 16), spread)
    assert effective_gain_value(element, 8, 16, spread) == report.effective_gain_linear
    with pytest.raises(ValueError):
        effective_gain_value(element, 0.0, 16, spread)


# --- 5. randomized invariants -------------------------------------------

def test_random_orderings_and_widening():
    rng = np.random.default_rng(29)
    for _ in range(300):
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.01, 2.0)),
            bw_azim_rad=float(rng.uniform(0.01, 2.0)),
        )
        geom = ArrayGeometry(int(rng.integers(1, 80)), int(rng.integers(1, 80)))
        spread = AngularSpread(
            zsd_rad=float(rng.uniform(0.0, 0.6)), asd_rad=float(rng.uniform(0.0, 0.6))
        )
        nominal = nominal_beamwidths(element, geom)
        widened_elev = math.hypot(nominal.bw_elev_rad, spread.zsd_rad)
        widened_azim = math.hypot(nominal.bw_azim_rad, spread.asd_rad)
        assert widened_elev >= nominal.bw_elev_rad
        assert widened_azim >= nominal.bw_azim_rad
        if spread.zsd_rad == 0.0:
            assert widened_elev == nominal.bw_elev_rad
        report = effective_gain(element, geom, spread)
        tol = 1.0 + 1e-12
        assert report.effective_gain_linear <= report.nominal_gain_linear * tol
        assert report.effective_gain_linear <= report.upper_bound_linear * tol


def test_gain_strictly_decreases_in_each_spread(spread_deg):
    element = element_pattern_from_gain(6.0)
    geom = ArrayGeometry(12, 6)
    base = effective_gain(element, geom, spread_deg(2.0, 9.0)).effective_gain_linear
    more_zsd = effective_gain(element, geom, spread_deg(2.5, 9.0)).effective_gain_linear
    more_asd = effective_gain(element, geom, spread_deg(2.0, 9.5)).effective_gain_linear
    assert more_zsd < base
    assert more_asd < base


def test_gain_strictly_decreases_in_each_beamwidth():
    assert ElementPattern(1.1, 2.0).gain_linear < ElementPattern(1.0, 2.0).gain_linear
    assert ElementPattern(1.0, 2.1).gain_linear < ElementPattern(1.0, 2.0).gain_linear


def test_report_matches_reference_composition_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(400):
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.01, 2.0)),
            bw_azim_rad=float(rng.uniform(0.01, 2.0)),
        )
        geom = ArrayGeometry(int(rng.integers(1, 200)), int(rng.integers(1, 200)))
        zsd, asd = (
            0.0 if rng.random() < 0.2 else float(rng.uniform(1e-4, 0.6)) for _ in range(2)
        )
        spread = AngularSpread(zsd_rad=zsd, asd_rad=asd)
        report = effective_gain(element, geom, spread)
        got = (
            report.nominal_gain_linear,
            report.effective_gain_linear,
            report.upper_bound_linear,
        )
        assert got == _reference_gains(element, geom, spread)


def test_row_gains_match_the_scalar_gain_bit_for_bit():
    # the ranges that the sweep's flat-block test draws from: widths
    # 0.01..200 deg, spreads 1e-6..80 deg or exactly zero on either axis,
    # rows up to 10**6 and blocks of cols up to 10**9
    rng = np.random.default_rng(53)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    zeros = [0, 0]  # spreads drawn as exact zeros, per axis
    for case in range(2000):
        element = ElementPattern(
            math.radians(log_uniform(0.01, 200.0)), math.radians(log_uniform(0.01, 200.0))
        )
        # cases cycle through no zero, zsd = 0, asd = 0 and both zero
        zsd, asd = (
            0.0 if case & bit else math.radians(log_uniform(1e-6, 80.0)) for bit in (1, 2)
        )
        zeros[0] += zsd == 0.0
        zeros[1] += asd == 0.0
        spread = AngularSpread(zsd_rad=zsd, asd_rad=asd)
        rows = round(log_uniform(1, 1e6))
        base = 1000 * round(log_uniform(1, 1e6)) if case % 5 else 0
        start = base + int(rng.integers(1, 1000))
        block = range(start, int(rng.integers(start + 1, base + 1001)))
        want = [linear_to_db(effective_gain_value(element, rows, c, spread)) for c in block]
        got = list(map(float.hex, row_gains_dbi(element, rows, block, spread)))
        assert got == list(map(float.hex, want)), (element, spread, rows, block)
    assert zeros == [1000, 1000]


def test_pair_gains_match_the_scalar_gain_bit_for_bit():
    # the same draws as the run test above, with rows and cols varying
    # together, as in a sweep's batch below 1,000 columns or a listed set
    rng = np.random.default_rng(59)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    zeros = [0, 0]  # spreads drawn as exact zeros, per axis
    for case in range(2000):
        element = ElementPattern(
            math.radians(log_uniform(0.01, 200.0)), math.radians(log_uniform(0.01, 200.0))
        )
        # cases cycle through no zero, zsd = 0, asd = 0 and both zero
        zsd, asd = (
            0.0 if case & bit else math.radians(log_uniform(1e-6, 80.0)) for bit in (1, 2)
        )
        zeros[0] += zsd == 0.0
        zeros[1] += asd == 0.0
        spread = AngularSpread(zsd_rad=zsd, asd_rad=asd)
        size = int(rng.integers(1, 200))
        rows = np.rint(np.exp(rng.uniform(0.0, np.log(1e6), size))).astype(int).tolist()
        cols = np.rint(np.exp(rng.uniform(0.0, np.log(1e9), size))).astype(int).tolist()
        want = [
            linear_to_db(effective_gain_value(element, r, c, spread)) for r, c in zip(rows, cols)
        ]
        got = list(map(float.hex, pair_gains_dbi(element, rows, cols, spread)))
        assert got == list(map(float.hex, want)), (element, spread, rows, cols)
    assert zeros == [1000, 1000]


def test_effective_gain_rejects_gain_beyond_float_range():
    # the nominal gain N * G_e overflows, so every field would print inf
    huge = element_pattern_from_gain(3000.0)
    with pytest.raises(ValueError, match="beyond float range"):
        effective_gain(huge, ArrayGeometry(10**9, 1), AngularSpread(0.0, 0.0))
    # a count past float range
    with pytest.raises(ValueError, match="n_elements must be at most"):
        effective_gain(element_pattern_from_gain(5.0), ArrayGeometry(10**400, 1), AngularSpread(0.1, 0.1))
    # N * G_e fits, but one nominal width underflows to zero
    absurd = ElementPattern(bw_elev_rad=1e-300, bw_azim_rad=1e300)
    with pytest.raises(DegenerateElementError):
        effective_gain(absurd, ArrayGeometry(10**30, 1), AngularSpread(0.0, 0.0))
