"""Acceptance gate: the headline numerical guarantees, one test each.

Every test prints one "ACCEPTANCE <slug>: PASS|FAIL" line on the real
terminal (capture disabled for that line) and then asserts, so a plain
pytest run shows the verdict per criterion even when everything passes.

Slugs:
  reference-gains        two fixed effective-gain operating points, < 1 ms
  optimal-geometries     32x8 and 85x3 winners, confirmed exhaustively
  geometry-gain-deltas   tall vs square vs fat gaps (4 dB, 16 dB)
  nominal-gain           256 x 5 dBi = 29.08 dBi
  eirp-sizing            43 dBm -> 25 elements, 55 dBm -> 100
  spread-estimator       noiseless round trip 1e-10; LS beats single pairs
  oracle-agreement       convolution within 0.2 dB and MC within 3 SE
                         over the full beamwidth x spread box
  array-factor-scaling   physical ULA main-lobe width ~ 1/k within 15%
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    McConfig,
    SubArrayGain,
    convolve_effective_pattern,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    estimate_asd_sq_pair,
    estimate_ls,
    estimate_zsd_sq_pair,
    gaussian_pattern_sampled,
    grid_for,
    max_elements_for_eirp,
    monte_carlo_effective_gain,
    nominal_beamwidths,
    optimal_geometry_integer,
    upa_array_factor_beamwidth,
)

_SHAPES = ((4, 4), (4, 8), (4, 16), (8, 4), (16, 4))


def _verdict(capsys, slug: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{slug}: {detail}"


def _spread_deg(zsd: float, asd: float) -> AngularSpread:
    return AngularSpread(zsd_rad=math.radians(zsd), asd_rad=math.radians(asd))


def _brute_force_best(n, element, spread):
    best = None
    for cols in range(1, n + 1):
        for rows in range(1, n // cols + 1):
            gain = effective_gain_value(element, rows, cols, spread)
            if best is None or gain > best[0] * (1 + 1e-12):
                best = (gain, rows, cols)
            elif gain >= best[0] * (1 - 1e-12) and rows > best[1]:
                best = (gain, rows, cols)
    return best


def test_reference_gains(capsys):
    element = element_pattern_from_gain(8.0)
    spread = _spread_deg(zsd=1.0, asd=16.0)
    wide = effective_gain(element, ArrayGeometry(8, 16), spread).effective_gain_dbi
    tall = effective_gain(element, ArrayGeometry(42, 3), spread).effective_gain_dbi

    start = time.perf_counter()
    for _ in range(1000):
        effective_gain(element, ArrayGeometry(8, 16), spread)
    per_call = (time.perf_counter() - start) / 1000.0

    ok = abs(wide - 19.91) <= 0.02 and abs(tall - 24.31) <= 0.02 and per_call < 1e-3
    _verdict(
        capsys,
        "reference-gains",
        ok,
        f"8x16 {wide:.4f} dBi, 42x3 {tall:.4f} dBi, {per_call * 1e6:.1f} us/call",
    )


def test_optimal_geometries(capsys):
    element = element_pattern_from_gain(5.0)

    strong = _spread_deg(zsd=5.0, asd=22.0)
    strong_best = optimal_geometry_integer(256, element, strong).integer_best
    strong_brute = _brute_force_best(256, element, strong)
    strong_ok = (
        (strong_best.rows, strong_best.cols) == (32, 8)
        and (strong_brute[1], strong_brute[2]) == (32, 8)
    )

    mild = _spread_deg(zsd=0.6, asd=14.0)
    mild_result = optimal_geometry_integer(256, element, mild)
    mild_brute = _brute_force_best(256, element, mild)
    highlight = effective_gain(element, ArrayGeometry(85, 3), mild)
    gap_db = mild_result.integer_gain.effective_gain_dbi - highlight.effective_gain_dbi
    mild_ok = (
        abs(gap_db) <= 0.05
        and mild_result.integer_gain.effective_gain_linear
        == pytest.approx(mild_brute[0], rel=1e-12)
    )

    best = mild_result.integer_best
    _verdict(
        capsys,
        "optimal-geometries",
        strong_ok and mild_ok,
        f"strong {strong_best.rows}x{strong_best.cols}, "
        f"mild {best.rows}x{best.cols} vs 85x3 gap {gap_db:.4f} dB",
    )


def test_geometry_gain_deltas(capsys):
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(zsd=0.6, asd=14.0)
    tall = effective_gain(element, ArrayGeometry(64, 4), spread).effective_gain_dbi
    square = effective_gain(element, ArrayGeometry(16, 16), spread).effective_gain_dbi
    fat = effective_gain(element, ArrayGeometry(1, 256), spread).effective_gain_dbi
    d_square = tall - square
    d_fat = tall - fat
    ok = abs(d_square - 4.0) <= 0.3 and abs(d_fat - 16.0) <= 0.5
    _verdict(
        capsys,
        "geometry-gain-deltas",
        ok,
        f"64x4-16x16 {d_square:.3f} dB, 64x4-1x256 {d_fat:.3f} dB",
    )


def test_nominal_gain(capsys):
    element = element_pattern_from_gain(5.0)
    beam = nominal_beamwidths(element, ArrayGeometry(16, 16))
    gain_dbi = 10.0 * math.log10(beam.gain_linear)
    ok = abs(gain_dbi - 29.08) <= 0.05
    _verdict(capsys, "nominal-gain", ok, f"256 x 5 dBi = {gain_dbi:.4f} dBi")


def test_eirp_sizing(capsys):
    at_43 = max_elements_for_eirp(43.0, 10.0, 5.0)
    at_55 = max_elements_for_eirp(55.0, 10.0, 5.0)
    ok = at_43 == 25 and at_55 == 100
    _verdict(capsys, "eirp-sizing", ok, f"43 dBm -> {at_43}, 55 dBm -> {at_55}")


def _forward_measurements(element, zsd_sq, asd_sq, rng=None, noise_scale=0.0):
    spread = AngularSpread(
        zsd_rad=math.sqrt(zsd_sq) * element.bw_elev_rad,
        asd_rad=math.sqrt(asd_sq) * element.bw_azim_rad,
    )
    out = []
    for rows, cols in _SHAPES:
        gain = effective_gain(element, ArrayGeometry(rows, cols), spread).effective_gain_linear
        if noise_scale:
            gain *= 1.0 + noise_scale * float(rng.standard_normal())
        out.append(SubArrayGain(rows, cols, gain))
    return out


def test_spread_estimator(capsys):
    element = element_pattern_from_gain(5.0)

    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(100):
        zsd_sq = float(rng.uniform(1e-4, 0.25))
        asd_sq = float(rng.uniform(1e-4, 0.25))
        estimate = estimate_ls(_forward_measurements(element, zsd_sq, asd_sq))
        worst_rel = max(
            worst_rel,
            abs(estimate.asd_over_bhe_sq - asd_sq) / asd_sq,
            abs(estimate.zsd_over_bve_sq - zsd_sq) / zsd_sq,
        )
    round_trip_ok = worst_rel <= 1e-10

    # -30 dB multiplicative noise: LS over all pairs vs each single pair
    noise = 10.0 ** (-30.0 / 20.0)
    truth_z, truth_a = 0.0009, 0.04
    rng = np.random.default_rng(12345)
    ls_err = {"asd": [], "zsd": []}
    pair_err = {"asd": [[] for _ in range(3)], "zsd": [[] for _ in range(3)]}
    asd_pairs = ((0, 1), (0, 2), (1, 2))
    zsd_pairs = ((0, 3), (0, 4), (3, 4))
    for _ in range(1000):
        meas = _forward_measurements(element, truth_z, truth_a, rng, noise)
        estimate = estimate_ls(meas)
        ls_err["asd"].append(estimate.asd_over_bhe_sq - truth_a)
        ls_err["zsd"].append(estimate.zsd_over_bve_sq - truth_z)
        for slot, (i, j) in enumerate(asd_pairs):
            pair_err["asd"][slot].append(estimate_asd_sq_pair(meas[i], meas[j]) - truth_a)
        for slot, (i, j) in enumerate(zsd_pairs):
            pair_err["zsd"][slot].append(estimate_zsd_sq_pair(meas[i], meas[j]) - truth_z)

    def rmse(errors):
        return math.sqrt(sum(e * e for e in errors) / len(errors))

    noise_ok = True
    detail = []
    for axis in ("asd", "zsd"):
        ls_rmse = rmse(ls_err[axis])
        pair_median = statistics.median(rmse(errs) for errs in pair_err[axis])
        noise_ok = noise_ok and ls_rmse <= pair_median
        detail.append(f"{axis} LS {ls_rmse:.2e} vs pairs {pair_median:.2e}")

    _verdict(
        capsys,
        "spread-estimator",
        round_trip_ok and noise_ok,
        f"round-trip worst {worst_rel:.2e}, " + ", ".join(detail),
    )


def test_oracle_agreement(capsys):
    widths = np.linspace(1.0, 30.0, 5)
    spreads = np.linspace(0.0, 30.0, 5)
    conv_worst = 0.0
    covered = 0
    total = 0
    geom = ArrayGeometry(1, 1)
    for bw_elev_deg in widths:
        for bw_azim_deg in widths:
            element = ElementPattern(
                bw_elev_rad=math.radians(bw_elev_deg),
                bw_azim_rad=math.radians(bw_azim_deg),
            )
            for zsd_deg in spreads:
                for asd_deg in spreads:
                    spread = _spread_deg(zsd=float(zsd_deg), asd=float(asd_deg))
                    analytic = effective_gain(element, geom, spread)

                    grid = grid_for(element.bw_elev_rad, element.bw_azim_rad, spread)
                    pattern = gaussian_pattern_sampled(
                        element.bw_elev_rad, element.bw_azim_rad, grid
                    )
                    peak = convolve_effective_pattern(pattern, spread).peak_power
                    delta_db = abs(
                        10.0 * math.log10(peak) - analytic.effective_gain_dbi
                    )
                    conv_worst = max(conv_worst, delta_db)

                    config = McConfig(n_paths=20, n_realizations=10_000, seed=total)
                    mc_gain, mc_se = monte_carlo_effective_gain(
                        element, geom, spread, config
                    )
                    if abs(mc_gain - analytic.effective_gain_linear) <= 3.0 * mc_se:
                        covered += 1
                    total += 1

    needed = math.ceil(0.99 * total)
    ok = conv_worst <= 0.2 and covered >= needed
    _verdict(
        capsys,
        "oracle-agreement",
        ok,
        f"conv worst {conv_worst:.4f} dB over {total} points, "
        f"MC covered {covered}/{total} (need {needed})",
    )


def test_array_factor_scaling(capsys):
    worst = 0.0
    ratios = {}
    for k in (2, 4, 8, 16, 32):
        ratio = upa_array_factor_beamwidth(k)
        ratios[k] = ratio
        worst = max(worst, abs(ratio * k - 1.0))
    ok = worst <= 0.15
    _verdict(
        capsys,
        "array-factor-scaling",
        ok,
        "k*ratio = "
        + ", ".join(f"{k}:{k * r:.3f}" for k, r in ratios.items())
        + f", worst dev {worst:.3f}",
    )
