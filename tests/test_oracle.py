"""Numerical oracles: sampled patterns, convolution, Monte-Carlo, array factor.

These are the independent checks the closed-form model is validated
against, so the tests here pin their own internals: grid construction,
energy conservation, exactness at zero spread, and determinism.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from arraygain import (
    AngularGrid,
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    GridResolutionError,
    McConfig,
    convolve_effective_pattern,
    effective_gain,
    element_pattern_from_gain,
    gaussian_pattern_sampled,
    grid_for,
    monte_carlo_effective_gain,
    nominal_beamwidths,
    upa_array_factor_beamwidth,
)
from arraygain import oracle
from arraygain.oracle import _array_factor_power, _main_lobe_width

DEG = math.pi / 180.0
HALF_PI = math.pi / 2
NO_SPREAD = AngularSpread(zsd_rad=0.0, asd_rad=0.0)


# --- grids --------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError, match="even"):
        AngularGrid(n_azim=7201, n_elev=3600, elev_half_span_rad=HALF_PI)
    with pytest.raises(ValueError, match="even"):
        AngularGrid(n_azim=7200, n_elev=3601, elev_half_span_rad=HALF_PI)
    with pytest.raises(ValueError):
        AngularGrid(n_azim=0, n_elev=3600, elev_half_span_rad=HALF_PI)
    with pytest.raises(ValueError):
        AngularGrid(n_azim=7200, n_elev=3600, elev_half_span_rad=0.0)


def test_value_types(check_value_type):
    check_value_type(
        AngularGrid, {"n_azim": 8, "n_elev": 4, "elev_half_span_rad": 1.5},
        "AngularGrid(n_azim=8, n_elev=4, elev_half_span_rad=1.5)",
        {"n_azim": 8, "n_elev": 3, "elev_half_span_rad": 1.5},
        "n_elev must be even so 0 is on the grid, got 3",
    )
    assert AngularGrid(8, 4, HALF_PI) == AngularGrid(n_azim=8, n_elev=4, elev_half_span_rad=HALF_PI)
    check_value_type(
        McConfig, {"n_paths": 4, "n_realizations": 100, "seed": 7},
        "McConfig(n_paths=4, n_realizations=100, seed=7)",
        {"n_paths": 4, "seed": -1}, "seed must be a 64-bit non-negative integer, got -1",
    )
    assert McConfig() == McConfig(20, 10_000, 0)


def test_sampled_pattern_is_an_immutable_identity_value():
    # its shapes are arrays, so equality and hash go by identity
    grid = AngularGrid(n_azim=4, n_elev=2, elev_half_span_rad=HALF_PI)
    elev, azim = np.array([0.5, 1.0]), np.array([0.0, 1.0, 0.5, 0.25])
    pattern = oracle.SampledPattern(grid, 2.0, elev, azim)
    twin = oracle.SampledPattern(grid=grid, peak_power=2.0, elev_shape=elev, azim_shape=azim)
    assert (twin.grid, twin.peak_power, twin.elev_shape, twin.azim_shape) == (grid, 2.0, elev, azim)
    assert pattern == pattern and pattern != twin
    assert hash(pattern) == object.__hash__(pattern)
    assert repr(pattern) == (
        "SampledPattern(grid=AngularGrid(n_azim=4, n_elev=2, elev_half_span_rad=1.5707963267948966), "
        f"peak_power=2.0, elev_shape={elev!r}, azim_shape={azim!r})"
    )
    for name in ("grid", "peak_power", "elev_shape", "azim_shape", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(pattern, name, None)
    with pytest.raises(ValueError, match="elev_shape must be non-negative with unit peak"):
        oracle.SampledPattern(grid, 2.0, elev * 0.5, azim)


def test_grid_samples_cover_axes():
    grid = AngularGrid(n_azim=720, n_elev=360, elev_half_span_rad=HALF_PI)
    azim = grid.azim_samples()
    elev = grid.elev_samples()
    assert azim[0] == pytest.approx(-math.pi)
    assert azim[1] - azim[0] == pytest.approx(grid.azim_spacing, rel=1e-12)
    assert elev[0] == pytest.approx(-math.pi / 2)
    # zero must be a sample on both axes or peaks land between bins
    assert np.abs(azim).min() == 0.0
    assert np.abs(elev).min() == 0.0


def test_grid_for_default_spacing():
    grid = grid_for(bw_elev_rad=30 * DEG, bw_azim_rad=30 * DEG, spread=NO_SPREAD)
    assert grid.n_azim == 7200
    assert grid.azim_spacing == pytest.approx(0.05 * DEG, rel=1e-12)
    assert grid.elev_half_span_rad == pytest.approx(
        max(math.pi / 2, 8 * 30 * DEG), rel=1e-12
    )


def test_grid_for_refines_for_narrow_features():
    narrow_beam = grid_for(bw_elev_rad=0.1 * DEG, bw_azim_rad=0.1 * DEG, spread=NO_SPREAD)
    assert narrow_beam.azim_spacing <= 0.1 * DEG / 8 * (1 + 1e-12)

    narrow_spread = grid_for(
        bw_elev_rad=10 * DEG,
        bw_azim_rad=10 * DEG,
        spread=AngularSpread(zsd_rad=0.2 * DEG, asd_rad=0.2 * DEG),
    )
    assert narrow_spread.azim_spacing <= 0.2 * DEG / 8 * (1 + 1e-12)
    assert narrow_spread.elev_spacing <= 0.2 * DEG / 8 * (1 + 1e-12)


def test_grid_for_rejects_elevation_past_the_cap_before_allocating():
    # a 5 dBi element in 10**7 rows: 316,027,492 elevation samples, 2.4 GiB
    # an array; the count is arithmetic, so nothing the size of it exists
    element = element_pattern_from_gain(5.0)
    tracemalloc.start()
    try:
        with pytest.raises(GridResolutionError, match="elevation needs 316027492 samples"):
            grid_for(element.bw_elev_rad / 10_000_000, element.bw_azim_rad, NO_SPREAD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a width so large its span overflows names no finite count
    with pytest.raises(GridResolutionError, match="needs inf samples"):
        grid_for(1e308, 1.0, NO_SPREAD)
    # a span of pi at spacing bw / 8 takes 8 pi / bw samples: just under
    # the cap is still a grid, just over it is refused
    assert 1_998_000 <= grid_for(8.0 * math.pi / 1_999_000, 1.0, NO_SPREAD).n_elev <= 2_000_000
    with pytest.raises(GridResolutionError, match="elevation needs 200100[0-9] samples"):
        grid_for(8.0 * math.pi / 2_001_000, 1.0, NO_SPREAD)


def test_grid_for_caps_azimuth_past_float_range():
    # 2 pi / (bw / 8) overflows to inf for a subnormal width; the cap
    # applies before rounding, so this is a capped grid, not an OverflowError
    assert grid_for(1.0, 1e-320, NO_SPREAD).n_azim == 2_000_000


def test_fast_counts_match_a_brute_force_search():
    # every count up to the cap against the least even m >= it with no prime
    # factor above 5, found by dividing those factors out of every m
    cap = oracle._MAX_AXIS_SAMPLES
    m = np.arange(cap + 1)
    rest = m.copy()
    for p in (2, 3, 5):
        while (divisible := (rest % p == 0) & (rest > 0)).any():
            rest[divisible] //= p
    fast = np.flatnonzero((rest == 1) & (m % 2 == 0))
    assert fast[-1] == cap
    want = fast[np.searchsorted(fast, m[1:])].tolist()
    assert [oracle._fast_even_ceil(n) for n in range(1, cap + 1)] == want
    # grid_for passes real counts: anything past a fast count rounds up
    for i in range(0, fast.size - 1, 7):
        assert oracle._fast_even_ceil(float(fast[i])) == fast[i]
        assert oracle._fast_even_ceil(fast[i] * (1.0 + 1e-15)) == fast[i + 1]
        assert oracle._fast_even_ceil(fast[i + 1] - 0.5) == fast[i + 1]


def _exact_count_grid(bw_elev_rad, bw_azim_rad, spread):
    # grid_for's spacing and span with each count rounded up to even only
    d_azim = min(0.05 * DEG, bw_azim_rad / 8.0)
    if spread.asd_rad > 0.0:
        d_azim = min(d_azim, spread.asd_rad / 8.0)
    d_elev = min(0.05 * DEG, bw_elev_rad / 8.0)
    if spread.zsd_rad > 0.0:
        d_elev = min(d_elev, spread.zsd_rad / 8.0)
    half_span = max(math.pi / 2, 8.0 * (bw_elev_rad + spread.zsd_rad))
    n_azim = math.ceil(2.0 * math.pi / d_azim)
    n_elev = math.ceil(2.0 * half_span / d_elev)
    return AngularGrid(n_azim + n_azim % 2, n_elev + n_elev % 2, half_span)


def test_fast_grid_convolution_matches_exact_counts(spread_deg):
    # the acceptance suite's 5 x 5 x 5 x 5 box of oracle points
    widths = np.linspace(1.0, 30.0, 5)
    spreads = np.linspace(0.0, 30.0, 5)
    changed = 0
    for bw_elev_deg in widths:
        for bw_azim_deg in widths:
            bw_elev, bw_azim = math.radians(bw_elev_deg), math.radians(bw_azim_deg)
            for zsd_deg in spreads:
                for asd_deg in spreads:
                    spread = spread_deg(zsd=float(zsd_deg), asd=float(asd_deg))
                    fast = grid_for(bw_elev, bw_azim, spread)
                    exact = _exact_count_grid(bw_elev, bw_azim, spread)
                    assert fast.elev_half_span_rad == exact.elev_half_span_rad
                    assert exact.n_azim <= fast.n_azim <= 1.07 * exact.n_azim
                    assert exact.n_elev <= fast.n_elev <= 1.07 * exact.n_elev
                    changed += (fast.n_azim, fast.n_elev) != (exact.n_azim, exact.n_elev)
                    peaks = [
                        convolve_effective_pattern(
                            gaussian_pattern_sampled(bw_elev, bw_azim, grid), spread
                        ).peak_power
                        for grid in (fast, exact)
                    ]
                    assert peaks[0] == pytest.approx(peaks[1], rel=1e-12, abs=0.0)
    # the span stretches past pi / 2 for wide beams and spreads, and the
    # exact elevation count is then no fast length
    assert changed >= 400


# --- sampled Gaussian patterns -----------------------------------------

def test_gaussian_pattern_peak_and_symmetry():
    bw = 10 * DEG
    pattern = gaussian_pattern_sampled(bw, bw, grid_for(bw, bw, NO_SPREAD))
    assert pattern.peak_power == 2.0 / (bw * bw)
    # the table is peak_power times the two shapes, so its maximum is the
    # peak exactly when each shape peaks at 1
    assert pattern.elev_shape.max() == 1.0
    assert pattern.azim_shape.max() == 1.0
    # mirror symmetry about boresight; sample 0 sits at -pi so skip it
    np.testing.assert_allclose(pattern.azim_shape[1:], pattern.azim_shape[1:][::-1], rtol=1e-12)
    np.testing.assert_allclose(pattern.elev_shape[1:], pattern.elev_shape[1:][::-1], rtol=1e-12)


def test_gaussian_pattern_peak_scales_exactly():
    bw = 5 * DEG
    grid = grid_for(bw, bw, NO_SPREAD)
    single = gaussian_pattern_sampled(bw, bw, grid)
    double = gaussian_pattern_sampled(2 * bw, 2 * bw, grid)
    assert double.peak_power == single.peak_power / 4.0


def _total_power(pattern):
    # integral of the pattern over the grid (ideally 4 pi), no cos weight
    elev_integral = pattern.elev_shape.sum() * pattern.grid.elev_spacing
    azim_integral = pattern.azim_shape.sum() * pattern.grid.azim_spacing
    return pattern.peak_power * elev_integral * azim_integral


def _rms_widths(pattern):
    # (elev, azim) RMS widths from each profile's weighted second moment:
    # a Gaussian profile gives back its sigma
    return tuple(
        math.sqrt(float((w * x**2).sum() / w.sum()))
        for x, w in (
            (pattern.grid.elev_samples(), pattern.elev_shape),
            (pattern.grid.azim_samples(), pattern.azim_shape),
        )
    )


def test_gaussian_pattern_total_power_is_4pi():
    for bw_deg in (2.0, 10.0, 30.0):
        bw = bw_deg * DEG
        pattern = gaussian_pattern_sampled(bw, bw, grid_for(bw, bw, NO_SPREAD))
        assert _total_power(pattern) == pytest.approx(4 * math.pi, rel=1e-6)


def test_gaussian_pattern_marginals():
    bw_elev, bw_azim = 6 * DEG, 14 * DEG
    grid = grid_for(bw_elev, bw_azim, NO_SPREAD)
    pattern = gaussian_pattern_sampled(bw_elev, bw_azim, grid)
    elev_area = float(pattern.elev_shape.sum()) * grid.elev_spacing
    azim_area = float(pattern.azim_shape.sum()) * grid.azim_spacing
    assert elev_area == pytest.approx(bw_elev * math.sqrt(2 * math.pi), rel=1e-6)
    assert azim_area == pytest.approx(bw_azim * math.sqrt(2 * math.pi), rel=1e-6)


def test_gaussian_pattern_rejects_coarse_grid():
    coarse = AngularGrid(n_azim=720, n_elev=720, elev_half_span_rad=HALF_PI)  # 0.5 deg azimuth spacing
    with pytest.raises(GridResolutionError, match="grid too coarse"):
        gaussian_pattern_sampled(1 * DEG, 1 * DEG, coarse)


def test_fitted_rms_widths_recover_the_gaussian():
    bw_elev, bw_azim = 4 * DEG, 9 * DEG
    pattern = gaussian_pattern_sampled(bw_elev, bw_azim, grid_for(bw_elev, bw_azim, NO_SPREAD))
    fitted_elev, fitted_azim = _rms_widths(pattern)
    assert fitted_elev == pytest.approx(bw_elev, rel=1e-3)
    assert fitted_azim == pytest.approx(bw_azim, rel=1e-3)


# --- convolution oracle -------------------------------------------------

def test_convolution_zero_spread_is_identity():
    bw = 8 * DEG
    pattern = gaussian_pattern_sampled(bw, bw, grid_for(bw, bw, NO_SPREAD))
    assert convolve_effective_pattern(pattern, AngularSpread(0.0, 0.0)) is pattern


def test_convolution_three_four_five():
    spread = AngularSpread(zsd_rad=4 * DEG, asd_rad=3 * DEG)
    grid = grid_for(3 * DEG, 4 * DEG, spread)
    nominal = gaussian_pattern_sampled(3 * DEG, 4 * DEG, grid)
    effective = convolve_effective_pattern(nominal, spread)
    fitted_elev, fitted_azim = _rms_widths(effective)
    assert fitted_elev == pytest.approx(5 * DEG, rel=1e-2)
    assert fitted_azim == pytest.approx(5 * DEG, rel=1e-2)


def test_convolution_variance_additivity():
    rng = np.random.default_rng(11)
    for _ in range(8):
        bw_elev = float(rng.uniform(2, 15)) * DEG
        bw_azim = float(rng.uniform(2, 15)) * DEG
        spread = AngularSpread(
            zsd_rad=float(rng.uniform(0.5, 15)) * DEG,
            asd_rad=float(rng.uniform(0.5, 15)) * DEG,
        )
        grid = grid_for(bw_elev, bw_azim, spread)
        effective = convolve_effective_pattern(
            gaussian_pattern_sampled(bw_elev, bw_azim, grid), spread
        )
        fitted_elev, fitted_azim = _rms_widths(effective)
        assert fitted_elev == pytest.approx(math.hypot(bw_elev, spread.zsd_rad), rel=2e-2)
        assert fitted_azim == pytest.approx(math.hypot(bw_azim, spread.asd_rad), rel=2e-2)


def test_convolution_conserves_energy():
    spread = AngularSpread(zsd_rad=2 * DEG, asd_rad=10 * DEG)
    grid = grid_for(5 * DEG, 5 * DEG, spread)
    nominal = gaussian_pattern_sampled(5 * DEG, 5 * DEG, grid)
    effective = convolve_effective_pattern(nominal, spread)
    assert _total_power(effective) == pytest.approx(_total_power(nominal), rel=1e-9)


def test_convolution_matches_closed_form_reference():
    element = element_pattern_from_gain(8.0)
    geom = ArrayGeometry(8, 16)
    spread = AngularSpread(zsd_rad=1 * DEG, asd_rad=16 * DEG)
    beam = nominal_beamwidths(element, geom)
    grid = grid_for(beam.bw_elev_rad, beam.bw_azim_rad, spread)
    nominal = gaussian_pattern_sampled(beam.bw_elev_rad, beam.bw_azim_rad, grid)
    effective = convolve_effective_pattern(nominal, spread)
    analytic = effective_gain(element, geom, spread)
    peak_dbi = 10 * math.log10(effective.peak_power)
    assert abs(peak_dbi - analytic.effective_gain_dbi) <= 0.2


def test_convolution_rejects_under_resolved_spread():
    bw = 10 * DEG
    grid = grid_for(bw, bw, NO_SPREAD)  # 0.05 deg spacing, no spread refinement
    nominal = gaussian_pattern_sampled(bw, bw, grid)
    thin = AngularSpread(zsd_rad=0.0, asd_rad=0.04 * DEG)
    with pytest.raises(GridResolutionError, match="grid too coarse for spread"):
        convolve_effective_pattern(nominal, thin)


def _reference_gaussian_pattern_sampled(bw_elev_rad, bw_azim_rad, grid):
    # gaussian_pattern_sampled as it was before it worked in place, kept
    # verbatim as the reference, checks aside
    elev = np.exp(-(grid.elev_samples() ** 2) / (2.0 * bw_elev_rad**2))
    azim = np.exp(-(grid.azim_samples() ** 2) / (2.0 * bw_azim_rad**2))
    return oracle.SampledPattern(
        grid=grid,
        peak_power=2.0 / (bw_elev_rad * bw_azim_rad),
        elev_shape=elev / elev.max(),
        azim_shape=azim / azim.max(),
    )


def _reference_circular_blur(shape, spacing, sigma):
    # _circular_blur as it was before it worked in place, kept verbatim
    n = shape.size
    offsets = np.minimum(np.arange(n), n - np.arange(n)) * spacing
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    out = np.fft.irfft(np.fft.rfft(shape) * np.fft.rfft(kernel), n)
    return np.maximum(out, 0.0)


def _assert_same_pattern(got, want):
    assert got.grid == want.grid and got.peak_power == want.peak_power
    assert np.array_equal(got.elev_shape, want.elev_shape)
    assert np.array_equal(got.azim_shape, want.azim_shape)


def test_pattern_and_convolution_match_reference_bit_for_bit(monkeypatch):
    # in-place sampling and blurring do the reference's float operations:
    # 200 seeded grids of 16 to 2 * 10**5 samples an axis, log-uniform, of
    # any even count (fast FFT lengths or not), each axis blurred or not
    rng = random.Random(20261020)

    def count():
        return 2 * round(math.exp(rng.uniform(math.log(8), math.log(10**5))))

    def spread_on(spacing):
        # zero, or 2 to 500 samples of the axis
        return rng.choice([0.0, spacing * math.exp(rng.uniform(math.log(2.0), math.log(500.0)))])

    blurred = 0
    for _ in range(200):
        grid = AngularGrid(count(), count(), rng.uniform(HALF_PI, 3.0))
        bw_elev = grid.elev_spacing * rng.uniform(8.0, 400.0)
        bw_azim = grid.azim_spacing * rng.uniform(8.0, 400.0)
        spread = AngularSpread(spread_on(grid.elev_spacing), spread_on(grid.azim_spacing))
        nominal = gaussian_pattern_sampled(bw_elev, bw_azim, grid)
        reference = _reference_gaussian_pattern_sampled(bw_elev, bw_azim, grid)
        _assert_same_pattern(nominal, reference)
        got = convolve_effective_pattern(nominal, spread)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_circular_blur", _reference_circular_blur)
            want = convolve_effective_pattern(reference, spread)
        _assert_same_pattern(got, want)
        blurred += spread.zsd_rad > 0.0 and spread.asd_rad > 0.0
    assert blurred >= 30


def test_convolution_memory_is_two_axis_arrays():
    # an elevation axis near the 2,000,000-sample cap, blurred: the blur
    # holds at most two n-sized float64 arrays beside the shape (the kernel,
    # then its spectrum of n / 2 + 1 complex values; the two spectra; the
    # product and its inverse), and the blurred shape and its unit-peak copy
    # are two more after it.  The nominal pattern is made before tracing; the
    # azimuth axis, unblurred, adds one 7,200-sample copy.  Bound: two
    # n-sized arrays and 1 MiB; the parent's blur held four.
    bw = 8.0 * math.pi / 1_990_000
    spread = AngularSpread(zsd_rad=bw, asd_rad=0.0)
    grid = grid_for(bw, 1.0, spread)
    assert 1_900_000 <= grid.n_elev <= 2_000_000 and grid.n_azim == 7200
    nominal = gaussian_pattern_sampled(bw, 1.0, grid)
    tracemalloc.start()
    try:
        effective = convolve_effective_pattern(nominal, spread)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * grid.n_elev + 2**20
    assert effective.elev_shape.size == grid.n_elev


# --- Monte-Carlo oracle -------------------------------------------------

def test_monte_carlo_is_deterministic():
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(zsd_rad=1 * DEG, asd_rad=10 * DEG)
    config = McConfig(n_paths=10, n_realizations=2000, seed=99)
    first = monte_carlo_effective_gain(element, ArrayGeometry(8, 8), spread, config)
    second = monte_carlo_effective_gain(element, ArrayGeometry(8, 8), spread, config)
    assert first == second
    shifted = monte_carlo_effective_gain(
        element, ArrayGeometry(8, 8), spread, McConfig(n_paths=10, n_realizations=2000, seed=100)
    )
    assert shifted != first


def test_monte_carlo_zero_spread_is_exact():
    element = element_pattern_from_gain(5.0)
    geom = ArrayGeometry(16, 16)
    config = McConfig(n_paths=20, n_realizations=500, seed=3)
    estimate, stderr = monte_carlo_effective_gain(
        element, geom, AngularSpread(0.0, 0.0), config
    )
    assert estimate == nominal_beamwidths(element, geom).gain_linear
    assert stderr == 0.0


def test_monte_carlo_zero_spread_draws_nothing(monkeypatch):
    # the draws would give exactly the nominal gain and a zero SE, so none are made
    def no_generator(*args, **kwargs):
        raise AssertionError("drew at zero spread")

    monkeypatch.setattr(oracle.np.random, "Generator", no_generator)
    element = element_pattern_from_gain(5.0)
    geom = ArrayGeometry(16, 16)
    config = McConfig(n_paths=20, n_realizations=oracle._MC_MAX_DRAWS // 20, seed=3)
    assert monte_carlo_effective_gain(element, geom, AngularSpread(0.0, 0.0), config) == (
        nominal_beamwidths(element, geom).gain_linear, 0.0
    )
    with pytest.raises(AssertionError, match="drew at zero spread"):
        monte_carlo_effective_gain(element, geom, AngularSpread(0.0, 1e-9), config)


def test_monte_carlo_brackets_closed_form():
    element = element_pattern_from_gain(5.0)
    geom = ArrayGeometry(16, 16)
    spread = AngularSpread(zsd_rad=0.6 * DEG, asd_rad=14 * DEG)
    config = McConfig(n_paths=20, n_realizations=10_000, seed=0)
    estimate, stderr = monte_carlo_effective_gain(element, geom, spread, config)
    analytic = effective_gain(element, geom, spread).effective_gain_linear
    assert stderr > 0.0
    assert abs(estimate - analytic) <= 3.0 * stderr


def _reference_monte_carlo(element, geom, spread, config):
    # the kernel as it was before chunking, kept verbatim as the reference:
    # one (realization, path) array per variate, complex phasors
    nominal = nominal_beamwidths(element, geom)
    bw_elev, bw_azim = nominal.bw_elev_rad, nominal.bw_azim_rad
    gain0 = nominal.gain_linear

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    shape = (config.n_realizations, config.n_paths)
    azim = rng.normal(0.0, spread.asd_rad, shape)
    elev = rng.normal(0.0, spread.zsd_rad, shape)
    phase = rng.uniform(0.0, 2.0 * math.pi, shape)

    # per-path amplitude relative to boresight: sqrt(g(dir) / g(0))
    rel_amp = np.exp(-(azim**2 / bw_azim**2 + elev**2 / bw_elev**2) / 4.0)
    phasor = np.exp(1j * phase)
    received = np.abs((rel_amp * phasor).sum(axis=1)) ** 2 / config.n_paths
    flat = np.abs(phasor.sum(axis=1)) ** 2 / config.n_paths

    ratio = received.mean() / flat.mean()
    residual = received - ratio * flat
    se_ratio = math.sqrt(float((residual**2).mean()) / config.n_realizations) / flat.mean()
    return gain0 * float(ratio), gain0 * float(se_ratio)


def _assert_mc_agrees(got, want, n_realizations):
    (gain, se), (want_gain, want_se) = got, want
    assert gain == pytest.approx(want_gain, rel=1e-12)
    # The SE agrees to 1e-12 relative, plus the precision float64 grants
    # it: each residual received - ratio * flat is known to a few eps *
    # flat, which puts the SE at about gain * eps * sqrt(sum flat**2) /
    # sum flat ~ gain * eps * sqrt(2 / n).  That floor matters only where
    # the spread is tiny beside the beam, so received ~ flat and the
    # residuals are small; 16 covers the rounding of both kernels.
    floor = 16.0 * sys.float_info.epsilon * want_gain * math.sqrt(2.0 / n_realizations)
    assert abs(se - want_se) <= 1e-12 * want_se + floor


def test_monte_carlo_matches_reference_kernel():
    rng = random.Random(20261018)

    def spread_rad():
        # log-uniform over 0.01..30 deg, zero one time in six
        if rng.random() < 1 / 6:
            return 0.0
        return math.radians(math.exp(rng.uniform(math.log(0.01), math.log(30.0))))

    # whole-chunk boundaries first: the largest runs that are still one chunk
    shapes = [(1, 2**18), (20, 2**18 // 20), (64, 4096), (3, 2**18 // 3)]
    n_zero = 0
    for case in range(240):
        element = ElementPattern(
            bw_elev_rad=math.radians(rng.uniform(1.0, 30.0)),
            bw_azim_rad=math.radians(rng.uniform(1.0, 30.0)),
        )
        geom = ArrayGeometry(rng.randint(1, 64), rng.randint(1, 16))
        spread = AngularSpread(0.0, 0.0) if case % 10 == 0 else AngularSpread(spread_rad(), spread_rad())
        if case < len(shapes):
            n_paths, n_realizations = shapes[case]
        else:
            n_paths = rng.randint(1, 40)
            n_realizations = rng.randint(1, 2000)
        assert n_paths * n_realizations <= 2**18
        config = McConfig(n_paths=n_paths, n_realizations=n_realizations, seed=rng.getrandbits(64))

        got = monte_carlo_effective_gain(element, geom, spread, config)
        want = _reference_monte_carlo(element, geom, spread, config)
        if spread.is_zero:
            n_zero += 1
            assert got == want
            assert got[1] == 0.0
        else:
            _assert_mc_agrees(got, want, n_realizations)
    assert n_zero >= 24


def _chunked_reference(element, geom, spread, config, chunk_draws):
    # the reference arithmetic on the chunked draw layout (per chunk:
    # azimuths, elevations, phases), then two passes over all realizations
    nominal = nominal_beamwidths(element, geom)
    n_paths, n_realizations = config.n_paths, config.n_realizations
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    chunk_rows = max(1, chunk_draws // n_paths)
    received, flat = [], []
    for start in range(0, n_realizations, chunk_rows):
        shape = (min(chunk_rows, n_realizations - start), n_paths)
        azim = rng.normal(0.0, spread.asd_rad, shape)
        elev = rng.normal(0.0, spread.zsd_rad, shape)
        phase = rng.uniform(0.0, 2.0 * math.pi, shape)
        rel_amp = np.exp(
            -(azim**2 / nominal.bw_azim_rad**2 + elev**2 / nominal.bw_elev_rad**2) / 4.0
        )
        phasor = np.exp(1j * phase)
        received.append(np.abs((rel_amp * phasor).sum(axis=1)) ** 2)
        flat.append(np.abs(phasor.sum(axis=1)) ** 2)
    received = np.concatenate(received)
    flat = np.concatenate(flat)
    ratio = received.sum() / flat.sum()
    residual = received - ratio * flat
    se_ratio = math.sqrt(float((residual**2).sum())) / flat.sum()
    return nominal.gain_linear * float(ratio), nominal.gain_linear * float(se_ratio)


@pytest.mark.parametrize(
    "zsd_deg, asd_deg",
    [(3.0, 10.0), (1e-5, 1e-5), (0.0, 1e-5), (0.0, 0.0), (25.0, 0.0)],
    ids=["typical", "tiny", "tiny-one-sided", "zero", "one-sided"],
)
def test_monte_carlo_chunks_match_two_pass(monkeypatch, zsd_deg, asd_deg):
    # 2**10 draws a chunk and 2**7 a block: 7 paths x 1000 realizations
    # run as six whole chunks of 146 and a part one, each in 7 blocks or
    # fewer; the 1e-5 deg spreads make received ~ flat, where one-pass raw
    # moments of received and flat would cancel to noise
    monkeypatch.setattr(oracle, "_MC_CHUNK_DRAWS", 2**10)
    monkeypatch.setattr(oracle, "_MC_BLOCK_DRAWS", 2**7)
    element = ElementPattern(bw_elev_rad=math.radians(5.0), bw_azim_rad=math.radians(8.0))
    geom = ArrayGeometry(2, 1)
    spread = AngularSpread(zsd_rad=math.radians(zsd_deg), asd_rad=math.radians(asd_deg))
    config = McConfig(n_paths=7, n_realizations=1000, seed=4242)

    got = monte_carlo_effective_gain(element, geom, spread, config)
    want = _chunked_reference(element, geom, spread, config, chunk_draws=2**10)
    if spread.is_zero:
        assert got == (nominal_beamwidths(element, geom).gain_linear, 0.0)
    else:
        assert got[1] > 0.0
        _assert_mc_agrees(got, want, config.n_realizations)
        # several chunks draw other numbers than one array a variate
        assert got[0] != _reference_monte_carlo(element, geom, spread, config)[0]


def _three_buffer_monte_carlo(element, geom, spread, config, chunk_draws, block_draws):
    # monte_carlo_effective_gain as it was before it streamed its draws,
    # kept verbatim as the bit-for-bit reference: each chunk drew all its
    # azimuths, elevations and phases into one (3, rows, paths) buffer, then
    # ran the arithmetic block by block in _three_buffer_chunk_powers
    nominal = nominal_beamwidths(element, geom)
    gain0 = nominal.gain_linear
    if spread.is_zero:
        return gain0, 0.0
    n_paths, n_real = config.n_paths, config.n_realizations
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    chunk_rows = min(n_real, chunk_draws // n_paths)
    draws = np.empty((3, chunk_rows, n_paths))
    power = np.empty((2, chunk_rows))
    sums = [0.0] * 6
    rho0 = None
    for start in range(0, n_real, chunk_rows):
        rows = min(chunk_rows, n_real - start)
        azim, elev, phase = draws[:, :rows]
        rng.standard_normal(out=azim)
        rng.standard_normal(out=elev)
        rng.random(out=phase)
        received, flat = power[:, :rows]
        _three_buffer_chunk_powers(azim, elev, phase, nominal, spread, received, flat, block_draws)
        if rho0 is None:
            rho0 = float(received.sum()) / float(flat.sum())
        d = received - rho0 * flat
        parts = (received, flat, d, d * d, d * flat, flat * flat)
        sums = [total + float(part.sum()) for total, part in zip(sums, parts)]
    s_received, s_flat, s_d, s_dd, s_df, s_ff = sums
    e = s_d / s_flat
    s_residual = max(0.0, s_dd - e * (2.0 * s_df - e * s_ff))
    return gain0 * (s_received / s_flat), gain0 * (math.sqrt(s_residual) / s_flat)


def _three_buffer_chunk_powers(azim, elev, phase, nominal, spread, received, flat, block_draws):
    n_real, n_paths = azim.shape
    block_rows = min(n_real, max(1, block_draws // n_paths))
    axes = []
    for draws, sigma, bw in (
        (azim, spread.asd_rad, nominal.bw_azim_rad),
        (elev, spread.zsd_rad, nominal.bw_elev_rad),
    ):
        if sigma > 0.0:
            r = sigma / (2.0 * bw)
            axes.append((draws, -(r * r)))
    (first, c_first), *rest = axes
    amp = np.empty((n_paths, block_rows))
    tmp = np.empty((2, n_paths, block_rows))
    terms = np.empty((4, n_paths, block_rows))
    path_sums = np.empty((4, block_rows))
    for b0 in range(0, n_real, block_rows):
        b1 = min(n_real, b0 + block_rows)
        n = b1 - b0
        a, t, w = amp[:, :n], tmp[0, :, :n], tmp[1, :, :n]
        T, S = terms[:, :, :n], path_sums[:, :n]
        np.square(first[b0:b1].T, out=a)
        a *= c_first
        for draws, c in rest:
            np.square(draws[b0:b1].T, out=t)
            t *= c
            a += t
        np.exp(a, out=a)
        np.subtract(phase[b0:b1].T, 0.5, out=t)
        t *= 0.5 * math.pi
        np.tan(t, out=t)
        cos, sin = T[2], T[3]
        np.multiply(t, t, out=cos)
        np.subtract(1.0, cos, out=sin)
        sin *= t
        np.add(cos, 1.0, out=w)
        w *= w
        np.divide(4.0, w, out=w)
        sin *= w
        cos *= w
        cos *= -2.0
        cos += 1.0
        np.multiply(T[2:], a, out=T[:2])
        np.add.reduce(T, axis=1, out=S)
        S *= S
        np.add(S[0], S[1], out=received[b0:b1])
        np.add(S[2], S[3], out=flat[b0:b1])


def test_monte_carlo_matches_three_buffer_kernel_bit_for_bit(monkeypatch):
    # drawing a block at a time into one buffer gives the numbers of one
    # fill a variate, and the arithmetic is the reference's: 320 seeded
    # configs, at the module's chunk and block sizes and at 2**10 / 2**7
    rng = random.Random(20261021)

    def spread_rad():
        # zero, 1e-5 deg, or log-uniform over 0.01..30 deg
        pick = rng.random()
        if pick < 0.2:
            return 0.0
        if pick < 0.3:
            return math.radians(1e-5)
        return math.radians(math.exp(rng.uniform(math.log(0.01), math.log(30.0))))

    # several whole chunks and a part one; one chunk exactly; one path a
    # realization; more paths than a block holds
    shapes = [(7, 50_000), (20, 2**18 // 20), (1, 3 * 2**18 + 5), (2**14, 3)]
    kinds = {"zero": 0, "one-sided": 0, "tiny": 0, "multi-chunk": 0}
    for case in range(320):
        small = case % 2 == 1
        chunk_draws, block_draws = (2**10, 2**7) if small else (2**18, 2**13)
        monkeypatch.setattr(oracle, "_MC_CHUNK_DRAWS", chunk_draws)
        monkeypatch.setattr(oracle, "_MC_BLOCK_DRAWS", block_draws)
        element = ElementPattern(
            bw_elev_rad=math.radians(rng.uniform(1.0, 30.0)),
            bw_azim_rad=math.radians(rng.uniform(1.0, 30.0)),
        )
        geom = ArrayGeometry(rng.randint(1, 64), rng.randint(1, 16))
        spread = AngularSpread(spread_rad(), spread_rad())
        if case < 2 * len(shapes) and not small:
            n_paths, n_realizations = shapes[case // 2]
        else:
            # now and then more paths than a 2**7 block holds
            n_paths = rng.randint(1, 150 if case % 10 == 1 else 40)
            n_realizations = rng.randint(2, 400 if small else 2000)
        config = McConfig(n_paths=n_paths, n_realizations=n_realizations, seed=rng.getrandbits(64))

        got = monte_carlo_effective_gain(element, geom, spread, config)
        assert got == _three_buffer_monte_carlo(element, geom, spread, config, chunk_draws, block_draws)
        kinds["zero"] += spread.is_zero
        kinds["one-sided"] += (spread.zsd_rad == 0.0) != (spread.asd_rad == 0.0)
        kinds["tiny"] += math.radians(1e-5) in (spread.zsd_rad, spread.asd_rad)
        kinds["multi-chunk"] += n_realizations > chunk_draws // n_paths and not spread.is_zero
    assert min(kinds.values()) >= 10, kinds


def test_monte_carlo_memory_is_bounded():
    # 2 * 10**7 draws a variate, in chunks of 13,107 realizations of 20
    # paths.  A chunk holds its path amplitudes, 2**18 * 8 B = 2 MiB, its
    # received and flat powers and the four arrays of its sums, 6 * 13,107
    # * 8 B = 0.6 MiB, and seven block buffers of 409 * 20 floats, 0.45
    # MiB: 3.05 MiB, so 4 MiB.  The three-buffer chunks held 8 MiB, and the
    # layout before chunking about 1.2 KiB a realization, over 1 GiB here.
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(zsd_rad=0.6 * DEG, asd_rad=14 * DEG)
    config = McConfig(n_paths=20, n_realizations=1_000_000, seed=1)
    # the first call imports numpy.random, which is no part of the run
    monte_carlo_effective_gain(element, ArrayGeometry(16, 16), spread, McConfig(2, 2))
    tracemalloc.start()
    try:
        estimate, stderr = monte_carlo_effective_gain(element, ArrayGeometry(16, 16), spread, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    analytic = effective_gain(element, ArrayGeometry(16, 16), spread).effective_gain_linear
    assert 0.0 < stderr and abs(estimate - analytic) <= 4.0 * stderr


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0)
    with pytest.raises(ValueError):
        McConfig(n_realizations=True)
    # one realization has no standard error
    with pytest.raises(ValueError, match="^n_realizations must be at least 2, got 1$"):
        McConfig(n_realizations=1)
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(seed=2 ** 64)


def test_mc_config_bounds_the_draws():
    # 2**25 draws take seconds; 10**12 would take weeks
    assert McConfig(n_paths=1, n_realizations=2**25).n_realizations == 2**25
    assert McConfig(n_paths=2**5, n_realizations=2**20).n_paths == 2**5
    refusal = r"^n_paths \* n_realizations must be at most 33554432, got 1 \* 33554433$"
    with pytest.raises(ValueError, match=refusal):
        McConfig(n_paths=1, n_realizations=2**25 + 1)


def test_mc_config_paths_fit_one_chunk():
    # a chunk holds whole realizations, so one realization is at most a chunk
    assert McConfig(n_paths=2**18, n_realizations=2).n_paths == 2**18
    with pytest.raises(ValueError, match="n_paths must be at most 262144"):
        McConfig(n_paths=2**18 + 1, n_realizations=1)


# --- physical array factor ----------------------------------------------

def test_array_factor_single_element_is_unity():
    assert upa_array_factor_beamwidth(1) == 1.0


def test_array_factor_width_scales_inversely_with_count():
    for k in (2, 4, 8, 16, 32):
        ratio = upa_array_factor_beamwidth(k)
        assert abs(ratio * k - 1.0) <= 0.15


def _summed_power(k, u):
    # reference: the k-term phasor sum that the closed form replaces
    total = np.zeros(u.size, dtype=complex)
    for m in range(k):
        total += np.exp(1j * math.pi * m * u)
    return np.abs(total) ** 2 / k**2


def test_array_factor_matches_summed_form():
    u = np.linspace(-1.0, 1.0, 20_001)
    du = u[1] - u[0]
    for k in range(2, 65):
        summed = _summed_power(k, u)
        closed = _array_factor_power(k, u)
        np.testing.assert_allclose(closed, summed, rtol=0.0, atol=1e-12)
        assert _main_lobe_width(closed, du) == pytest.approx(
            _main_lobe_width(summed, du), rel=1e-12
        )
    # the public function on its own 200,001 samples
    u = np.linspace(-1.0, 1.0, 200_001)
    du = u[1] - u[0]
    single = _main_lobe_width(_summed_power(1, u), du)
    for k in (2, 7, 32, 64):
        assert upa_array_factor_beamwidth(k) == pytest.approx(
            _main_lobe_width(_summed_power(k, u), du) / single, rel=1e-12
        )


def _full_grid_array_factor_beamwidth(k):
    # upa_array_factor_beamwidth as it was before it windowed the grid,
    # with _array_factor_power as it was before it worked in place, kept
    # verbatim as the reference
    u = np.linspace(-1.0, 1.0, 200_001)
    du = u[1] - u[0]
    half = 0.5 * math.pi * u
    denom = k * np.sin(half)
    power = np.ones_like(u)
    off_peak = denom != 0.0
    power[off_peak] = (np.sin(k * half[off_peak]) / denom[off_peak]) ** 2
    single = 200_001 * du / math.sqrt(2.0 * math.pi)
    return _main_lobe_width(power, du) / single


def test_array_factor_window_matches_full_grid_bit_for_bit():
    # the window of twice the first null each side of u = 0 sums the lobe
    # the whole grid does: every k up to 200, a stride to the cap, the cap
    for k in [*range(1, 201), *range(201, 12_500, 97), 12_500]:
        assert upa_array_factor_beamwidth(k) == _full_grid_array_factor_beamwidth(k), k


def test_array_factor_memory_is_one_grid_and_a_window():
    # k = 32 evaluates the 200,001-sample grid's window of 2 * 12,500 + 1
    # samples: the grid itself, 8 B a sample, and at most four window-sized
    # float64 arrays at once (the power, its denominator, and the lobe
    # search's difference and lobe copy).  The whole-grid evaluation held
    # about six grid-sized arrays, 9.3 MiB.
    upa_array_factor_beamwidth(32)
    tracemalloc.start()
    try:
        upa_array_factor_beamwidth(32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 200_001 + 4 * 8 * 25_001


def test_array_factor_input_validation():
    with pytest.raises(ValueError):
        upa_array_factor_beamwidth(0)
    with pytest.raises(ValueError):
        upa_array_factor_beamwidth(2.0)


def test_array_factor_refuses_a_lobe_narrower_than_the_grid():
    # up to k = 12,500 the first null 2 / k is at least 16 samples out, and
    # k times the ratio stays near its limit sqrt(pi) / 2; past it the lobe
    # falls between samples and the measured width is meaningless
    assert 12_500 * upa_array_factor_beamwidth(12_500) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=0.01
    )
    for k in (12_501, 10**6):
        with pytest.raises(GridResolutionError, match="at most 12500, got %d" % k):
            upa_array_factor_beamwidth(k)
