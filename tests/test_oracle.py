"""Numerical oracles: sampled patterns, convolution, Monte-Carlo, array factor.

These are the independent checks the closed-form model is validated
against, so the tests here pin their own internals: grid construction,
energy conservation, exactness at zero spread, and determinism.
"""

from __future__ import annotations

import math

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
    fitted_rms_widths,
    gaussian_pattern_sampled,
    grid_for,
    monte_carlo_effective_gain,
    nominal_beamwidths,
    upa_array_factor_beamwidth,
)
from arraygain.oracle import _array_factor_power, _main_lobe_width

DEG = math.pi / 180.0


# --- grids --------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError, match="even"):
        AngularGrid(n_azim=7201, n_elev=3600)
    with pytest.raises(ValueError, match="even"):
        AngularGrid(n_azim=7200, n_elev=3601)
    with pytest.raises(ValueError):
        AngularGrid(n_azim=0, n_elev=3600)
    with pytest.raises(ValueError):
        AngularGrid(n_azim=7200, n_elev=3600, elev_half_span_rad=0.0)


def test_grid_samples_cover_axes():
    grid = AngularGrid(n_azim=720, n_elev=360)
    azim = grid.azim_samples()
    elev = grid.elev_samples()
    assert azim[0] == pytest.approx(-math.pi)
    assert azim[1] - azim[0] == pytest.approx(grid.azim_spacing, rel=1e-12)
    assert elev[0] == pytest.approx(-math.pi / 2)
    # zero must be a sample on both axes or peaks land between bins
    assert np.abs(azim).min() == 0.0
    assert np.abs(elev).min() == 0.0


def test_grid_for_default_spacing():
    grid = grid_for(bw_elev_rad=30 * DEG, bw_azim_rad=30 * DEG)
    assert grid.n_azim == 7200
    assert grid.azim_spacing == pytest.approx(0.05 * DEG, rel=1e-12)
    assert grid.elev_half_span_rad == pytest.approx(
        max(math.pi / 2, 8 * 30 * DEG), rel=1e-12
    )


def test_grid_for_refines_for_narrow_features():
    narrow_beam = grid_for(bw_elev_rad=0.1 * DEG, bw_azim_rad=0.1 * DEG)
    assert narrow_beam.azim_spacing <= 0.1 * DEG / 8 * (1 + 1e-12)

    narrow_spread = grid_for(
        bw_elev_rad=10 * DEG,
        bw_azim_rad=10 * DEG,
        spread=AngularSpread(zsd_rad=0.2 * DEG, asd_rad=0.2 * DEG),
    )
    assert narrow_spread.azim_spacing <= 0.2 * DEG / 8 * (1 + 1e-12)
    assert narrow_spread.elev_spacing <= 0.2 * DEG / 8 * (1 + 1e-12)


def test_grid_for_azimuth_cap_is_even():
    grid = grid_for(bw_elev_rad=10 * DEG, bw_azim_rad=0.01 * DEG, max_azim_samples=10_001)
    assert grid.n_azim == 10_000


# --- sampled Gaussian patterns -----------------------------------------

def test_gaussian_pattern_peak_and_symmetry():
    bw = 10 * DEG
    pattern = gaussian_pattern_sampled(bw, bw, grid_for(bw, bw))
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
    grid = grid_for(bw, bw)
    single = gaussian_pattern_sampled(bw, bw, grid)
    double = gaussian_pattern_sampled(2 * bw, 2 * bw, grid)
    assert double.peak_power == single.peak_power / 4.0


def test_gaussian_pattern_total_power_is_4pi():
    for bw_deg in (2.0, 10.0, 30.0):
        bw = bw_deg * DEG
        pattern = gaussian_pattern_sampled(bw, bw, grid_for(bw, bw))
        assert pattern.total_power == pytest.approx(4 * math.pi, rel=1e-6)


def test_gaussian_pattern_marginals():
    bw_elev, bw_azim = 6 * DEG, 14 * DEG
    grid = grid_for(bw_elev, bw_azim)
    pattern = gaussian_pattern_sampled(bw_elev, bw_azim, grid)
    elev_area = float(pattern.elev_shape.sum()) * grid.elev_spacing
    azim_area = float(pattern.azim_shape.sum()) * grid.azim_spacing
    assert elev_area == pytest.approx(bw_elev * math.sqrt(2 * math.pi), rel=1e-6)
    assert azim_area == pytest.approx(bw_azim * math.sqrt(2 * math.pi), rel=1e-6)


def test_gaussian_pattern_rejects_coarse_grid():
    coarse = AngularGrid(n_azim=720, n_elev=720)  # 0.5 deg azimuth spacing
    with pytest.raises(GridResolutionError, match="grid too coarse"):
        gaussian_pattern_sampled(1 * DEG, 1 * DEG, coarse)


def test_fitted_rms_widths_recover_the_gaussian():
    bw_elev, bw_azim = 4 * DEG, 9 * DEG
    pattern = gaussian_pattern_sampled(bw_elev, bw_azim, grid_for(bw_elev, bw_azim))
    fitted = fitted_rms_widths(pattern)
    assert fitted.bw_elev_rad == pytest.approx(bw_elev, rel=1e-3)
    assert fitted.bw_azim_rad == pytest.approx(bw_azim, rel=1e-3)


# --- convolution oracle -------------------------------------------------

def test_convolution_zero_spread_is_identity():
    bw = 8 * DEG
    pattern = gaussian_pattern_sampled(bw, bw, grid_for(bw, bw))
    assert convolve_effective_pattern(pattern, AngularSpread(0.0, 0.0)) is pattern


def test_convolution_three_four_five():
    spread = AngularSpread(zsd_rad=4 * DEG, asd_rad=3 * DEG)
    grid = grid_for(3 * DEG, 4 * DEG, spread)
    nominal = gaussian_pattern_sampled(3 * DEG, 4 * DEG, grid)
    effective = convolve_effective_pattern(nominal, spread)
    fitted = fitted_rms_widths(effective)
    assert fitted.bw_elev_rad == pytest.approx(5 * DEG, rel=1e-2)
    assert fitted.bw_azim_rad == pytest.approx(5 * DEG, rel=1e-2)


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
        fitted = fitted_rms_widths(effective)
        assert fitted.bw_elev_rad == pytest.approx(
            math.hypot(bw_elev, spread.zsd_rad), rel=2e-2
        )
        assert fitted.bw_azim_rad == pytest.approx(
            math.hypot(bw_azim, spread.asd_rad), rel=2e-2
        )


def test_convolution_conserves_energy():
    spread = AngularSpread(zsd_rad=2 * DEG, asd_rad=10 * DEG)
    grid = grid_for(5 * DEG, 5 * DEG, spread)
    nominal = gaussian_pattern_sampled(5 * DEG, 5 * DEG, grid)
    effective = convolve_effective_pattern(nominal, spread)
    assert effective.total_power == pytest.approx(nominal.total_power, rel=1e-9)


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
    grid = grid_for(bw, bw)  # 0.05 deg spacing, no spread refinement
    nominal = gaussian_pattern_sampled(bw, bw, grid)
    thin = AngularSpread(zsd_rad=0.0, asd_rad=0.04 * DEG)
    with pytest.raises(GridResolutionError, match="grid too coarse for spread"):
        convolve_effective_pattern(nominal, thin)


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


def test_monte_carlo_brackets_closed_form():
    element = element_pattern_from_gain(5.0)
    geom = ArrayGeometry(16, 16)
    spread = AngularSpread(zsd_rad=0.6 * DEG, asd_rad=14 * DEG)
    config = McConfig(n_paths=20, n_realizations=10_000, seed=0)
    estimate, stderr = monte_carlo_effective_gain(element, geom, spread, config)
    analytic = effective_gain(element, geom, spread).effective_gain_linear
    assert stderr > 0.0
    assert abs(estimate - analytic) <= 3.0 * stderr


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0)
    with pytest.raises(ValueError):
        McConfig(n_realizations=True)
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(seed=2 ** 64)


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
    n_samples = 20_001
    u = np.linspace(-1.0, 1.0, n_samples)
    du = u[1] - u[0]
    single = _main_lobe_width(_summed_power(1, u), du)
    for k in range(2, 65):
        summed = _summed_power(k, u)
        np.testing.assert_allclose(_array_factor_power(k, u), summed, rtol=0.0, atol=1e-12)
        assert upa_array_factor_beamwidth(k, n_samples) == pytest.approx(
            _main_lobe_width(summed, du) / single, rel=1e-12
        )


def test_array_factor_input_validation():
    with pytest.raises(ValueError):
        upa_array_factor_beamwidth(0)
    with pytest.raises(ValueError):
        upa_array_factor_beamwidth(2.0)
    with pytest.raises(ValueError):
        upa_array_factor_beamwidth(4, n_samples=100)


def test_array_factor_accepts_even_sample_count():
    # even counts are widened to the next odd so u = 0 stays on the grid
    even = upa_array_factor_beamwidth(4, n_samples=20_000)
    odd = upa_array_factor_beamwidth(4, n_samples=20_001)
    assert even == odd
