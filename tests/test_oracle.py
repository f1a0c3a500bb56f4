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
    fitted_rms_widths,
    gaussian_pattern_sampled,
    grid_for,
    monte_carlo_effective_gain,
    nominal_beamwidths,
    upa_array_factor_beamwidth,
)
from arraygain import oracle
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


def test_grid_for_rejects_elevation_past_the_cap_before_allocating():
    # a 5 dBi element in 10**7 rows: 316,027,492 elevation samples, 2.4 GiB
    # an array; the count is arithmetic, so nothing the size of it exists
    element = element_pattern_from_gain(5.0)
    tracemalloc.start()
    try:
        with pytest.raises(GridResolutionError, match="elevation needs 316027492 samples"):
            grid_for(element.bw_elev_rad / 10_000_000, element.bw_azim_rad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a width so large its span overflows names no finite count
    with pytest.raises(GridResolutionError, match="needs inf samples"):
        grid_for(1e308, 1.0)
    # a span of pi at spacing bw / 8 takes 8 pi / bw samples: just under
    # the cap is still a grid, just over it is refused
    assert 1_998_000 <= grid_for(8.0 * math.pi / 1_999_000, 1.0).n_elev <= 2_000_000
    with pytest.raises(GridResolutionError, match="elevation needs 200100[0-9] samples"):
        grid_for(8.0 * math.pi / 2_001_000, 1.0)


def test_grid_for_caps_azimuth_past_float_range():
    # 2 pi / (bw / 8) overflows to inf for a subnormal width; the cap
    # applies before rounding, so this is a capped grid, not an OverflowError
    assert grid_for(1.0, 1e-320).n_azim == 2_000_000


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


def test_monte_carlo_memory_is_bounded():
    # 2 * 10**7 draws a variate in chunks of 2**18; the old layout held
    # about 1.2 KiB a realization, over 1 GiB here
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(zsd_rad=0.6 * DEG, asd_rad=14 * DEG)
    config = McConfig(n_paths=20, n_realizations=1_000_000, seed=1)
    tracemalloc.start()
    try:
        estimate, stderr = monte_carlo_effective_gain(element, ArrayGeometry(16, 16), spread, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    analytic = effective_gain(element, ArrayGeometry(16, 16), spread).effective_gain_linear
    assert 0.0 < stderr and abs(estimate - analytic) <= 4.0 * stderr


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0)
    with pytest.raises(ValueError):
        McConfig(n_realizations=True)
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(seed=2 ** 64)


def test_mc_config_paths_fit_one_chunk():
    # a chunk holds whole realizations, so one realization is at most a chunk
    assert McConfig(n_paths=2**18, n_realizations=1).n_paths == 2**18
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
