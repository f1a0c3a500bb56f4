"""Numerical cross-checks for the closed-form gain model.

Three oracles, each independent of the analytic shortcut it validates:

* grid convolution: sample the nominal Gaussian pattern, circularly
  convolve with the channel's angular spectrum per axis, and read the
  peak off the grid instead of trusting the variance-addition rule;
* Monte-Carlo: draw multipath directions from the Gaussian spectrum,
  phase-sum the per-path amplitudes, and average received power over
  realizations;
* physical array factor: compute the true half-wavelength ULA pattern
  |sum exp(j pi m u)|^2 (in its Dirichlet-kernel closed form) and
  measure how fast its main lobe narrows with element count, which is
  what the 1/k beamwidth rule asserts.

Everything here is deterministic: grids are pure functions of their
inputs and the Monte-Carlo draws come from a counter-based generator
keyed by the caller's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import AngularSpread, ArrayGeometry, ElementPattern, nominal_beamwidths
from .errors import GridResolutionError, check_positive_float, check_positive_int

_DEG = math.pi / 180.0
_DEFAULT_SPACING_RAD = 0.05 * _DEG


def _even_ceil(x: float) -> int:
    n = math.ceil(x)
    return n + (n % 2)


@dataclass(frozen=True)
class AngularGrid:
    """Uniform sampling of azimuth over the full circle and elevation
    over a symmetric span.

    Azimuth samples run from -pi with spacing 2 pi / n_azim (the circle,
    endpoint excluded).  Elevation runs from -elev_half_span_rad with
    spacing 2 * elev_half_span_rad / n_elev; the span is widened past
    pi/2 by :func:`grid_for` when a pattern's tails need the room, so
    circular convolution along it has nothing to wrap.  Counts are even
    so that angle 0 lands on a sample.
    """

    n_azim: int
    n_elev: int
    elev_half_span_rad: float = math.pi / 2

    def __post_init__(self) -> None:
        for name, value in (("n_azim", self.n_azim), ("n_elev", self.n_elev)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
            if value % 2:
                raise ValueError(f"{name} must be even so 0 is on the grid, got {value}")
        check_positive_float("elev_half_span_rad", self.elev_half_span_rad)

    @property
    def azim_spacing(self) -> float:
        return 2.0 * math.pi / self.n_azim

    @property
    def elev_spacing(self) -> float:
        return 2.0 * self.elev_half_span_rad / self.n_elev

    def azim_samples(self) -> np.ndarray:
        return -math.pi + self.azim_spacing * np.arange(self.n_azim)

    def elev_samples(self) -> np.ndarray:
        return -self.elev_half_span_rad + self.elev_spacing * np.arange(self.n_elev)


def grid_for(
    bw_elev_rad: float,
    bw_azim_rad: float,
    spread: AngularSpread | None = None,
    max_azim_samples: int = 2_000_000,
) -> AngularGrid:
    """Grid fine and wide enough for a beam and an optional spread.

    Spacing per axis is the finest of 0.05 degrees, beamwidth/8 and
    (when nonzero) spread/8.  The elevation half-span stretches to
    8 * (beamwidth + spread) when that exceeds pi/2, which keeps the
    wrapped tail below 1e-8 of the peak.  Azimuth sample count is capped
    (the circle span is fixed, so a cap is a spacing floor); patterns
    too narrow for the capped spacing fail the resolution check at
    evaluation time rather than here.
    """
    check_positive_float("bw_elev_rad", bw_elev_rad)
    check_positive_float("bw_azim_rad", bw_azim_rad)
    zsd = spread.zsd_rad if spread is not None else 0.0
    asd = spread.asd_rad if spread is not None else 0.0

    d_azim = min(_DEFAULT_SPACING_RAD, bw_azim_rad / 8.0)
    if asd > 0.0:
        d_azim = min(d_azim, asd / 8.0)
    n_azim = _even_ceil(2.0 * math.pi / d_azim)
    n_azim = min(n_azim, max_azim_samples - max_azim_samples % 2)

    d_elev = min(_DEFAULT_SPACING_RAD, bw_elev_rad / 8.0)
    if zsd > 0.0:
        d_elev = min(d_elev, zsd / 8.0)
    half_span = max(math.pi / 2, 8.0 * (bw_elev_rad + zsd))
    n_elev = _even_ceil(2.0 * half_span / d_elev)
    return AngularGrid(n_azim=n_azim, n_elev=n_elev, elev_half_span_rad=half_span)


@dataclass(frozen=True, eq=False)
class SampledPattern:
    """Separable power pattern on a grid: peak value times two unit-peak
    1-D profiles.  Storing factors instead of the full 2-D table keeps
    convolution O(n) per axis and memory O(n_elev + n_azim).  Arrays are
    treated as immutable.
    """

    grid: AngularGrid
    peak_power: float
    elev_shape: np.ndarray
    azim_shape: np.ndarray

    def __post_init__(self) -> None:
        check_positive_float("peak_power", self.peak_power)
        for name, shape, count in (
            ("elev_shape", self.elev_shape, self.grid.n_elev),
            ("azim_shape", self.azim_shape, self.grid.n_azim),
        ):
            if shape.ndim != 1 or shape.size != count:
                raise ValueError(f"{name} must be 1-D with {count} samples")
            if shape.min() < 0.0 or abs(shape.max() - 1.0) > 1e-12:
                raise ValueError(f"{name} must be non-negative with unit peak")

    @property
    def total_power(self) -> float:
        """Integral of the pattern over the grid (ideally 4 pi)."""
        elev_integral = self.elev_shape.sum() * self.grid.elev_spacing
        azim_integral = self.azim_shape.sum() * self.grid.azim_spacing
        return self.peak_power * elev_integral * azim_integral


def gaussian_pattern_sampled(
    bw_elev_rad: float, bw_azim_rad: float, grid: AngularGrid
) -> SampledPattern:
    """Sample the separable Gaussian beam on a grid.

    Peak power is the directional gain 2 / (bw_azim * bw_elev).

    Raises
    ------
    GridResolutionError
        If either grid spacing exceeds beamwidth / 8; a Gaussian needs
        several samples per sigma or its peak and integral go wrong.
    """
    check_positive_float("bw_elev_rad", bw_elev_rad)
    check_positive_float("bw_azim_rad", bw_azim_rad)
    if grid.elev_spacing > bw_elev_rad / 8.0 or grid.azim_spacing > bw_azim_rad / 8.0:
        raise GridResolutionError(
            "grid too coarse: spacing (%.4g, %.4g) rad exceeds beamwidth/8 (%.4g, %.4g) rad"
            % (grid.elev_spacing, grid.azim_spacing, bw_elev_rad / 8.0, bw_azim_rad / 8.0)
        )
    elev = np.exp(-(grid.elev_samples() ** 2) / (2.0 * bw_elev_rad**2))
    azim = np.exp(-(grid.azim_samples() ** 2) / (2.0 * bw_azim_rad**2))
    return SampledPattern(
        grid=grid,
        peak_power=2.0 / (bw_elev_rad * bw_azim_rad),
        elev_shape=elev / elev.max(),
        azim_shape=azim / azim.max(),
    )


def _circular_blur(shape: np.ndarray, spacing: float, sigma: float) -> np.ndarray:
    n = shape.size
    # Gaussian kernel laid out at index 0 by wrapped distance; unit
    # discrete sum makes the convolution conserve the pattern's total
    offsets = np.minimum(np.arange(n), n - np.arange(n)) * spacing
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    out = np.fft.irfft(np.fft.rfft(shape) * np.fft.rfft(kernel), n)
    return np.maximum(out, 0.0)


def convolve_effective_pattern(nominal: SampledPattern, spread: AngularSpread) -> SampledPattern:
    """Effective pattern by per-axis circular convolution with the spread.

    Azimuth wraps over the full circle, which is the physical topology;
    elevation wraps over its own span, wide enough by construction that
    the wrapped tail is negligible.  Zero spread on both axes returns
    the input pattern unchanged.

    Parameters
    ----------
    nominal : SampledPattern
    spread : AngularSpread

    Raises
    ------
    GridResolutionError
        If a nonzero spread is finer than twice the grid spacing on its
        axis (the kernel would alias down to a near-delta).
    """
    grid = nominal.grid
    if spread.is_zero:
        return nominal

    for name, sigma, spacing in (
        ("zsd_rad", spread.zsd_rad, grid.elev_spacing),
        ("asd_rad", spread.asd_rad, grid.azim_spacing),
    ):
        if 0.0 < sigma < 2.0 * spacing:
            raise GridResolutionError(
                f"grid too coarse for spread: {name} = {sigma:.4g} rad "
                f"needs spacing <= {sigma / 2.0:.4g} rad, grid has {spacing:.4g} rad"
            )

    elev = nominal.elev_shape
    if spread.zsd_rad > 0.0:
        elev = _circular_blur(elev, grid.elev_spacing, spread.zsd_rad)
    azim = nominal.azim_shape
    if spread.asd_rad > 0.0:
        azim = _circular_blur(azim, grid.azim_spacing, spread.asd_rad)
    elev_max = elev.max()
    azim_max = azim.max()
    return SampledPattern(
        grid=grid,
        peak_power=nominal.peak_power * elev_max * azim_max,
        elev_shape=elev / elev_max,
        azim_shape=azim / azim_max,
    )


def fitted_rms_widths(pattern: SampledPattern) -> ElementPattern:
    """RMS widths of a sampled pattern from its weighted second moments.

    For a Gaussian profile this recovers the sigma parameter, so on a
    convolved pattern it checks variance additivity directly.
    """
    elev_x = pattern.grid.elev_samples()
    azim_x = pattern.grid.azim_samples()
    elev_w = pattern.elev_shape
    azim_w = pattern.azim_shape
    return ElementPattern(
        bw_elev_rad=math.sqrt(float((elev_w * elev_x**2).sum() / elev_w.sum())),
        bw_azim_rad=math.sqrt(float((azim_w * azim_x**2).sum() / azim_w.sum())),
    )


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run shape: paths per realization, realization count,
    and the 64-bit seed that makes the run reproducible."""

    n_paths: int = 20
    n_realizations: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int("n_paths", self.n_paths)
        check_positive_int("n_realizations", self.n_realizations)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not (
            0 <= self.seed < 2**64
        ):
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {self.seed!r}")


def monte_carlo_effective_gain(
    element: ElementPattern,
    geom: ArrayGeometry,
    spread: AngularSpread,
    config: McConfig,
) -> tuple[float, float]:
    """Empirical effective gain over random multipath, with its standard error.

    Each realization draws n_paths directions (azimuth and elevation
    independent zero-mean Gaussians with the channel's spreads) and one
    uniform phase per path; paths are equal power.  Received power is
    the squared magnitude of the phase sum of per-path amplitudes
    sqrt(g(direction) / n_paths).  The estimate is the ratio of the
    mean received power to the mean under a flat (gain 1) pattern with
    the same phases, scaled by the boresight gain; that normalization
    makes the zero-spread case return the nominal gain exactly and
    cancels the common fading variance otherwise.

    Returns
    -------
    (estimate, standard_error) : tuple of float
        Linear power units.  The standard error comes from the delta
        method on the ratio of means.

    Notes
    -----
    Deterministic for a fixed config: draws come from a Philox generator
    keyed by the seed, in a fixed (realization, path) block layout.
    """
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


def _main_lobe_width(power: np.ndarray, du: float) -> float:
    # area-equivalent Gaussian width of the main lobe: integrate the
    # peak-normalized lobe above -10 dB (side lobes sit below that) and
    # divide by sqrt(2 pi), the area of a unit-peak Gaussian per sigma
    n = power.size
    center = n // 2
    rise = np.nonzero(np.diff(power[center:]) > 0.0)[0]
    right = center + (int(rise[0]) if rise.size else n - 1 - center)
    rise = np.nonzero(np.diff(power[center::-1]) > 0.0)[0]
    left = center - (int(rise[0]) if rise.size else center)
    lobe = power[left : right + 1]
    lobe = lobe[lobe >= 0.1 * power[center]]
    return float(lobe.sum()) * du / math.sqrt(2.0 * math.pi)


def _array_factor_power(k: int, u: np.ndarray) -> np.ndarray:
    # |sum_{m<k} exp(j pi m u)|^2 / k^2 = sin^2(k pi u / 2) / (k^2 sin^2(pi u / 2)),
    # O(n) whatever k is; the 0/0 at u = 0 is the unit peak
    half = 0.5 * math.pi * u
    denom = k * np.sin(half)
    power = np.ones_like(u)
    off_peak = denom != 0.0
    power[off_peak] = (np.sin(k * half[off_peak]) / denom[off_peak]) ** 2
    return power


def upa_array_factor_beamwidth(k_elements_along_axis: int, n_samples: int = 200_001) -> float:
    """Main-lobe width ratio of a k-element half-wavelength ULA vs one element.

    Evaluates the physical broadside array factor
    |sum_{m=0}^{k-1} exp(j pi m u)|^2 / k^2, in its closed form
    sin^2(k pi u / 2) / (k^2 sin^2(pi u / 2)), on a fine grid of
    u = sin(theta) over [-1, 1], measures the main lobe's
    area-equivalent RMS width, and divides by the same measurement for a
    single element.  The Gaussian model's claim is that this ratio is
    1/k; the Dirichlet-kernel lobe is not Gaussian, so agreement is
    approximate by nature.

    Parameters
    ----------
    k_elements_along_axis : int
        Elements along the axis, >= 1.
    n_samples : int
        Grid resolution; forced odd so u = 0 is a sample.
    """
    check_positive_int("k_elements_along_axis", k_elements_along_axis)
    k = k_elements_along_axis
    if n_samples < 1001:
        raise ValueError(f"n_samples must be >= 1001, got {n_samples!r}")
    if n_samples % 2 == 0:
        n_samples += 1
    if k == 1:
        return 1.0
    u = np.linspace(-1.0, 1.0, n_samples)
    du = u[1] - u[0]
    # one element's pattern is flat, so its lobe is the whole grid and
    # _main_lobe_width reduces to this
    single = n_samples * du / math.sqrt(2.0 * math.pi)
    return _main_lobe_width(_array_factor_power(k, u), du) / single
