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
from bisect import bisect_left

import numpy as np

from .beam import AngularSpread, ArrayGeometry, ElementPattern, nominal_beamwidths
from .errors import GridResolutionError, check_positive_float, check_positive_int
from .value import Value, setfield

_DEG = math.pi / 180.0
_DEFAULT_SPACING_RAD = 0.05 * _DEG
# most samples on one grid axis: 16 MB a float64 array along it; 2**7 * 5**6,
# so a count rounded up to a fast FFT length stays within it
_MAX_AXIS_SAMPLES = 2_000_000


# even 2**a * 3**b * 5**c up to the cap, ascending: pocketfft transforms
# these lengths directly, where a length with a large prime factor falls
# back to the slower Bluestein algorithm
_FAST_COUNTS = sorted(
    p << a
    for p in [3**b * 5**c for b in range(13) for c in range(9)]
    for a in range(1, 21)
    if p << a <= _MAX_AXIS_SAMPLES
)


def _fast_even_ceil(x: float) -> int:
    # the least fast, even count >= x, for 0 < x <= _MAX_AXIS_SAMPLES
    return _FAST_COUNTS[bisect_left(_FAST_COUNTS, math.ceil(x))]


class AngularGrid(Value):
    """Uniform sampling of azimuth over the full circle and elevation
    over a symmetric span.

    Azimuth samples run from -pi with spacing 2 pi / n_azim (the circle,
    endpoint excluded).  Elevation runs from -elev_half_span_rad with
    spacing 2 * elev_half_span_rad / n_elev; the span is widened past
    pi/2 by :func:`grid_for` when a pattern's tails need the room, so
    circular convolution along it has nothing to wrap.  Counts are even
    so that angle 0 lands on a sample; :func:`grid_for` also makes them
    fast FFT lengths, 2**a * 3**b * 5**c.
    """

    __slots__ = ("n_azim", "n_elev", "elev_half_span_rad")

    def __init__(self, n_azim: int, n_elev: int, elev_half_span_rad: float) -> None:
        for name, value in (("n_azim", n_azim), ("n_elev", n_elev)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
            if value % 2:
                raise ValueError(f"{name} must be even so 0 is on the grid, got {value}")
        check_positive_float("elev_half_span_rad", elev_half_span_rad)
        setfield(self, "n_azim", n_azim)
        setfield(self, "n_elev", n_elev)
        setfield(self, "elev_half_span_rad", elev_half_span_rad)

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
    spread: AngularSpread,
) -> AngularGrid:
    """Grid fine and wide enough for a beam and a spread.

    Spacing per axis is at most the finest of 0.05 degrees,
    beamwidth/8 and (when nonzero) spread/8: each count is rounded up to
    the next even 2**a * 3**b * 5**c, which keeps angle 0 on the grid,
    only makes the spacing finer, and spares the FFT a length with a
    large prime factor.  The elevation half-span stretches to
    8 * (beamwidth + spread) when that exceeds pi/2, which keeps the
    wrapped tail below 1e-8 of the peak.  Azimuth sample count is capped
    (the circle span is fixed, so a cap is a spacing floor); patterns
    too narrow for the capped spacing fail the resolution check at
    evaluation time rather than here.  Elevation needs its spacing and
    span both, so past 2,000,000 samples it raises
    :class:`GridResolutionError` instead, before anything is allocated.
    """
    check_positive_float("bw_elev_rad", bw_elev_rad)
    check_positive_float("bw_azim_rad", bw_azim_rad)
    zsd, asd = spread.zsd_rad, spread.asd_rad

    d_azim = min(_DEFAULT_SPACING_RAD, bw_azim_rad / 8.0)
    if asd > 0.0:
        d_azim = min(d_azim, asd / 8.0)
    # capped before rounding: the uncapped count can exceed float range
    n_azim = _fast_even_ceil(min(2.0 * math.pi / d_azim, _MAX_AXIS_SAMPLES))

    d_elev = min(_DEFAULT_SPACING_RAD, bw_elev_rad / 8.0)
    if zsd > 0.0:
        d_elev = min(d_elev, zsd / 8.0)
    half_span = max(math.pi / 2, 8.0 * (bw_elev_rad + zsd))
    n_elev = 2.0 * half_span / d_elev
    if not n_elev <= _MAX_AXIS_SAMPLES:
        needed = 2 * math.ceil(n_elev / 2.0) if n_elev < 1e15 else f"{n_elev:.3g}"
        raise GridResolutionError(
            f"grid too large: elevation needs {needed} samples, "
            f"more than the {_MAX_AXIS_SAMPLES} allowed per axis"
        )
    return AngularGrid(n_azim=n_azim, n_elev=_fast_even_ceil(n_elev), elev_half_span_rad=half_span)


class SampledPattern(Value):
    """Separable power pattern on a grid: peak value times two unit-peak
    1-D profiles.  Storing factors instead of the full 2-D table keeps
    convolution O(n) per axis and memory O(n_elev + n_azim).  Arrays are
    treated as immutable, and two patterns are equal only when they are
    the same object.
    """

    __slots__ = ("grid", "peak_power", "elev_shape", "azim_shape")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, grid: AngularGrid, peak_power: float, elev_shape: np.ndarray, azim_shape: np.ndarray
    ) -> None:
        check_positive_float("peak_power", peak_power)
        for name, shape, count in (
            ("elev_shape", elev_shape, grid.n_elev),
            ("azim_shape", azim_shape, grid.n_azim),
        ):
            if shape.ndim != 1 or shape.size != count:
                raise ValueError(f"{name} must be 1-D with {count} samples")
            if shape.min() < 0.0 or abs(shape.max() - 1.0) > 1e-12:
                raise ValueError(f"{name} must be non-negative with unit peak")
        setfield(self, "grid", grid)
        setfield(self, "peak_power", peak_power)
        setfield(self, "elev_shape", elev_shape)
        setfield(self, "azim_shape", azim_shape)


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
    elev = _gaussian(grid.elev_samples(), bw_elev_rad)
    azim = _gaussian(grid.azim_samples(), bw_azim_rad)
    elev /= elev.max()
    azim /= azim.max()
    return SampledPattern(
        grid=grid, peak_power=2.0 / (bw_elev_rad * bw_azim_rad), elev_shape=elev, azim_shape=azim
    )


def _gaussian(x: np.ndarray, sigma: float) -> np.ndarray:
    # exp(-(x**2) / (2 sigma**2)), in place; a / -b is -(a) / b exactly
    np.square(x, out=x)
    x /= -2.0 * sigma**2
    return np.exp(x, out=x)


def _circular_blur(shape: np.ndarray, spacing: float, sigma: float) -> np.ndarray:
    n = shape.size
    # Gaussian kernel laid out at index 0 by signed wrapped distance, i - n
    # past the middle; unit discrete sum makes the convolution conserve the total
    kernel = np.arange(n, dtype=float)
    kernel[n // 2 + 1 :] -= n
    kernel *= spacing
    kernel = _gaussian(kernel, sigma)
    kernel /= kernel.sum()
    # the kernel is freed before the shape's spectrum is taken, and that
    # spectrum takes the product: two n-sized arrays at most beside the shape
    spectrum = np.fft.rfft(kernel)
    del kernel
    product = np.fft.rfft(shape)
    product *= spectrum
    del spectrum
    out = np.fft.irfft(product, n)
    return np.maximum(out, 0.0, out=out)


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


# Draws per variate in one chunk, whose path amplitudes (2 MiB) are held at
# once whatever the realization count; a run of at most this many is one chunk
_MC_CHUNK_DRAWS = 2**18


# Draws per variate in one run: a run of this many takes about 2 s on a
# 2-core x86 host, and a refused one would have taken up to days
_MC_MAX_DRAWS = 2**25


class McConfig(Value):
    """Monte-Carlo run shape: paths per realization (at most one chunk,
    2**18), realization count (at least 2, so a standard error exists),
    at most 2**25 draws in all, and the 64-bit seed that makes the run
    reproducible."""

    __slots__ = ("n_paths", "n_realizations", "seed")

    def __init__(self, n_paths: int = 20, n_realizations: int = 10_000, seed: int = 0) -> None:
        check_positive_int("n_paths", n_paths)
        check_positive_int("n_realizations", n_realizations)
        if n_paths > _MC_CHUNK_DRAWS:
            # a chunk holds whole realizations, so this bounds its memory
            raise ValueError(
                f"n_paths must be at most {_MC_CHUNK_DRAWS} (one Monte-Carlo chunk), "
                f"got {n_paths}"
            )
        if n_realizations < 2:
            raise ValueError(f"n_realizations must be at least 2, got {n_realizations}")
        if n_paths * n_realizations > _MC_MAX_DRAWS:
            raise ValueError(
                f"n_paths * n_realizations must be at most {_MC_MAX_DRAWS}, "
                f"got {n_paths} * {n_realizations}"
            )
        if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed!r}")
        setfield(self, "n_paths", n_paths)
        setfield(self, "n_realizations", n_realizations)
        setfield(self, "seed", seed)


# Draws in one block: each variate is drawn a block at a time into one
# reused buffer, and the phasor arithmetic runs a block at a time, sized
# so that a block's dozen temporaries stay in L2 cache
_MC_BLOCK_DRAWS = 2**13


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
    cancels the common fading variance otherwise.  With both spreads
    zero, every realization's received and flat powers agree, so the
    nominal gain and a zero error return without drawing.

    Returns
    -------
    (estimate, standard_error) : tuple of float
        Linear power units.  The standard error comes from the delta
        method on the ratio of means.

    Notes
    -----
    Deterministic for a fixed config: draws come from a Philox generator
    keyed by the seed.  Realizations are drawn in chunks of
    floor(2**18 / n_paths), at least one as n_paths <= 2**18: per chunk,
    all its azimuths, then all its elevations, then all its phases, each
    in (realization, path) order.  A run with n_paths * n_realizations <= 2**18 is one
    chunk, the same draws as one (realization, path) array per variate.
    A larger run draws different numbers from the same stream: at
    n_paths = 20, n_realizations = 20_000, seed 0, for a 5 dBi element
    in a 16 x 16 array under asd = 14 deg, zsd = 0.6 deg, whole-run
    arrays gave 158.9552 +/- 1.2943 and two chunks give
    156.5441 +/- 1.2590, about one SE either side of the closed form's
    157.9044.
    Memory is one chunk's 2**18 path amplitudes (2 MiB) plus blocks of
    max(2**13, n_paths) floats, whatever the realization count.
    """
    nominal = nominal_beamwidths(element, geom)
    gain0 = nominal.gain_linear
    if spread.is_zero:
        # every amplitude is 1, so received equals flat in each realization
        # and the draws would give exactly this
        return gain0, 0.0
    n_paths, n_real = config.n_paths, config.n_realizations
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    chunk_rows = min(n_real, _MC_CHUNK_DRAWS // n_paths)
    block_rows = min(chunk_rows, max(1, _MC_BLOCK_DRAWS // n_paths))
    # amplitude relative to boresight, sqrt(g(dir) / g(0)), is
    # exp(c_azim * azim**2 + c_elev * elev**2) for standard normal azim and
    # elev, with c = -(spread / 2 bw)**2; an axis with zero spread adds
    # nothing, though its draws are still made
    coeffs = []
    for sigma, bw in ((spread.asd_rad, nominal.bw_azim_rad), (spread.zsd_rad, nominal.bw_elev_rad)):
        r = sigma / (2.0 * bw)
        coeffs.append(-(r * r) if sigma > 0.0 else None)
    first = 0 if coeffs[0] is not None else 1
    # a chunk's amplitudes and a block's terms hold paths along their first
    # axis, so path sums add whole rows; draws fill (realization, path) blocks
    amp = np.empty((n_paths, chunk_rows))
    draws = np.empty((block_rows, n_paths))
    tmp = np.empty((2, n_paths, block_rows))
    terms = np.empty((4, n_paths, block_rows))
    path_sums = np.empty((4, block_rows))
    power = np.empty((2, chunk_rows))
    # sums over realizations of received, flat, d, d*d, d*flat and
    # flat*flat, where d = received - rho0 * flat and rho0 is the first
    # chunk's ratio: at the run's ratio rho0 + e the residual is
    # d - e * flat, so its square sums to S_dd - 2 e S_df + e**2 S_ff.
    # d is already centred to the first chunk's precision, which keeps
    # that expansion clear of the cancellation raw moments of received
    # and flat would suffer when the two nearly agree (tiny spreads);
    # at zero spread d is exactly 0.
    sums = [0.0] * 6
    rho0 = None
    for start in range(0, n_real, chunk_rows):
        rows = min(chunk_rows, n_real - start)
        blocks = [(b0, min(rows, b0 + block_rows)) for b0 in range(0, rows, block_rows)]
        # all the chunk's azimuths, then all its elevations; consecutive
        # fills of a buffer draw the numbers of one fill of the whole
        for axis, c in enumerate(coeffs):
            for b0, b1 in blocks:
                block = draws[: b1 - b0]
                rng.standard_normal(out=block)
                if c is None:
                    continue
                np.square(block, out=block)
                block *= c
                if axis == first:
                    amp[:, b0:b1] = block.T
                else:
                    amp[:, b0:b1] += block.T
        # then its phases, each block's into received and flat power, times
        # n_paths (the ratio and its se do not see the scale)
        received, flat = power[:, :rows]
        for b0, b1 in blocks:
            n = b1 - b0
            phase = draws[:n]
            # uniform(0, 2 pi) is this standard draw scaled
            rng.random(out=phase)
            a, t, w = amp[:, b0:b1], tmp[0, :, :n], tmp[1, :, :n]
            T, S = terms[:, :, :n], path_sums[:, :n]
            np.exp(a, out=a)
            # unit phasor of phase - pi, whose sign drops out of every |sum|**2,
            # from t = tan(phase / 4 - pi / 4) in [-1, 1] by two double-angle
            # steps: with w = 4 / (1 + t**2)**2, cos = 1 - 2 t**2 w and
            # sin = t (1 - t**2) w.  numpy vectorizes tan, not cos and sin: for
            # 2e5 draws on an AVX-512 Xeon, 0.5 ms against 7.6 ms for the pair
            np.subtract(phase.T, 0.5, out=t)
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
            # received sums amplitude * phasor over paths, flat the bare phasor
            np.multiply(T[2:], a, out=T[:2])
            np.add.reduce(T, axis=1, out=S)
            S *= S
            np.add(S[0], S[1], out=received[b0:b1])
            np.add(S[2], S[3], out=flat[b0:b1])
        if rho0 is None:
            rho0 = float(received.sum()) / float(flat.sum())
        d = received - rho0 * flat
        parts = (received, flat, d, d * d, d * flat, flat * flat)
        sums = [total + float(part.sum()) for total, part in zip(sums, parts)]
        # the next chunk's blocks run without this one's sum arrays
        del d, parts
    s_received, s_flat, s_d, s_dd, s_df, s_ff = sums
    e = s_d / s_flat
    s_residual = max(0.0, s_dd - e * (2.0 * s_df - e * s_ff))
    # se of the ratio of means: sqrt(mean(residual**2) / n) / mean(flat)
    return gain0 * (s_received / s_flat), gain0 * (math.sqrt(s_residual) / s_flat)


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
    # O(n) whatever k is, in two arrays the size of u; the 0/0 at u = 0 is
    # the unit peak
    power = u * (0.5 * math.pi)
    denom = np.sin(power)
    denom *= k
    power *= k
    np.sin(power, out=power)
    off_peak = denom != 0.0
    np.divide(power, denom, out=power, where=off_peak)
    np.square(power, out=power)
    power[~off_peak] = 1.0
    return power


# samples of u over [-1, 1], odd so u = 0 is one; past _AF_MAX_K the first
# null 2 / k lies fewer than 16 samples from the peak, the main lobe falls
# between samples and its measured width drifts off 1/k
_AF_SAMPLES = 200_001
_AF_MAX_K = (_AF_SAMPLES - 1) // 16


def upa_array_factor_beamwidth(k_elements_along_axis: int) -> float:
    """Main-lobe width ratio of a k-element half-wavelength ULA vs one element.

    Evaluates the physical broadside array factor
    |sum_{m=0}^{k-1} exp(j pi m u)|^2 / k^2, in its closed form
    sin^2(k pi u / 2) / (k^2 sin^2(pi u / 2)), on 200,001 samples of
    u = sin(theta) over [-1, 1], measures the main lobe's
    area-equivalent RMS width, and divides by the same measurement for a
    single element.  The Gaussian model's claim is that this ratio is
    1/k; the Dirichlet-kernel lobe is not Gaussian, so agreement is
    approximate by nature: k times the ratio tends to sqrt(pi) / 2.

    Parameters
    ----------
    k_elements_along_axis : int
        Elements along the axis, 1 to 12,500; a larger k raises
        GridResolutionError, its main lobe too narrow for the grid.
    """
    check_positive_int("k_elements_along_axis", k_elements_along_axis)
    k = k_elements_along_axis
    if k == 1:
        return 1.0
    if k > _AF_MAX_K:
        raise GridResolutionError(
            f"grid too coarse: k_elements_along_axis must be at most {_AF_MAX_K}, got {k}"
        )
    u = np.linspace(-1.0, 1.0, _AF_SAMPLES)
    du = u[1] - u[0]
    # one element's pattern is flat, so its lobe is the whole grid and
    # _main_lobe_width reduces to this
    single = _AF_SAMPLES * du / math.sqrt(2.0 * math.pi)
    # the lobe ends at the first null, 2 / k from u = 0: twice that each
    # side holds the first rise _main_lobe_width looks for, so it sums the
    # same samples as on the whole grid
    center = _AF_SAMPLES // 2
    half_width = min(center, math.ceil(4.0 / (k * du)))
    window = u[center - half_width : center + half_width + 1]
    return _main_lobe_width(_array_factor_power(k, window), du) / single
