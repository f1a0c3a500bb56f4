"""Array-geometry optimization under an element budget and an EIRP cap.

For N elements and spreads (asd, zsd) both positive, the effective
beamwidth product is bounded below by AM-GM:

    bw_v * bw_h >= asd * zsd + bw_elev * bw_azim / N

with equality exactly when the nominal beam matches the channel,
bw_azim0 / bw_elev0 = asd / zsd.  That gives a closed-form real-valued
optimum (rows grow with the azimuth spread: widening in azimuth is
inevitable, so elements are better spent narrowing elevation) plus a
gain ceiling no geometry can beat.  The integer winner is then found by
a pruned scan around the closed-form cols, which also covers the
degenerate zero-spread cases the closed form cannot.

EIRP sizing inverts the regulatory cap EIRP = P_t + G_e + 20 log10(n)
for the largest compliant element count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .beam import (
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    GainReport,
    _upper_bound,
    effective_gain,
    effective_gain_value,
)
from .errors import DegenerateSpreadError, EirpTooLowError

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ContinuousGeometry:
    """Real-valued optimizer output before integer refinement.

    rows_real * cols_real equals the element budget it was solved for;
    the integer scan decides how to spend the fractional parts.
    """

    rows_real: float
    cols_real: float

    def __post_init__(self) -> None:
        for name, value in (("rows_real", self.rows_real), ("cols_real", self.cols_real)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def n_elements(self) -> float:
        return self.rows_real * self.cols_real


@dataclass(frozen=True)
class OptimizationResult:
    """Scan winner with its gain report, the budget-level bound, and the
    continuous solution when one exists (None when a spread is zero)."""

    continuous: ContinuousGeometry | None
    integer_best: ArrayGeometry
    integer_gain: GainReport
    bound_gain_linear: float

    def __post_init__(self) -> None:
        if self.integer_gain.effective_gain_linear > self.bound_gain_linear * (1.0 + _REL_TOL):
            raise ValueError("integer-geometry gain exceeds the budget-level bound")


def gain_upper_bound(
    n_elements: int, element: ElementPattern, spread: AngularSpread
) -> float:
    """Best effective gain any geometry within the element budget can reach.

    Parameters
    ----------
    n_elements : int
        Element budget N, >= 1.  Geometries may underfill it.
    element : ElementPattern
    spread : AngularSpread

    Returns
    -------
    float
        2 / (asd * zsd + bw_elev * bw_azim / N), linear.  At zero spread
        this collapses to N times the element gain.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements!r}")
    return _upper_bound(n_elements, element, spread)


def optimal_geometry_continuous(
    n_elements: int, element: ElementPattern, spread: AngularSpread
) -> ContinuousGeometry:
    """Closed-form real-valued geometry attaining the gain bound.

    rows = sqrt(N * bw_elev * asd / (bw_azim * zsd)) and cols = N / rows,
    which makes the nominal beamwidth ratio equal the spread ratio.

    Raises
    ------
    DegenerateSpreadError
        If either spread component is zero; the matching condition has
        no finite solution there.  Use :func:`optimal_geometry_integer`,
        whose scan handles the degenerate axis naturally.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements!r}")
    if spread.asd_rad == 0.0 or spread.zsd_rad == 0.0:
        raise DegenerateSpreadError(
            "degenerate spread: closed-form geometry needs both spreads > 0"
        )
    rows = math.sqrt(
        n_elements * element.bw_elev_rad * spread.asd_rad
        / (element.bw_azim_rad * spread.zsd_rad)
    )
    return ContinuousGeometry(rows_real=rows, cols_real=n_elements / rows)


def _select(scored: Iterable[tuple[float, int, int]]) -> tuple[float, int, int]:
    # (gain, rows, cols), at least one, in scan order: a gain above the
    # best by more than the tolerance wins, a near-tie goes to the taller array
    candidates = iter(scored)
    best = next(candidates)
    for candidate in candidates:
        if candidate[0] > best[0] * (1.0 + _REL_TOL):
            best = candidate
        elif candidate[0] >= best[0] * (1.0 - _REL_TOL) and candidate[1] > best[1]:
            best = candidate
    return best


def _pruned_window(
    n: int, element: ElementPattern, spread: AngularSpread, start: int
) -> list[tuple[float, int, int]]:
    # (gain, rows = N // cols, cols) in ascending cols, from a cols the
    # scan over all of 1..N is bound to pick, through every cols that can
    # come within the tie tolerance of the best

    def envelope(cols: int) -> float:
        # the gain at rows = N / cols >= N // cols: unimodal in cols, its
        # squared denominator being const + a * cols**2 + b / cols**2
        return effective_gain_value(element, n / cols, cols, spread)

    def scored(cols: int) -> tuple[float, int, int]:
        return effective_gain_value(element, n // cols, cols, spread), n // cols, cols

    # walk out from the peak of E; a walk stops once E is below the best
    # gain by 4x the tolerance, far above the rounding of E and the gain
    window: list[tuple[float, int, int]] = []
    best = 0.0
    for walk in (range(start, n + 1), range(start - 1, 0, -1)):
        for cols in walk:
            if envelope(cols) < best * (1.0 - 4.0 * _REL_TOL):
                break
            window.append(scored(cols))
            best = max(best, window[-1][0])
    window.sort(key=lambda candidate: candidate[2])
    while (lo := window[0][2]) > 1:
        # E rises below the window, so no cols there beats the ceiling; the
        # first candidate clear of it and of all before it is picked by the
        # full scan whatever came first, and the scans agree from there on
        ceiling = envelope(lo - 1) * (1.0 + _REL_TOL)
        for i, (gain, _, _) in enumerate(window):
            if gain > ceiling * (1.0 + _REL_TOL):
                return window[i:]
            ceiling = max(ceiling, gain)
        # a staircase of near-ties (tiny spreads, N with many divisors)
        window[:0] = [scored(cols) for cols in range(max(1, lo - len(window)), lo)]
    return window


def optimal_geometry_integer(
    n_elements: int,
    element: ElementPattern,
    spread: AngularSpread,
    allowed_geometries: Sequence[ArrayGeometry] | None = None,
) -> OptimizationResult:
    """Exact integer optimization of rows x cols within the budget.

    Returns the winner of a scan of cols in [1, N], rows = floor(N / cols),
    where near-ties (1e-12 relative) go to the taller array; zero spread
    gives (N, 1).  The gain is at most an envelope unimodal in cols, so only
    cols around the closed-form optimum, out to where the envelope falls
    clearly below the best gain, can matter, and only those are evaluated.

    Parameters
    ----------
    n_elements : int
        Element budget N, >= 1.
    element : ElementPattern
    spread : AngularSpread
    allowed_geometries : sequence of ArrayGeometry, optional
        Restrict the scan to these candidates (feed-network or form
        factor constraints).  Each must fit the budget.

    Returns
    -------
    OptimizationResult
        The winner, its gain report, the budget-level bound, and the
        continuous solution (None when either spread is zero).
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements!r}")
    continuous = None
    if spread.asd_rad > 0.0 and spread.zsd_rad > 0.0:
        continuous = optimal_geometry_continuous(n_elements, element, spread)
    if allowed_geometries is not None:
        if not allowed_geometries:
            raise ValueError("allowed_geometries is empty")
        for geom in allowed_geometries:
            if geom.n_elements > n_elements:
                raise ValueError(
                    f"geometry {geom.rows}x{geom.cols} exceeds the element budget {n_elements}"
                )
        _, rows, cols = _select(
            (effective_gain_value(element, geom.rows, geom.cols, spread), geom.rows, geom.cols)
            for geom in allowed_geometries
        )
    elif spread.is_zero:
        # every full-budget geometry ties and the tallest comes first
        rows, cols = n_elements, 1
    else:
        if continuous is not None:
            start = min(max(round(continuous.cols_real), 1), n_elements)
        else:
            # zsd = 0: the envelope falls with cols; asd = 0: it rises
            start = 1 if spread.zsd_rad == 0.0 else n_elements
        _, rows, cols = _select(_pruned_window(n_elements, element, spread, start))
    best_geom = ArrayGeometry(rows=rows, cols=cols)
    return OptimizationResult(
        continuous=continuous,
        integer_best=best_geom,
        integer_gain=effective_gain(element, best_geom, spread),
        bound_gain_linear=gain_upper_bound(n_elements, element, spread),
    )


def max_elements_for_eirp(
    eirp_dbm: float, per_element_power_dbm: float, element_gain_dbi: float
) -> int:
    """Largest element count keeping EIRP within a regulatory cap.

    EIRP of an n-element array is P_t + G_e + 20 log10(n) (coherent
    voltage sum), so n_max = floor(10^((EIRP - P_t - G_e) / 20)).

    Raises
    ------
    EirpTooLowError
        If even a single element would exceed the cap.
    """
    for name, value in (
        ("eirp_dbm", eirp_dbm),
        ("per_element_power_dbm", per_element_power_dbm),
        ("element_gain_dbi", element_gain_dbi),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    n = math.floor(10.0 ** ((eirp_dbm - per_element_power_dbm - element_gain_dbi) / 20.0))
    if n < 1:
        raise EirpTooLowError("EIRP below single-element emission")
    return n
