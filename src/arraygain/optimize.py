"""Array-geometry optimization under an element budget and an EIRP cap.

For N elements and spreads (asd, zsd) both positive, the effective
beamwidth product is bounded below by AM-GM:

    bw_v * bw_h >= asd * zsd + bw_elev * bw_azim / N

with equality exactly when the nominal beam matches the channel,
bw_azim0 / bw_elev0 = asd / zsd.  That gives a closed-form real-valued
optimum (rows grow with the azimuth spread: widening in azimuth is
inevitable, so elements are better spent narrowing elevation) plus a
gain ceiling no geometry can beat, 2 / (asd * zsd + bw_elev * bw_azim / N),
which is N times the element gain at zero spread.  Results carry it as
:attr:`OptimizationResult.bound_gain_linear` at the budget, and
:attr:`arraygain.beam.GainReport.upper_bound_linear` for one geometry.
The integer winner is the tallest geometry rows = N // cols whose gain is
within 1e-12 of the best over cols 1..N, a property of the set of gains;
a walk over runs of equal rows finds it from any start, which sets only
the walk's length.  It starts at the closed-form cols, or where there is
none (a zero spread, or a ratio past the float range) at cols = N when
zsd * bw_azim > asd * bw_elev and at cols = 1 otherwise.

EIRP sizing inverts the regulatory cap EIRP = P_t + G_e + 20 log10(n)
for the largest compliant element count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence

from .beam import (
    _NORMAL,
    _REL_TOL,
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    GainReport,
    _check_budget,
    _report,
    _upper_bound,
    effective_gain_value,
)
from .errors import EirpTooLowError, check_positive_float
from .value import Value, setfield


class ContinuousGeometry(Value):
    """Real-valued optimizer output before integer refinement.

    rows_real * cols_real equals the element budget it was solved for;
    the integer scan decides how to spend the fractional parts.
    """

    __slots__ = ("rows_real", "cols_real")

    def __init__(self, rows_real: float, cols_real: float) -> None:
        check_positive_float("rows_real", rows_real)
        check_positive_float("cols_real", cols_real)
        setfield(self, "rows_real", rows_real)
        setfield(self, "cols_real", cols_real)


class OptimizationResult(Value):
    """Scan winner with its gain report, the budget-level bound, and the
    continuous solution when one exists (None when a spread is zero or
    the spread ratio puts it beyond float range)."""

    __slots__ = ("continuous", "integer_best", "integer_gain", "bound_gain_linear")

    def __init__(
        self,
        continuous: ContinuousGeometry | None,
        integer_best: ArrayGeometry,
        integer_gain: GainReport,
        bound_gain_linear: float,
    ) -> None:
        if integer_gain.effective_gain_linear > bound_gain_linear * (1.0 + _REL_TOL):
            raise ValueError("integer-geometry gain exceeds the budget-level bound")
        setfield(self, "continuous", continuous)
        setfield(self, "integer_best", integer_best)
        setfield(self, "integer_gain", integer_gain)
        setfield(self, "bound_gain_linear", bound_gain_linear)


# the largest budget the walk over runs takes on: ordinary inputs answer in
# about a second at 10**12, and the walk's time grows with sqrt(N)
_MAX_SCAN_ELEMENTS = 10**12


def _closed_form(n: int, element: ElementPattern, spread: AngularSpread) -> ContinuousGeometry | None:
    # rows = sqrt(N * bw_elev * asd / (bw_azim * zsd)), cols = N / rows; None
    # when a spread is zero or the ratio puts rows or cols past the normal floats
    denominator = element.bw_azim_rad * spread.zsd_rad
    if spread.asd_rad == 0.0 or denominator == 0.0:
        return None
    rows = math.sqrt(n * element.bw_elev_rad * spread.asd_rad / denominator)
    cols = n / rows if rows > 0.0 else 0.0
    if _NORMAL <= rows < math.inf and _NORMAL <= cols < math.inf:
        return ContinuousGeometry(rows_real=rows, cols_real=cols)
    return None


def _run(n: int, cols: int) -> range:
    # the cols that share rows = N // cols with this one
    rows = n // cols
    return range(n // (rows + 1) + 1, n // rows + 1)


def _row_runs(n: int, cols: int = 1) -> Iterator[tuple[int, range]]:
    # the geometries (N // c, c), c = cols..N, as (rows, range of c) runs of
    # equal rows in ascending c: about 2 sqrt(N) of them from cols = 1
    while cols <= n:
        stop = _run(n, cols).stop
        yield n // cols, range(cols, stop)
        cols = stop


def _scan_runs(n: int, element: ElementPattern, spread: AngularSpread, start: int) -> tuple[int, int]:
    # the smallest cols in 1..N (the tallest array) whose gain is within the
    # tolerance of the best gain over all of them
    near = 1.0 - 4.0 * _REL_TOL

    def envelope(cols: int) -> float:
        # the gain at rows = N / cols >= N // cols: unimodal in cols, and >= gain
        return effective_gain_value(element, n / cols, cols, spread)

    def gain(cols: int) -> float:
        # does not fall as cols grows within a run: a run's best is its end
        return effective_gain_value(element, n // cols, cols, spread)

    # runs out from E's peak until E is 4 tolerances (far above the rounding)
    # below the best run end: no gain outside [lo, hi) comes near it, so that
    # end is the best gain
    first = _run(n, start)
    lo, hi = first.start, first.stop
    best = gain(first[-1])
    while hi <= n and envelope(hi) >= best * near:
        end = _run(n, hi)[-1]
        best = max(best, gain(end))
        hi = end + 1
    while lo > 1 and envelope(lo - 1) >= best * near:
        best = max(best, gain(lo - 1))
        lo = _run(n, lo - 1).start
    # the first run from lo whose end reaches the bar holds the winner
    bar = best * (1.0 - _REL_TOL)
    while gain(end := _run(n, lo)[-1]) < bar:
        lo = end + 1
    cols = lo + bisect_left(range(lo, end), bar, key=gain)
    return n // cols, cols


def _check_fits(geometries: Sequence[ArrayGeometry], n_elements: int) -> None:
    # shared with sweep, whose listed rows must fit the budget too
    for geom in geometries:
        if geom.n_elements > n_elements:
            raise ValueError(
                f"geometry {geom.rows}x{geom.cols} exceeds the element budget {n_elements}"
            )


def optimal_geometry_integer(
    n_elements: int,
    element: ElementPattern,
    spread: AngularSpread,
    allowed_geometries: Sequence[ArrayGeometry] | None = None,
) -> OptimizationResult:
    """Exact integer optimization of rows x cols within the budget.

    Of the geometries rows = N // cols, cols in [1, N], returns the one
    with the smallest cols (the tallest array) whose gain is at least
    G* (1 - 1e-12), G* being the best gain among them; zero spread gives
    (N, 1).  It walks the about 2 sqrt(N) runs of equal rows in O(1)
    memory, at a cost of O(sqrt(N)) gain evaluations.  Budgets above
    10**12 raise ValueError before the walk unless ``allowed_geometries``
    restricts it or both spreads are zero.

    Parameters
    ----------
    n_elements : int
        Element budget N, >= 1.
    element : ElementPattern
    spread : AngularSpread
    allowed_geometries : sequence of ArrayGeometry, optional
        Restrict the scan to these candidates (feed-network or form
        factor constraints).  Each must fit the budget.  The same rule
        picks among them: the tallest within 1e-12 of their best gain,
        the first listed among equal rows.

    Returns
    -------
    OptimizationResult
        The winner, its gain report, the budget-level bound, and the
        continuous solution (None when either spread is zero, or when
        the spread ratio puts the closed form beyond float range).
    """
    _check_budget(n_elements, element, spread)
    continuous = _closed_form(n_elements, element, spread)
    if allowed_geometries is not None:
        if not allowed_geometries:
            raise ValueError("allowed_geometries is empty")
        _check_fits(allowed_geometries, n_elements)
        # the tallest array whose gain is within the tolerance of the best;
        # max returns the first maximum, so the first listed among equal rows
        scored = [
            (effective_gain_value(element, geom.rows, geom.cols, spread), geom.rows, geom.cols)
            for geom in allowed_geometries
        ]
        bar = max(gain for gain, _, _ in scored) * (1.0 - _REL_TOL)
        _, rows, cols = max((c for c in scored if c[0] >= bar), key=lambda c: c[1])
    elif spread.is_zero:
        # every full-budget geometry ties and the tallest comes first
        rows, cols = n_elements, 1
    else:
        if n_elements > _MAX_SCAN_ELEMENTS:
            raise ValueError(
                f"n_elements must be at most {_MAX_SCAN_ELEMENTS} to scan every geometry, "
                f"got {n_elements}; restrict the scan with allowed_geometries"
            )
        if continuous is not None:
            start = min(max(round(continuous.cols_real), 1), n_elements)
        else:
            # cols_real > sqrt(N) exactly when zsd * bw_azim > asd * bw_elev;
            # without a closed form it lies past that end of 1..N
            wide = spread.zsd_rad * element.bw_azim_rad > spread.asd_rad * element.bw_elev_rad
            start = n_elements if wide else 1
        rows, cols = _scan_runs(n_elements, element, spread, start)
    best_geom = ArrayGeometry(rows=rows, cols=cols)
    return OptimizationResult(
        continuous=continuous,
        integer_best=best_geom,
        # the budget check above covers both: best_geom fits the budget
        integer_gain=_report(element, best_geom, spread),
        bound_gain_linear=_upper_bound(n_elements, element, spread),
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
    ValueError
        If the cap allows an element count beyond float range.
    """
    for name, value in (
        ("eirp_dbm", eirp_dbm),
        ("per_element_power_dbm", per_element_power_dbm),
        ("element_gain_dbi", element_gain_dbi),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    headroom_db = eirp_dbm - per_element_power_dbm - element_gain_dbi
    try:
        n = math.floor(10.0 ** (headroom_db / 20.0))
    except OverflowError:
        raise ValueError(f"EIRP headroom {headroom_db:.6g} dB is beyond float range") from None
    if n < 1:
        raise EirpTooLowError("EIRP below single-element emission")
    return n
