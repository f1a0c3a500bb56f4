"""Geometry optimizer: bound, closed form, pruned integer scan, EIRP sizing.

The load-bearing checks:
  - the closed-form optimum attains the bound (AM-GM equality) and
    satisfies the matching condition to 1e-12;
  - the pruned scan matches an independent scan over every feasible
    (rows, cols) pair, and picks the same winner as the exhaustive scan
    over every cols in 1..N;
  - the two published optima, 32x8 for (22, 5) degrees of spread and
    85x3 for (14, 0.6), come out of the scan.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    ContinuousGeometry,
    DegenerateSpreadError,
    EirpTooLowError,
    ElementPattern,
    OptimizationResult,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    gain_upper_bound,
    max_elements_for_eirp,
    optimal_geometry_continuous,
    optimal_geometry_integer,
)
from arraygain import cli


def _spread_deg(zsd: float, asd: float) -> AngularSpread:
    return AngularSpread(zsd_rad=math.radians(zsd), asd_rad=math.radians(asd))


def _exhaustive_best(n, element, spread):
    # reference for the pruned scan: every cols in 1..N with rows = N // cols,
    # ascending, under the same update rule
    best = None
    for cols in range(1, n + 1):
        rows = n // cols
        gain = effective_gain_value(element, rows, cols, spread)
        if best is None or gain > best[0] * (1 + 1e-12):
            best = (gain, rows, cols)
        elif gain >= best[0] * (1 - 1e-12) and rows > best[1]:
            best = (gain, rows, cols)
    return best


def _brute_force_best(n, element, spread):
    # independent oracle: every feasible pair, same tie preference
    best = None
    for cols in range(1, n + 1):
        for rows in range(1, n // cols + 1):
            gain = effective_gain_value(element, rows, cols, spread)
            if best is None or gain > best[0] * (1 + 1e-12):
                best = (gain, rows, cols)
            elif gain >= best[0] * (1 - 1e-12) and rows > best[1]:
                best = (gain, rows, cols)
    return best


# --- upper bound --------------------------------------------------------

def test_bound_collapses_to_nominal_at_zero_spread():
    element = element_pattern_from_gain(5.0)
    bound = gain_upper_bound(256, element, AngularSpread(0.0, 0.0))
    assert bound == pytest.approx(256 * element.gain_linear, rel=1e-12)


def test_no_feasible_geometry_beats_bound():
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(5.0, 22.0)
    bound = gain_upper_bound(256, element, spread)
    for cols in range(1, 257):
        for rows in range(1, 256 // cols + 1):
            gain = effective_gain_value(element, rows, cols, spread)
            assert gain <= bound * (1 + 1e-12)


def test_bound_with_single_element():
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(3.0, 3.0)
    bound = gain_upper_bound(1, element, spread)
    single = effective_gain_value(element, 1, 1, spread)
    assert single <= bound * (1 + 1e-12)

    with pytest.raises(ValueError):
        gain_upper_bound(0, element, spread)


# --- continuous optimum -------------------------------------------------

def test_continuous_symmetric_case():
    element = element_pattern_from_gain(5.0)
    result = optimal_geometry_continuous(256, element, _spread_deg(4.0, 4.0))
    assert result.rows_real == pytest.approx(16.0, rel=1e-12)
    assert result.cols_real == pytest.approx(16.0, rel=1e-12)


def test_continuous_published_cases():
    element = element_pattern_from_gain(5.0)
    strong = optimal_geometry_continuous(256, element, _spread_deg(5.0, 22.0))
    assert strong.rows_real == pytest.approx(33.56, abs=0.01)
    assert strong.cols_real == pytest.approx(7.63, abs=0.01)
    mild = optimal_geometry_continuous(256, element, _spread_deg(0.6, 14.0))
    assert mild.rows_real == pytest.approx(77.3, abs=0.05)
    assert mild.cols_real == pytest.approx(3.31, abs=0.01)


def test_continuous_product_and_matching_condition():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 2048))
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.05, 1.5)),
            bw_azim_rad=float(rng.uniform(0.05, 1.5)),
        )
        spread = AngularSpread(
            zsd_rad=float(rng.uniform(1e-4, 0.5)), asd_rad=float(rng.uniform(1e-4, 0.5))
        )
        result = optimal_geometry_continuous(n, element, spread)
        assert result.n_elements == pytest.approx(n, rel=1e-9)
        bw_elev0 = element.bw_elev_rad / result.rows_real
        bw_azim0 = element.bw_azim_rad / result.cols_real
        assert bw_azim0 / bw_elev0 == pytest.approx(
            spread.asd_rad / spread.zsd_rad, rel=1e-12
        )


def test_continuous_attains_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 4096))
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.05, 1.5)),
            bw_azim_rad=float(rng.uniform(0.05, 1.5)),
        )
        spread = AngularSpread(
            zsd_rad=float(rng.uniform(1e-3, 0.5)), asd_rad=float(rng.uniform(1e-3, 0.5))
        )
        opt = optimal_geometry_continuous(n, element, spread)
        at_opt = effective_gain_value(element, opt.rows_real, opt.cols_real, spread)
        assert at_opt == pytest.approx(gain_upper_bound(n, element, spread), rel=1e-9)


def test_continuous_invariant_under_common_spread_scaling():
    element = element_pattern_from_gain(5.0)
    base = optimal_geometry_continuous(256, element, _spread_deg(0.6, 14.0))
    scaled = optimal_geometry_continuous(
        256, element, AngularSpread(zsd_rad=math.radians(0.6) * 3.7, asd_rad=math.radians(14.0) * 3.7)
    )
    assert scaled.rows_real == pytest.approx(base.rows_real, rel=1e-12)
    assert scaled.cols_real == pytest.approx(base.cols_real, rel=1e-12)


def test_continuous_rejects_degenerate_spread():
    element = element_pattern_from_gain(5.0)
    with pytest.raises(DegenerateSpreadError, match="degenerate spread"):
        optimal_geometry_continuous(256, element, _spread_deg(0.0, 14.0))
    with pytest.raises(DegenerateSpreadError):
        optimal_geometry_continuous(256, element, _spread_deg(0.6, 0.0))


def test_continuous_geometry_validation():
    with pytest.raises(ValueError):
        ContinuousGeometry(rows_real=0.0, cols_real=4.0)


# --- integer scan -------------------------------------------------------

def test_integer_optimum_strong_spread():
    result = optimal_geometry_integer(256, element_pattern_from_gain(5.0), _spread_deg(5.0, 22.0))
    assert (result.integer_best.rows, result.integer_best.cols) == (32, 8)
    assert result.integer_gain.effective_gain_linear <= result.bound_gain_linear


def test_integer_optimum_mild_spread_is_85x3():
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(0.6, 14.0)
    result = optimal_geometry_integer(256, element, spread)
    assert (result.integer_best.rows, result.integer_best.cols) == (85, 3)
    reference = effective_gain(element, ArrayGeometry(85, 3), spread)
    delta_db = result.integer_gain.effective_gain_dbi - reference.effective_gain_dbi
    assert abs(delta_db) <= 0.05


def test_integer_128_elements_8dbi():
    element = element_pattern_from_gain(8.0)
    spread = _spread_deg(1.0, 16.0)
    result = optimal_geometry_integer(128, element, spread)
    assert result.integer_gain.effective_gain_dbi >= 24.31 - 0.02
    reference = effective_gain(element, ArrayGeometry(42, 3), spread)
    assert result.integer_gain.effective_gain_dbi - reference.effective_gain_dbi <= 0.05


def test_integer_zero_spread_tie_breaks_tall():
    element = element_pattern_from_gain(5.0)
    for n in (1, 7, 24, 100, 256):
        result = optimal_geometry_integer(n, element, AngularSpread(0.0, 0.0))
        assert (result.integer_best.rows, result.integer_best.cols) == (n, 1)
        assert result.continuous is None


def test_integer_matches_brute_force():
    rng = np.random.default_rng(41)
    cases = [
        (256, element_pattern_from_gain(5.0), _spread_deg(5.0, 22.0)),
        (256, element_pattern_from_gain(5.0), _spread_deg(0.6, 14.0)),
        (128, element_pattern_from_gain(8.0), _spread_deg(1.0, 16.0)),
        (60, element_pattern_from_gain(5.0), AngularSpread(0.0, 0.0)),
    ]
    for _ in range(12):
        cases.append(
            (
                int(rng.integers(1, 600)),
                ElementPattern(
                    bw_elev_rad=float(rng.uniform(0.1, 1.2)),
                    bw_azim_rad=float(rng.uniform(0.1, 1.2)),
                ),
                AngularSpread(
                    zsd_rad=float(rng.uniform(0.0, 0.4)), asd_rad=float(rng.uniform(0.0, 0.4))
                ),
            )
        )
    for n, element, spread in cases:
        result = optimal_geometry_integer(n, element, spread)
        best_gain, best_rows, best_cols = _brute_force_best(n, element, spread)
        assert result.integer_gain.effective_gain_linear == pytest.approx(best_gain, rel=1e-12)
        assert (result.integer_best.rows, result.integer_best.cols) == (best_rows, best_cols)


def test_pruned_scan_matches_exhaustive_scan():
    rng = np.random.default_rng(2024)

    def spread_component(high):
        # zero about one case in seven per axis, so both are zero about one in fifty
        return 0.0 if rng.random() < 1 / 7 else float(rng.uniform(0.0, high))

    for _ in range(2000):
        n = int(rng.integers(1, 5001))
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.05, 1.5)),
            bw_azim_rad=float(rng.uniform(0.05, 1.5)),
        )
        spread = AngularSpread(zsd_rad=spread_component(0.3), asd_rad=spread_component(0.7))
        best = optimal_geometry_integer(n, element, spread).integer_best
        assert (best.rows, best.cols) == _exhaustive_best(n, element, spread)[1:]


def test_pruned_scan_matches_exhaustive_scan_on_dense_near_ties():
    # spreads so small that every full-budget geometry of a highly
    # composite budget is within a few tolerances of the best: the
    # winner then depends on the order the exhaustive scan meets them
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.choice([360, 720, 1680, 2520, 5040]))
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.05, 1.5)),
            bw_azim_rad=float(rng.uniform(0.05, 1.5)),
        )
        tiny = [0.0, float(10.0 ** rng.uniform(-10.0, -6.0))]
        spread = AngularSpread(zsd_rad=float(rng.choice(tiny)), asd_rad=float(rng.choice(tiny)))
        best = optimal_geometry_integer(n, element, spread).integer_best
        assert (best.rows, best.cols) == _exhaustive_best(n, element, spread)[1:]


def test_integer_large_budget_is_a_local_optimum_under_the_bound():
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(5.0, 22.0)
    n = 10**6
    result = optimal_geometry_integer(n, element, spread)
    cols = result.integer_best.cols
    assert result.integer_best.rows == n // cols
    gain = result.integer_gain.effective_gain_linear
    for neighbour in (cols - 1, cols + 1):
        assert gain >= effective_gain_value(element, n // neighbour, neighbour, spread)
    assert gain <= gain_upper_bound(n, element, spread)


def test_cli_optimize_billion_element_budget_is_fast():
    # the exhaustive scan would take about 40 minutes here
    result = subprocess.run(
        [sys.executable, "-m", "arraygain", "optimize", "--elements", "1000000000",
         "--element-gain-dbi", "5", "--asd-deg", "22", "--zsd-deg", "5"],
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    assert "budget: 1000000000 elements" in result.stdout


def test_cli_sweep_streams_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        status = cli.main([
            "sweep", "--elements", "100000", "--element-gain-dbi", "5",
            "--asd-deg", "22", "--zsd-deg", "5", "--out", str(out),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 5 * 2**20
    with out.open() as fh:
        assert sum(1 for _ in fh) == 100_001


def test_integer_budget_saturation():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 1500))
        element = ElementPattern(
            bw_elev_rad=float(rng.uniform(0.1, 1.2)),
            bw_azim_rad=float(rng.uniform(0.1, 1.2)),
        )
        spread = AngularSpread(
            zsd_rad=float(rng.uniform(0.0, 0.4)), asd_rad=float(rng.uniform(0.0, 0.4))
        )
        best = optimal_geometry_integer(n, element, spread).integer_best
        assert best.n_elements > n / 2


def test_integer_with_allowed_geometries():
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(0.6, 14.0)
    allowed = [ArrayGeometry(32, 8), ArrayGeometry(16, 16)]
    result = optimal_geometry_integer(256, element, spread, allowed)
    assert (result.integer_best.rows, result.integer_best.cols) == (32, 8)

    with pytest.raises(ValueError, match="exceeds the element budget"):
        optimal_geometry_integer(16, element, spread, [ArrayGeometry(8, 4)])
    with pytest.raises(ValueError, match="empty"):
        optimal_geometry_integer(16, element, spread, [])


def test_optimization_result_invariant():
    element = element_pattern_from_gain(5.0)
    spread = _spread_deg(2.0, 9.0)
    report = effective_gain(element, ArrayGeometry(8, 8), spread)
    with pytest.raises(ValueError, match="exceeds the budget-level bound"):
        OptimizationResult(
            continuous=None,
            integer_best=ArrayGeometry(8, 8),
            integer_gain=report,
            bound_gain_linear=report.effective_gain_linear / 2.0,
        )


# --- EIRP sizing --------------------------------------------------------

def test_eirp_sizing_published_points():
    assert max_elements_for_eirp(43.0, 10.0, 5.0) == 25
    assert max_elements_for_eirp(55.0, 10.0, 5.0) == 100


def test_eirp_sizing_edge_cases():
    assert max_elements_for_eirp(15.0, 10.0, 5.0) == 1
    with pytest.raises(EirpTooLowError, match="EIRP below single-element emission"):
        max_elements_for_eirp(14.0, 10.0, 5.0)
    with pytest.raises(ValueError):
        max_elements_for_eirp(math.nan, 10.0, 5.0)

