"""Geometry optimizer: bound, closed form, integer scan, EIRP sizing.

The load-bearing checks:
  - the closed-form optimum attains the bound (AM-GM equality) and
    satisfies the matching condition to 1e-12;
  - the winner is a property of the set of gains: the tallest geometry
    within 1e-12 of the best gain.  The walk over runs of equal rows
    matches an independent scan over every feasible (rows, cols) pair,
    the exhaustive scan over every cols in 1..N (flat envelopes and dense
    near-ties included), and at N = 10**9 to 10**11 a brute-force scan
    of the window of cols whose envelope comes near the winner;
  - an allowed-geometry list gives the same winner in any order;
  - the walk keeps O(1) state: a flat envelope at N = 10**6 traces under
    1 MiB, and budgets up to 10**12 answer in seconds, long runs of
    near-ties included;
  - the two published optima, 32x8 for (22, 5) degrees of spread and
    85x3 for (14, 0.6), come out of the scan.
"""

from __future__ import annotations

import itertools
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    ContinuousGeometry,
    EirpTooLowError,
    ElementPattern,
    OptimizationResult,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    max_elements_for_eirp,
    optimal_geometry_integer,
)
from arraygain import cli
from arraygain import optimize as optimize_module
from arraygain.optimize import _row_runs


def _exhaustive_best(n, element, spread, cols_range=None):
    # reference for the walk over runs: every cols in 1..N (or in cols_range)
    # with rows = N // cols; the smallest cols, so the tallest array, whose
    # gain is within the tolerance of the best
    scored = [
        (effective_gain_value(element, n // cols, cols, spread), n // cols, cols)
        for cols in (range(1, n + 1) if cols_range is None else cols_range)
    ]
    bar = max(gain for gain, _, _ in scored) * (1 - 1e-12)
    return next(c for c in scored if c[0] >= bar)


# --- upper bound --------------------------------------------------------

def test_bound_collapses_to_nominal_at_zero_spread():
    element = element_pattern_from_gain(5.0)
    bound = optimal_geometry_integer(256, element, AngularSpread(0.0, 0.0)).bound_gain_linear
    assert bound == pytest.approx(256 * element.gain_linear, rel=1e-12)


def test_no_feasible_geometry_beats_bound(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(5.0, 22.0)
    bound = optimal_geometry_integer(256, element, spread).bound_gain_linear
    for cols in range(1, 257):
        for rows in range(1, 256 // cols + 1):
            gain = effective_gain_value(element, rows, cols, spread)
            assert gain <= bound * (1 + 1e-12)


def test_bound_with_single_element(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(3.0, 3.0)
    report = effective_gain(element, ArrayGeometry(1, 1), spread)
    single = effective_gain_value(element, 1, 1, spread)
    assert single <= report.upper_bound_linear * (1 + 1e-12)
    assert optimal_geometry_integer(1, element, spread).bound_gain_linear == report.upper_bound_linear

    with pytest.raises(ValueError, match="n_elements must be a positive integer, got 0"):
        optimal_geometry_integer(0, element, spread)


@pytest.mark.parametrize("budget", [math.nan, 2.5, 256.0, True])
def test_budget_must_be_an_integer(budget, spread_deg):
    # 2.5 and 256.0 used to fail inside range(), nan as a degenerate spread
    element = element_pattern_from_gain(5.0)
    message = f"n_elements must be a positive integer, got {budget!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimal_geometry_integer(budget, element, spread_deg(5.0, 22.0))


# --- continuous optimum -------------------------------------------------

def test_continuous_symmetric_case(spread_deg):
    element = element_pattern_from_gain(5.0)
    result = optimal_geometry_integer(256, element, spread_deg(4.0, 4.0)).continuous
    assert result.rows_real == pytest.approx(16.0, rel=1e-12)
    assert result.cols_real == pytest.approx(16.0, rel=1e-12)


def test_continuous_published_cases(spread_deg):
    element = element_pattern_from_gain(5.0)
    strong = optimal_geometry_integer(256, element, spread_deg(5.0, 22.0)).continuous
    assert strong.rows_real == pytest.approx(33.56, abs=0.01)
    assert strong.cols_real == pytest.approx(7.63, abs=0.01)
    mild = optimal_geometry_integer(256, element, spread_deg(0.6, 14.0)).continuous
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
        result = optimal_geometry_integer(n, element, spread).continuous
        assert result.rows_real * result.cols_real == pytest.approx(n, rel=1e-9)
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
        result = optimal_geometry_integer(n, element, spread)
        opt = result.continuous
        at_opt = effective_gain_value(element, opt.rows_real, opt.cols_real, spread)
        bound = result.bound_gain_linear
        assert at_opt == pytest.approx(bound, rel=1e-9)


def test_continuous_invariant_under_common_spread_scaling(spread_deg):
    element = element_pattern_from_gain(5.0)
    base = optimal_geometry_integer(256, element, spread_deg(0.6, 14.0)).continuous
    scaled = optimal_geometry_integer(
        256, element, AngularSpread(zsd_rad=math.radians(0.6) * 3.7, asd_rad=math.radians(14.0) * 3.7)
    ).continuous
    assert scaled.rows_real == pytest.approx(base.rows_real, rel=1e-12)
    assert scaled.cols_real == pytest.approx(base.cols_real, rel=1e-12)


def test_continuous_is_none_for_degenerate_spread(spread_deg):
    element = element_pattern_from_gain(5.0)
    assert optimal_geometry_integer(256, element, spread_deg(0.0, 14.0)).continuous is None
    assert optimal_geometry_integer(256, element, spread_deg(0.6, 0.0)).continuous is None
    # bw_azim * zsd underflows to 0: a ratio past the float range, not ZeroDivisionError
    ten = math.radians(10.0)
    result = optimal_geometry_integer(
        256, ElementPattern(bw_elev_rad=ten, bw_azim_rad=ten),
        AngularSpread(zsd_rad=5e-324, asd_rad=math.radians(20.0)),
    )
    assert result.continuous is None


def test_continuous_geometry_validation():
    with pytest.raises(ValueError):
        ContinuousGeometry(rows_real=0.0, cols_real=4.0)


def test_value_types(check_value_type):
    check_value_type(
        ContinuousGeometry, {"rows_real": 6.5, "cols_real": 2.25},
        "ContinuousGeometry(rows_real=6.5, cols_real=2.25)",
        {"rows_real": 6.5, "cols_real": -1.0}, "cols_real must be finite and > 0, got -1.0",
    )
    element = ElementPattern(bw_elev_rad=0.5, bw_azim_rad=0.25)
    spread = AngularSpread(zsd_rad=0.125, asd_rad=0.5)
    report = effective_gain(element, ArrayGeometry(2, 1), spread)
    fields = {
        "continuous": ContinuousGeometry(rows_real=1.5, cols_real=1.0),
        "integer_best": ArrayGeometry(2, 1),
        "integer_gain": report,
        "bound_gain_linear": 32.0,
    }
    check_value_type(
        OptimizationResult, fields,
        "OptimizationResult(continuous=ContinuousGeometry(rows_real=1.5, cols_real=1.0), "
        f"integer_best=ArrayGeometry(rows=2, cols=1), integer_gain={report!r}, "
        "bound_gain_linear=32.0)",
        {**fields, "bound_gain_linear": 1.0},
        "integer-geometry gain exceeds the budget-level bound",
    )


# --- integer scan -------------------------------------------------------

def test_integer_optimum_strong_spread(spread_deg):
    result = optimal_geometry_integer(256, element_pattern_from_gain(5.0), spread_deg(5.0, 22.0))
    assert (result.integer_best.rows, result.integer_best.cols) == (32, 8)
    assert result.integer_gain.effective_gain_linear <= result.bound_gain_linear


def test_integer_optimum_mild_spread_is_85x3(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(0.6, 14.0)
    result = optimal_geometry_integer(256, element, spread)
    assert (result.integer_best.rows, result.integer_best.cols) == (85, 3)
    reference = effective_gain(element, ArrayGeometry(85, 3), spread)
    delta_db = result.integer_gain.effective_gain_dbi - reference.effective_gain_dbi
    assert abs(delta_db) <= 0.05


def test_integer_128_elements_8dbi(spread_deg):
    element = element_pattern_from_gain(8.0)
    spread = spread_deg(1.0, 16.0)
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


def test_integer_matches_brute_force(brute_force_best, spread_deg):
    rng = np.random.default_rng(41)
    cases = [
        (256, element_pattern_from_gain(5.0), spread_deg(5.0, 22.0)),
        (256, element_pattern_from_gain(5.0), spread_deg(0.6, 14.0)),
        (128, element_pattern_from_gain(8.0), spread_deg(1.0, 16.0)),
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
        best_gain, best_rows, best_cols = brute_force_best(n, element, spread)
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
    # winner is then the first of many near-ties
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

    # flat envelopes, where runs of near-ties span much of 1..N: a 300 dBi
    # element, whose nominal widths vanish against any spread, or one of
    # 60-150 dBi, whose widths leave ties a few tolerances apart; asd = 0
    # with zsd = 1e-5 rad; spreads of 1e-7 rad
    flat = np.random.default_rng(300)
    for i in range(200):
        n = int(flat.choice([720, 2520, 5040]))
        if i % 4 < 2:
            gain_dbi = 300.0 if i % 4 == 0 else float(flat.uniform(60.0, 150.0))
            element = element_pattern_from_gain(gain_dbi)
            spread = AngularSpread(
                zsd_rad=float(flat.uniform(0.0, 0.3)), asd_rad=float(flat.uniform(0.0, 0.7))
            )
        else:
            element = ElementPattern(
                bw_elev_rad=float(flat.uniform(0.05, 1.5)),
                bw_azim_rad=float(flat.uniform(0.05, 1.5)),
            )
            spread = AngularSpread(zsd_rad=1e-5, asd_rad=0.0) if i % 4 == 2 else AngularSpread(
                zsd_rad=float(flat.choice([0.0, 1e-7])), asd_rad=float(flat.choice([1e-7, 0.0]))
            )
        best = optimal_geometry_integer(n, element, spread).integer_best
        assert (best.rows, best.cols) == _exhaustive_best(n, element, spread)[1:]

    # scattered near-ties: the first (cols 304 and 93) lies well below the
    # cols of the best gain (345 and 107), with gaps between them
    for n, width, zsd, asd in (
        (5177, 2.688646142563931e-05, 0.31044571639174146, 0.01366213607663258),
        (754, 5.349066045248822e-06, 0.20194573738074034, 0.012693589738565936),
    ):
        element = ElementPattern(bw_elev_rad=width, bw_azim_rad=width)
        spread = AngularSpread(zsd_rad=zsd, asd_rad=asd)
        best = optimal_geometry_integer(n, element, spread).integer_best
        assert (best.rows, best.cols) == _exhaustive_best(n, element, spread)[1:]


def test_scan_without_a_closed_form_matches_exhaustive_scan():
    # one spread subnormal or tiny, the other up to 10**300 rad, each way
    # round: the closed form's rows or cols leaves the normal floats, or
    # bw_azim * zsd underflows to 0, and the walk starts at cols = 1 or N
    rng = np.random.default_rng(324)
    small = [5e-324, 1e-323, 5e-323, 1e-323 * 7, 1e-300, 1e-250, 1e-200]
    large = [1e-2, 1.0, 1e100, 1e200, 1e300]
    without = 0
    for i in range(300):
        n = int(rng.integers(1, 5001))
        element = ElementPattern(
            bw_elev_rad=float(10.0 ** rng.uniform(-3.0, 0.3)),
            bw_azim_rad=float(10.0 ** rng.uniform(-3.0, 0.3)),
        )
        tiny, wide = float(rng.choice(small)), float(rng.choice(large))
        spread = AngularSpread(zsd_rad=tiny, asd_rad=wide) if i % 2 else AngularSpread(
            zsd_rad=wide, asd_rad=tiny
        )
        result = optimal_geometry_integer(n, element, spread)
        without += result.continuous is None
        best = result.integer_best
        assert (best.rows, best.cols) == _exhaustive_best(n, element, spread)[1:]
    assert without > 100


def test_flat_envelope_scan_keeps_constant_memory(spread_deg):
    # every geometry of a 300 dBi element ties within the tolerance: a scan
    # that lists its candidates holds the whole budget (130 MiB traced)
    element = element_pattern_from_gain(300.0)
    tracemalloc.start()
    try:
        result = optimal_geometry_integer(10**6, element, spread_deg(5.0, 10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.integer_best.rows, result.integer_best.cols) == (10**6, 1)
    assert peak < 2**20


def test_integer_large_budget_is_a_local_optimum_under_the_bound(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(5.0, 22.0)
    n = 10**6
    result = optimal_geometry_integer(n, element, spread)
    cols = result.integer_best.cols
    assert result.integer_best.rows == n // cols
    gain = result.integer_gain.effective_gain_linear
    for neighbour in (cols - 1, cols + 1):
        assert gain >= effective_gain_value(element, n // neighbour, neighbour, spread)
    assert gain <= result.bound_gain_linear


def test_cli_optimize_billion_element_budget_is_fast():
    # the exhaustive scan would take about 40 minutes for either; the 300 dBi
    # element makes the envelope flat, so every geometry is a near-tie
    for gain_dbi, asd_deg, winner in (("5", "22", "66662 x 15001"), ("300", "10", "1000000000 x 1")):
        result = subprocess.run(
            [sys.executable, "-m", "arraygain", "optimize", "--elements", "1000000000",
             "--element-gain-dbi", gain_dbi, "--asd-deg", asd_deg, "--zsd-deg", "5"],
            capture_output=True, text=True, timeout=10,
        )
        assert result.returncode == 0, result.stderr
        assert "budget: 1000000000 elements" in result.stdout
        assert f"integer optimum: {winner} (" in result.stdout


def test_integer_scan_matches_a_window_reference_at_large_budgets(spread_deg):
    # the exhaustive scan is out of reach here, but any cols whose gain
    # comes within the tolerance of the best has an envelope E(cols), the
    # gain at rows = N / cols, at least that gain: the window of cols where
    # E reaches the bar taken from the winner's gain, less 4 tolerances for
    # the rounding, holds every candidate
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(5.0, 22.0)
    for n, winner in (
        (10**9, (66662, 15001)),
        (10**10, (213192, 46906)),
        (10**11, (698338, 143197)),
    ):
        result = optimal_geometry_integer(n, element, spread)

        def envelope(cols):
            return effective_gain_value(element, n / cols, cols, spread)

        floor = result.integer_gain.effective_gain_linear * (1 - 1e-12) * (1 - 4e-12)
        lo = hi = round(result.continuous.cols_real)
        assert envelope(lo) >= floor
        while envelope(lo - 1) >= floor:
            lo -= 1
        while envelope(hi + 1) >= floor:
            hi += 1
        assert hi - lo < 10**5
        best = _exhaustive_best(n, element, spread, range(lo, hi + 1))
        assert (result.integer_best.rows, result.integer_best.cols) == best[1:] == winner


def test_cli_optimize_long_runs_of_near_ties_are_fast():
    # gains that climb a run of billions of cols in steps just under the
    # tolerance: the walk bisects that run once for the first near-tie
    for args, winner in (
        (["--element-gain-dbi", "300", "--asd-deg", "0", "--zsd-deg", "1.57"],
         "1 x 999999999999"),
        (["--bw-elev-deg", "0.21371", "--bw-azim-deg", "20.8743",
          "--zsd-deg", "9.4691", "--asd-deg", "1.5333e-7"],
         "13 x 76923052355"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "arraygain", "optimize", "--elements", "1000000000000", *args],
            capture_output=True, text=True, timeout=10,
        )
        assert result.returncode == 0, result.stderr
        assert f"integer optimum: {winner} (" in result.stdout


def test_row_runs_cover_the_sweep_geometries():
    for n in [*range(1, 200), 720, 5040, 99_991, 100_000]:
        runs = list(_row_runs(n))
        assert [(rows, cols) for rows, span in runs for cols in span] == [
            (n // cols, cols) for cols in range(1, n + 1)
        ]
        # each run is one rows value, and there are at most 2 sqrt(N) of them
        assert len({rows for rows, _ in runs}) == len(runs) <= 2 * math.isqrt(n)


def test_integer_scan_refuses_budgets_past_1e12(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(5.0, 22.0)
    for n in (10**12 + 1, 10**249):
        with pytest.raises(ValueError, match=f"at most 1000000000000 to scan every geometry, got {n};"):
            optimal_geometry_integer(n, element, spread)
    # nothing to scan: a restricted search, and zero spread, where (N, 1) wins
    allowed = [ArrayGeometry(10**7, 10**6)]
    result = optimal_geometry_integer(10**13, element, spread, allowed)
    assert result.integer_best == allowed[0]
    # the closed form needs no scan: it is reported past the scan's cap
    want = math.sqrt(10**13 * element.bw_elev_rad * spread.asd_rad / (element.bw_azim_rad * spread.zsd_rad))
    assert result.continuous.rows_real == pytest.approx(want, rel=1e-12)
    assert optimal_geometry_integer(10**13, element, spread_deg(0.0, 0.0)).integer_best == ArrayGeometry(10**13, 1)


def test_integer_scan_checks_the_budget_once(monkeypatch, spread_deg):
    # optimal_geometry_integer checks it first, on every path; the private
    # closed form it asks for a start checks nothing again
    calls = []
    check = optimize_module._check_budget

    def counted(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(optimize_module, "_check_budget", counted)
    element = element_pattern_from_gain(5.0)
    allowed = [ArrayGeometry(32, 8), ArrayGeometry(16, 16)]
    for spread, restriction in (
        (spread_deg(5.0, 22.0), None),
        (spread_deg(0.0, 22.0), None),
        (spread_deg(5.0, 0.0), None),
        (spread_deg(0.0, 0.0), None),
        (spread_deg(5.0, 22.0), allowed),
        (spread_deg(0.0, 0.0), allowed),
        # a ratio that puts the closed form beyond float range
        (AngularSpread(zsd_rad=1e300, asd_rad=1e-320), allowed),
    ):
        calls.clear()
        optimal_geometry_integer(256, element, spread, restriction)
        assert calls == [(256, element, spread)]
    # a bad budget is still the first error, ahead of the spread's and the list's
    for spread in (AngularSpread(zsd_rad=1e300, asd_rad=1e-320), spread_deg(0.0, 0.0)):
        with pytest.raises(ValueError, match="n_elements must be a positive integer, got 0"):
            optimal_geometry_integer(0, element, spread, [ArrayGeometry(8, 4)])


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


def test_integer_with_allowed_geometries(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(0.6, 14.0)
    allowed = [ArrayGeometry(32, 8), ArrayGeometry(16, 16)]
    result = optimal_geometry_integer(256, element, spread, allowed)
    assert (result.integer_best.rows, result.integer_best.cols) == (32, 8)

    with pytest.raises(ValueError, match="exceeds the element budget"):
        optimal_geometry_integer(16, element, spread, [ArrayGeometry(8, 4)])
    with pytest.raises(ValueError, match="empty"):
        optimal_geometry_integer(16, element, spread, [])


def test_allowed_geometries_winner_does_not_depend_on_list_order(spread_deg):
    # 8x30 has the best gain, 40x6 is 0.33e-12 below it and 60x4 1.30e-12:
    # 40x6 is the tallest within the tolerance.  An update in list order
    # could chain 8x30 -> 40x6 -> 60x4 by near-ties
    element = ElementPattern(bw_elev_rad=1.0, bw_azim_rad=1.0)
    spread = AngularSpread(zsd_rad=3.1364093665593476e-08, asd_rad=3.1364093665593476e-08)
    allowed = [ArrayGeometry(8, 30), ArrayGeometry(40, 6), ArrayGeometry(60, 4)]
    for order in itertools.permutations(allowed):
        best = optimal_geometry_integer(240, element, spread, list(order)).integer_best
        assert (best.rows, best.cols) == (40, 6)
    # a 300 dBi element's widths vanish against the spread, so equal rows
    # give equal gains: the first listed wins
    flat = element_pattern_from_gain(300.0)
    for tied in ([ArrayGeometry(2, 5), ArrayGeometry(2, 3)], [ArrayGeometry(2, 3), ArrayGeometry(2, 5)]):
        best = optimal_geometry_integer(10, flat, spread_deg(5.0, 5.0), [ArrayGeometry(1, 7), *tied])
        assert best.integer_best == tied[0]


def test_optimization_result_invariant(spread_deg):
    element = element_pattern_from_gain(5.0)
    spread = spread_deg(2.0, 9.0)
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

