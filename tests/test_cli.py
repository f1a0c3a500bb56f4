"""End-to-end CLI tests running the real entry point in a subprocess.

Checks the published invocations, byte stability of every emitted
format, the sweep CSV round trip, and the error-code contract
(exit 1 with a single "error[code]: ..." line on stderr).
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    Scenario,
    cli,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    optimal_geometry_integer,
)
from arraygain.units import linear_to_db

_CMD = [sys.executable, "-m", "arraygain"]
_DATA = Path(__file__).resolve().parent / "data"


def _run(*args, binary=False):
    return subprocess.run(
        _CMD + list(args), capture_output=True, text=not binary, timeout=300
    )


def _lines(result):
    return result.stdout.splitlines()


# --- optimize -----------------------------------------------------------

def test_optimize_strong_spread():
    result = _run(
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "budget: 256 elements"
    assert "integer optimum: 32 x 8 (256 elements)" in lines
    assert any(line.startswith("continuous optimum: 33.56") for line in lines)
    assert any(line.startswith("upper bound: ") for line in lines)


def test_optimize_zero_spread():
    result = _run(
        "optimize", "--elements", "25", "--element-gain-dbi", "5",
        "--asd-deg", "0", "--zsd-deg", "0",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert "continuous optimum: none (degenerate spread)" in lines
    assert "integer optimum: 25 x 1 (25 elements)" in lines
    assert "effective gain: 18.979400 dBi" in lines
    assert "nominal gain: 18.979400 dBi" in lines


def test_optimize_eirp_cap():
    result = _run(
        "optimize", "--eirp-dbm", "43", "--element-power-dbm", "10",
        "--element-gain-dbi", "5", "--asd-deg", "9", "--zsd-deg", "1",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "budget: 25 elements"
    assert "eirp cap: 43.000000 dBm at 10.000000 dBm per element" in lines


def test_optimize_is_byte_stable():
    args = (
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5",
    )
    first = _run(*args, binary=True)
    second = _run(*args, binary=True)
    assert first.stdout == second.stdout
    assert b"\r" not in first.stdout


def test_optimize_csv_winner(tmp_path):
    out = tmp_path / "winner.csv"
    result = _run(
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5", "--csv", str(out),
    )
    assert result.returncode == 0
    header, row = out.read_text().splitlines()
    assert header == "rows,cols,effective_gain_dbi,is_optimum"
    assert row.startswith("32,8,") and row.endswith(",1")


# --- sweep --------------------------------------------------------------

def test_sweep_reference_rows():
    result = _run(
        "sweep", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "14", "--zsd-deg", "0.6",
        "--geometries", "64x4,16x16,1x256",
    )
    assert result.returncode == 0
    assert _lines(result) == [
        "rows,cols,effective_gain_dbi,is_optimum",
        "64,4,25.918410,1",
        "16,16,21.983942,0",
        "1,256,10.124369,0",
    ]


def test_sweep_round_trip_bit_exact():
    result = _run(
        "sweep", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "14", "--zsd-deg", "0.6",
    )
    assert result.returncode == 0
    rows = _lines(result)[1:]
    assert len(rows) == 256
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(zsd_rad=math.radians(0.6), asd_rad=math.radians(14.0))
    optima = 0
    for row in rows:
        r, c, gain_text, flag = row.split(",")
        gain = effective_gain_value(element, int(r), int(c), spread)
        assert f"{10.0 * math.log10(gain):.6f}" == gain_text
        optima += flag == "1"
    assert optima == 1


def test_sweep_zero_spread_full_budget_rows_tie():
    result = _run(
        "sweep", "--elements", "16", "--element-gain-dbi", "5",
        "--asd-deg", "0", "--zsd-deg", "0",
    )
    assert result.returncode == 0
    full_budget_gains = set()
    for row in _lines(result)[1:]:
        r, c, gain_text, _ = row.split(",")
        if int(r) * int(c) == 16:
            full_budget_gains.add(gain_text)
    assert len(full_budget_gains) == 1


def test_sweep_out_file_uses_lf(tmp_path):
    out = tmp_path / "sweep.csv"
    result = _run(
        "sweep", "--elements", "32", "--element-gain-dbi", "5",
        "--asd-deg", "10", "--zsd-deg", "2", "--out", str(out),
    )
    assert result.returncode == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert len(data.splitlines()) == 33


# --- sweep rows against the per-row reference ----------------------------

def _reference_sweep_text(scenario, listed, restriction=None):
    """The sweep CSV and error line of a writer that composes each row on
    its own: effective_gain_value, then linear_to_db, then one f-string.

    listed holds the (rows, cols) rows in output order, restriction the
    geometries the winner comes from (None: the whole budget).  The text
    ends where a row fails, as a stream of rows does.
    """
    lines = []
    try:
        element, spread, budget = scenario.element(), scenario.spread(), scenario.budget()
        winner = optimal_geometry_integer(budget, element, spread, restriction).integer_best
        lines.append("rows,cols,effective_gain_dbi,is_optimum")
        for rows, cols in listed:
            gain_dbi = linear_to_db(effective_gain_value(element, rows, cols, spread))
            flag = 1 if (rows, cols) == (winner.rows, winner.cols) else 0
            lines.append(f"{rows},{cols},{gain_dbi:.6f},{flag}")
    except ValueError as exc:
        error = f"error[{getattr(exc, 'code', 'input')}]: {exc}\n"
    else:
        error = ""
    return "".join(line + "\n" for line in lines), error


_FLAG_NAMES = {
    "element_gain_dbi": "--element-gain-dbi",
    "bw_elev_deg": "--bw-elev-deg",
    "bw_azim_deg": "--bw-azim-deg",
    "asd_deg": "--asd-deg",
    "zsd_deg": "--zsd-deg",
}


def _scenario_flags(values):
    flags = []
    for name, value in values.items():
        flags += [_FLAG_NAMES[name], repr(value)]
    return flags


def _geometry_text(geometries):
    return ",".join(f"{rows}x{cols}" for rows, cols in geometries)


def _random_geometries(rng, n, count, off_rows):
    # (rows, cols) within budget n; off_rows keeps rows below n // cols, so
    # that none is a row of the full sweep (needs n >= 2)
    geometries = []
    for _ in range(count):
        if off_rows:
            cols = rng.randint(1, n // 2)
            geometries.append((rng.randint(1, n // cols - 1), cols))
        else:
            cols = rng.randint(1, n)
            geometries.append((rng.randint(1, n // cols), cols))
    return geometries


def _sweep_cases(count, seed):
    # (argv, scenario, listed rows, restriction, whether output goes to a file)
    rng = random.Random(seed)
    fixed = (1, 2, 720, 5040, 5000, 720, 5040)
    for case in range(count):
        n = fixed[case] if case < len(fixed) else round(math.exp(rng.uniform(0.0, math.log(5000))))
        if rng.random() < 0.5:
            values = {"element_gain_dbi": rng.uniform(-5.0, 20.0)}
        else:
            values = {"bw_elev_deg": rng.uniform(3.0, 90.0), "bw_azim_deg": rng.uniform(3.0, 90.0)}
        values["zsd_deg"] = 0.0 if rng.randrange(7) == 0 else rng.uniform(0.01, 15.0)
        values["asd_deg"] = 0.0 if rng.randrange(7) == 0 else rng.uniform(0.01, 40.0)
        argv = ["--elements", str(n), *_scenario_flags(values)]
        scenario = Scenario(n_elements=n, **values)
        full = [(n // cols, cols) for cols in range(1, n + 1)]
        mode = rng.choice(("all", "all", "explicit", "allowed", "csv"))
        if mode == "allowed" and n < 2:
            mode = "all"
        if mode == "all":
            argv = ["sweep", *argv] + (["--geometries", "all"] if rng.random() < 0.5 else [])
            yield argv, scenario, full, None, rng.random() < 0.5
        elif mode == "explicit":
            listed = _random_geometries(rng, n, rng.randint(1, 8), off_rows=False)
            listed += rng.sample(listed, rng.randint(0, len(listed)))
            rng.shuffle(listed)
            restriction = [ArrayGeometry(rows, cols) for rows, cols in listed]
            winner = optimal_geometry_integer(
                n, scenario.element(), scenario.spread(), restriction
            ).integer_best
            listed.insert(rng.randint(0, len(listed)), (winner.rows, winner.cols))
            restriction = [ArrayGeometry(rows, cols) for rows, cols in listed]
            argv = ["sweep", *argv, "--geometries", _geometry_text(listed)]
            yield argv, scenario, listed, restriction, rng.random() < 0.5
        elif mode == "allowed":
            allowed = _random_geometries(rng, n, rng.randint(1, 6), off_rows=True)
            restriction = [ArrayGeometry(rows, cols) for rows, cols in allowed]
            argv = ["sweep", *argv, "--allowed-geometries", _geometry_text(allowed)]
            yield argv, scenario, full, restriction, rng.random() < 0.5
        else:
            best = optimal_geometry_integer(n, scenario.element(), scenario.spread()).integer_best
            yield ["optimize", *argv], scenario, [(best.rows, best.cols)], None, True


def test_sweep_rows_match_the_per_row_reference(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    seen = set()
    for argv, scenario, listed, restriction, to_file in _sweep_cases(300, seed=20261018):
        want, error = _reference_sweep_text(scenario, listed, restriction)
        assert error == "", argv
        if to_file:
            argv = argv + ["--csv" if argv[0] == "optimize" else "--out", str(out)]
        status = cli.main(argv)
        printed = capsys.readouterr()
        assert status == 0, (argv, printed.err)
        if to_file:
            got = out.read_text(encoding="utf-8")
        else:
            got = printed.out
        assert got == want, argv
        seen.add((argv[0], "--allowed-geometries" in argv, "--geometries" in argv))
        if restriction is not None and "--allowed-geometries" in argv:
            # the winner is no (N // cols, cols) row, so none is flagged
            assert not any(line.endswith(",1") for line in want.splitlines())
    assert len(seen) >= 4


@pytest.mark.parametrize(
    "values, n, geometries, to_file",
    [
        # the element's widths multiply to inf: the budget bound is 0, which
        # fails before the header
        ({"bw_elev_deg": 1e156, "bw_azim_deg": 1e156, "asd_deg": 1.0, "zsd_deg": 1.0},
         16, None, False),
        # rows <= 1 widen elevation until the width product overflows: the
        # run of rows = 1 fails at its first column, after 2,500 rows
        ({"bw_elev_deg": 1e150, "bw_azim_deg": 1.0, "asd_deg": 1e162, "zsd_deg": 0.0},
         5000, None, False),
        ({"bw_elev_deg": 1e150, "bw_azim_deg": 1.0, "asd_deg": 1e162, "zsd_deg": 0.0},
         5000, None, True),
        # an explicit list whose third geometry has a zero gain
        ({"bw_elev_deg": 1.0, "bw_azim_deg": 1e12, "asd_deg": 0.0, "zsd_deg": 1e301},
         100, [(1, 100), (2, 50), (1, 1), (1, 100)], False),
    ],
    ids=["bound-zero", "run-stdout", "run-out-file", "explicit-list"],
)
def test_sweep_zero_gain_fails_like_the_reference(values, n, geometries, to_file, tmp_path):
    scenario = Scenario(n_elements=n, **values)
    argv = ["sweep", "--elements", str(n), *_scenario_flags(values)]
    if geometries is None:
        listed, restriction = [(n // cols, cols) for cols in range(1, n + 1)], None
    else:
        listed = geometries
        restriction = [ArrayGeometry(rows, cols) for rows, cols in geometries]
        argv += ["--geometries", _geometry_text(geometries)]
    out = tmp_path / "rows.csv"
    if to_file:
        argv += ["--out", str(out)]
    want, error = _reference_sweep_text(scenario, listed, restriction)
    assert error == "error[input]: cannot express 0.0 in dB, need a positive ratio\n"
    result = _run(*argv)
    assert result.returncode == 1
    assert result.stderr == error
    assert (out.read_text() if to_file else result.stdout) == want


def test_sweep_long_run_is_written_in_blocks(tmp_path):
    # rows = 1 for cols 100001..200000: one run of 10**5 rows, 2 MiB of text
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        status = cli.main([
            "sweep", "--elements", "200000", "--element-gain-dbi", "5",
            "--asd-deg", "22", "--zsd-deg", "5", "--out", str(out),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 5 * 2**20
    with out.open() as fh:
        assert sum(1 for _ in fh) == 200_001


def test_sweep_output_matches_the_golden_file():
    # the script and file that the stdlib CI job diffs on each supported Python
    result = subprocess.run(
        ["sh", str(_DATA / "sweep_golden.sh"), sys.executable], capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (_DATA / "sweep_golden.csv").read_bytes()


# --- estimate -----------------------------------------------------------

def _forward_csv(path, zsd_sq, asd_sq, shapes=((4, 4), (4, 8), (4, 16), (8, 4), (16, 4))):
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(
        zsd_rad=math.sqrt(zsd_sq) * element.bw_elev_rad,
        asd_rad=math.sqrt(asd_sq) * element.bw_azim_rad,
    )
    gains = [
        effective_gain(element, ArrayGeometry(r, c), spread).effective_gain_linear
        for r, c in shapes
    ]
    lines = ["rows,cols,tx_power_dbm,rx_power_dbm"]
    for (r, c), gain in zip(shapes, gains):
        rx = -70.0 + 10.0 * math.log10(gain / gains[0])
        lines.append(f"{r},{c},10.0,{rx!r}")
    path.write_text("\n".join(lines) + "\n")


def test_estimate_round_trip(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    result = _run(
        "estimate", str(csv), "--element-gain-dbi", "5", "--predict", "16", "16",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "measurements: 5 (baseline index 0)"
    assert "asd pairs: 3 used, 0 skipped" in lines
    assert "zsd pairs: 3 used, 0 skipped" in lines
    assert "normalized asd squared: 0.040000" in lines
    assert "normalized zsd squared: 0.000900" in lines
    assert "absolute asd: 9.113131 deg" in lines
    assert "absolute zsd: 1.366970 deg" in lines
    assert "predicted gain 16x16 vs baseline: 7.442402 dB" in lines


def test_estimate_aperture_scaled_gains(tmp_path):
    csv = tmp_path / "flat.csv"
    lines = ["rows,cols,tx_power_dbm,rx_power_dbm"]
    for r, c in ((4, 4), (4, 8), (8, 4), (8, 8)):
        rx = -70.0 + 10.0 * math.log10(r * c / 16.0)
        lines.append(f"{r},{c},10.0,{rx!r}")
    csv.write_text("\n".join(lines) + "\n")
    result = _run("estimate", str(csv))
    assert result.returncode == 0
    assert "normalized asd squared: 0.000000" in _lines(result)
    assert "normalized zsd squared: 0.000000" in _lines(result)


def test_estimate_unidentifiable_axis(tmp_path):
    csv = tmp_path / "two.csv"
    csv.write_text(
        "rows,cols,tx_power_dbm,rx_power_dbm\n4,4,10.0,-70.0\n4,8,10.0,-67.0\n"
    )
    result = _run("estimate", str(csv))
    assert result.returncode == 1
    assert result.stderr.startswith("error[estimate]: ZSD unidentifiable")


# --- validate -----------------------------------------------------------

def test_validate_reference_scenario_passes():
    args = (
        "validate", "--element-gain-dbi", "8", "--rows", "8", "--cols", "16",
        "--asd-deg", "16", "--zsd-deg", "1", "--realizations", "4000",
    )
    result = _run(*args)
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "geometry: 8 x 16"
    assert lines[1].startswith("analytic gain: 19.91")
    assert lines[-1] == "PASS"

    again = _run(*args, binary=True)
    assert again.stdout == result.stdout.encode()


def test_validate_zero_spread_is_exact():
    result = _run(
        "validate", "--element-gain-dbi", "5", "--rows", "4", "--cols", "4",
        "--asd-deg", "0", "--zsd-deg", "0", "--realizations", "200",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert any("delta 0.000000" in line for line in lines)
    assert any("(z 0.000000, limit 3)" in line for line in lines)
    assert lines[-1] == "PASS"


@pytest.mark.parametrize(
    "args, needed",
    [
        # 2.4 GiB an elevation array: this used to allocate, or fail as
        # error[internal] where memory ran out
        (("--element-gain-dbi", "5", "--rows", "10000000", "--cols", "1"), "316027492"),
        # the azimuth count overflowed to inf: error[internal] before
        (("--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-318", "--rows", "1", "--cols", "1"),
         "3.2e+302"),
    ],
    ids=["elevation-samples", "azimuth-overflow"],
)
def test_validate_grid_past_the_cap_is_a_typed_error(args, needed):
    result = _run("validate", *args)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"error[oracle]: grid too large: elevation needs {needed} samples, "
        "more than the 2000000 allowed per axis\n"
    )


def test_validate_paths_past_one_chunk_is_a_typed_error():
    # a chunk holds whole realizations: this asked numpy for 2.24 GiB at once
    result = _run(
        "validate", "--element-gain-dbi", "5", "--rows", "4", "--cols", "4",
        "--paths", "100000000", "--realizations", "1",
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error[input]: n_paths must be at most 262144 (one Monte-Carlo chunk), got 100000000\n"
    )


def test_validate_requires_geometry():
    result = _run("validate", "--element-gain-dbi", "5")
    assert result.returncode == 1
    assert result.stderr.startswith("error[scenario]: validate needs a geometry")


# --- scenario files and error paths ------------------------------------

def test_scenario_file_with_flag_overrides(tmp_path):
    scenario = tmp_path / "case.txt"
    scenario.write_text(
        "element_gain_dbi = 5.0\n"
        "n_elements = 256\n"
        "asd_deg = 22.0\n"
        "zsd_deg = 5.0\n"
    )
    plain = _run("optimize", "--scenario", str(scenario))
    assert plain.returncode == 0
    assert "integer optimum: 32 x 8 (256 elements)" in _lines(plain)

    overridden = _run(
        "optimize", "--scenario", str(scenario), "--asd-deg", "14", "--zsd-deg", "0.6",
    )
    assert overridden.returncode == 0
    assert "integer optimum: 85 x 3 (255 elements)" in _lines(overridden)


def test_usage_errors():
    unknown_flag = _run("optimize", "--no-such-flag")
    assert unknown_flag.returncode == 1
    assert unknown_flag.stderr.startswith("error[usage]: ")

    unknown_command = _run("frobnicate")
    assert unknown_command.returncode == 1
    assert unknown_command.stderr.startswith("error[usage]: ")


def test_io_error():
    result = _run("estimate", "/no/such/file.csv")
    assert result.returncode == 1
    assert result.stderr.startswith("error[io]: ")


def test_measurement_error_names_the_line(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("rows,cols,tx_power_dbm,rx_power_dbm\n4,4,10.0\n")
    result = _run("estimate", str(csv))
    assert result.returncode == 1
    assert result.stderr.startswith("error[measurements]: ")
    assert ":2:" in result.stderr


def test_eirp_error():
    result = _run(
        "optimize", "--eirp-dbm", "0", "--element-power-dbm", "10",
        "--element-gain-dbi", "5",
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error[eirp]: EIRP below single-element emission")


def test_budget_beyond_float_range_is_an_input_error():
    for command in ("optimize", "sweep"):
        result = _run(
            command, "--elements", "1" + "0" * 400, "--element-gain-dbi", "5",
            "--asd-deg", "22", "--zsd-deg", "5",
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error[input]: n_elements must be at most ")


_TINY_WIDTHS = ("--bw-elev-deg", "1e-200", "--bw-azim-deg", "1e-200")
_HUGE = "1" + "0" * 24


@pytest.mark.parametrize(
    "args, code",
    [
        # N * G_e = 1e9 * 1e300 overflows; this printed "inf dBi" and exited 0
        (("optimize", "--element-gain-dbi", "3000", "--elements", "1000000000"), "input"),
        # the element's own gain 2 / (bw_e * bw_a) overflows
        (("optimize", *_TINY_WIDTHS, "--elements", "4"), "element"),
        (("validate", *_TINY_WIDTHS, "--rows", "2", "--cols", "2"), "element"),
        # N * G_e overflows where a nominal width underflows to zero
        (
            ("optimize", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1", "--elements", _HUGE,
             "--asd-deg", "1", "--zsd-deg", "0"),
            "input",
        ),
        (
            ("validate", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1", "--rows", _HUGE,
             "--cols", "1", "--asd-deg", "1", "--zsd-deg", "1"),
            "input",
        ),
        # N * G_e is finite, but bw_elev / N underflows to 0 where zsd = 0,
        # which zeroed the scan's gain denominator (error[internal] before)
        (
            ("optimize", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1e300", "--elements",
             "1" + "0" * 30, "--asd-deg", "1", "--zsd-deg", "0"),
            "element",
        ),
        (
            ("sweep", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1e300", "--elements",
             "1" + "0" * 30, "--asd-deg", "1", "--zsd-deg", "0",
             "--geometries", "1" + "0" * 30 + "x1"),
            "element",
        ),
        # 10 ** (headroom / 20) overflows in max_elements_for_eirp
        (
            ("optimize", "--elements", "4", "--element-gain-dbi", "5", "--eirp-dbm", "1e9",
             "--element-power-dbm", "0"),
            "input",
        ),
        # bw_azim / cols is subnormal, and its rounding lifted the gain past
        # the bound: error[input] "effective gain exceeds the upper bound" before
        (
            ("validate", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-300", "--rows", "1",
             "--cols", "1" + "0" * 20),
            "element",
        ),
        (
            ("optimize", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-300", "--elements",
             "1" + "0" * 20, "--allowed-geometries", "1x1" + "0" * 20),
            "element",
        ),
    ],
    ids=[
        "huge-array-gain",
        "tiny-widths-optimize",
        "tiny-widths-validate",
        "huge-budget-zero-zsd",
        "huge-rows-validate",
        "underflowing-width-optimize",
        "underflowing-width-sweep",
        "eirp-headroom",
        "subnormal-width-validate",
        "subnormal-width-optimize",
    ],
)
def test_gain_beyond_float_range_is_a_typed_error(args, code):
    result = _run(*args)
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error[{code}]: ")


def test_subnormal_nominal_width_is_named():
    result = _run(
        "optimize", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-300", "--elements",
        "1" + "0" * 20, "--allowed-geometries", "1x1" + "0" * 20,
    )
    assert result.stderr == "error[element]: degenerate element: nominal bw_azim_rad = 1.73e-322 is subnormal\n"


def test_estimate_rejects_widths_beyond_float_range(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    result = _run("estimate", str(csv), *_TINY_WIDTHS)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error[element]: ")


def test_scenario_error():
    result = _run("optimize", "--elements", "16")
    assert result.returncode == 1
    assert result.stderr.startswith("error[scenario]: element description missing")


def test_help_exits_zero():
    result = _run("--help")
    assert result.returncode == 0
    for name in ("optimize", "sweep", "estimate", "validate"):
        assert name in result.stdout


# --- imports ------------------------------------------------------------

# runs the CLI in a child where any import of numpy fails
_WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from arraygain import cli\n"
    "raise SystemExit(cli.main(sys.argv[1:]))\n"
)


def test_cli_import_leaves_numpy_unloaded():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, arraygain.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_planning_subcommands_run_without_numpy(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    for args in (
        ("optimize", "--elements", "256", "--element-gain-dbi", "5",
         "--asd-deg", "22", "--zsd-deg", "5"),
        ("sweep", "--elements", "64", "--element-gain-dbi", "5",
         "--asd-deg", "14", "--zsd-deg", "0.6", "--geometries", "all"),
        ("estimate", str(csv), "--element-gain-dbi", "5", "--predict", "16", "16"),
    ):
        normal = _run(*args, binary=True)
        bare = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, *args], capture_output=True, timeout=300
        )
        assert normal.returncode == 0
        assert bare.returncode == 0, bare.stderr
        assert bare.stdout == normal.stdout

    # the child really has no numpy: validate, which needs it, fails there
    # with one typed line naming the extra that provides it
    validate = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, "validate", "--element-gain-dbi", "5",
         "--rows", "4", "--cols", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert validate.returncode == 1
    assert validate.stdout == ""
    lines = validate.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[oracle]: validate needs numpy")
    assert "pip install 'arraygain[oracle]'" in lines[0]


def test_oracle_names_resolve_lazily():
    import arraygain
    from arraygain import oracle

    lazy = (
        "AngularGrid", "McConfig", "SampledPattern", "convolve_effective_pattern",
        "fitted_rms_widths", "gaussian_pattern_sampled", "grid_for",
        "monte_carlo_effective_gain", "upa_array_factor_beamwidth",
    )
    for name in lazy:
        assert name in arraygain.__all__
        assert getattr(arraygain, name) is getattr(oracle, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(arraygain, "no_such_name")
