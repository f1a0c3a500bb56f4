"""Scenario files, geometry strings, and the measurement CSV reader."""

from __future__ import annotations

import math

import pytest

from arraygain import ArrayGeometry, MeasurementError, ScenarioError, max_elements_for_eirp
from arraygain.scenario import (
    MEASUREMENT_HEADER,
    Scenario,
    load_measurements_csv,
    parse_geometry,
    merged,
    parse_geometry_list,
    read_scenario_values,
)


# --- geometry strings ---------------------------------------------------

def test_parse_geometry():
    assert parse_geometry("32x8") == ArrayGeometry(32, 8)
    assert parse_geometry(" 4X4 ") == ArrayGeometry(4, 4)
    for bad in ("32", "axb", "4x", "x8", "0x4", "4x-1", "4x4x4"):
        with pytest.raises(ScenarioError, match="bad geometry"):
            parse_geometry(bad)


def test_parse_geometry_list():
    geoms = parse_geometry_list("32x8, 16x16 ,8x32")
    assert geoms == (ArrayGeometry(32, 8), ArrayGeometry(16, 16), ArrayGeometry(8, 32))
    with pytest.raises(ScenarioError, match="empty geometry list"):
        parse_geometry_list("  ,  ")


# --- Scenario invariants ------------------------------------------------

def test_scenario_element_forms():
    by_gain = Scenario(element_gain_dbi=5.0)
    widths = by_gain.element()
    assert widths.bw_elev_rad == pytest.approx(math.sqrt(2.0 / 10.0 ** 0.5), rel=1e-12)

    by_widths = Scenario(bw_elev_deg=45.0, bw_azim_deg=45.0)
    element = by_widths.element()
    assert element.bw_elev_rad == pytest.approx(math.radians(45.0), rel=1e-12)
    # an EIRP cap sizes the array from the gain the widths give
    capped = Scenario(bw_elev_deg=45.0, bw_azim_deg=45.0, eirp_dbm=43.0, per_element_power_dbm=10.0)
    assert capped.budget() == max_elements_for_eirp(43.0, 10.0, 10.0 * math.log10(element.gain_linear))


def test_scenario_rejects_bad_element_descriptions():
    with pytest.raises(ScenarioError, match="over-specified"):
        Scenario(element_gain_dbi=5.0, bw_elev_deg=45.0, bw_azim_deg=45.0)
    with pytest.raises(ScenarioError, match="element description missing"):
        Scenario()
    with pytest.raises(ScenarioError, match="element description missing"):
        Scenario(bw_elev_deg=45.0)
    with pytest.raises(ScenarioError, match="must be > 0"):
        Scenario(bw_elev_deg=-3.0, bw_azim_deg=45.0)


def test_scenario_rejects_bad_numbers():
    with pytest.raises(ScenarioError, match="asd_deg"):
        Scenario(element_gain_dbi=5.0, asd_deg=-1.0)
    with pytest.raises(ScenarioError, match="n_elements"):
        Scenario(element_gain_dbi=5.0, n_elements=0)
    with pytest.raises(ScenarioError, match="rows and cols"):
        Scenario(element_gain_dbi=5.0, rows=8)
    with pytest.raises(ScenarioError, match="allowed_geometries is empty"):
        Scenario(element_gain_dbi=5.0, allowed_geometries=())
    with pytest.raises(ScenarioError, match="must be finite"):
        Scenario(element_gain_dbi=math.inf)


def _one_key_out_of_range():
    # each numeric key alone out of range, over a valid scenario of the
    # element form that key belongs to, and the exact message it raises
    gain = {"element_gain_dbi": 5.0}
    widths = {"bw_elev_deg": 45.0, "bw_azim_deg": 45.0}
    finite = ("element_gain_dbi", "bw_elev_deg", "bw_azim_deg", "eirp_dbm", "per_element_power_dbm")
    for key in (*finite, "asd_deg", "zsd_deg"):
        base = widths if key.startswith("bw_") else gain
        words = "must be finite" if key in finite else "must be finite and >= 0"
        cases = [(value, words) for value in (math.nan, math.inf, -math.inf)]
        if key.startswith("bw_"):
            cases += [(0.0, "must be > 0"), (-1.0, "must be > 0")]
        elif key not in finite:
            cases += [(-1.0, words)]
        for value, why in cases:
            yield pytest.param({**base, key: value}, f"{key} {why}, got {value!r}", id=f"{key}={value!r}")
    for value in (0, -1):
        for key, others in (("n_elements", {}), ("rows", {"cols": 4}), ("cols", {"rows": 4})):
            yield pytest.param(
                {**gain, **others, key: value}, f"{key} must be >= 1, got {value!r}", id=f"{key}={value!r}"
            )
    for key in ("rows", "cols"):
        yield pytest.param({**gain, key: 4}, "rows and cols must be given together", id=f"{key} alone")


@pytest.mark.parametrize("keywords, message", _one_key_out_of_range())
def test_scenario_range_messages(keywords, message):
    with pytest.raises(ScenarioError) as caught:
        Scenario(**keywords)
    assert str(caught.value) == message


def test_scenario_value_type(check_value_type):
    fields = {
        "element_gain_dbi": 5.0, "bw_elev_deg": None, "bw_azim_deg": None, "n_elements": 256,
        "asd_deg": 22.0, "zsd_deg": 5.0, "eirp_dbm": 43.0, "per_element_power_dbm": 10.0,
        "allowed_geometries": (ArrayGeometry(32, 8),), "rows": 4, "cols": 2,
    }
    check_value_type(
        Scenario, fields,
        "Scenario(element_gain_dbi=5.0, bw_elev_deg=None, bw_azim_deg=None, n_elements=256, "
        "asd_deg=22.0, zsd_deg=5.0, eirp_dbm=43.0, per_element_power_dbm=10.0, "
        "allowed_geometries=(ArrayGeometry(rows=32, cols=8),), rows=4, cols=2)",
        {"element_gain_dbi": 5.0, "rows": 0, "cols": 2}, "rows must be >= 1, got 0",
    )


def test_scenario_defaults_and_geometry_list():
    assert Scenario(element_gain_dbi=5.0) == Scenario(
        5.0, None, None, None, 0.0, 0.0, None, None, None, None, None
    )
    # any sequence of geometries is kept as a tuple
    listed = Scenario(element_gain_dbi=5.0, allowed_geometries=[ArrayGeometry(4, 4)])
    assert listed.allowed_geometries == (ArrayGeometry(4, 4),)
    assert hash(listed) == hash(Scenario(element_gain_dbi=5.0, allowed_geometries=listed.allowed_geometries))


def test_scenario_spread_and_geometry():
    scenario = Scenario(element_gain_dbi=5.0, asd_deg=22.0, zsd_deg=5.0, rows=32, cols=8)
    spread = scenario.spread()
    assert spread.asd_rad == pytest.approx(math.radians(22.0), rel=1e-12)
    assert spread.zsd_rad == pytest.approx(math.radians(5.0), rel=1e-12)
    assert scenario.geometry() == ArrayGeometry(32, 8)
    assert Scenario(element_gain_dbi=5.0).geometry() is None


def test_scenario_budget_logic():
    assert Scenario(element_gain_dbi=5.0, n_elements=64).budget() == 64
    capped = Scenario(element_gain_dbi=5.0, eirp_dbm=43.0, per_element_power_dbm=10.0)
    assert capped.budget() == 25
    both = Scenario(
        element_gain_dbi=5.0, n_elements=50, eirp_dbm=43.0, per_element_power_dbm=10.0
    )
    assert both.budget() == 25
    small = Scenario(
        element_gain_dbi=5.0, n_elements=10, eirp_dbm=43.0, per_element_power_dbm=10.0
    )
    assert small.budget() == 10

    with pytest.raises(ScenarioError, match="needs per_element_power_dbm"):
        Scenario(element_gain_dbi=5.0, eirp_dbm=43.0).budget()
    with pytest.raises(ScenarioError, match="no element budget"):
        Scenario(element_gain_dbi=5.0).budget()


@pytest.mark.parametrize("count", [math.nan, 2.5, 256.0, True])
@pytest.mark.parametrize("key", ["n_elements", "rows", "cols"])
def test_scenario_counts_must_be_integers(key, count):
    # a float or bool count used to pass, and budget() handed it on as is
    others = {"n_elements": {}, "rows": {"cols": 4}, "cols": {"rows": 4}}[key]
    with pytest.raises(ScenarioError) as caught:
        Scenario(element_gain_dbi=5.0, **others, **{key: count})
    assert str(caught.value) == f"{key} must be an integer, got {count!r}"


# --- scenario files -----------------------------------------------------

def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "case.txt"
    path.write_text(
        "# strong-spread sizing case\n"
        "element_gain_dbi = 5.0\n"
        "n_elements = 256   # element budget\n"
        "\n"
        "asd_deg = 22.0\n"
        "zsd_deg = 5.0\n"
        "allowed_geometries = 32x8, 16x16\n"
    )
    scenario = merged(path, {})
    assert scenario == Scenario(
        element_gain_dbi=5.0,
        n_elements=256,
        asd_deg=22.0,
        zsd_deg=5.0,
        allowed_geometries=(ArrayGeometry(32, 8), ArrayGeometry(16, 16)),
    )


def test_scenario_file_diagnostics(tmp_path):
    bad_line = tmp_path / "a.txt"
    bad_line.write_text("element_gain_dbi = 5.0\njust words\n")
    with pytest.raises(ScenarioError, match=r"a\.txt:2: expected 'key = value'"):
        read_scenario_values(bad_line)

    unknown = tmp_path / "b.txt"
    unknown.write_text("gain = 5.0\n")
    with pytest.raises(ScenarioError, match=r"b\.txt:1: unknown key 'gain'"):
        read_scenario_values(unknown)

    duplicate = tmp_path / "c.txt"
    duplicate.write_text("asd_deg = 1.0\nasd_deg = 2.0\n")
    with pytest.raises(ScenarioError, match=r"c\.txt:2: duplicate key"):
        read_scenario_values(duplicate)

    bad_value = tmp_path / "d.txt"
    bad_value.write_text("n_elements = many\n")
    with pytest.raises(ScenarioError, match=r"d\.txt:1: field n_elements"):
        read_scenario_values(bad_value)


def test_scenario_file_empty_is_legal_dict(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing but comments\n\n")
    assert read_scenario_values(path) == {}


# --- file and flags merged ---------------------------------------------

def _file(tmp_path, text):
    path = tmp_path / "case.txt"
    path.write_text(text + "n_elements = 64\nasd_deg = 22.0\n")
    return path


def test_merged_gain_flag_replaces_file_widths(tmp_path):
    path = _file(tmp_path, "bw_elev_deg = 40.0\nbw_azim_deg = 50.0\n")
    assert merged(path, {"element_gain_dbi": 8.0}) == Scenario(
        element_gain_dbi=8.0, n_elements=64, asd_deg=22.0
    )


def test_merged_width_flags_replace_file_gain(tmp_path):
    path = _file(tmp_path, "element_gain_dbi = 5.0\n")
    assert merged(path, {"bw_elev_deg": 40.0, "bw_azim_deg": 50.0}) == Scenario(
        bw_elev_deg=40.0, bw_azim_deg=50.0, n_elements=64, asd_deg=22.0
    )


def test_merged_one_width_flag_over_file_gain_is_over_specified(tmp_path):
    path = _file(tmp_path, "element_gain_dbi = 5.0\n")
    with pytest.raises(ScenarioError, match="over-specified"):
        merged(path, {"bw_elev_deg": 40.0})


def test_merged_ignores_none_and_unknown_overrides(tmp_path):
    path = _file(tmp_path, "element_gain_dbi = 5.0\n")
    overrides = {
        "element_gain_dbi": None, "bw_elev_deg": None, "bw_azim_deg": None, "n_elements": None,
        "zsd_deg": 5.0, "scenario": str(path), "geometries": "4x4", "func": print,
    }
    assert merged(path, overrides) == Scenario(
        element_gain_dbi=5.0, n_elements=64, asd_deg=22.0, zsd_deg=5.0
    )
    # without a file, the overrides alone
    assert merged(None, {"element_gain_dbi": 5.0, "rows": 4, "cols": 2, "seed": 0}) == Scenario(
        element_gain_dbi=5.0, rows=4, cols=2
    )


# --- measurement CSV ----------------------------------------------------

def _write_csv(path, rows):
    lines = [",".join(MEASUREMENT_HEADER)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_measurements_csv(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [(4, 4, 10.0, -70.0), (4, 8, 10.0, -67.0)])
    assert load_measurements_csv(path) == [(4, 4, 10.0, -70.0), (4, 8, 10.0, -67.0)]


def test_load_measurements_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "# log from bench run\n"
        "rows,cols,tx_power_dbm,rx_power_dbm\n"
        "\n"
        "4,4,10.0,-70.0\n"
        "# mid-file note\n"
        "8,4,10.0,-66.0\n"
    )
    assert load_measurements_csv(path) == [(4, 4, 10.0, -70.0), (8, 4, 10.0, -66.0)]


def test_load_measurements_csv_diagnostics(tmp_path):
    wrong_header = tmp_path / "h.csv"
    wrong_header.write_text("rows,cols,tx,rx\n4,4,10.0,-70.0\n")
    with pytest.raises(MeasurementError, match=r"h\.csv:1: expected header"):
        load_measurements_csv(wrong_header)

    short_row = tmp_path / "s.csv"
    short_row.write_text("rows,cols,tx_power_dbm,rx_power_dbm\n4,4,10.0\n")
    with pytest.raises(MeasurementError, match=r"s\.csv:2: expected 4 fields"):
        load_measurements_csv(short_row)

    bad_number = tmp_path / "n.csv"
    bad_number.write_text("rows,cols,tx_power_dbm,rx_power_dbm\n4,four,10.0,-70.0\n")
    with pytest.raises(MeasurementError, match=r"n\.csv:2"):
        load_measurements_csv(bad_number)

    empty = tmp_path / "e.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(MeasurementError, match=r"e\.csv: missing header"):
        load_measurements_csv(empty)


def test_load_measurements_csv_rejects_bad_values(tmp_path):
    # each value the loader returns is checked, and the line is named
    cases = {
        "rows.csv": ("0,4,10.0,-70.0", "rows must be a positive integer, got 0"),
        "cols.csv": ("4,4.0,10.0,-70.0", "invalid literal for int"),
        "nan.csv": ("4,4,nan,-70.0", "tx_power_dbm must be finite, got nan"),
    }
    for name, (row, message) in cases.items():
        path = tmp_path / name
        path.write_text(f"rows,cols,tx_power_dbm,rx_power_dbm\n4,4,10.0,-70.0\n{row}\n")
        with pytest.raises(MeasurementError, match=rf"{name}:3: {message}"):
            load_measurements_csv(path)
