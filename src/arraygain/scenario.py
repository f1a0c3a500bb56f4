"""Scenario and measurement file handling for the CLI.

A scenario bundles everything a command needs: the element description
(a single gain figure or explicit per-axis beamwidths, never both), the
channel spreads, and optional budget inputs (element count, EIRP cap
with per-element power) or a pinned geometry.  Scenario files are flat
``key = value`` text, one setting per line, ``#`` comments allowed, so
an experiment is reproducible from a file that diffs cleanly; ``_KEYS``
names every key and how its text is read, and :func:`merged` lays flag
values over a file.

Measurement CSVs carry raw sub-array power logs with the header
``rows,cols,tx_power_dbm,rx_power_dbm``.
"""

from __future__ import annotations

import math

from .beam import AngularSpread, ArrayGeometry, ElementPattern, element_pattern_from_gain
from .errors import MeasurementError, ScenarioError, check_positive_int
from .units import linear_to_db
from .value import Value, setfield

MEASUREMENT_HEADER = ("rows", "cols", "tx_power_dbm", "rx_power_dbm")


def parse_geometry(text: str) -> ArrayGeometry:
    """Parse 'ROWSxCOLS', e.g. '32x8'."""
    parts = text.strip().lower().split("x")
    if len(parts) == 2:
        try:
            return ArrayGeometry(rows=int(parts[0]), cols=int(parts[1]))
        except ValueError:
            pass
    raise ScenarioError(f"bad geometry {text.strip()!r}: expected ROWSxCOLS, e.g. 32x8")


def parse_geometry_list(text: str) -> tuple[ArrayGeometry, ...]:
    """Parse a comma-separated geometry list, e.g. '32x8,16x16'."""
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise ScenarioError("empty geometry list")
    return tuple(parse_geometry(item) for item in items)


# each scenario key in field order, and the reader of its text in a file
_KEYS = {
    "element_gain_dbi": float,
    "bw_elev_deg": float,
    "bw_azim_deg": float,
    "n_elements": int,
    "asd_deg": float,
    "zsd_deg": float,
    "eirp_dbm": float,
    "per_element_power_dbm": float,
    "allowed_geometries": parse_geometry_list,
    "rows": int,
    "cols": int,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Scenario's range checks in the order they run, as (keys, words, test): the
# first given key whose value fails its test is named, with its row's words.
# That rows and cols come together is checked just before their first row
_RANGES = (
    (("element_gain_dbi", "bw_elev_deg", "bw_azim_deg", "eirp_dbm", "per_element_power_dbm"),
     "must be finite", math.isfinite),
    (("bw_elev_deg", "bw_azim_deg"), "must be > 0", lambda v: v > 0.0),
    (("asd_deg", "zsd_deg"), "must be finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0),
    (("n_elements",), "must be an integer", _is_int),
    (("n_elements",), "must be >= 1", lambda v: v >= 1),
    (("rows", "cols"), "must be an integer", _is_int),
    (("rows", "cols"), "must be >= 1", lambda v: v >= 1),
)


class Scenario(Value):
    """One experiment setup: element, spreads, and optional constraints.

    Exactly one element description must be present: either
    element_gain_dbi (symmetric beamwidths derived from it) or both
    bw_elev_deg and bw_azim_deg.  rows/cols pin a geometry for commands
    that evaluate rather than optimize.  Every number is range-checked
    from ``_RANGES``: counts are ints >= 1, spreads finite and >= 0,
    beamwidths finite and > 0, and the other figures finite.
    """

    __slots__ = tuple(_KEYS)

    def __init__(
        self,
        element_gain_dbi: float | None = None,
        bw_elev_deg: float | None = None,
        bw_azim_deg: float | None = None,
        n_elements: int | None = None,
        asd_deg: float = 0.0,
        zsd_deg: float = 0.0,
        eirp_dbm: float | None = None,
        per_element_power_dbm: float | None = None,
        allowed_geometries: tuple[ArrayGeometry, ...] | None = None,
        rows: int | None = None,
        cols: int | None = None,
    ) -> None:
        if allowed_geometries is not None:
            allowed_geometries = tuple(allowed_geometries)
        setfield(self, "element_gain_dbi", element_gain_dbi)
        setfield(self, "bw_elev_deg", bw_elev_deg)
        setfield(self, "bw_azim_deg", bw_azim_deg)
        setfield(self, "n_elements", n_elements)
        setfield(self, "asd_deg", asd_deg)
        setfield(self, "zsd_deg", zsd_deg)
        setfield(self, "eirp_dbm", eirp_dbm)
        setfield(self, "per_element_power_dbm", per_element_power_dbm)
        setfield(self, "allowed_geometries", allowed_geometries)
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        # the checks below read the stored fields
        has_gain = self.element_gain_dbi is not None
        any_bw = self.bw_elev_deg is not None or self.bw_azim_deg is not None
        both_bw = self.bw_elev_deg is not None and self.bw_azim_deg is not None
        if has_gain and any_bw:
            raise ScenarioError(
                "element over-specified: give element_gain_dbi or explicit "
                "beamwidths, not both"
            )
        if not has_gain and not both_bw:
            raise ScenarioError(
                "element description missing: set element_gain_dbi or both "
                "bw_elev_deg and bw_azim_deg"
            )
        for keys, words, test in _RANGES:
            if keys == ("rows", "cols") and (self.rows is None) != (self.cols is None):
                raise ScenarioError("rows and cols must be given together")
            for key in keys:
                value = getattr(self, key)
                if value is not None and not test(value):
                    raise ScenarioError(f"{key} {words}, got {value!r}")
        if self.allowed_geometries == ():
            raise ScenarioError("allowed_geometries is empty")

    def element(self) -> ElementPattern:
        if self.element_gain_dbi is not None:
            return element_pattern_from_gain(self.element_gain_dbi)
        return ElementPattern(
            bw_elev_rad=math.radians(self.bw_elev_deg),
            bw_azim_rad=math.radians(self.bw_azim_deg),
        )

    def spread(self) -> AngularSpread:
        return AngularSpread(
            zsd_rad=math.radians(self.zsd_deg), asd_rad=math.radians(self.asd_deg)
        )

    def geometry(self) -> ArrayGeometry | None:
        if self.rows is None:
            return None
        return ArrayGeometry(rows=self.rows, cols=self.cols)

    def budget(self) -> int:
        """Element budget: the smallest of n_elements and the EIRP cap, as given.

        Raises
        ------
        ScenarioError
            If eirp_dbm lacks per_element_power_dbm, or neither is given.
        """
        limits = [] if self.n_elements is None else [self.n_elements]
        if self.eirp_dbm is not None:
            if self.per_element_power_dbm is None:
                raise ScenarioError("eirp_dbm needs per_element_power_dbm to cap the array")
            # only an EIRP cap needs optimize: estimate and validate never load it
            from .optimize import max_elements_for_eirp

            gain_dbi = self.element_gain_dbi
            if gain_dbi is None:  # derived from the beamwidths
                gain_dbi = linear_to_db(self.element().gain_linear)
            limits.append(max_elements_for_eirp(self.eirp_dbm, self.per_element_power_dbm, gain_dbi))
        if not limits:
            raise ScenarioError(
                "no element budget: set n_elements or eirp_dbm with per_element_power_dbm"
            )
        return min(limits)


def read_scenario_values(path: str) -> dict:
    """Parse a scenario file into a keyword dict, without cross-field checks.

    :func:`merged` lays flag values over these before it builds the
    Scenario.  Diagnostics carry file and line number.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if not sep or not key or not text:
                raise ScenarioError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            read = _KEYS.get(key)
            if read is None:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = read(text)
            except (ValueError, ScenarioError) as exc:
                raise ScenarioError(f"{path}:{lineno}: field {key}: {exc}") from None
    return values


def merged(path: str | None, overrides: dict) -> Scenario:
    """The Scenario of the file at path (none when None) with overrides on top.

    Every override whose key is a scenario key and whose value is not None
    replaces the file's value; any other entry is ignored.  An element
    description in the overrides replaces the file's, whichever form each
    uses: a gain drops the file's two widths, and two widths drop its gain.
    A single width over the file's gain stays mixed, and Scenario rejects it.
    """
    values = read_scenario_values(path) if path is not None else {}
    given = {key: value for key in _KEYS if (value := overrides.get(key)) is not None}
    if "element_gain_dbi" in given:
        values.pop("bw_elev_deg", None)
        values.pop("bw_azim_deg", None)
    elif "bw_elev_deg" in given and "bw_azim_deg" in given:
        values.pop("element_gain_dbi", None)
    values.update(given)
    return Scenario(**values)


def load_measurements_csv(path: str) -> list[tuple[int, int, float, float]]:
    """Read a measurement CSV: header rows,cols,tx_power_dbm,rx_power_dbm.

    Returns one (rows, cols, tx_power_dbm, rx_power_dbm) tuple per data
    line, rows and cols positive integers and both powers finite.  Blank
    lines and lines starting with '#' are ignored.  Diagnostics carry
    file and line number.
    """
    records: list[tuple[int, int, float, float]] = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split(",")]
            if not header_seen:
                if tuple(parts) != MEASUREMENT_HEADER:
                    raise MeasurementError(
                        f"{path}:{lineno}: expected header {','.join(MEASUREMENT_HEADER)}"
                    )
                header_seen = True
                continue
            if len(parts) != 4:
                raise MeasurementError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                rows, cols = int(parts[0]), int(parts[1])
                tx, rx = float(parts[2]), float(parts[3])
                check_positive_int("rows", rows)
                check_positive_int("cols", cols)
                for name, value in (("tx_power_dbm", tx), ("rx_power_dbm", rx)):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} must be finite, got {value!r}")
            except ValueError as exc:
                raise MeasurementError(f"{path}:{lineno}: {exc}") from None
            records.append((rows, cols, tx, rx))
    if not header_seen:
        raise MeasurementError(f"{path}: missing header {','.join(MEASUREMENT_HEADER)}")
    return records
