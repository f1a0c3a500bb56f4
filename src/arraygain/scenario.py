"""Scenario and measurement file handling for the CLI.

A scenario bundles everything a command needs: the element description
(a single gain figure or explicit per-axis beamwidths, never both), the
channel spreads, and optional budget inputs (element count, EIRP cap
with per-element power) or a pinned geometry.  Scenario files are flat
``key = value`` text, one setting per line, ``#`` comments allowed, so
an experiment is reproducible from a file that diffs cleanly.

Measurement CSVs carry raw sub-array power logs with the header
``rows,cols,tx_power_dbm,rx_power_dbm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beam import AngularSpread, ArrayGeometry, ElementPattern, element_pattern_from_gain
from .errors import MeasurementError, ScenarioError, check_positive_int
from .optimize import max_elements_for_eirp
from .units import linear_to_db

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


@dataclass(frozen=True)
class Scenario:
    """One experiment setup: element, spreads, and optional constraints.

    Exactly one element description must be present: either
    element_gain_dbi (symmetric beamwidths derived from it) or both
    bw_elev_deg and bw_azim_deg.  rows/cols pin a geometry for commands
    that evaluate rather than optimize.
    """

    element_gain_dbi: float | None = None
    bw_elev_deg: float | None = None
    bw_azim_deg: float | None = None
    n_elements: int | None = None
    asd_deg: float = 0.0
    zsd_deg: float = 0.0
    eirp_dbm: float | None = None
    per_element_power_dbm: float | None = None
    allowed_geometries: tuple[ArrayGeometry, ...] | None = None
    rows: int | None = None
    cols: int | None = None

    def __post_init__(self) -> None:
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
        for name in (
            "element_gain_dbi",
            "bw_elev_deg",
            "bw_azim_deg",
            "eirp_dbm",
            "per_element_power_dbm",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value!r}")
        for name in ("bw_elev_deg", "bw_azim_deg"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ScenarioError(f"{name} must be > 0, got {value!r}")
        for name in ("asd_deg", "zsd_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ScenarioError(f"{name} must be finite and >= 0, got {value!r}")
        if self.n_elements is not None and self.n_elements < 1:
            raise ScenarioError(f"n_elements must be >= 1, got {self.n_elements!r}")
        if (self.rows is None) != (self.cols is None):
            raise ScenarioError("rows and cols must be given together")
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ScenarioError(f"{name} must be >= 1, got {value!r}")
        if self.allowed_geometries is not None:
            if not self.allowed_geometries:
                raise ScenarioError("allowed_geometries is empty")
            object.__setattr__(self, "allowed_geometries", tuple(self.allowed_geometries))

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

    def element_gain_dbi_value(self) -> float:
        """Element gain in dBi, derived from beamwidths when not given."""
        if self.element_gain_dbi is not None:
            return self.element_gain_dbi
        return linear_to_db(self.element().gain_linear)

    def budget(self) -> int:
        """Element budget: n_elements, the EIRP cap, or their minimum.

        Raises
        ------
        ScenarioError
            If neither constraint is available.
        """
        cap = None
        if self.eirp_dbm is not None:
            if self.per_element_power_dbm is None:
                raise ScenarioError("eirp_dbm needs per_element_power_dbm to cap the array")
            cap = max_elements_for_eirp(
                self.eirp_dbm, self.per_element_power_dbm, self.element_gain_dbi_value()
            )
        if self.n_elements is not None and cap is not None:
            return min(self.n_elements, cap)
        if self.n_elements is not None:
            return self.n_elements
        if cap is not None:
            return cap
        raise ScenarioError(
            "no element budget: set n_elements or eirp_dbm with per_element_power_dbm"
        )


_INT_KEYS = {"n_elements", "rows", "cols"}
_FLOAT_KEYS = {
    "element_gain_dbi",
    "bw_elev_deg",
    "bw_azim_deg",
    "asd_deg",
    "zsd_deg",
    "eirp_dbm",
    "per_element_power_dbm",
}
_SCENARIO_KEYS = _INT_KEYS | _FLOAT_KEYS | {"allowed_geometries"}


def read_scenario_values(path: str) -> dict:
    """Parse a scenario file into a keyword dict, without cross-field checks.

    The CLI merges these with flag overrides before building the
    Scenario; library users normally want :func:`parse_scenario_file`.
    Diagnostics carry file and line number.
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
            if key not in _SCENARIO_KEYS:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                if key in _INT_KEYS:
                    values[key] = int(text)
                elif key in _FLOAT_KEYS:
                    values[key] = float(text)
                else:
                    values[key] = parse_geometry_list(text)
            except (ValueError, ScenarioError) as exc:
                raise ScenarioError(f"{path}:{lineno}: field {key}: {exc}") from None
    return values


def parse_scenario_file(path: str) -> Scenario:
    """Read and validate a scenario file.

    Raises
    ------
    ScenarioError
        With file and line number for syntax or value problems, or a
        field-level message for cross-field violations.
    """
    return Scenario(**read_scenario_values(path))


@dataclass(frozen=True)
class MeasurementRecord:
    """One sub-array power log entry."""

    rows: int
    cols: int
    tx_power_dbm: float
    rx_power_dbm: float

    def __post_init__(self) -> None:
        check_positive_int("rows", self.rows)
        check_positive_int("cols", self.cols)
        for name in ("tx_power_dbm", "rx_power_dbm"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def load_measurements_csv(path: str) -> list[MeasurementRecord]:
    """Read a measurement CSV: header rows,cols,tx_power_dbm,rx_power_dbm.

    Blank lines and lines starting with '#' are ignored.  Diagnostics
    carry file and line number.
    """
    records: list[MeasurementRecord] = []
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
                record = MeasurementRecord(
                    rows=int(parts[0]),
                    cols=int(parts[1]),
                    tx_power_dbm=float(parts[2]),
                    rx_power_dbm=float(parts[3]),
                )
            except ValueError as exc:
                raise MeasurementError(f"{path}:{lineno}: {exc}") from None
            records.append(record)
    if not header_seen:
        raise MeasurementError(f"{path}: missing header {','.join(MEASUREMENT_HEADER)}")
    return records
