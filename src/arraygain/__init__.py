"""Effective beamforming gain of uniform planar arrays under angular spread.

The package answers four questions about a rows x cols planar array of
identical elements at half-wavelength spacing:

* what effective gain does a geometry achieve once the channel's angular
  spread widens its beam (``beam``),
* which geometry maximizes that gain under an element budget or an EIRP
  cap (``optimize``),
* what are the channel's azimuth/elevation spreads, estimated from
  sub-array power measurements by least squares (``estimate``),
* and do the closed forms survive independent numerical checks, namely
  pattern convolution, Monte-Carlo multipath draws, and the physical
  array factor (``oracle``).

The command line front end lives in ``arraygain.cli``.

Only ``oracle`` needs numpy, and it is imported lazily: its names
(``grid_for``, ``McConfig`` and the rest) resolve from this package on
first access, so ``import arraygain`` and the ``optimize``, ``sweep`` and
``estimate`` subcommands run on the standard library alone.
"""

from __future__ import annotations

from .beam import (
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    GainReport,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    nominal_beamwidths,
)
from .errors import (
    ArrayGainError,
    DegenerateElementError,
    DegenerateSpreadError,
    EirpTooLowError,
    GridResolutionError,
    IndeterminatePairError,
    InvalidPairError,
    MeasurementError,
    ScenarioError,
    UnidentifiableSpreadError,
)
from .estimate import (
    SpreadEstimate,
    SubArrayGain,
    estimate_asd_sq_pair,
    estimate_ls,
    estimate_zsd_sq_pair,
    predict_subarray_gain,
    relative_gains_from_power,
)
from .optimize import (
    ContinuousGeometry,
    OptimizationResult,
    gain_upper_bound,
    max_elements_for_eirp,
    optimal_geometry_continuous,
    optimal_geometry_integer,
)
from .scenario import MeasurementRecord, Scenario, load_measurements_csv, parse_scenario_file

__version__ = "0.1.0"

# oracle needs numpy, so its names load on first access (PEP 562)
_ORACLE_NAMES = frozenset({
    "AngularGrid",
    "McConfig",
    "SampledPattern",
    "convolve_effective_pattern",
    "fitted_rms_widths",
    "gaussian_pattern_sampled",
    "grid_for",
    "monte_carlo_effective_gain",
    "upa_array_factor_beamwidth",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        value = getattr(oracle, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AngularGrid",
    "AngularSpread",
    "ArrayGainError",
    "ArrayGeometry",
    "ContinuousGeometry",
    "DegenerateElementError",
    "DegenerateSpreadError",
    "EirpTooLowError",
    "ElementPattern",
    "GainReport",
    "GridResolutionError",
    "IndeterminatePairError",
    "InvalidPairError",
    "McConfig",
    "MeasurementError",
    "MeasurementRecord",
    "OptimizationResult",
    "SampledPattern",
    "Scenario",
    "ScenarioError",
    "SpreadEstimate",
    "SubArrayGain",
    "UnidentifiableSpreadError",
    "convolve_effective_pattern",
    "effective_gain",
    "effective_gain_value",
    "element_pattern_from_gain",
    "estimate_asd_sq_pair",
    "estimate_ls",
    "estimate_zsd_sq_pair",
    "fitted_rms_widths",
    "gain_upper_bound",
    "gaussian_pattern_sampled",
    "grid_for",
    "load_measurements_csv",
    "max_elements_for_eirp",
    "monte_carlo_effective_gain",
    "nominal_beamwidths",
    "optimal_geometry_continuous",
    "optimal_geometry_integer",
    "parse_scenario_file",
    "predict_subarray_gain",
    "relative_gains_from_power",
    "upa_array_factor_beamwidth",
]
