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

Every public name resolves on first access through a table of the
module it lives in (PEP 562), and only then is that module imported: so
``import arraygain`` loads nothing more, and the ``optimize``, ``sweep``
and ``estimate`` subcommands run on the standard library alone.  Only
``oracle`` needs numpy.
"""

from __future__ import annotations

__version__ = "0.1.0"

# each public name and the module it lives in: the table behind __all__
_HOMES = {
    "AngularSpread": "beam",
    "ArrayGeometry": "beam",
    "ElementPattern": "beam",
    "GainReport": "beam",
    "effective_gain": "beam",
    "effective_gain_value": "beam",
    "element_pattern_from_gain": "beam",
    "nominal_beamwidths": "beam",
    "ArrayGainError": "errors",
    "DegenerateElementError": "errors",
    "EirpTooLowError": "errors",
    "GridResolutionError": "errors",
    "MeasurementError": "errors",
    "ScenarioError": "errors",
    "UnidentifiableSpreadError": "errors",
    "SpreadEstimate": "estimate",
    "SubArrayGain": "estimate",
    "estimate_ls": "estimate",
    "predict_subarray_gain": "estimate",
    "relative_gains_from_power": "estimate",
    "ContinuousGeometry": "optimize",
    "OptimizationResult": "optimize",
    "max_elements_for_eirp": "optimize",
    "optimal_geometry_integer": "optimize",
    "AngularGrid": "oracle",
    "McConfig": "oracle",
    "SampledPattern": "oracle",
    "convolve_effective_pattern": "oracle",
    "gaussian_pattern_sampled": "oracle",
    "grid_for": "oracle",
    "monte_carlo_effective_gain": "oracle",
    "upa_array_factor_beamwidth": "oracle",
    "Scenario": "scenario",
    "load_measurements_csv": "scenario",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(_HOMES)
