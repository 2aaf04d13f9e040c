"""Exact statistics of monitored quantum Otto cycles with unital channels.

The working medium is a single qubit: one bath of the Otto cycle is
replaced by an arbitrary unital qubit channel and every stroke is
bracketed by projective energy measurements.  The joint distribution of
stochastic work and channel heat is a finite list that this package
enumerates exactly, so cumulants, efficiencies, operating regimes and
every fluctuation bound can be checked without sampling error.  A seeded
Monte Carlo sampler draws from the enumerated distribution, so its
z-scores test the sampler and the moment formulas, not the path table.

The formulas are written once, in :mod:`.formulas`, for Python floats and
numpy arrays alike.  Importing the package imports no numpy: the names of
its array layer (:mod:`.trajectory`, :mod:`.cumulants`, :mod:`.analysis`,
:mod:`.landauzener`) are imported when first used.
"""

import importlib

from .qstate import (
    ControlSpec,
    InputError,
    MeasurementChannel,
    PhysicsError,
)
from .formulas import (
    CycleParams,
    DistributionBlock,
    FirstTwoCumulants,
    is_rounding_residue,
)

# The array layer's exports by module, each imported on first access (PEP
# 562): importing the package, as a one-point command-line run does, loads
# no numpy.
_LAZY = {
    "trajectory": ("enumerate_block", "enumerate_paths", "sample"),
    "cumulants": ("CumulantBlock", "cf_derivative_check", "closed_form_block",
                  "closed_form_first_second", "cs_first_cumulants", "cumulants_from_block",
                  "mean_magnitudes"),
    "analysis": ("BoundReport", "CumulantRatioBlock", "Regime", "classify_regime_array",
                 "cumulant_ratio_block", "efficiency_block", "verify_bounds_block",
                 "work_threshold_block"),
    "landauzener": ("Comparison", "CycleAverages", "LZParams", "monitored_averages",
                    "monitored_vs_unmonitored", "qm_unmonitored_closed_form",
                    "unmonitored_cycle"),
}
_MODULES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "ControlSpec", "InputError", "MeasurementChannel", "PhysicsError",
    "CycleParams", "DistributionBlock", "FirstTwoCumulants", "is_rounding_residue",
    *_MODULES,
]


def __getattr__(name: str):
    """An array-layer export, or a layer module, imported on first access."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


__version__ = "0.1.0"
