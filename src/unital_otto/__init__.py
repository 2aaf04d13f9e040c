"""Exact statistics of monitored quantum Otto cycles with unital channels.

The working medium is a single qubit: one bath of the Otto cycle is
replaced by an arbitrary unital qubit channel and every stroke is
bracketed by projective energy measurements.  The joint distribution of
stochastic work and channel heat is a finite list that this package
enumerates exactly, so cumulants, efficiencies, operating regimes and
every fluctuation bound can be checked without sampling error.  A seeded
Monte Carlo sampler draws from the enumerated distribution, so its
z-scores test the sampler and the moment formulas, not the path table.
"""

from .qstate import (
    ControlSpec,
    InputError,
    MeasurementChannel,
    PhysicsError,
)
from .trajectory import (
    CycleParams,
    DistributionBlock,
    enumerate_block,
    enumerate_paths,
    sample,
)
from .cumulants import (
    CumulantBlock,
    FirstTwoCumulants,
    cf_derivative_check,
    closed_form_block,
    closed_form_first_second,
    cs_first_cumulants,
    cumulants_from_block,
    is_rounding_residue,
    mean_magnitudes,
)
from .analysis import (
    BoundReport,
    CumulantRatioBlock,
    Regime,
    classify_regime_array,
    cumulant_ratio_block,
    efficiency_block,
    verify_bounds_block,
    work_threshold_block,
)
from .landauzener import (
    Comparison,
    CycleAverages,
    LZParams,
    monitored_averages,
    monitored_vs_unmonitored,
    qm_unmonitored_closed_form,
    unmonitored_cycle,
)

__version__ = "0.1.0"
