"""Exact statistics of monitored quantum Otto cycles with unital channels.

The working medium is a single qubit: one bath of the Otto cycle is
replaced by an arbitrary unital qubit channel and every stroke is
bracketed by projective energy measurements.  The joint distribution of
stochastic work and channel heat is a finite list that this package
enumerates exactly, so cumulants, efficiencies, operating regimes and
every fluctuation bound can be checked without sampling error (a seeded
Monte Carlo sampler is included as an independent statistical oracle).
"""

from .qstate import (
    ControlSpec,
    DensityMatrix,
    GeneralQubitChannel,
    MeasurementChannel,
    PauliChannel,
    PhysicsError,
    apply_channel,
    classify_exchange,
    hamiltonian,
    superpose_apply,
    thermal_state,
    von_neumann_entropy,
)
from .trajectory import (
    CycleParams,
    DistributionBlock,
    JointDistribution,
    SampleStats,
    backward_distribution,
    cs_distribution,
    distribution_to_csv,
    enumerate_block,
    enumerate_paths,
    sample,
)
from .cumulants import (
    CFPoint,
    CumulantBlock,
    CumulantSet,
    DerivativeStepError,
    FirstTwoCumulants,
    cf_derivative_check,
    cf_general,
    cf_unital,
    closed_form_first_second,
    cs_first_cumulants,
    cumulants_from_block,
    cumulants_from_distribution,
)
from .analysis import (
    BoundReport,
    CumulantRatioRecord,
    Regime,
    ShapeStats,
    WorkThreshold,
    bound_reports_to_csv,
    classify_regime,
    classify_regime_array,
    classify_regime_means,
    cumulant_ratio_scan,
    efficiency,
    is_rounding_residue,
    positive_work_threshold,
    shape_stats,
    verify_bounds,
)
from .landauzener import (
    ComparisonRow,
    CycleAverages,
    LZParams,
    comparison_to_csv,
    lz_unitaries,
    monitored_averages,
    monitored_vs_unmonitored,
    qm_unmonitored_closed_form,
    unmonitored_cycle,
)

__version__ = "0.1.0"
