"""Two-list capture-recapture population size estimation with
linkage-error correction: point estimators, design-based rematch
correction, Taylor-linearized variances, and a Monte Carlo harness."""

from .estimators import (
    CaptureProbabilities,
    ContingencyCounts,
    DegenerateDenominator,
    ErrorRates,
    EstimateReport,
    EstimationError,
    InvalidCounts,
    NonPositiveCorrectedMatches,
    ZeroMatches,
    ding_fienberg,
    dse,
    naive_corrected,
)
from .rematch import (
    Infeasible,
    NuEstimate,
    RematchSample,
    SampleExceedsFrame,
    SampleTooSmall,
    ht_nu,
    plan_sample_size,
    srswor_total_variance,
)
from .simulation import (
    EstimatorStats,
    ScenarioConfig,
    SimulationSummary,
    TrueLinkageState,
    draw_rematch,
    generate_population,
    inject_linkage_errors,
    run_scenario,
)
from .variance import (
    EstimateBelowMargin,
    MultinomialMoments,
    multinomial_moments,
    naive_variance_approx,
    naive_variance_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "CaptureProbabilities",
    "ContingencyCounts",
    "DegenerateDenominator",
    "ErrorRates",
    "EstimateBelowMargin",
    "EstimateReport",
    "EstimationError",
    "EstimatorStats",
    "Infeasible",
    "InvalidCounts",
    "MultinomialMoments",
    "NonPositiveCorrectedMatches",
    "NuEstimate",
    "RematchSample",
    "SampleExceedsFrame",
    "SampleTooSmall",
    "ScenarioConfig",
    "SimulationSummary",
    "TrueLinkageState",
    "ZeroMatches",
    "ding_fienberg",
    "draw_rematch",
    "dse",
    "generate_population",
    "ht_nu",
    "inject_linkage_errors",
    "multinomial_moments",
    "naive_corrected",
    "naive_variance_approx",
    "naive_variance_estimate",
    "plan_sample_size",
    "run_scenario",
    "srswor_total_variance",
]
