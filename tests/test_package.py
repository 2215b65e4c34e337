import dse_link
from dse_link import estimators, rematch, simulation, variance

MODULES = (estimators, rematch, simulation, variance)

# The package's API: a name added to or dropped from a module's __all__
# changes it, and fails here.
PUBLIC_NAMES = [
    "CaptureProbabilities", "ContingencyCounts", "DegenerateDenominator", "ErrorRates",
    "EstimateBelowMargin", "EstimateReport", "EstimationError", "EstimatorStats",
    "Infeasible", "InvalidCounts", "MultinomialMoments", "NonPositiveCorrectedMatches",
    "NuEstimate", "RematchSample", "SampleExceedsFrame", "SampleTooSmall",
    "ScenarioConfig", "SimulationSummary", "TrueLinkageState", "ZeroMatches",
    "ding_fienberg", "draw_rematch", "dse", "generate_population", "ht_nu",
    "inject_linkage_errors", "multinomial_moments", "naive_corrected",
    "naive_variance_approx", "naive_variance_estimate", "plan_sample_size",
    "run_scenario", "srswor_total_variance",
]


def test_each_module_exports_only_what_it_defines():
    # an imported helper or a `from __future__` feature in a module's
    # __all__ would be exported twice or leak into the package
    for module in MODULES:
        foreign = [
            name
            for name in module.__all__
            if getattr(module, name).__module__ != module.__name__
        ]
        assert foreign == [], module.__name__


def test_package_exports_the_union_of_the_modules():
    union = [name for module in MODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert dse_link.__all__ == sorted(union) == PUBLIC_NAMES
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dse_link, name) is getattr(module, name)
