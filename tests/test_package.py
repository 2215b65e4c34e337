import copy
import pickle

import numpy as np
import pytest

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


# One valid instance of each value type: its constructor's keyword
# arguments, in field order, and any field computed from them.
COUNTS = dse_link.ContingencyCounts(n1plus=3, nplus1=2, n11=1)
STATS = dse_link.EstimatorStats(mean=1000.5, erb_pct=0.05, erse_pct=1.2)
CONFIG = dse_link.ScenarioConfig(p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05, f=0.2, seed=42)
VALUE_TYPES = [
    (dse_link.ContingencyCounts, dict(n1plus=900, nplus1=800, n11=710), ()),
    (dse_link.CaptureProbabilities, dict(p1plus=0.9, pplus1=0.8), ()),
    (dse_link.ErrorRates, dict(fnr=0.02, fpr=0.05), ()),
    (dse_link.EstimateReport, dict(n_hat=1014.08), ()),
    (dse_link.MultinomialMoments, dict(
        var_n1plus=90.0, var_nplus1=160.0, var_n11=201.6, cov_n1plus_nplus1=0.0,
        cov_n1plus_n11=72.0, cov_nplus1_n11=144.0,
    ), ()),
    (dse_link.RematchSample, dict(outcomes=[1, 0, -1, 0], n1plus=900), ()),
    (dse_link.NuEstimate, dict(nu_hat=10.0, sigma2_eps=25.0), ()),
    (dse_link.ScenarioConfig, dict(
        p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05, f=0.2, seed=42, N=1000, iterations=100,
    ), ()),
    (dse_link.TrueLinkageState, dict(
        counts_true=COUNTS, source1_codes=np.array([1, 0, -1], np.int8), pi=1, eta=1,
    ), ("counts_star",)),
    (dse_link.EstimatorStats, dict(mean=1000.5, erb_pct=0.05, erse_pct=1.2), ()),
    (dse_link.SimulationSummary, dict(
        config=CONFIG, dse=STATS, uncorrected=STATS, corrected=STATS, arse_pct=1.1,
        arse_root_mean_var_pct=1.2, iterations_completed=100, exclusions=0,
    ), ()),
]
IDENTITY_TYPES = (dse_link.RematchSample, dse_link.TrueLinkageState)


@pytest.mark.parametrize(
    "cls, kwargs, computed", VALUE_TYPES, ids=[case[0].__name__ for case in VALUE_TYPES]
)
def test_value_type_contract(cls, kwargs, computed):
    value, twin = cls(**kwargs), cls(*kwargs.values())
    fields = [*kwargs, *computed]
    if cls in IDENTITY_TYPES:
        assert value == value and value != twin
    else:
        assert value == twin and hash(value) == hash(twin)
        # the same values in another type, or in a tuple, are another value
        other = type("Other", (cls,), {})(**kwargs)
        assert value != other and other != value
        assert value != tuple(getattr(value, name) for name in fields)
    assert dse_link.ErrorRates(0.1, 0.2) != dse_link.CaptureProbabilities(0.1, 0.2)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, "unknown", 1)
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in fields
    ) + ")"
    for copied in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls
        if cls in IDENTITY_TYPES:
            assert all(
                np.array_equal(getattr(copied, name), getattr(value, name)) for name in fields
            )
        else:
            assert copied == value


FIELD_ORDER_TYPES = (
    dse_link.EstimateReport, dse_link.MultinomialMoments,
    dse_link.EstimatorStats, dse_link.SimulationSummary,
)


@pytest.mark.parametrize(
    "cls, kwargs", [case[:2] for case in VALUE_TYPES if case[0] in FIELD_ORDER_TYPES],
    ids=[cls.__name__ for cls, _, _ in VALUE_TYPES if cls in FIELD_ORDER_TYPES],
)
def test_field_order_constructor_refuses_other_sets(cls, kwargs):
    values = list(kwargs.values())
    refused = [
        ((), dict(list(kwargs.items())[1:])),  # a missing field
        ((*values, 0), {}),  # an extra positional value
        ((), {**kwargs, "unknown": 0}),  # an unknown name
        ((values[0],), kwargs),  # a field given twice
    ]
    for args, named in refused:
        with pytest.raises(TypeError):
            cls(*args, **named)
