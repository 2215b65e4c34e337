"""Property tests over random inputs, checked against exact invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dse_link import (
    CaptureProbabilities,
    ContingencyCounts,
    ErrorRates,
    InvalidCounts,
    NuEstimate,
    RematchSample,
    ding_fienberg,
    dse,
    ht_nu,
    naive_variance_approx,
    naive_variance_estimate,
    plan_sample_size,
)
from test_rematch import anticipated_variance

PROPERTY = settings(max_examples=200, deadline=None)

probability = st.floats(0.05, 0.95)
error_rate = st.floats(0.0, 0.3)


@PROPERTY
@given(
    n1plus=st.integers(2, 10**12),
    p1=probability,
    p2=probability,
    fnr=error_rate,
    fpr=error_rate,
    scales=st.lists(st.floats(1.001, 30.0), min_size=2, max_size=2),
)
def test_plan_first_feasible_and_monotone_in_target(n1plus, p1, p2, fnr, fpr, scales):
    capture = CaptureProbabilities(p1, p2)
    rates = ErrorRates(fnr, fpr)
    n_guess = n1plus / p1
    floor_rse = math.sqrt(naive_variance_approx(n_guess, capture, 0.0)) / n_guess
    planned = []
    for scale in sorted(scales, reverse=True):
        target_rse = floor_rse * scale
        target_variance = (target_rse * n_guess) ** 2
        got = plan_sample_size(n1plus, rates, capture, n_guess, target_rse)
        assert 2 <= got <= n1plus
        variance = anticipated_variance(n1plus, rates, capture, n_guess, got)
        assert variance <= target_variance
        if got > 2:
            variance = anticipated_variance(n1plus, rates, capture, n_guess, got - 1)
            assert variance > target_variance
        planned.append(got)
    loose, tight = planned
    assert tight >= loose


@st.composite
def valid_counts(draw):
    n1plus = draw(st.integers(1, 10**9))
    nplus1 = draw(st.integers(1, 10**9))
    n11 = draw(st.integers(1, min(n1plus, nplus1)))
    return ContingencyCounts(n1plus, nplus1, n11)


@PROPERTY
@given(counts=valid_counts())
def test_ding_fienberg_without_errors_is_dse(counts):
    assert ding_fienberg(counts, 1.0, 0.0).n_hat == pytest.approx(
        dse(counts).n_hat, rel=1e-12
    )


@PROPERTY
@given(
    counts=valid_counts(),
    scale=st.floats(1.0, 1e6, exclude_min=True),
    sigma2_eps=st.floats(0.0, 1e15),
)
def test_plug_in_variance_is_approximation_at_plug_in_point(counts, scale, sigma2_eps):
    n_tilde = max(counts.n1plus, counts.nplus1) * scale
    nu = NuEstimate(0.0, sigma2_eps)
    capture = CaptureProbabilities(counts.n1plus / n_tilde, counts.nplus1 / n_tilde)
    assert naive_variance_estimate(n_tilde, counts, nu) == naive_variance_approx(
        n_tilde, capture, sigma2_eps
    )


@PROPERTY
@given(codes=st.lists(st.sampled_from([1, -1, 0]), min_size=2, max_size=500))
def test_census_rematch_is_exact(codes):
    estimate = ht_nu(RematchSample(codes, n1plus=len(codes)))
    assert estimate.sigma2_eps == 0.0
    assert estimate.nu_hat == sum(codes)


@PROPERTY
@given(
    counts=st.lists(st.integers(0, 10**9), min_size=3, max_size=3),
    field=st.integers(0, 2),
    negative=st.integers(-(10**9), -1),
)
def test_counts_reject_negative(counts, field, negative):
    counts[field] = negative
    with pytest.raises(InvalidCounts):
        ContingencyCounts(*counts)


@PROPERTY
@given(
    n1plus=st.integers(0, 10**9),
    nplus1=st.integers(0, 10**9),
    excess=st.integers(1, 10**9),
)
def test_counts_reject_matches_above_a_margin(n1plus, nplus1, excess):
    with pytest.raises(InvalidCounts):
        ContingencyCounts(n1plus, nplus1, min(n1plus, nplus1) + excess)
