import itertools
import math

import numpy as np
import pytest

from dse_link import (
    CaptureProbabilities,
    ErrorRates,
    Infeasible,
    InvalidCounts,
    NuEstimate,
    RematchOutcome,
    RematchSample,
    SampleExceedsFrame,
    SampleTooSmall,
    ht_nu,
    naive_variance_approx,
    plan_sample_size,
)


def enumerate_design(frame, n_r):
    """Oracle: the expansion estimate for every one of the C(F, n_r)
    equally likely without-replacement samples."""
    F = len(frame)
    estimates = []
    for subset in itertools.combinations(frame, n_r):
        estimates.append(F / n_r * sum(subset))
    return estimates


class TestRematchSample:
    def test_derived_quantities(self):
        s = RematchSample([1, 1, -1] + [0] * 87, n1plus=900)
        assert s.n_r == 90
        assert s.f == pytest.approx(0.1)
        assert s.y_bar == pytest.approx(1 / 90)
        # sample variance via its definitional two-pass form
        codes = np.array([1, 1, -1] + [0] * 87, dtype=float)
        assert s.s2_y == pytest.approx(
            ((codes - codes.mean()) ** 2).sum() / 89, rel=1e-12
        )

    def test_accepts_enum_codes(self):
        s = RematchSample(
            [RematchOutcome.FALSE_NEGATIVE, RematchOutcome.CORRECT], n1plus=10
        )
        assert list(s.outcomes) == [1, 0]

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            RematchSample([0, 2], n1plus=10)
        with pytest.raises(ValueError):
            RematchSample([0.5, 0.5], n1plus=10)

    def test_too_small(self):
        with pytest.raises(SampleTooSmall):
            RematchSample([1], n1plus=10)

    def test_exceeds_frame(self):
        with pytest.raises(SampleExceedsFrame):
            RematchSample([0, 0, 0], n1plus=2)

    @pytest.mark.parametrize("n1plus", [2.5, True])
    def test_rejects_non_integer_frame(self, n1plus):
        # 2.5 would otherwise give f = 0.8 and scale nu_hat by 1.25
        with pytest.raises(InvalidCounts):
            RematchSample([0, 1], n1plus=n1plus)


class TestHtNu:
    def test_single_false_negative(self):
        sample = RematchSample([1] + [0] * 89, n1plus=900)
        assert ht_nu(sample).nu_hat == 10.0

    def test_census_has_zero_variance(self):
        sample = RematchSample([1, -1, 0, 0, 1], n1plus=5)
        estimate = ht_nu(sample)
        assert estimate.sigma2_eps == 0.0
        assert estimate.nu_hat == 1.0

    def test_pinned_regression_value(self):
        # hand-derived: s2 = (3 - 90*(1/90)^2)/89, sigma2 = 900^2*(0.9/90)*s2
        sample = RematchSample([1, 1, -1] + [0] * 87, n1plus=900)
        estimate = ht_nu(sample)
        s2 = (3 - 90 * (1 / 90) ** 2) / 89
        assert estimate.nu_hat == 10.0
        assert estimate.sigma2_eps == pytest.approx(900**2 * (0.9 / 90) * s2, rel=1e-12)
        assert estimate.sigma2_eps == pytest.approx(272.02247191011236, rel=1e-12)

    def test_design_unbiased_by_exhaustive_enumeration(self):
        frames = [
            (1, 0, 0, 0, 0, -1),
            (1, 1, -1, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0),
        ]
        for frame in frames:
            for n_r in (2, 3, 4):
                estimates = enumerate_design(frame, n_r)
                assert np.mean(estimates) == pytest.approx(sum(frame), abs=1e-9)
                # our estimator reproduces each enumerated value
                for subset in itertools.combinations(frame, n_r):
                    got = ht_nu(RematchSample(list(subset), n1plus=len(frame))).nu_hat
                    assert got == pytest.approx(len(frame) / n_r * sum(subset))

    def test_variance_formula_matches_exhaustive_design_variance(self):
        frames = [
            (1, 0, 0, 0, 0, -1),
            (1, 1, -1, 0, 0, 0, 0, 0, 1),
            (1, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0),
        ]
        for frame in frames:
            F = len(frame)
            s2_pop = np.var(frame, ddof=1)
            for n_r in (2, 3, 4):
                estimates = np.array(enumerate_design(frame, n_r))
                design_var = float(((estimates - estimates.mean()) ** 2).mean())
                formula = F**2 * (1 - n_r / F) / n_r * s2_pop
                assert formula == pytest.approx(design_var, abs=1e-9)

    def test_variance_estimator_unbiased_over_all_subsets(self):
        # mean of the plug-in variance over all samples equals the formula
        frame = (1, 1, -1, 0, 0, 0, 0, 0)
        F = len(frame)
        for n_r in (3, 4):
            sigma2s = [
                ht_nu(RematchSample(list(s), n1plus=F)).sigma2_eps
                for s in itertools.combinations(frame, n_r)
            ]
            formula = F**2 * (1 - n_r / F) / n_r * np.var(frame, ddof=1)
            assert np.mean(sigma2s) == pytest.approx(formula, abs=1e-9)


def brute_force_plan(n1plus, rates, capture, n_guess, target_rse):
    """Oracle: scan every candidate sample size."""
    pi_bar = rates.fnr * capture.p1plus * capture.pplus1 * n_guess
    eta_bar = rates.fpr * capture.p1plus * (1 - capture.pplus1) * n_guess
    s2 = (pi_bar + eta_bar) / n1plus - ((pi_bar - eta_bar) / n1plus) ** 2
    base = n_guess * (1 - capture.p1plus) * (1 - capture.pplus1) / (
        capture.p1plus * capture.pplus1
    )
    for n_r in range(2, n1plus + 1):
        sigma2 = n1plus**2 * s2 * (1 / n_r - 1 / n1plus)
        variance = base + sigma2 / (capture.p1plus * capture.pplus1) ** 2
        if math.sqrt(variance) / n_guess <= target_rse:
            return n_r
    return None


def anticipated_variance(n1plus, rates, capture, n_guess, n_r):
    """The planner's anticipated corrected-estimator variance at size n_r,
    with its own float expressions, so boundary cases compare exactly."""
    pi_bar = rates.fnr * capture.p11 * n_guess
    eta_bar = rates.fpr * capture.p1plus * capture.pplus0 * n_guess
    s2 = (pi_bar + eta_bar) / n1plus - ((pi_bar - eta_bar) / n1plus) ** 2
    sigma2 = n1plus**2 * s2 * (1.0 / n_r - 1.0 / n1plus)
    return naive_variance_approx(n_guess, capture, sigma2)


class TestPlanSampleSize:
    CAPTURE = CaptureProbabilities(0.9, 0.8)

    def test_no_anticipated_errors_needs_minimum_sample(self):
        got = plan_sample_size(900, ErrorRates(0.0, 0.0), self.CAPTURE, 1000.0, 0.01)
        assert got == 2

    def test_target_below_floor_is_infeasible(self):
        floor_rse = math.sqrt(1000 * 0.1 * 0.2 / 0.72) / 1000
        with pytest.raises(Infeasible) as exc_info:
            plan_sample_size(
                900, ErrorRates(0.02, 0.05), self.CAPTURE, 1000.0, floor_rse * 0.9
            )
        assert exc_info.value.min_achievable_rse == pytest.approx(floor_rse, rel=1e-9)

    def test_pinned_value_from_exhaustive_scan(self):
        rates = ErrorRates(0.02, 0.05)
        got = plan_sample_size(900, rates, self.CAPTURE, 1000.0, 0.02)
        assert got == brute_force_plan(900, rates, self.CAPTURE, 1000.0, 0.02)
        assert got == 98

    def test_matches_oracle_across_targets(self):
        rates = ErrorRates(0.05, 0.08)
        for target in (0.015, 0.02, 0.03, 0.05):
            assert plan_sample_size(
                900, rates, self.CAPTURE, 1000.0, target
            ) == brute_force_plan(900, rates, self.CAPTURE, 1000.0, target)

    def test_monotone_in_target(self):
        rates = ErrorRates(0.05, 0.02)
        targets = [0.05, 0.03, 0.02, 0.015, 0.012]
        sizes = [
            plan_sample_size(900, rates, self.CAPTURE, 1000.0, t) for t in targets
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("n1plus", [2, 10**7, 10**12])
    def test_large_frame_first_feasible_size(self, n1plus):
        # the target is the variance at 60% of the frame, so a scan over
        # the sizes would test about 6 * 10**11 of them at n1plus = 10**12
        rates = ErrorRates(0.05, 0.08)
        n_guess = n1plus / self.CAPTURE.p1plus
        goal = max(2, int(0.6 * n1plus))
        variance = anticipated_variance(n1plus, rates, self.CAPTURE, n_guess, goal)
        target_rse = math.sqrt(variance) / n_guess
        target_variance = (target_rse * n_guess) ** 2
        got = plan_sample_size(n1plus, rates, self.CAPTURE, n_guess, target_rse)
        assert 2 <= got <= n1plus
        assert (
            anticipated_variance(n1plus, rates, self.CAPTURE, n_guess, got)
            <= target_variance
        )
        if got > 2:
            assert (
                anticipated_variance(n1plus, rates, self.CAPTURE, n_guess, got - 1)
                > target_variance
            )

    def test_target_at_floor_needs_census(self):
        # p1 = p2 = 1/2 and N = 2**20 make the floor variance 2**20 and the
        # target RSE 2**-10 exact, so only a census (sigma2 = 0) meets it
        capture = CaptureProbabilities(0.5, 0.5)
        n_guess = 2.0**20
        assert naive_variance_approx(n_guess, capture, 0.0) == (2.0**-10 * n_guess) ** 2
        rates = ErrorRates(0.02, 0.05)
        assert plan_sample_size(2**19, rates, capture, n_guess, 2.0**-10) == 2**19

    def test_rejects_tiny_frame(self):
        with pytest.raises(ValueError):
            plan_sample_size(1, ErrorRates(0.0, 0.0), self.CAPTURE, 1000.0, 0.02)

    @pytest.mark.parametrize("n1plus", [10.5, 900.0, True])
    def test_rejects_non_integer_frame(self, n1plus):
        with pytest.raises(InvalidCounts):
            plan_sample_size(n1plus, ErrorRates(0.02, 0.05), self.CAPTURE, 1000.0, 0.02)

    @pytest.mark.parametrize(
        "n_guess, target_rse",
        [
            (math.nan, 0.02),
            (math.inf, 0.02),
            (-math.inf, 0.02),
            (1000.0, math.nan),
            (1000.0, math.inf),
        ],
    )
    @pytest.mark.parametrize("rates", [ErrorRates(0.0, 0.0), ErrorRates(0.02, 0.05)])
    def test_rejects_non_finite_inputs(self, n_guess, target_rse, rates):
        with pytest.raises(ValueError, match="must be finite and positive"):
            plan_sample_size(900, rates, self.CAPTURE, n_guess, target_rse)

    def test_cross_check_against_simulated_precision(self):
        # feeding the empirical ERSE of a f=0.2 scenario back in as the
        # target should plan a sample size near the 0.2 * n1plus that
        # scenario actually used
        from dse_link import ScenarioConfig, run_scenario

        summary = run_scenario(
            ScenarioConfig(
                p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05, f=0.2,
                seed=31337, N=1000, iterations=4000,
            )
        )
        target = summary.corrected.erse_pct / 100.0
        planned = plan_sample_size(
            900, ErrorRates(0.02, 0.05), self.CAPTURE, 1000.0, target
        )
        assert abs(planned - 180) <= 15


def test_nu_estimate_carrier():
    estimate = NuEstimate(nu_hat=3.0, sigma2_eps=1.5)
    assert estimate.nu_hat == 3.0
    assert estimate.sigma2_eps == 1.5


@pytest.mark.parametrize("sigma2_eps", [-0.5, math.nan])
def test_nu_estimate_rejects_invalid_variance(sigma2_eps):
    with pytest.raises(ValueError):
        NuEstimate(1.0, sigma2_eps)


@pytest.mark.parametrize(
    "nu_hat, sigma2_eps, message",
    [(math.nan, 1.0, "nu_hat"), (math.inf, 1.0, "nu_hat"), (-math.inf, 1.0, "nu_hat"),
     (1.0, math.inf, "sigma2_eps")],
)
def test_nu_estimate_rejects_non_finite(nu_hat, sigma2_eps, message):
    with pytest.raises(ValueError, match=f"{message} must be finite"):
        NuEstimate(nu_hat, sigma2_eps)
