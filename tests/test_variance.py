import math

import numpy as np
import pytest

from dse_link import (
    CaptureProbabilities,
    ContingencyCounts,
    EstimateBelowMargin,
    NuEstimate,
    RematchSample,
    ht_nu,
    multinomial_moments,
    naive_corrected,
    naive_variance_approx,
    naive_variance_estimate,
)


def empirical_count_moments(N, p1, p2, draws, seed):
    """Oracle: sample the four capture cells directly as a multinomial and
    measure the moments of (n1plus, nplus1, n11), with Monte Carlo standard
    errors for each statistic."""
    rng = np.random.default_rng(seed)
    cells = rng.multinomial(
        N, [p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)], size=draws
    )
    n11 = cells[:, 0].astype(float)
    n1plus = n11 + cells[:, 1]
    nplus1 = n11 + cells[:, 2]

    def var_with_se(x):
        centered_sq = (x - x.mean()) ** 2
        return float(x.var(ddof=1)), float(centered_sq.std(ddof=1) / np.sqrt(draws))

    def cov_with_se(x, y):
        products = (x - x.mean()) * (y - y.mean())
        return float(products.mean()), float(products.std(ddof=1) / np.sqrt(draws))

    return {
        "var_n1plus": var_with_se(n1plus),
        "var_nplus1": var_with_se(nplus1),
        "var_n11": var_with_se(n11),
        "cov_n1plus_nplus1": cov_with_se(n1plus, nplus1),
        "cov_n1plus_n11": cov_with_se(n1plus, n11),
        "cov_nplus1_n11": cov_with_se(nplus1, n11),
    }


class TestMultinomialMoments:
    def test_marginal_variance_anchor(self):
        m = multinomial_moments(1000, CaptureProbabilities(0.9, 0.8))
        assert m.var_n1plus == pytest.approx(90.0)
        assert m.var_nplus1 == pytest.approx(160.0)

    def test_margins_uncorrelated(self):
        for p1, p2, N in [(0.9, 0.8, 1000), (0.5, 0.5, 500), (0.2, 0.7, 123)]:
            assert multinomial_moments(N, CaptureProbabilities(p1, p2)).cov_n1plus_nplus1 == 0.0

    def test_covariances_reduce_to_independence_form(self):
        # expanded grouping must equal N*p11*(1 - p1plus) and N*p11*(1 - pplus1)
        rng = np.random.default_rng(3)
        for _ in range(100):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            N = float(rng.integers(10, 10000))
            m = multinomial_moments(N, CaptureProbabilities(p1, p2))
            assert m.cov_n1plus_n11 == pytest.approx(N * p1 * p2 * (1 - p1), rel=1e-9)
            assert m.cov_nplus1_n11 == pytest.approx(N * p1 * p2 * (1 - p2), rel=1e-9)

    def test_matches_simulated_moments(self):
        N, p1, p2 = 500, 0.5, 0.5
        moments = multinomial_moments(N, CaptureProbabilities(p1, p2))
        empirical = empirical_count_moments(N, p1, p2, draws=100_000, seed=20240809)
        for name, (value, se) in empirical.items():
            assert abs(value - getattr(moments, name)) <= 3 * max(se, 1e-12), name

    def test_rejects_nonpositive_population(self):
        with pytest.raises(ValueError):
            multinomial_moments(0, CaptureProbabilities(0.5, 0.5))

    def test_rejects_nan_population(self):
        with pytest.raises(ValueError):
            multinomial_moments(math.nan, CaptureProbabilities(0.5, 0.5))


class TestDseVarianceApprox:
    """The dual system estimator's variance: naive_variance_approx at sigma2_eps = 0."""

    def test_anchor_high_coverage(self):
        v = naive_variance_approx(1000, CaptureProbabilities(0.9, 0.8), 0.0)
        assert v == pytest.approx(1000 * 0.1 * 0.2 / 0.72, rel=1e-12)
        assert abs(100 * np.sqrt(v) / 1000 - 0.53) <= 0.01

    def test_anchor_low_coverage(self):
        v = naive_variance_approx(1000, CaptureProbabilities(0.8, 0.7), 0.0)
        assert v == pytest.approx(1000 * 0.2 * 0.3 / 0.56, rel=1e-12)
        assert abs(100 * np.sqrt(v) / 1000 - 1.03) <= 0.01

    def test_vanishes_at_perfect_coverage(self):
        v = naive_variance_approx(1000, CaptureProbabilities(1 - 1e-9, 1 - 1e-9), 0.0)
        assert v == pytest.approx(0.0, abs=1e-3)

    def test_matches_empirical_estimator_variance(self):
        # simulate the dual system estimator directly from multinomial draws
        N, p1, p2 = 1000, 0.9, 0.8
        rng = np.random.default_rng(99)
        cells = rng.multinomial(
            N,
            [p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)],
            size=100_000,
        )
        n11 = cells[:, 0].astype(float)
        estimates = (n11 + cells[:, 1]) * (n11 + cells[:, 2]) / n11
        approx = naive_variance_approx(N, CaptureProbabilities(p1, p2), 0.0)
        assert abs(estimates.var(ddof=1) - approx) / approx < 0.05


class TestNaiveVarianceApprox:
    CAPTURE = CaptureProbabilities(0.9, 0.8)

    def test_pinned_regression_value(self):
        # 1000*0.02/0.72 + 93.5/0.5184, hand-computed
        got = naive_variance_approx(1000, self.CAPTURE, 93.5)
        assert got == pytest.approx(208.1404320987654, rel=1e-12)

    def test_linear_in_rematch_noise(self):
        base = naive_variance_approx(1000, self.CAPTURE, 50.0)
        doubled = naive_variance_approx(1000, self.CAPTURE, 100.0)
        assert doubled - base == pytest.approx(50.0 / 0.72**2, rel=1e-9)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            naive_variance_approx(1000, self.CAPTURE, -1.0)

    @pytest.mark.parametrize("N, sigma2", [(1000, math.nan), (math.nan, 0.0)])
    def test_rejects_nan(self, N, sigma2):
        with pytest.raises(ValueError):
            naive_variance_approx(N, self.CAPTURE, sigma2)

    def test_noise_checked_before_population(self):
        with pytest.raises(ValueError, match=r"^sigma2_eps must be >= 0, got -1\.0$"):
            naive_variance_approx(-1, self.CAPTURE, -1.0)
        with pytest.raises(ValueError, match=r"^N must be positive, got -1$"):
            naive_variance_approx(-1, self.CAPTURE, 0.0)

    def test_rejects_capture_product_whose_square_underflows(self):
        tiny = CaptureProbabilities(1e-170, 0.5)
        with pytest.raises(ValueError, match=r"underflows to 0"):
            naive_variance_approx(1e100, tiny, 0.0)
        with pytest.raises(ValueError, match=r"^N must be positive, got -1$"):
            naive_variance_approx(-1, tiny, 0.0)
        # a subnormal (p1plus * pplus1)**2 is still accepted
        assert naive_variance_approx(1.0, CaptureProbabilities(1e-160, 0.5), 0.0) > 0


class TestNaiveVarianceEstimate:
    COUNTS = ContingencyCounts(900, 800, 710)

    def test_plug_in_anchor_without_noise(self):
        got = naive_variance_estimate(1000.0, self.COUNTS, NuEstimate(10.0, 0.0))
        assert got == pytest.approx(1000 * (0.1 * 0.2) / 0.72, rel=1e-12)

    def test_pinned_regression_value(self):
        got = naive_variance_estimate(1000.0, self.COUNTS, NuEstimate(10.0, 51.84))
        assert got == pytest.approx(27.77777777777778 + 100.0, rel=1e-12)

    def test_reproduces_approximation_at_true_parameters(self):
        # estimate at n_tilde = N with expected margins equals the
        # approximation exactly, bit for bit
        sigma2 = 93.5
        plug_in = naive_variance_estimate(
            1000.0, ContingencyCounts(900, 800, 710), NuEstimate(0.0, sigma2)
        )
        approx = naive_variance_approx(1000, CaptureProbabilities(0.9, 0.8), sigma2)
        assert plug_in == approx

    def test_estimate_at_margin_rejected(self):
        with pytest.raises(EstimateBelowMargin):
            naive_variance_estimate(900.0, self.COUNTS, NuEstimate(0.0, 0.0))
        with pytest.raises(EstimateBelowMargin):
            naive_variance_estimate(850.0, self.COUNTS, NuEstimate(0.0, 0.0))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            naive_variance_estimate(1000.0, self.COUNTS, NuEstimate(0.0, -0.5))

    def test_nan_estimate_rejected(self):
        with pytest.raises(EstimateBelowMargin):
            naive_variance_estimate(math.nan, self.COUNTS, NuEstimate(0.0, 0.0))

    def test_empty_list_rejected(self):
        # the plug-in p1plus would be 0, outside (0, 1)
        with pytest.raises(ValueError):
            naive_variance_estimate(5.0, ContingencyCounts(0, 3, 0), NuEstimate(0.0, 0.0))

    def test_variance_beyond_float_range_raises(self):
        # a finite corrected estimate whose plug-in variance is not
        counts = ContingencyCounts(13 * 10**153, 13 * 10**153, 10**152)
        nu = ht_nu(RematchSample([1] + [0] * 89, n1plus=counts.n1plus))
        corrected = naive_corrected(counts, nu.nu_hat).n_hat
        with pytest.raises(OverflowError, match="naive_variance_estimate = inf is beyond"):
            naive_variance_estimate(corrected, counts, nu)


def test_all_variances_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p1, p2 = rng.uniform(0.05, 0.95, size=2)
        N = float(rng.integers(1, 100000))
        capture = CaptureProbabilities(p1, p2)
        sigma2 = float(rng.uniform(0, 1000))
        assert naive_variance_approx(N, capture, 0.0) >= 0
        assert naive_variance_approx(N, capture, sigma2) >= 0
        moments = multinomial_moments(N, capture)
        assert moments.var_n1plus >= 0
        assert moments.var_nplus1 >= 0
        assert moments.var_n11 >= 0
