import math

import numpy as np
import pytest

from dse_link import (
    ContingencyCounts,
    DegenerateDenominator,
    InvalidCounts,
    NonPositiveCorrectedMatches,
    ZeroMatches,
    ding_fienberg,
    dse,
    naive_corrected,
)


def df_fixed_point(counts, alpha, beta, tol=1e-13, max_iter=200_000):
    """Oracle: iterate N <- n / (p1 + p2 - (alpha-beta) p1 p2 - beta p1)
    with p1 = n1plus/N, p2 = nplus1/N recomputed each step."""
    n = counts.n1plus + counts.nplus1 - counts.n11
    N = counts.n1plus * counts.nplus1 / counts.n11
    for _ in range(max_iter):
        p1 = counts.n1plus / N
        p2 = counts.nplus1 / N
        N_next = n / (p1 + p2 - (alpha - beta) * p1 * p2 - beta * p1)
        if abs(N_next - N) <= tol * abs(N_next):
            return N_next
        N = N_next
    raise AssertionError("fixed point did not converge")


class TestContingencyCounts:
    def test_rejects_match_count_above_margin(self):
        with pytest.raises(InvalidCounts):
            ContingencyCounts(10, 5, 6)
        with pytest.raises(InvalidCounts):
            ContingencyCounts(5, 10, 6)

    def test_rejects_negative_and_non_integers(self):
        with pytest.raises(InvalidCounts):
            ContingencyCounts(-1, 5, 0)
        with pytest.raises(InvalidCounts):
            ContingencyCounts(5.5, 5, 1)

    def test_accepts_numpy_integers(self):
        c = ContingencyCounts(np.int64(9), np.int64(8), np.int64(7))
        fields = (c.n1plus, c.nplus1, c.n11)
        assert all(type(value) is int for value in fields)
        assert fields == (9, 8, 7)


class TestDse:
    def test_exact_expected_counts(self):
        assert dse(ContingencyCounts(900, 800, 720)).n_hat == 1000.0

    def test_floor(self):
        assert dse(ContingencyCounts(5, 3, 2), floor=True).n_hat == 7

    def test_identical_fully_overlapping_lists(self):
        for n in (1, 7, 1000):
            assert dse(ContingencyCounts(n, n, n)).n_hat == n
            assert dse(ContingencyCounts(n, n, n), floor=True).n_hat == n

    def test_zero_matches(self):
        with pytest.raises(ZeroMatches):
            dse(ContingencyCounts(10, 10, 0))

    def test_scale_equivariance(self):
        # the ratio estimator is homogeneous of degree 1: scaling every
        # count by k scales the estimate by k, leaving the implied
        # capture rates unchanged
        rng = np.random.default_rng(7)
        for _ in range(200):
            n11 = int(rng.integers(1, 50))
            n1 = n11 + int(rng.integers(0, 50))
            n2 = n11 + int(rng.integers(0, 50))
            base = dse(ContingencyCounts(n1, n2, n11)).n_hat
            for k in (2, 3, 17):
                scaled = dse(ContingencyCounts(k * n1, k * n2, k * n11)).n_hat
                assert scaled == pytest.approx(k * base, rel=1e-12)


class TestNaiveCorrected:
    def test_correction_restores_dse(self):
        assert naive_corrected(ContingencyCounts(900, 800, 710), 10.0).n_hat == 1000.0

    def test_zero_correction_is_uncorrected_dse(self):
        counts = ContingencyCounts(900, 800, 720)
        assert naive_corrected(counts, 0.0).n_hat == dse(counts).n_hat

    def test_matches_direct_formula(self):
        # independent direct evaluation of the ratio with real-valued nu
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n11 = int(rng.integers(1, 500))
            n1 = n11 + int(rng.integers(0, 500))
            n2 = n11 + int(rng.integers(0, 500))
            nu = float(rng.uniform(-n11 + 0.5, 50.0))
            expected = n1 * n2 / (n11 + nu)
            got = naive_corrected(ContingencyCounts(n1, n2, n11), nu).n_hat
            assert got == pytest.approx(expected, rel=1e-14)

    def test_equals_dse_on_restored_counts(self):
        # when n11_star + nu recovers the true n11 the two paths coincide
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n11_true = int(rng.integers(1, 400))
            n1 = n11_true + int(rng.integers(0, 400))
            n2 = n11_true + int(rng.integers(0, 400))
            n11_star = int(rng.integers(1, n11_true + 1))
            nu = float(n11_true - n11_star)
            corrected = naive_corrected(ContingencyCounts(n1, n2, n11_star), nu).n_hat
            reference = dse(ContingencyCounts(n1, n2, n11_true)).n_hat
            assert corrected == reference

    def test_strictly_decreasing_in_nu(self):
        counts = ContingencyCounts(900, 800, 700)
        values = [naive_corrected(counts, nu).n_hat for nu in (-5.0, 0.0, 3.5, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_never_floored(self):
        got = naive_corrected(ContingencyCounts(5, 3, 2), 0.0).n_hat
        assert got == 7.5

    def test_overcorrection_rejected(self):
        with pytest.raises(NonPositiveCorrectedMatches):
            naive_corrected(ContingencyCounts(900, 800, 10), -10.0)
        with pytest.raises(NonPositiveCorrectedMatches):
            naive_corrected(ContingencyCounts(900, 800, 10), -15.0)

    def test_nan_correction_rejected(self):
        with pytest.raises(NonPositiveCorrectedMatches):
            naive_corrected(ContingencyCounts(900, 800, 10), math.nan)

    def test_infinite_correction_rejected(self):
        with pytest.raises(ValueError, match="nu_hat must be finite, got inf"):
            naive_corrected(ContingencyCounts(900, 800, 10), math.inf)
        with pytest.raises(NonPositiveCorrectedMatches):
            naive_corrected(ContingencyCounts(900, 800, 10), -math.inf)


class TestDingFienberg:
    def test_no_error_reduces_to_dse(self):
        counts = ContingencyCounts(900, 800, 720)
        assert ding_fienberg(counts, 1.0, 0.0).n_hat == pytest.approx(
            dse(counts).n_hat, abs=1e-12
        )

    def test_closed_form_confirmed_by_fixed_point(self):
        counts = ContingencyCounts(900, 800, 702)
        got = ding_fienberg(counts, 0.95, 0.02).n_hat
        assert got == pytest.approx(df_fixed_point(counts, 0.95, 0.02), rel=1e-9)
        # closed form evaluates to (alpha-beta) n1 n2 / (n11 - beta n1)
        assert got == pytest.approx(0.93 * 900 * 800 / (702 - 0.02 * 900), rel=1e-14)

    def test_beta_zero_specialization(self):
        counts = ContingencyCounts(900, 800, 684)
        for alpha in (0.9, 0.95, 1.0):
            got = ding_fienberg(counts, alpha, 0.0).n_hat
            assert got == pytest.approx(alpha * dse(counts).n_hat, rel=1e-14)

    def test_random_grid_against_fixed_point(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p1 = rng.uniform(0.5, 0.95)
            p2 = rng.uniform(0.5, 0.95)
            N = int(rng.integers(500, 5000))
            alpha = rng.uniform(0.85, 1.0)
            beta = rng.uniform(0.0, 0.1)
            n1 = round(N * p1)
            n2 = round(N * p2)
            n11_star = round(alpha * N * p1 * p2 + beta * N * p1 * (1 - p2))
            counts = ContingencyCounts(n1, n2, min(n11_star, n1, n2))
            got = ding_fienberg(counts, alpha, beta).n_hat
            assert got == pytest.approx(
                df_fixed_point(counts, alpha, beta), rel=1e-9
            )

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            ding_fienberg(ContingencyCounts(900, 800, 18), 0.95, 0.02)
        with pytest.raises(DegenerateDenominator):
            ding_fienberg(ContingencyCounts(900, 800, 10), 0.95, 0.02)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 0.0), (1.1, 0.0), (0.9, -0.1), (0.9, 1.0), (0.5, 0.5), (0.4, 0.6)],
    )
    def test_invalid_rates_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            ding_fienberg(ContingencyCounts(900, 800, 702), alpha, beta)
