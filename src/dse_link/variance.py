"""Taylor-linearization variance approximations for dual system estimators.

The dual system estimate is a smooth function of the three observed
counts; expanding it to first order around the expected counts and
plugging in the multinomial moments of an independent two-source capture
gives the closed-form approximations below. The corrected estimator picks
up one extra additive term from the rematch-study noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .estimators import CaptureProbabilities, ContingencyCounts, EstimationError, _finite, _Value

if TYPE_CHECKING:
    from .rematch import NuEstimate

__all__ = [
    "EstimateBelowMargin", "MultinomialMoments", "multinomial_moments",
    "naive_variance_approx", "naive_variance_estimate",
]


class EstimateBelowMargin(EstimationError):
    """Population estimate does not exceed an observed list size."""


class MultinomialMoments(_Value):
    """Second moments of the observed counts for an independent two-source
    capture of N individuals (multinomial over the four capture cells)."""

    __slots__ = (
        "var_n1plus", "var_nplus1", "var_n11",
        "cov_n1plus_nplus1", "cov_n1plus_n11", "cov_nplus1_n11",
    )


def multinomial_moments(N: float, capture: CaptureProbabilities) -> MultinomialMoments:
    """Variances and covariances of (n1plus, nplus1, n11).

    The margins are uncorrelated, Cov(n1plus, n11) = N*p11*(1 - p1plus)
    and Cov(nplus1, n11) = N*p11*(1 - pplus1); the test suite checks all
    six moments against simulation.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    p1, p2, p11 = capture.p1plus, capture.pplus1, capture.p11
    var_n11 = N * p11 * (1.0 - p11)
    return MultinomialMoments(
        var_n1plus=N * p1 * (1.0 - p1),
        var_nplus1=N * p2 * (1.0 - p2),
        var_n11=var_n11,
        cov_n1plus_nplus1=0.0,
        cov_n1plus_n11=N * p11 * (1.0 - p1),
        cov_nplus1_n11=N * p11 * (1.0 - p2),
    )


def linearized_variance(N, p1plus, pplus1, sigma2_eps):
    """``naive_variance_approx`` unchecked, on Python numbers or numpy arrays."""
    p11 = p1plus * pplus1
    return N * ((1.0 - p1plus) * (1.0 - pplus1)) / p11 + sigma2_eps / p11**2


def naive_variance_approx(
    N: float, capture: CaptureProbabilities, sigma2_eps: float
) -> float:
    """Linearized variance of the corrected estimator.

    Equals the dual system estimator's, N*(1 - p1plus)*(1 - pplus1)/p11 (its
    value at sigma2_eps = 0), plus sigma2_eps / p11**2, where p11 =
    p1plus * pplus1 and sigma2_eps is the variance of the rematch
    correction. Raises ValueError when p11**2 underflows to 0. A variance
    too large for a float is returned as inf, which the planner's search
    reads as "not feasible".
    """
    if not sigma2_eps >= 0:
        raise ValueError(f"sigma2_eps must be >= 0, got {sigma2_eps}")
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    if not capture.p11**2 > 0:
        raise ValueError(
            f"(p1plus * pplus1)**2 underflows to 0 at p1plus={capture.p1plus}, "
            f"pplus1={capture.pplus1}"
        )
    return linearized_variance(N, capture.p1plus, capture.pplus1, sigma2_eps)


def naive_variance_estimate(
    n_tilde: float, counts_star: ContingencyCounts, nu: "NuEstimate"
) -> float:
    """Plug-in variance estimate for the corrected estimator:
    ``naive_variance_approx`` at the plug-in point N = n_tilde,
    p1plus = n1plus / n_tilde, pplus1 = nplus1 / n_tilde.

    The estimate must exceed both list sizes so the plug-in probabilities
    stay inside (0, 1); boundary cases raise rather than clamp, since they
    signal a logically inconsistent input. A variance too large for a
    float raises OverflowError.
    """
    if not (n_tilde > counts_star.n1plus and n_tilde > counts_star.nplus1):
        raise EstimateBelowMargin(
            f"estimate {n_tilde} does not exceed both list sizes "
            f"({counts_star.n1plus}, {counts_star.nplus1})"
        )
    capture = CaptureProbabilities(
        counts_star.n1plus / n_tilde, counts_star.nplus1 / n_tilde
    )
    variance = naive_variance_approx(n_tilde, capture, nu.sigma2_eps)
    return _finite("naive_variance_estimate", variance)
