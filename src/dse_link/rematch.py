"""Design-based estimation of the net linkage-error correction.

A rematch study re-links a simple random sample (without replacement) of
source-1 records with high-quality methods and codes each sampled record
+1 (missed link), -1 (spurious link) or 0 (linkage was correct). The
expansion estimator of the coded total estimates the net correction to
the observed match count, and its design variance carries the usual
finite population correction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .estimators import CaptureProbabilities, ErrorRates, EstimationError, integer_count
from .variance import naive_variance_approx


class SampleTooSmall(EstimationError):
    """Fewer than two rematch outcomes: the sample variance is undefined."""


class SampleExceedsFrame(EstimationError):
    """More rematch outcomes than source-1 records."""


class Infeasible(EstimationError):
    """No rematch sample size can reach the requested precision."""

    def __init__(self, message: str, min_achievable_rse: float | None = None):
        super().__init__(message)
        self.min_achievable_rse = min_achievable_rse


class RematchOutcome(IntEnum):
    """Clerical code for one rematch-sampled source-1 record."""

    FALSE_NEGATIVE = 1
    FALSE_POSITIVE = -1
    CORRECT = 0


@dataclass(frozen=True, eq=False)
class RematchSample:
    """Outcome codes of a without-replacement rematch sample from source 1."""

    outcomes: np.ndarray
    n1plus: int

    def __post_init__(self):
        codes = np.asarray(self.outcomes)
        if codes.ndim != 1:
            raise ValueError("outcomes must be one-dimensional")
        if codes.size:
            if not np.issubdtype(codes.dtype, np.integer):
                as_int = codes.astype(np.int64)
                if not (codes == as_int).all():
                    raise ValueError("outcome codes must be one of {+1, -1, 0}")
                codes = as_int
            if codes.min() < -1 or codes.max() > 1:
                raise ValueError("outcome codes must be one of {+1, -1, 0}")
        object.__setattr__(self, "outcomes", codes.astype(np.int8))
        object.__setattr__(self, "n1plus", integer_count("n1plus", self.n1plus))
        if self.n1plus < 1:
            raise ValueError(f"n1plus must be >= 1, got {self.n1plus}")
        if self.n_r < 2:
            raise SampleTooSmall(f"rematch sample has {self.n_r} records, need >= 2")
        if self.n_r > self.n1plus:
            raise SampleExceedsFrame(
                f"rematch sample of {self.n_r} exceeds the source-1 frame "
                f"of {self.n1plus}"
            )

    @property
    def n_r(self) -> int:
        return self.outcomes.size

    @property
    def f(self) -> float:
        """Sampling fraction n_r / n1plus."""
        return self.n_r / self.n1plus

    @property
    def y_bar(self) -> float:
        return int(self.outcomes.sum()) / self.n_r

    @property
    def s2_y(self) -> float:
        """Sample variance of the codes, divisor n_r - 1, from exact integer sums."""
        total = int(self.outcomes.sum())
        return code_variance(total, int(np.count_nonzero(self.outcomes)), self.n_r)


@dataclass(frozen=True)
class NuEstimate:
    """Estimated net correction to the match count and its variance."""

    nu_hat: float
    sigma2_eps: float

    def __post_init__(self):
        if not math.isfinite(self.nu_hat):
            raise ValueError(f"nu_hat must be finite, got {self.nu_hat}")
        if not 0 <= self.sigma2_eps < math.inf:
            raise ValueError(f"sigma2_eps must be finite and >= 0, got {self.sigma2_eps}")


def expansion_total(frame_size, sample_size, total):
    """Expansion estimate of a frame total, on Python numbers or numpy arrays."""
    return frame_size / sample_size * total


def code_variance(total, nonzero, sample_size):
    """Sample variance of {+1, -1, 0} codes from their sum and nonzero count."""
    return (nonzero - total * total / sample_size) / (sample_size - 1)


def srswor_total_variance(frame_size, sample_size, unit_variance):
    """Variance of the expansion estimator of a population total under
    simple random sampling without replacement:

        frame_size**2 * (1 - f) / sample_size * unit_variance

    with f = sample_size / frame_size. Exact when ``unit_variance`` is the
    population unit variance (divisor frame_size - 1); plugging in the
    sample variance gives the standard unbiased estimate. The arguments
    may be Python numbers or numpy arrays.
    """
    f = sample_size / frame_size
    return frame_size**2 * (1.0 - f) / sample_size * unit_variance


def ht_nu(sample: RematchSample) -> NuEstimate:
    """Expansion (inverse inclusion probability) estimate of the net
    number of linkage errors over the source-1 frame.

    Returns nu_hat = (n1plus / n_r) * sum(codes) together with its
    estimated variance n1plus**2 * (1 - f) / n_r * s2_y. A census rematch
    (n_r = n1plus) has zero variance exactly.
    """
    nu_hat = expansion_total(sample.n1plus, sample.n_r, int(sample.outcomes.sum()))
    sigma2 = float(srswor_total_variance(sample.n1plus, sample.n_r, sample.s2_y))
    return NuEstimate(nu_hat, sigma2)


def plan_sample_size(
    n1plus: int,
    anticipated: ErrorRates,
    capture: CaptureProbabilities,
    n_guess: float,
    target_rse: float,
) -> int:
    """Smallest rematch sample size whose anticipated corrected-estimator
    RSE does not exceed ``target_rse``.

    Anticipated error totals over the source-1 frame are
    pi_bar = fnr * p1plus * pplus1 * n_guess missed links (+1 codes) and
    eta_bar = fpr * p1plus * (1 - pplus1) * n_guess spurious links
    (-1 codes), giving anticipated code variance

        S2 = (pi_bar + eta_bar) / n1plus - ((pi_bar - eta_bar) / n1plus)**2.

    The anticipated variance never rises as n_r grows, so bisection over
    the integer sizes 2..n1plus finds the answer in about log2(n1plus)
    exact tests, with no analytic inversion and so no edge cases as the
    sampling fraction approaches one.

    Raises Infeasible when even a census rematch misses the target; the
    exception carries the minimum achievable RSE.
    """
    n1plus = integer_count("n1plus", n1plus)
    if n1plus < 2:
        raise ValueError(f"n1plus must be >= 2, got {n1plus}")
    if not 0 < n_guess < math.inf:
        raise ValueError(f"n_guess must be finite and positive, got {n_guess}")
    if not 0 < target_rse < math.inf:
        raise ValueError(f"target_rse must be finite and positive, got {target_rse}")

    pi_bar = anticipated.fnr * capture.p11 * n_guess
    eta_bar = anticipated.fpr * capture.p1plus * capture.pplus0 * n_guess
    if pi_bar + eta_bar > n1plus:
        raise ValueError(
            f"anticipated error totals ({pi_bar + eta_bar:.1f}) exceed the "
            f"source-1 frame size {n1plus}"
        )
    s2 = (pi_bar + eta_bar) / n1plus - ((pi_bar - eta_bar) / n1plus) ** 2

    target_variance = (target_rse * n_guess) ** 2
    floor_variance = naive_variance_approx(n_guess, capture, 0.0)
    if floor_variance > target_variance:
        min_rse = floor_variance**0.5 / n_guess
        raise Infeasible(
            f"target RSE {target_rse} is below the no-linkage-error floor "
            f"{min_rse:.6g} (reached only at a census rematch)",
            min_achievable_rse=min_rse,
        )

    def feasible(n_r: int) -> bool:
        # not srswor_total_variance: it is algebraically equal but rounds
        # differently, moving answers by one on a size's exact boundary
        sigma2 = n1plus**2 * s2 * (1.0 / n_r - 1.0 / n1plus)
        return naive_variance_approx(n_guess, capture, sigma2) <= target_variance

    # the census n_r = n1plus (sigma2 = 0) passes whenever the floor check did
    return bisect.bisect_left(range(2, n1plus), True, key=feasible) + 2
