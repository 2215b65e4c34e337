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

import numpy as np

from .estimators import CaptureProbabilities, ErrorRates, EstimationError, _Value, integer_count
from .variance import naive_variance_approx

__all__ = [
    "SampleTooSmall", "SampleExceedsFrame", "Infeasible", "RematchSample", "NuEstimate",
    "srswor_total_variance", "ht_nu", "plan_sample_size",
]


class SampleTooSmall(EstimationError):
    """Fewer than two rematch outcomes: the sample variance is undefined."""


class SampleExceedsFrame(EstimationError):
    """More rematch outcomes than source-1 records."""


class Infeasible(EstimationError):
    """No rematch sample size can reach the requested precision."""

    def __init__(self, message: str, min_achievable_rse: float):
        super().__init__(message)
        self.min_achievable_rse = min_achievable_rse

    def __reduce__(self):
        # BaseException's would rebuild from args alone, without the floor
        return type(self), (str(self), self.min_achievable_rse)


class RematchSample(_Value):
    """Outcome codes of a without-replacement rematch sample from source 1.
    Two samples are equal only if they are the same object."""

    __slots__ = ("outcomes", "n1plus")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, outcomes: np.ndarray, n1plus: int):
        self._assign(outcomes, n1plus)
        codes = np.asarray(self.outcomes)
        if codes.ndim != 1:
            raise ValueError("outcomes must be one-dimensional")
        # bool, integer and float only, compared before any cast: casting NaN,
        # inf, 1e300 or a complex code to int warns, and an object one may raise
        if codes.dtype.kind not in "biuf" or not (
            (codes == 0) | (codes == 1) | (codes == -1)
        ).all():
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


class NuEstimate(_Value):
    """Estimated net correction to the match count and its variance."""

    __slots__ = ("nu_hat", "sigma2_eps")

    def __init__(self, nu_hat: float, sigma2_eps: float):
        self._assign(nu_hat, sigma2_eps)
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
    estimated variance n1plus**2 * (1 - f) / n_r * s2_y, where s2_y is the
    sample variance of the codes (divisor n_r - 1) from their exact integer
    sums. A census rematch (n_r = n1plus) has zero variance exactly.
    """
    codes, n1plus, n_r = sample.outcomes, sample.n1plus, sample.n_r
    total = int(codes.sum())
    s2_y = code_variance(total, int(np.count_nonzero(codes)), n_r)
    sigma2 = float(srswor_total_variance(n1plus, n_r, s2_y))
    return NuEstimate(expansion_total(n1plus, n_r, total), sigma2)


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
    exception carries the minimum achievable RSE. Raises ValueError when
    the target or the floor variance overflows a float.
    """
    n1plus = integer_count("n1plus", n1plus)
    if n1plus < 2:
        raise ValueError(f"n1plus must be >= 2, got {n1plus}")
    if not 0 < n_guess < math.inf:
        raise ValueError(f"n_guess must be finite and positive, got {n_guess}")
    if not 0 < target_rse < math.inf:
        raise ValueError(f"target_rse must be finite and positive, got {target_rse}")

    pi_bar = anticipated.fnr * capture.p11 * n_guess
    eta_bar = anticipated.fpr * capture.p1plus * (1.0 - capture.pplus1) * n_guess
    if pi_bar + eta_bar > n1plus:
        raise ValueError(
            f"anticipated error totals ({pi_bar + eta_bar:.6g}) exceed the "
            f"source-1 frame size {n1plus}"
        )
    s2 = (pi_bar + eta_bar) / n1plus - ((pi_bar - eta_bar) / n1plus) ** 2

    try:
        target_variance = (target_rse * n_guess) ** 2
    except OverflowError:  # float ** raises where float * returns inf
        target_variance = math.inf
    floor_variance = naive_variance_approx(n_guess, capture, 0.0)
    if not (math.isfinite(target_variance) and math.isfinite(floor_variance)):
        raise ValueError(
            f"variances overflow at n_guess={n_guess}: target {target_variance}, "
            f"no-linkage-error floor {floor_variance}"
        )
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
