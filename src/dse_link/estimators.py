"""Two-list capture-recapture point estimators of population size.

Covers the classical dual system estimator and two corrections for
imperfect record linkage: the Ding & Fienberg (1994) estimator for known
error rates, and a plug-in correction of the observed match count by an
externally estimated net error total.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class EstimationError(ValueError):
    """Base class for estimator precondition violations."""


class InvalidCounts(EstimationError):
    """Contingency counts violate their consistency constraints."""


class ZeroMatches(EstimationError):
    """No linked records: the dual system estimator is undefined."""


class NonPositiveCorrectedMatches(EstimationError):
    """Correction drives the matched-count denominator to zero or below."""


class DegenerateDenominator(EstimationError):
    """Error rates are inconsistent with the observed match count."""


def integer_count(name: str, value) -> int:
    """``value`` as a Python int; bools and non-integers raise InvalidCounts."""
    if type(value) is not int:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise InvalidCounts(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return value


@dataclass(frozen=True)
class ContingencyCounts:
    """Observed two-list counts: the two list sizes and the linked count.

    When the linkage process is error-afflicted, ``n11`` holds the observed
    (possibly wrong) match count; the margins are unaffected by linkage
    errors and always refer to list sizes.
    """

    n1plus: int
    nplus1: int
    n11: int

    def __post_init__(self):
        for name in ("n1plus", "nplus1", "n11"):
            value = integer_count(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 0:
                raise InvalidCounts(f"{name} must be >= 0, got {value}")
        if self.n11 > self.n1plus or self.n11 > self.nplus1:
            raise InvalidCounts(
                f"n11={self.n11} exceeds a margin "
                f"(n1plus={self.n1plus}, nplus1={self.nplus1})"
            )

    @property
    def n10(self) -> int:
        """Records in source 1 only."""
        return self.n1plus - self.n11

    @property
    def n01(self) -> int:
        """Records in source 2 only."""
        return self.nplus1 - self.n11

    @property
    def n(self) -> int:
        """Distinct records observed in either source."""
        return self.n1plus + self.nplus1 - self.n11


@dataclass(frozen=True)
class CaptureProbabilities:
    """Per-source capture probabilities, both strictly inside (0, 1)."""

    p1plus: float
    pplus1: float

    def __post_init__(self):
        for name in ("p1plus", "pplus1"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")

    @property
    def p0plus(self) -> float:
        return 1.0 - self.p1plus

    @property
    def pplus0(self) -> float:
        return 1.0 - self.pplus1

    @property
    def p11(self) -> float:
        """Joint capture probability under independent sources."""
        return self.p1plus * self.pplus1


@dataclass(frozen=True)
class ErrorRates:
    """Linkage error rates at the record level.

    ``fnr`` is the probability that a record with a true match is left
    unlinked; ``fpr`` is the probability that a source-1-only record is
    incorrectly linked.
    """

    fnr: float
    fpr: float

    def __post_init__(self):
        for name in ("fnr", "fpr"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def correct_link_rate(self) -> float:
        """Probability a true match is correctly linked (1 - fnr)."""
        return 1.0 - self.fnr


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate of population size, optionally with its variance."""

    n_hat: float
    variance: float | None = None

    @property
    def rse(self) -> float | None:
        """Relative standard error, present exactly when variance is."""
        if self.variance is None:
            return None
        return math.sqrt(self.variance) / self.n_hat


def dual_system_ratio(n1plus, nplus1, matches):
    """n1plus * nplus1 / matches, on Python numbers or numpy arrays."""
    return n1plus * nplus1 / matches


def dse(counts: ContingencyCounts, floor: bool = False) -> EstimateReport:
    """Dual system (two-list) estimate n1plus * nplus1 / n11.

    With ``floor`` the greatest-integer value is returned; the plain ratio
    is the default since everything downstream uses the ratio form.

    Raises ZeroMatches when no records are linked.
    """
    if counts.n11 < 1:
        raise ZeroMatches("n11 = 0: the two lists share no linked records")
    estimate = dual_system_ratio(counts.n1plus, counts.nplus1, counts.n11)
    if floor:
        estimate = float(math.floor(estimate))
    return EstimateReport(estimate)


def naive_corrected(counts_star: ContingencyCounts, nu_hat: float) -> EstimateReport:
    """Linkage-error corrected estimate n1plus * nplus1 / (n11 + nu_hat).

    ``counts_star.n11`` is the observed match count from an error-afflicted
    linkage and ``nu_hat`` the estimated net number of missed links
    (false negatives minus false positives), typically from a rematch
    study. The result is never floored.
    """
    denominator = counts_star.n11 + nu_hat
    if denominator == math.inf:
        raise ValueError(f"nu_hat must be finite, got {nu_hat}")
    if not denominator > 0:
        raise NonPositiveCorrectedMatches(
            f"corrected match count n11 + nu_hat = {denominator} is not positive"
        )
    estimate = dual_system_ratio(counts_star.n1plus, counts_star.nplus1, denominator)
    return EstimateReport(estimate)


def ding_fienberg(
    counts_star: ContingencyCounts, alpha: float, beta: float
) -> EstimateReport:
    """Ding & Fienberg (1994) style estimate for known linkage error rates.

    ``alpha`` is the probability a true match is correctly linked and
    ``beta`` the probability a source-1-only record is incorrectly linked.
    The estimate is the self-consistent solution of

        N = n / (p1 + p2 - (alpha - beta) * p1 * p2 - beta * p1)

    with p1 = n1plus / N, p2 = nplus1 / N and n the distinct-record total,
    which has the closed form

        N = (alpha - beta) * n1plus * nplus1 / (n11 - beta * n1plus).

    Reduces exactly to the dual system estimate at alpha = 1, beta = 0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if alpha <= beta:
        raise ValueError(
            f"correct-link rate alpha={alpha} must exceed false-link rate beta={beta}"
        )
    denominator = counts_star.n11 - beta * counts_star.n1plus
    if not denominator > 0:
        raise DegenerateDenominator(
            f"n11={counts_star.n11} does not exceed beta * n1plus = "
            f"{beta * counts_star.n1plus}; error rates are inconsistent "
            "with the observed match count"
        )
    estimate = (alpha - beta) * counts_star.n1plus * counts_star.nplus1 / denominator
    return EstimateReport(estimate)
