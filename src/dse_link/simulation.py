"""Monte Carlo harness for the linkage-error corrected estimators.

Each iteration captures a closed population of N individuals
independently by two sources, injects synthetic linkage errors at fixed
record-level rates, draws a without-replacement rematch sample from
source 1, and computes three estimators plus the plug-in variance of the
corrected one.

The estimators read only a few counts per iteration, so ``run_scenario``
draws those counts from their exact distributions, for a whole chunk of
iterations at a time, and never builds the records:

- the capture cells (n11, n10, n01, n00) are Multinomial(N, cell probs);
- the missed links pi ~ Binomial(n11, fnr) and the spurious links
  eta ~ Binomial(n10, fpr);
- the rematch sample's +1 and -1 tallies are a multivariate
  hypergeometric draw of n_r records from a frame of pi, eta and
  n1plus - pi - eta records, drawn as two chained hypergeometric draws.

The estimates are array expressions with the scalar functions' operation
order, so the same counts give bit-identical estimates.

Random streams are keyed by chunk: chunk k, iterations
[k * CHUNK, (k + 1) * CHUNK), draws from child k of the seed's
SeedSequence, so results are a pure function of the config. ``threads``
is accepted for compatibility and changes neither the output nor the
speed.

``generate_population``, ``inject_linkage_errors`` and ``draw_rematch``
simulate one iteration record by record. ``run_scenario`` does not call
them: they are the reference oracle the count-level draws are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import ContingencyCounts, ErrorRates, integer_count
from .rematch import RematchSample, SampleTooSmall

# Not called here: perfbench's traced run swaps wrappers for these names
# into this module's namespace, so they must stay importable from it.
from .estimators import dse, naive_corrected  # noqa: F401
from .rematch import ht_nu  # noqa: F401
from .variance import naive_variance_estimate  # noqa: F401

# Iterations per random stream. It fixes the stream layout, so changing
# it changes every result.
CHUNK = 2**14


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulation scenario."""

    p1plus: float
    pplus1: float
    fnr: float
    fpr: float
    f: float
    seed: int
    N: int = 1000
    iterations: int = 10000

    def __post_init__(self):
        for name in ("p1plus", "pplus1", "f"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        ErrorRates(self.fnr, self.fpr)  # raises on rates outside [0, 1]
        for name in ("seed", "N", "iterations"):
            object.__setattr__(self, name, integer_count(name, getattr(self, name)))
        # numpy's hypergeometric sampler, which draws the rematch tallies,
        # takes frames of fewer than 10**9 records.
        if not 0 <= self.N < 10**9:
            raise ValueError(f"N must lie in [0, 10**9), got {self.N}")
        if not self.iterations >= 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class TrueLinkageState:
    """Ground truth for one iteration: error-free counts, injected error
    totals, the error-afflicted counts, and per-record flags.

    ``source1_codes`` has one entry per source-1 record (matched records
    first): +1 for an injected false negative, -1 for an injected false
    positive, 0 otherwise.
    """

    counts_true: ContingencyCounts
    source1_codes: np.ndarray
    pi: int = 0
    eta: int = 0
    counts_star: ContingencyCounts | None = None

    def __post_init__(self):
        if self.counts_star is None:
            object.__setattr__(self, "counts_star", self.counts_true)
        if not 0 <= self.pi <= self.counts_true.n11:
            raise ValueError(f"pi={self.pi} outside [0, n11={self.counts_true.n11}]")
        if not 0 <= self.eta <= self.counts_true.n10:
            raise ValueError(f"eta={self.eta} outside [0, n10={self.counts_true.n10}]")
        if (
            self.counts_star.n1plus != self.counts_true.n1plus
            or self.counts_star.nplus1 != self.counts_true.nplus1
        ):
            raise ValueError("linkage errors must not alter the margins")
        if self.counts_star.n11 != self.counts_true.n11 - self.pi + self.eta:
            raise ValueError("counts_star.n11 inconsistent with pi and eta")
        if len(self.source1_codes) != self.counts_true.n1plus:
            raise ValueError("need one code per source-1 record")


@dataclass(frozen=True)
class EstimatorStats:
    """Aggregates for one estimator over the completed iterations."""

    mean: float | None
    erb_pct: float | None
    erse_pct: float | None


@dataclass(frozen=True)
class SimulationSummary:
    """One scenario's aggregated results.

    ``arse_pct`` averages the per-iteration relative standard errors of
    the corrected estimator; ``arse_root_mean_var_pct`` is the alternative
    aggregation (root of the mean variance estimate), reported for
    transparency.
    """

    config: ScenarioConfig
    dse: EstimatorStats
    uncorrected: EstimatorStats
    corrected: EstimatorStats
    arse_pct: float | None
    arse_root_mean_var_pct: float | None
    iterations_completed: int
    exclusions: int


def generate_population(config: ScenarioConfig, rng: np.random.Generator) -> TrueLinkageState:
    """Capture each of N individuals independently by each source and
    tally the error-free counts. Individuals captured by neither source
    contribute nothing observable."""
    in1 = rng.random(config.N) < config.p1plus
    in2 = rng.random(config.N) < config.pplus1
    n11 = int(np.count_nonzero(in1 & in2))
    n1plus = int(np.count_nonzero(in1))
    nplus1 = int(np.count_nonzero(in2))
    counts = ContingencyCounts(n1plus, nplus1, n11)
    return TrueLinkageState(counts, np.zeros(n1plus, np.int8))


def inject_linkage_errors(
    state: TrueLinkageState, fnr: float, fpr: float, rng: np.random.Generator
) -> TrueLinkageState:
    """Break each true link independently with probability fnr and link
    each source-1-only record independently with probability fpr.

    Works at the record level: a false positive increments the observed
    match count without consuming a source-2-only record. Margins are
    unchanged. Per-record flags are retained for the rematch sampler.
    """
    counts = state.counts_true
    false_neg = rng.random(counts.n11) < fnr
    false_pos = rng.random(counts.n10) < fpr
    codes = np.zeros(counts.n1plus, np.int8)
    codes[: counts.n11][false_neg] = 1
    codes[counts.n11 :][false_pos] = -1
    pi = int(np.count_nonzero(false_neg))
    eta = int(np.count_nonzero(false_pos))
    counts_star = ContingencyCounts(
        counts.n1plus, counts.nplus1, counts.n11 - pi + eta
    )
    return TrueLinkageState(counts, codes, pi, eta, counts_star)


def draw_rematch(
    state: TrueLinkageState, f: float, rng: np.random.Generator
) -> RematchSample:
    """Draw round(f * n1plus) source-1 records without replacement and
    read off their error codes (error detection is perfect).

    Rounding is half-up with a minimum sample of 2.
    """
    n1plus = state.counts_true.n1plus
    if n1plus < 2:
        raise SampleTooSmall(f"source-1 frame has {n1plus} records, need >= 2")
    n_r = max(2, math.floor(f * n1plus + 0.5))
    indices = rng.choice(n1plus, size=n_r, replace=False)
    return RematchSample(state.source1_codes[indices], n1plus=n1plus)


def _draw_counts(config: ScenarioConfig, rng: np.random.Generator, size: int) -> dict:
    """Draw ``size`` iterations' counts, as int64 arrays, from the law of
    ``generate_population``, ``inject_linkage_errors`` and ``draw_rematch``
    composed: the keyword arguments of ``_estimate_counts``."""
    p1, p2 = config.p1plus, config.pplus1
    cells = rng.multinomial(
        config.N, [p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)], size=size
    )
    n11, n10, n01 = cells[:, 0], cells[:, 1], cells[:, 2]
    n1plus = n11 + n10
    pi = rng.binomial(n11, config.fnr)
    eta = rng.binomial(n10, config.fpr)
    # draw_rematch's sample size. A frame of fewer than 2 records excludes
    # the iteration; capping n_r at the frame keeps its draw defined.
    n_r = np.maximum(2, np.floor(config.f * n1plus + 0.5).astype(np.int64))
    n_r = np.minimum(n_r, n1plus)
    plus = rng.hypergeometric(pi, n1plus - pi, n_r)
    minus = rng.hypergeometric(eta, n1plus - pi - eta, n_r - plus)
    return dict(
        n1plus=n1plus, nplus1=n11 + n01, n11=n11, pi=pi, eta=eta,
        n_r=n_r, plus=plus, minus=minus,
    )


def _estimate_counts(
    n1plus, nplus1, n11, pi, eta, n_r, plus, minus
) -> tuple[np.ndarray, dict]:
    """Estimates over arrays of per-iteration counts: the true table, the
    injected errors, the rematch sample size and its +1 and -1 tallies.

    Each value repeats the operations of ``dse``, ``ht_nu``,
    ``naive_corrected`` or ``naive_variance_estimate`` in their order, so
    the same counts give bit-identical values while products of two counts
    stay below 2**53. Returns ``(ok, estimates)``: ``ok`` marks the
    iterations where neither those calls nor ``inject_linkage_errors`` and
    ``draw_rematch`` raise EstimationError; ``estimates`` maps ``dse``,
    ``uncorrected``, ``nu_hat``, ``sigma2_eps``, ``corrected`` and
    ``variance`` to arrays whose entries are meaningful only where ``ok``.
    """
    n11_star = n11 - pi + eta
    total = plus - minus
    margin_product = n1plus * nplus1
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_hat = n1plus / n_r * total
        s2_y = (plus + minus - total * total / n_r) / (n_r - 1)
        sigma2 = n1plus**2 * (1.0 - n_r / n1plus) / n_r * s2_y
        corrected_matches = n11_star + nu_hat
        corrected = margin_product / corrected_matches
        p1_hat = n1plus / corrected
        p2_hat = nplus1 / corrected
        variance = corrected * ((1.0 - p1_hat) * (1.0 - p2_hat)) / (
            p1_hat * p2_hat
        ) + sigma2 / (p1_hat * p2_hat) ** 2
        estimates = dict(
            dse=margin_product / n11,
            uncorrected=margin_product / n11_star,
            nu_hat=nu_hat,
            sigma2_eps=sigma2,
            corrected=corrected,
            variance=variance,
        )
    ok = (
        (n1plus >= 2)
        & (n11 >= 1)
        & (n11_star >= 1)
        & (n11_star <= nplus1)
        & (corrected_matches > 0)
        & (corrected > n1plus)
        & (corrected > nplus1)
    )
    return ok, estimates


def _stats(values: np.ndarray, population: int) -> EstimatorStats:
    if values.size == 0 or population <= 0:
        return EstimatorStats(None, None, None)
    mean = float(values.mean())
    erb = 100.0 * abs(mean - population) / population
    erse = (
        float(100.0 * values.std(ddof=1) / population) if values.size >= 2 else None
    )
    return EstimatorStats(mean, erb, erse)


def run_scenario(config: ScenarioConfig, threads: int = 1) -> SimulationSummary:
    """Run one scenario and aggregate ERB / ERSE / ARSE in percent.

    ERB is 100 * |mean(estimate) - N| / N, ERSE is 100 * sd(estimate) / N
    (divisor R - 1), and ARSE averages 100 * sqrt(variance estimate) / N
    over iterations; all are normalized by the true N. Iterations where
    any estimator's precondition fails are excluded from every aggregate
    and counted.

    Results depend only on the config. ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.
    """
    R = config.iterations
    streams = np.random.SeedSequence(config.seed).spawn(-(-R // CHUNK))
    ok = np.empty(R, dtype=bool)
    results = np.empty((4, R))
    for k, stream in enumerate(streams):
        rows = slice(k * CHUNK, min(R, (k + 1) * CHUNK))
        counts = _draw_counts(config, np.random.default_rng(stream), rows.stop - rows.start)
        ok[rows], estimates = _estimate_counts(**counts)
        results[:, rows] = [
            estimates[name] for name in ("dse", "uncorrected", "corrected", "variance")
        ]

    completed = int(np.count_nonzero(ok))
    est_true, est_uncorrected, est_corrected, variances = results[:, ok]
    if completed and config.N > 0:
        arse = float(100.0 * np.sqrt(variances).mean() / config.N)
        arse_rmv = float(100.0 * math.sqrt(variances.mean()) / config.N)
    else:
        arse = arse_rmv = None
    return SimulationSummary(
        config=config,
        dse=_stats(est_true, config.N),
        uncorrected=_stats(est_uncorrected, config.N),
        corrected=_stats(est_corrected, config.N),
        arse_pct=arse,
        arse_root_mean_var_pct=arse_rmv,
        iterations_completed=completed,
        exclusions=R - completed,
    )
