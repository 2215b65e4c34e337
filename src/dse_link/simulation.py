"""Monte Carlo harness for the linkage-error corrected estimators.

Each iteration generates a closed population captured independently by
two sources, injects synthetic linkage errors at fixed record-level
rates, draws a without-replacement rematch sample from source 1, and
computes three estimators plus the plug-in variance of the corrected
one. Each iteration draws from its own child stream of the seed, keyed
by iteration index, so results are a pure function of the config.

Iterations run serially. They are about a hundred microseconds of small
numpy calls that hold the GIL, so a thread pool made runs slower, not
faster; ``threads`` is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import ContingencyCounts, EstimationError, dse, naive_corrected
from .rematch import RematchSample, SampleTooSmall, ht_nu
from .variance import naive_variance_estimate


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
        for name in ("fnr", "fpr"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")
        if self.iterations < 1:
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
    children = np.random.SeedSequence(config.seed).spawn(R)
    est_true = np.full(R, np.nan)
    est_uncorrected = np.full(R, np.nan)
    est_corrected = np.full(R, np.nan)
    var_corrected = np.full(R, np.nan)
    ok = np.zeros(R, dtype=bool)

    for i in range(R):
        rng = np.random.default_rng(children[i])
        try:
            state = generate_population(config, rng)
            state = inject_linkage_errors(state, config.fnr, config.fpr, rng)
            sample = draw_rematch(state, config.f, rng)
            nu = ht_nu(sample)
            e_true = dse(state.counts_true).n_hat
            e_uncorrected = dse(state.counts_star).n_hat
            e_corrected = naive_corrected(state.counts_star, nu.nu_hat).n_hat
            v_corrected = naive_variance_estimate(e_corrected, state.counts_star, nu)
        except EstimationError:
            continue
        est_true[i] = e_true
        est_uncorrected[i] = e_uncorrected
        est_corrected[i] = e_corrected
        var_corrected[i] = v_corrected
        ok[i] = True

    completed = int(np.count_nonzero(ok))
    variances = var_corrected[ok]
    if completed and config.N > 0:
        arse = float(100.0 * np.sqrt(variances).mean() / config.N)
        arse_rmv = float(100.0 * math.sqrt(variances.mean()) / config.N)
    else:
        arse = arse_rmv = None
    return SimulationSummary(
        config=config,
        dse=_stats(est_true[ok], config.N),
        uncorrected=_stats(est_uncorrected[ok], config.N),
        corrected=_stats(est_corrected[ok], config.N),
        arse_pct=arse,
        arse_root_mean_var_pct=arse_rmv,
        iterations_completed=completed,
        exclusions=R - completed,
    )
