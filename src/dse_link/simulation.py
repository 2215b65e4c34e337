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

The estimates come from the formula functions that the scalar API
calls, so the same counts give bit-identical estimates.

Random streams are keyed by chunk: chunk k, iterations
[k * CHUNK, (k + 1) * CHUNK), draws from child k of the seed's
SeedSequence, so results are a pure function of the config. ``threads``
is accepted for compatibility and changes neither the output nor the
speed.

Runs that share a seed are therefore common random numbers: runs that
agree on (N, p1plus, pplus1) draw the same capture cells, and runs that
also agree on (fnr, fpr) the same linkage errors. ``run_scenario`` keeps
the previous run's two stages, chunk by chunk (about 40 bytes per
iteration), and reuses a stage whose inputs all match, restoring the
generator to its state after that stage. The output is bit-identical to
a fresh draw.

``generate_population``, ``inject_linkage_errors`` and ``draw_rematch``
simulate one iteration record by record. ``run_scenario`` does not call
them: they are the reference oracle the count-level draws are tested
against.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .estimators import ContingencyCounts, ErrorRates, dual_system_ratio, integer_count
from .rematch import RematchSample, SampleTooSmall, code_variance, expansion_total
from .rematch import srswor_total_variance
from .variance import linearized_variance

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
        for name in ("N", "iterations", "seed"):
            object.__setattr__(self, name, self.check_count(name, getattr(self, name)))

    @staticmethod
    def check_count(name: str, value) -> int:
        """``value`` as the int that field ``name`` (N, iterations or seed)
        holds; ValueError if it is not a valid one."""
        value = integer_count(name, value)
        # numpy's hypergeometric sampler, which draws the rematch tallies,
        # takes frames of fewer than 10**9 records.
        if name == "N" and not 0 <= value < 10**9:
            raise ValueError(f"N must lie in [0, 10**9), got {value}")
        if name == "iterations" and not value >= 1:
            raise ValueError(f"iterations must be >= 1, got {value}")
        if name == "seed" and not 0 <= value < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {value}")
        return value


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


def _draw_cells(config: ScenarioConfig, rng: np.random.Generator, size: int) -> tuple:
    """Capture cells (n11, n10, n01) of ``size`` iterations, as int64
    arrays."""
    p1, p2 = config.p1plus, config.pplus1
    cells = rng.multinomial(
        config.N, [p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)], size=size
    )
    # n00 is unobservable, so a contiguous copy holds 24 bytes per iteration.
    return tuple(np.ascontiguousarray(cells[:, :3].T))


def _draw_errors(config: ScenarioConfig, rng: np.random.Generator, cells: tuple) -> tuple:
    """Missed and spurious links (pi, eta) of each iteration, as int64
    arrays."""
    n11, n10, _ = cells
    return rng.binomial(n11, config.fnr), rng.binomial(n10, config.fpr)


def _draw_tallies(
    config: ScenarioConfig, rng: np.random.Generator, cells: tuple, errors: tuple
) -> dict:
    """Draw the rematch tallies given the capture cells and linkage errors,
    and return the keyword arguments of ``_estimate_counts``."""
    n11, n10, n01 = cells
    pi, eta = errors
    n1plus = n11 + n10
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


def _draw_counts(config: ScenarioConfig, rng: np.random.Generator, size: int) -> dict:
    """Draw ``size`` iterations' counts, as int64 arrays, from the law of
    ``generate_population``, ``inject_linkage_errors`` and ``draw_rematch``
    composed: the keyword arguments of ``_estimate_counts``."""
    cells = _draw_cells(config, rng, size)
    return _draw_tallies(config, rng, cells, _draw_errors(config, rng, cells))


def _estimate_counts(
    n1plus, nplus1, n11, pi, eta, n_r, plus, minus
) -> tuple[np.ndarray, dict]:
    """Estimates over arrays of per-iteration counts: the true table, the
    injected errors, the rematch sample size and its +1 and -1 tallies.

    The values come from the scalar path's formula functions, so they are
    bit-identical to it while products of two counts stay below 2**53.
    Returns ``(ok, estimates)``: ``ok`` marks the iterations where neither
    ``dse``, ``ht_nu``, ``naive_corrected``, ``naive_variance_estimate``,
    ``inject_linkage_errors`` nor ``draw_rematch`` raises EstimationError;
    ``estimates`` maps ``dse``, ``uncorrected``, ``nu_hat``, ``sigma2_eps``,
    ``corrected`` and ``variance`` to arrays meaningful only where ``ok``.
    """
    n11_star = n11 - pi + eta
    total = plus - minus
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_hat = expansion_total(n1plus, n_r, total)
        sigma2 = srswor_total_variance(n1plus, n_r, code_variance(total, plus + minus, n_r))
        corrected_matches = n11_star + nu_hat
        corrected = dual_system_ratio(n1plus, nplus1, corrected_matches)
        estimates = dict(
            dse=dual_system_ratio(n1plus, nplus1, n11),
            uncorrected=dual_system_ratio(n1plus, nplus1, n11_star),
            nu_hat=nu_hat,
            sigma2_eps=sigma2,
            corrected=corrected,
            variance=linearized_variance(
                corrected, n1plus / corrected, nplus1 / corrected, sigma2
            ),
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


def _stage(held: tuple | None, key: tuple, rng: np.random.Generator, draw) -> tuple:
    """One chunk's stage as ``(key, draws, state)``: the inputs that
    determine the draws, the draws, and the generator state right after
    them. That is ``held`` with ``rng`` set to its state, if ``held`` was
    drawn under ``key``; otherwise ``draw()``'s arrays, made read-only."""
    if held is not None and held[0] == key:
        rng.bit_generator.state = held[2]
        return held
    draws = draw()
    for array in draws:
        array.flags.writeable = False
    return key, draws, rng.bit_generator.state


# The last scenario's capture and error stages, by chunk index: rows that
# share a seed share those draws (see run_scenario). Each entry is
# immutable and replaced whole under the lock, so concurrent runs stay
# pure functions of their configs.
_held: dict[int, tuple[tuple, tuple]] = {}
_held_lock = threading.Lock()


def run_scenario(config: ScenarioConfig, threads: int = 1) -> SimulationSummary:
    """Run one scenario and aggregate ERB / ERSE / ARSE in percent.

    ERB is 100 * |mean(estimate) - N| / N, ERSE is 100 * sd(estimate) / N
    (divisor R - 1), and ARSE averages 100 * sqrt(variance estimate) / N
    over iterations; all are normalized by the true N. Iterations where
    any estimator's precondition fails are excluded from every aggregate
    and counted.

    Results depend only on the config. ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.

    Runs that share a seed share draws: the capture cells when they agree
    on (N, p1plus, pplus1), the linkage errors when they also agree on
    (fnr, fpr). Each chunk reuses the previous run's stages whose inputs
    all match and restores the generator to its state after them, so the
    output is bit-identical to a fresh draw. Between runs the last run's
    stages are held, about 40 bytes per iteration; chunk k's entry is
    replaced as the run passes chunk k.
    """
    R = config.iterations
    streams = np.random.SeedSequence(config.seed).spawn(-(-R // CHUNK))
    ok = np.empty(R, dtype=bool)
    results = np.empty((4, R))
    for k, stream in enumerate(streams):
        rows = slice(k * CHUNK, min(R, (k + 1) * CHUNK))
        size = rows.stop - rows.start
        rng = np.random.default_rng(stream)
        cells_key = (config.seed, k, size, config.N, config.p1plus, config.pplus1)
        with _held_lock:
            held_cells, held_errors = _held.pop(k, (None, None))
        cells = _stage(held_cells, cells_key, rng, lambda: _draw_cells(config, rng, size))
        errors = _stage(
            held_errors, cells_key + (config.fnr, config.fpr), rng,
            lambda: _draw_errors(config, rng, cells[1]),
        )
        with _held_lock:
            _held[k] = cells, errors
        counts = _draw_tallies(config, rng, cells[1], errors[1])
        ok[rows], estimates = _estimate_counts(**counts)
        results[:, rows] = [
            estimates[name] for name in ("dse", "uncorrected", "corrected", "variance")
        ]
    with _held_lock:
        for k in [k for k in _held if k >= len(streams)]:
            del _held[k]

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
