"""Monte Carlo harness for the linkage-error corrected estimators.

Each iteration captures a closed population of N individuals
independently by two sources, injects synthetic linkage errors at fixed
record-level rates, draws a without-replacement rematch sample from
source 1, and computes three estimators plus the plug-in variance of the
corrected one.

The estimators read only a few counts per iteration, so ``run_scenario``
draws those counts from their exact distributions, for a whole chunk of
iterations at a time, and never builds the records:

- the capture cells, a binomial chain: n1plus ~ Binomial(N, p1plus), then
  n11 ~ Binomial(n1plus, pplus1) and n01 ~ Binomial(N - n1plus, pplus1);
- the missed links pi ~ Binomial(n11, fnr) and the spurious links
  eta ~ Binomial(n1plus - n11, fpr);
- the rematch sample's +1 and -1 tallies, multivariate hypergeometric
  from a frame of pi, eta and n1plus - pi - eta records: the sample's
  errors wrong ~ Hypergeometric(pi + eta, n1plus - pi - eta, n_r), then
  their split plus ~ Hypergeometric(pi, eta, wrong), minus = wrong - plus.

The estimates come from the formula functions that the scalar API
calls, so the same counts give bit-identical estimates. Each chunk's
completed estimates are reduced to their count, mean and central moments,
which ``_merge`` combines, so a run holds one chunk's arrays at a time.

Random streams are keyed by chunk: chunk k, iterations
[k * CHUNK, (k + 1) * CHUNK), draws from child k of the seed's
SeedSequence, so results are a pure function of the config.

Runs that share a seed are therefore common random numbers: runs that
agree on (N, p1plus, pplus1) draw the same capture cells, runs that also
agree on fnr the same missed links, and runs that also agree on fpr the
same spurious links. The rows of one ``dselink simulate`` call share
them in a block that keeps each until its last read and times each stage
(see ``_shared_draws``); a library call keeps nothing after it returns.

``generate_population``, ``inject_linkage_errors`` and ``draw_rematch``
simulate one iteration record by record. ``run_scenario`` does not call
them: they are the reference oracle the count-level draws are tested
against.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import time
from collections import Counter

import numpy as np

from .estimators import ContingencyCounts, ErrorRates, _Value, dual_system_ratio, integer_count
from .rematch import RematchSample, SampleTooSmall, code_variance, expansion_total
from .rematch import srswor_total_variance
from .variance import linearized_variance

# Not called here: perfbench's traced run swaps wrappers for these names
# into this module's namespace, so they must stay importable from it.
from .estimators import dse, naive_corrected  # noqa: F401
from .rematch import ht_nu  # noqa: F401
from .variance import naive_variance_estimate  # noqa: F401

__all__ = [
    "ScenarioConfig", "TrueLinkageState", "EstimatorStats", "SimulationSummary",
    "generate_population", "inject_linkage_errors", "draw_rematch", "run_scenario",
]

# Iterations per random stream. It fixes the stream layout, so changing
# it changes every result.
CHUNK = 2**14


class ScenarioConfig(_Value):
    """Parameters of one simulation scenario."""

    __slots__ = ("p1plus", "pplus1", "fnr", "fpr", "f", "seed", "N", "iterations")

    def __init__(
        self, p1plus: float, pplus1: float, fnr: float, fpr: float, f: float, seed: int,
        N: int = 1000, iterations: int = 10000,
    ):
        self._assign(p1plus, pplus1, fnr, fpr, f, seed, N, iterations)
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


class TrueLinkageState(_Value):
    """Ground truth for one iteration: error-free counts, injected error
    totals, per-record flags, and the error-afflicted counts derived from
    them. Two states are equal only if they are the same object.

    ``source1_codes`` has one entry per source-1 record (matched records
    first): +1 for an injected false negative, -1 for an injected false
    positive, 0 otherwise. ``counts_star`` keeps the margins and observes
    n11 - pi + eta matches; construction raises InvalidCounts when
    spurious links push that past nplus1.
    """

    __slots__ = ("counts_true", "source1_codes", "pi", "eta", "counts_star")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, counts_true: ContingencyCounts, source1_codes: np.ndarray, pi: int = 0,
        eta: int = 0,
    ):
        self._assign(counts_true, source1_codes, pi, eta)
        true = self.counts_true
        if not 0 <= self.pi <= true.n11:
            raise ValueError(f"pi={self.pi} outside [0, n11={true.n11}]")
        n10 = true.n1plus - true.n11
        if not 0 <= self.eta <= n10:
            raise ValueError(f"eta={self.eta} outside [0, n10={n10}]")
        if len(self.source1_codes) != true.n1plus:
            raise ValueError("need one code per source-1 record")
        star = ContingencyCounts(true.n1plus, true.nplus1, true.n11 - self.pi + self.eta)
        object.__setattr__(self, "counts_star", star)


class EstimatorStats(_Value):
    """Aggregates for one estimator over the completed iterations."""

    __slots__ = ("mean", "erb_pct", "erse_pct")


class SimulationSummary(_Value):
    """One scenario's aggregated results.

    ``arse_pct`` averages the per-iteration relative standard errors of
    the corrected estimator; ``arse_root_mean_var_pct`` is the alternative
    aggregation (root of the mean variance estimate), reported for
    transparency.
    """

    __slots__ = (
        "config", "dse", "uncorrected", "corrected", "arse_pct", "arse_root_mean_var_pct",
        "iterations_completed", "exclusions",
    )


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
    false_pos = rng.random(counts.n1plus - counts.n11) < fpr
    codes = np.zeros(counts.n1plus, np.int8)
    codes[: counts.n11][false_neg] = 1
    codes[counts.n11 :][false_pos] = -1
    pi = int(np.count_nonzero(false_neg))
    eta = int(np.count_nonzero(false_pos))
    return TrueLinkageState(counts, codes, pi, eta)


def _rematch_size(f: float, n1plus):
    """The rematch sample size for a source-1 frame of ``n1plus`` records,
    an int or an int64 array: f * n1plus rounded half up, and at least 2."""
    return np.maximum(2, np.floor(f * n1plus + 0.5).astype(np.int64))


def draw_rematch(
    state: TrueLinkageState, f: float, rng: np.random.Generator
) -> RematchSample:
    """Draw ``_rematch_size(f, n1plus)`` source-1 records without
    replacement and read off their error codes (error detection is
    perfect)."""
    n1plus = state.counts_true.n1plus
    if n1plus < 2:
        raise SampleTooSmall(f"source-1 frame has {n1plus} records, need >= 2")
    indices = rng.choice(n1plus, size=_rematch_size(f, n1plus), replace=False)
    return RematchSample(state.source1_codes[indices], n1plus=n1plus)


def _stage_keys(config: ScenarioConfig, k: int, size: int) -> tuple:
    """The keys of chunk ``k``'s capture, missed-link and spurious-link
    stages, of ``size`` iterations: the inputs that determine each draw."""
    capture = (config.seed, k, size, config.N, config.p1plus, config.pplus1)
    return capture, capture + (config.fnr,), capture + (config.fnr, config.fpr)


def _stage(block: tuple, name: str, key: tuple, rng: np.random.Generator, draw) -> tuple:
    """``draw()``'s arrays, read-only, or the arrays kept under ``key`` in
    ``block`` = (stages, counter), with ``rng`` set to the state after them.
    They stay kept, with that state, while ``counter[key]`` (reads due) after
    this read is > 0. Counts a hit or a miss, and this call's ns under ``name``."""
    start, (stages, counter) = time.perf_counter_ns(), block
    counter["hits" if key in stages else "misses"] += 1
    if key in stages:
        draws, rng.bit_generator.state = stages.pop(key)
    else:
        draws = draw()
        for array in draws:
            array.flags.writeable = False
    counter[key] -= 1
    if counter[key] > 0:
        stages[key] = draws, rng.bit_generator.state
    counter[name] += time.perf_counter_ns() - start
    return draws


def _draw_counts(
    config: ScenarioConfig, rng: np.random.Generator, size: int, k: int = 0, block=None
) -> dict:
    """Draw ``size`` iterations' counts, as int64 arrays, from the law of
    ``generate_population``, ``inject_linkage_errors`` and ``draw_rematch``
    composed: the keyword arguments of ``_estimate_counts``. The capture
    cells are a binomial chain and the rematch tallies an error count, then
    its split (see the module docstring). Chunk ``k``'s capture cells,
    missed links and spurious links come from ``_stage`` under their
    ``_stage_keys``, in an open ``_shared_draws`` block or, by default, none."""
    block = block or ({}, Counter())
    N, p1, p2, fnr, fpr = config.N, config.p1plus, config.pplus1, config.fnr, config.fpr
    capture, missed, spurious = _stage_keys(config, k, size)
    n1plus, n11, nplus1 = _stage(block, "capture", capture, rng, lambda: (
        n1 := rng.binomial(N, p1, size), n11 := rng.binomial(n1, p2), n11 + rng.binomial(N - n1, p2)
    ))
    (pi,) = _stage(block, "missed", missed, rng, lambda: (rng.binomial(n11, fnr),))
    (eta,) = _stage(block, "spurious", spurious, rng, lambda: (rng.binomial(n1plus - n11, fpr),))
    # A frame of fewer than 2 records excludes the iteration; capping n_r
    # at the frame keeps its draw defined.
    start = time.perf_counter_ns()
    n_r = np.minimum(_rematch_size(config.f, n1plus), n1plus)
    wrong = rng.hypergeometric(pi + eta, n1plus - pi - eta, n_r)
    plus = rng.hypergeometric(pi, eta, wrong)
    block[1]["rematch"] += time.perf_counter_ns() - start
    return dict(
        n1plus=n1plus, nplus1=nplus1, n11=n11, pi=pi, eta=eta,
        n_r=n_r, plus=plus, minus=np.subtract(wrong, plus, out=wrong),
    )


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


def _moments(ok: np.ndarray, estimates: dict) -> tuple:
    """(n, mean, M2, M3, M4) of the dse, uncorrected and corrected estimates
    and sqrt(variance) over the n iterations that ``ok`` keeps, from
    ``_estimate_counts``' pair; Mk is the sum of (x - mean)**k, each but n an array."""
    columns = [estimates[name][ok] for name in ("dse", "uncorrected", "corrected")]
    columns.append(np.sqrt(estimates["variance"][ok]))
    n, moments = int(np.count_nonzero(ok)), []
    for x in columns:
        mean = x.sum() / max(n, 1)  # x.mean(), but 0 when n = 0
        d = x - mean
        d2 = d * d  # products: numpy's power is several times slower
        moments.append((mean, d2.sum(), (d2 * d).sum(), (d2 * d2).sum()))
    return (n, *np.array(moments).T)


def _merge(a: tuple, b: tuple) -> tuple:
    """The ``_moments`` of the union of two disjoint parts from theirs:
    Chan, Golub & LeVeque (1979) for the mean and M2, Pebay (2008,
    SAND2008-6212) for M3 and M4. An empty part returns the other."""
    (na, ma, m2a, m3a, m4a), (nb, mb, m2b, m3b, m4b) = a, b
    if not na or not nb:
        return b if not na else a
    n, d = na + nb, mb - ma
    dn = d / n
    return (
        n,
        ma + d * nb / n,
        m2a + m2b + d * dn * na * nb,
        m3a + m3b + d * dn * dn * na * nb * (na - nb) + 3 * dn * (na * m2b - nb * m2a),
        m4a + m4b + d * dn**3 * na * nb * (na * na - na * nb + nb * nb)
        + 6 * dn * dn * (na * na * m2b + nb * nb * m2a) + 4 * dn * (na * m3b - nb * m3a),
    )


def _stats(n: int, mean: float, m2: float, population: int) -> EstimatorStats:
    if not n:
        return EstimatorStats(None, None, None)
    mean = float(mean)
    erb = 100.0 * abs(mean - population) / population
    erse = 100.0 * math.sqrt(m2 / (n - 1)) / population if n >= 2 else None
    return EstimatorStats(mean, erb, erse)


def _chunk_sizes(iterations: int) -> list[int]:
    """The sizes of a run's chunks, ``CHUNK`` iterations each but the last."""
    return [min(CHUNK, iterations - start) for start in range(0, iterations, CHUNK)]


# The open _shared_draws() block's pair, per thread, else None: the kept
# stages by key (see _stage_keys) with the state after them, and each key's reads due.
_block: contextvars.ContextVar[tuple | None] = contextvars.ContextVar("_block", default=None)


@contextlib.contextmanager
def _shared_draws(configs):
    """Let the ``run_scenario`` calls in the block, one per config of
    ``configs``, share draws. Each stage is kept from its first read until
    its last: nothing is held once every row has run.

    Yields the block's Counter: the reads due by stage key; the ns of the
    ``capture``, ``missed``, ``spurious`` and ``rematch`` draws, of ``_estimate_counts``
    (``estimate``) and of reduction and merge (``aggregation``); stage ``hits`` and ``misses``."""
    chunks = [(c, k, size) for c in configs for k, size in enumerate(_chunk_sizes(c.iterations))]
    token = _block.set(({}, Counter(key for chunk in chunks for key in _stage_keys(*chunk))))
    try:
        yield _block.get()[1]
    finally:
        _block.reset(token)


def _accumulate(config: ScenarioConfig) -> tuple:
    """The ``_moments`` of the whole run, merged chunk by chunk, timed in the block's counter."""
    sizes, block = _chunk_sizes(config.iterations), _block.get() or ({}, Counter())
    streams = np.random.SeedSequence(config.seed).spawn(len(sizes))
    moments = (0,) * 5  # no iterations
    for k, (stream, size) in enumerate(zip(streams, sizes)):
        counts = _draw_counts(config, np.random.default_rng(stream), size, k, block)
        start = time.perf_counter_ns()
        part = _estimate_counts(**counts)
        block[1]["estimate"] += (middle := time.perf_counter_ns()) - start
        # free the estimates before the merge: held through it, a grid call page-faults more
        part = _moments(*part)
        moments = _merge(moments, part)
        block[1]["aggregation"] += time.perf_counter_ns() - middle
    return moments


def run_scenario(config: ScenarioConfig, threads: int = 1) -> SimulationSummary:
    """Run one scenario and aggregate ERB / ERSE / ARSE in percent.

    ERB is 100 * |mean(estimate) - N| / N, ERSE is 100 * sd(estimate) / N
    (divisor R - 1), and ARSE averages 100 * sqrt(variance estimate) / N
    over iterations; all are normalized by the true N. Iterations where
    any estimator's precondition fails are excluded from every aggregate
    and counted.

    Results depend only on the config. ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.

    Inside a ``_shared_draws()`` block, runs that share a seed share
    draws: the capture cells when they agree on (N, p1plus, pplus1), the
    missed links when they also agree on fnr, and the spurious links when
    they also agree on fpr. The block keeps each stage with the generator
    state after it, from its first read to its last, so a reused stage is
    bit-identical to a fresh draw in any order of runs; on the bundled
    grid it holds at most 40 bytes per iteration after any row in file
    order or reversed, 128 sorted by f, none after the last row. It also
    counts the hits and misses and times each stage (see ``_shared_draws``).
    Outside a block every stage is drawn afresh and nothing is held after
    return. Each chunk keeps only the moments of its completed iterations.
    """
    n, mean, m2, _, _ = _accumulate(config)
    N = config.N
    return SimulationSummary(
        config,
        *(_stats(n, mean[i], m2[i], N) for i in range(3)),
        arse_pct=float(100.0 * mean[3] / N) if n else None,
        arse_root_mean_var_pct=100.0 * math.sqrt(mean[3] ** 2 + m2[3] / n) / N if n else None,
        iterations_completed=n,
        exclusions=config.iterations - n,
    )
