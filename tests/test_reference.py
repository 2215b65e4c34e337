"""The bundled grid against its committed high-precision reference,
``data/table1_reference.csv`` (see ``make_reference.py``), in Monte Carlo
standard error (MCSE) units."""

import csv
import math
import statistics

import numpy as np
import pytest

from dse_link import run_scenario
from dse_link.cli import bundled_scenario_path, load_scenario_file
from dse_link.simulation import CHUNK, _draw_counts, _estimate_counts, _shared_draws
import make_reference
from make_reference import COLUMNS, ESTIMATORS, KEY_COLUMNS, METRICS, PATH, POPULATION
from make_reference import main, reference_row

SEED = 27182818  # neither the reference's seed nor any other test's
ITERATIONS = 10**5

# Each metric of each bundled row is one comparison: 12 rows x 8 metrics =
# 96. For a family-wise false-alarm rate of at most 10**-6, Bonferroni
# tests each at a two-sided ALPHA = 10**-6 / 96 = 1.04e-8, which a standard
# normal exceeds in absolute value with that probability beyond K = 5.72.
COMPARISONS = 12 * len(METRICS)
ALPHA = 1e-6 / COMPARISONS
K = statistics.NormalDist().inv_cdf(1 - ALPHA / 2)


def reference_rows():
    with open(PATH, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def grid_configs(iterations, seed):
    return load_scenario_file(bundled_scenario_path(), iterations, seed, POPULATION)


def summary_metrics(summary) -> dict:
    """The reference's ``METRICS`` of one ``run_scenario`` summary."""
    N = summary.config.N
    metrics = {}
    for name in ESTIMATORS:
        stats = getattr(summary, name)
        metrics[f"bias_{name}"] = 100 * (stats.mean - N) / N
        metrics[f"erse_{name}"] = stats.erse_pct
    metrics["arse_corrected"] = summary.arse_pct
    metrics["exclusion_rate"] = summary.exclusions / summary.config.iterations
    return metrics


def exclusion_z(x, n, x_ref, n_ref):
    """Signed z of Fisher's exact test that x exclusions of n and x_ref of
    n_ref share one rate. Given their total, x is hypergeometric; the
    two-sided p-value is twice the smaller tail. A normal z on the rates
    would not do: a row that the reference excludes 5 times in 10**7 expects
    0.05 exclusions in 10**5, and z would pass K at 2 of them, which has
    probability 1e-3."""
    total = x + x_ref

    def log_comb(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    support = range(max(0, total - n_ref), min(total, n) + 1)
    pmf = {
        i: math.exp(log_comb(n, i) + log_comb(n_ref, total - i) - log_comb(n + n_ref, total))
        for i in support
    }
    lower = math.fsum(p for i, p in pmf.items() if i <= x)
    upper = math.fsum(p for i, p in pmf.items() if i >= x)
    p_value = min(1.0, 2 * min(lower, upper))
    if p_value == 1.0:
        return 0.0
    return math.copysign(-statistics.NormalDist().inv_cdf(p_value / 2), x / n - x_ref / n_ref)


def grid_z_scores() -> dict:
    """(row key, metric) -> signed z of the bundled grid at ITERATIONS and
    SEED, run in one shared-draws block, against the reference. An
    estimator metric's z is its difference over the combined MCSE: the
    reference's MCSE per iteration times sqrt(1/n_ref + 1/n), with n and
    n_ref the completed iterations of each run."""
    z = {}
    configs = grid_configs(ITERATIONS, SEED)
    with _shared_draws(configs):
        summaries = [run_scenario(config) for config in configs]
    for summary, reference in zip(summaries, reference_rows(), strict=True):
        key = tuple(reference[column] for column in KEY_COLUMNS)
        R, R_ref = summary.config.iterations, int(reference["iterations"])
        x_ref = round(float(reference["exclusion_rate"]) * R_ref)
        n, n_ref = summary.iterations_completed, R_ref - x_ref
        for metric, value in summary_metrics(summary).items():
            if metric == "exclusion_rate":
                z[key, metric] = exclusion_z(summary.exclusions, R, x_ref, R_ref)
                continue
            mcse = float(reference[f"{metric}_mcse"]) * math.sqrt(1 / n_ref + 1 / n)
            z[key, metric] = (value - float(reference[metric])) / mcse
    return z


def test_reference_rows_are_the_bundled_grid():
    # editing the grid without regenerating the reference fails here
    rows = reference_rows()
    assert [tuple(float(row[c]) for c in KEY_COLUMNS) for row in rows] == [
        (c.p1plus, c.pplus1, c.fnr, c.fpr, c.f) for c in grid_configs(1, 1)
    ]
    for row in rows:
        assert tuple(row) == COLUMNS
        assert all(math.isfinite(float(row[column])) for column in COLUMNS), row
        assert int(row["seed"]) != SEED


def test_reference_generator_writes_the_grid(tmp_path, monkeypatch):
    path = tmp_path / "reference.csv"
    monkeypatch.setattr(make_reference, "ITERATIONS", 50)
    main(["--output", str(path)])
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert tuple(header) == COLUMNS
    assert [len(row) for row in rows] == [len(COLUMNS)] * 12
    assert {tuple(row[5:7]) for row in rows} == {(str(make_reference.SEED), "50")}
    assert all(math.isfinite(float(value)) for row in rows for value in row)


def test_grid_matches_reference_in_mcse_units():
    z = grid_z_scores()
    assert len(z) == COMPARISONS
    outside = {key: value for key, value in z.items() if abs(value) > K}
    assert not outside, (K, outside)


def exact_dse_metrics(p1plus, pplus1, N=POPULATION) -> dict:
    """The dse's exact ``bias_dse`` and ``erse_dse`` at N, given n11 >= 1,
    summed over the binomial chain of the capture cells with no sampler:
    n1plus ~ Bin(N, p1plus), n11 ~ Bin(n1plus, pplus1), and n01 ~
    Bin(N - n1plus, pplus1) independent of n11 given n1plus. Given
    (n1plus, n11) the dse n1plus * (n11 + n01) / n11 is linear in n01, so
    its conditional mean and variance are closed-form, and the law of
    total variance gives the rest."""
    k = np.arange(N + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))

    def binomial_pmf(n, x, p):
        """Bin(n, p)'s pmf at x, 0 where x > n."""
        rest = np.maximum(n - x, 0)
        log_pmf = log_factorial[n] - log_factorial[x] - log_factorial[rest]
        return np.where(x <= n, np.exp(log_pmf + x * np.log(p) + rest * np.log1p(-p)), 0.0)

    n1, n11 = k[:, None], k[None, :]
    weight = binomial_pmf(N, n1, p1plus) * binomial_pmf(n1, n11, pplus1)
    weight[:, 0] = 0.0  # the mask n11 >= 1
    weight /= weight.sum()
    n01_mean = (N - n1) * pplus1
    ratio = n1 / np.maximum(n11, 1)
    mean_given = ratio * (n11 + n01_mean)
    mean = (weight * mean_given).sum()
    variance = (weight * (ratio**2 * n01_mean * (1 - pplus1) + (mean_given - mean) ** 2)).sum()
    return {"bias_dse": 100 * (mean - N) / N, "erse_dse": 100 * math.sqrt(variance) / N}


def test_reference_dse_matches_exact_moments():
    # Only the rows with no exclusions: until each estimator is masked by
    # its own preconditions, the reference drops an iteration from the dse
    # whenever the corrected estimator fails, so on the other rows it
    # describes the dse on a subset that these sums do not.
    rows = [row for row in reference_rows() if float(row["exclusion_rate"]) == 0]
    assert len(rows) == 7
    pairs = {(row["p1"], row["p2"]) for row in rows}
    assert len(pairs) == 2
    exact = {pair: exact_dse_metrics(*map(float, pair)) for pair in pairs}
    for row in rows:
        n = int(row["iterations"])
        for metric, value in exact[row["p1"], row["p2"]].items():
            z = (float(row[metric]) - value) / (float(row[f"{metric}_mcse"]) / math.sqrt(n))
            assert abs(z) <= K, (row, metric, value, z)


@pytest.mark.parametrize("row", [0, 5], ids=["no-exclusions", "with-exclusions"])
def test_chunk_accumulation_matches_run_scenario(row):
    # the metrics and MCSEs from the moments that run_scenario merges
    # chunk by chunk, against the completed estimates of all three chunks
    # held at once
    config = grid_configs(2 * CHUNK + 37, SEED)[row]
    reference = reference_row(config)
    kept = {name: [] for name in (*ESTIMATORS, "variance")}
    streams = np.random.SeedSequence(config.seed).spawn(3)
    for stream, size in zip(streams, (CHUNK, CHUNK, 37)):
        ok, estimates = _estimate_counts(**_draw_counts(config, np.random.default_rng(stream), size))
        for name, parts in kept.items():
            parts.append(estimates[name][ok])
    N, expected = config.N, {}
    for name in ESTIMATORS:
        values = 100 * np.concatenate(kept[name]) / N
        centred = values - values.mean()
        m2, m4 = np.mean(centred**2), np.mean(centred**4)
        expected[f"bias_{name}"] = values.mean() - 100
        expected[f"bias_{name}_mcse"] = expected[f"erse_{name}"] = values.std(ddof=1)
        expected[f"erse_{name}_mcse"] = math.sqrt((m4 - m2**2) / (4 * m2))
    rse = 100 * np.sqrt(np.concatenate(kept["variance"])) / N
    expected["arse_corrected"], expected["arse_corrected_mcse"] = rse.mean(), rse.std(ddof=1)
    rate = 1 - rse.size / config.iterations
    expected["exclusion_rate"], expected["exclusion_rate_mcse"] = rate, math.sqrt(rate * (1 - rate))
    assert reference == pytest.approx(expected, rel=1e-9, abs=1e-9)
