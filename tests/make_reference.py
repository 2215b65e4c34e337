"""Write the bundled grid's high-precision reference,
``tests/data/table1_reference.csv``.

    PYTHONPATH=src python tests/make_reference.py --seed 31415926 --iterations 10000000

For each row of the bundled grid, at N = 1000, the file records:

- ``bias_<estimator>``: the signed relative bias, 100 * (mean - N) / N,
  of the dse, uncorrected and corrected estimators;
- ``erse_<estimator>``: their ERSE, 100 * sd / N (divisor n - 1);
- ``arse_corrected``: the mean of the corrected estimator's
  per-iteration 100 * sqrt(variance estimate) / N;
- ``exclusion_rate``: the share of iterations that no estimator completes;

each with its Monte Carlo standard error (MCSE) per iteration in the
column of the same name with ``_mcse`` appended: the MCSE of the figure
over n iterations is that value over sqrt(n). For the estimator metrics n
counts the completed iterations, for the exclusion rate all of them. The
MCSEs follow Morris, White & Crowther (2019), *Stat. Med.* 38:2074,
Table 6: sd for a bias, the sd of the per-iteration RSE for ARSE,
sqrt(q * (1 - q)) for a rate q, and for ERSE the fourth-moment form
sqrt((m4 - m2**2) / (4 * m2)), with m2 and m4 the central moments (in
percent of N), which does not assume normal estimates.

Each row runs on its own, drawing every stage afresh with the engine's
chunk streams, and keeps only per-chunk power sums, so memory stays flat
at any iteration count. pytest does not collect this script;
``test_reference.py`` checks the grid against the file it writes.
"""

from __future__ import annotations

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from dse_link.cli import bundled_scenario_path, load_scenario_file
from dse_link.simulation import CHUNK, _draw_counts, _estimate_counts

PATH = Path(__file__).resolve().parent / "data" / "table1_reference.csv"
POPULATION = 1000
KEY_COLUMNS = ("p1", "p2", "fnr", "fpr", "f")
ESTIMATORS = ("dse", "uncorrected", "corrected")
METRICS = (
    *(f"bias_{name}" for name in ESTIMATORS),
    *(f"erse_{name}" for name in ESTIMATORS),
    "arse_corrected",
    "exclusion_rate",
)
VALUE_COLUMNS = (*METRICS, *(f"{metric}_mcse" for metric in METRICS))
COLUMNS = (*KEY_COLUMNS, "seed", "iterations", *VALUE_COLUMNS)


def reference_row(config) -> dict:
    """The ``METRICS`` of ``config`` and their ``_mcse`` per iteration, as
    floats, accumulated chunk by chunk from the engine's draws. A row must
    complete at least two iterations."""
    R, N = config.iterations, config.N
    # per estimator, sums of d**1..d**4 with d = estimate - N: a shift by
    # the truth keeps the fourth moment well conditioned
    sums = {name: np.zeros(4) for name in ESTIMATORS}
    rse_sums = np.zeros(2)  # sums of rse**1, rse**2
    completed = 0
    streams = np.random.SeedSequence(config.seed).spawn(-(-R // CHUNK))
    for k, stream in enumerate(streams):
        size = min(R - k * CHUNK, CHUNK)
        ok, estimates = _estimate_counts(**_draw_counts(config, np.random.default_rng(stream), size))
        completed += int(np.count_nonzero(ok))
        for name in ESTIMATORS:
            d = estimates[name][ok] - N
            sums[name] += [np.sum(d**power) for power in (1, 2, 3, 4)]
        rse = 100.0 * np.sqrt(estimates["variance"][ok]) / N
        rse_sums += [np.sum(rse), np.sum(rse**2)]

    n, scale = completed, 100.0 / N
    row = {}
    for name in ESTIMATORS:
        mean, raw2, raw3, raw4 = sums[name] / n
        m2 = raw2 - mean**2
        m4 = raw4 - 4 * mean * raw3 + 6 * mean**2 * raw2 - 3 * mean**4
        erse = scale * math.sqrt(m2 * n / (n - 1))
        row[f"bias_{name}"] = scale * mean
        row[f"bias_{name}_mcse"] = erse
        row[f"erse_{name}"] = erse
        row[f"erse_{name}_mcse"] = scale * math.sqrt((m4 - m2**2) / (4 * m2))
    total, squares = rse_sums
    row["arse_corrected"] = total / n
    row["arse_corrected_mcse"] = math.sqrt((squares - total**2 / n) / (n - 1))
    rate = (R - n) / R
    row["exclusion_rate"] = rate
    row["exclusion_rate_mcse"] = math.sqrt(rate * (1 - rate))
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--output", type=Path, default=PATH)
    args = parser.parse_args(argv)
    configs = load_scenario_file(bundled_scenario_path(), args.iterations, args.seed, POPULATION)
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for config in configs:
            row = reference_row(config)
            keys = (config.p1plus, config.pplus1, config.fnr, config.fpr, config.f)
            writer.writerow(
                [*keys, config.seed, config.iterations, *(f"{row[c]:.12g}" for c in VALUE_COLUMNS)]
            )
            print(*keys, flush=True)


if __name__ == "__main__":
    main()
