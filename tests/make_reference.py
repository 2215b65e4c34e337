"""Write the bundled grid's high-precision reference,
``tests/data/table1_reference.csv``, or ``--output``.

    PYTHONPATH=src python tests/make_reference.py

For each row of the bundled grid, at N = 1000, seed ``SEED`` and
``ITERATIONS`` iterations (fixed, and recorded in the row), it writes:

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

Each row runs on its own, drawing every stage afresh. It reads the count,
mean and central moments that ``run_scenario`` merges chunk by chunk, so
this script and ``dselink simulate`` share one aggregation and memory
stays flat at any iteration count. pytest does not collect this script;
``test_reference.py`` checks the grid against the file it writes.
"""

from __future__ import annotations

import argparse
import csv
import math
from pathlib import Path

from dse_link.cli import SCENARIO_COLUMNS as KEY_COLUMNS, bundled_scenario_path, load_scenario_file
from dse_link.simulation import _accumulate

PATH = Path(__file__).resolve().parent / "data" / "table1_reference.csv"
SEED = 31415926
ITERATIONS = 10**7
POPULATION = 1000
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
    floats, from the moments that ``run_scenario`` aggregates. A row must
    complete at least two iterations."""
    n, mean, m2, _, m4 = _accumulate(config)
    R, N = config.iterations, config.N
    scale = 100.0 / N
    row = {}
    for i, name in enumerate(ESTIMATORS):
        erse = scale * math.sqrt(m2[i] / (n - 1))
        row[f"bias_{name}"] = scale * (mean[i] - N)
        row[f"bias_{name}_mcse"] = erse
        row[f"erse_{name}"] = erse
        # central moments with divisor n
        c2, c4 = m2[i] / n, m4[i] / n
        row[f"erse_{name}_mcse"] = scale * math.sqrt((c4 - c2**2) / (4 * c2))
    row["arse_corrected"] = scale * mean[3]
    row["arse_corrected_mcse"] = scale * math.sqrt(m2[3] / (n - 1))
    rate = (R - n) / R
    row["exclusion_rate"] = rate
    row["exclusion_rate_mcse"] = math.sqrt(rate * (1 - rate))
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path, default=PATH)
    args = parser.parse_args(argv)
    configs = load_scenario_file(bundled_scenario_path(), ITERATIONS, SEED, POPULATION)
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for config in configs:
            row = reference_row(config)
            keys = (config.p1plus, config.pplus1, config.fnr, config.fpr, config.f)
            writer.writerow([*keys, SEED, ITERATIONS, *(f"{row[c]:.12g}" for c in VALUE_COLUMNS)])
            print(*keys, flush=True)


if __name__ == "__main__":
    main()
