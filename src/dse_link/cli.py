"""Command-line front end: one-shot estimation, scenario simulation, and
rematch sample-size planning."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from importlib.resources import files

from .estimators import (
    ContingencyCounts,
    dse,
    ding_fienberg,
    naive_corrected,
    CaptureProbabilities,
    ErrorRates,
)
from .rematch import Infeasible, RematchSample, ht_nu, plan_sample_size
from .simulation import ScenarioConfig, SimulationSummary, _shared_draws, run_scenario
from .variance import naive_variance_estimate

# Scenario-file column -> the ScenarioConfig field it sets.
SCENARIO_FIELDS = {"p1": "p1plus", "p2": "pplus1", "fnr": "fnr", "fpr": "fpr", "f": "f"}
SCENARIO_COLUMNS = tuple(SCENARIO_FIELDS)
SCENARIO_OPTIONAL = ("iterations", "seed")
# Result table: the scenario key, then metrics in percent, then exclusions.
METRIC_COLUMNS = (
    "erb_dse",
    "erb_uncorrected",
    "erb_corrected",
    "erse_dse",
    "erse_uncorrected",
    "erse_corrected",
    "arse_corrected",
)
RESULT_COLUMNS = SCENARIO_COLUMNS + METRIC_COLUMNS + ("exclusions",)


class ScenarioFileError(ValueError):
    """Malformed scenario file; the message carries the offending row."""


def bundled_scenario_path() -> str:
    """Path of the bundled 12-row benchmark grid."""
    return str(files("dse_link").joinpath("data/table1.csv"))


def _flag_count(flag: str, value) -> int:
    """``value`` of ``flag`` as ``ScenarioConfig`` checks the field it sets;
    an error names the flag."""
    field = {"--population": "N", "--iterations": "iterations", "--seed": "seed"}[flag]
    try:
        return ScenarioConfig.check_count(field, value)
    except ValueError as exc:
        raise ValueError(f"{flag} {value}: {exc}") from exc


def load_scenario_file(
    path: str,
    default_iterations: int,
    default_seed: int,
    population: int,
) -> list[ScenarioConfig]:
    """Parse a scenario CSV with header p1,p2,fnr,fpr,f[,iterations,seed].

    Per-row iterations/seed override the global defaults. Errors name the
    offending physical row. The defaults and ``population`` are the
    --iterations, --seed and --population values: ``population`` is
    checked before the file is read, a default when a row takes it, and
    their errors name the flag.
    """
    population = _flag_count("--population", population)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle, restkey="_extra")
        try:
            header = reader.fieldnames
            if header is None:
                raise ScenarioFileError("scenario file is empty")
            missing = [c for c in SCENARIO_COLUMNS if c not in header]
            unknown = [c for c in header if c not in SCENARIO_COLUMNS + SCENARIO_OPTIONAL]
            if missing or unknown or len(set(header)) < len(header):
                raise ScenarioFileError(
                    f"row 1: bad header {header}; required columns "
                    f"{','.join(SCENARIO_COLUMNS)}, optional "
                    f"{','.join(SCENARIO_OPTIONAL)}"
                )
            configs = []
            for row in reader:
                line = reader.line_num
                if "_extra" in row:
                    raise ScenarioFileError(f"row {line}: too many fields")
                if any(row[c] is None or row[c] == "" for c in SCENARIO_COLUMNS):
                    raise ScenarioFileError(
                        f"row {line}: every required column needs a value"
                    )
                iterations = row.get("iterations") or _flag_count(
                    "--iterations", default_iterations
                )
                seed = row.get("seed") or _flag_count("--seed", default_seed)
                try:
                    configs.append(
                        ScenarioConfig(
                            **{field: float(row[c]) for c, field in SCENARIO_FIELDS.items()},
                            seed=int(seed),
                            N=population,
                            iterations=int(iterations),
                        )
                    )
                except ValueError as exc:
                    raise ScenarioFileError(f"row {line}: {exc}") from exc
        except csv.Error as exc:
            # line_num counts the lines finished before the failing one
            raise ScenarioFileError(f"row {reader.line_num + 1}: {exc}") from exc
    if not configs:
        raise ScenarioFileError("scenario file has no scenario rows")
    return configs


def load_rematch_codes(path: str) -> list[int]:
    """Parse a single-column CSV of outcome codes {+1, -1, 0}."""
    codes = []
    with open(path, encoding="utf-8-sig") as handle:
        for line_num, line in enumerate(handle, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                code = int(token)
            except ValueError as exc:
                raise ValueError(f"{path}: row {line_num}: not a code: {token!r}") from exc
            if code not in (-1, 0, 1):
                raise ValueError(
                    f"{path}: row {line_num}: code must be one of +1, -1, 0"
                )
            codes.append(code)
    return codes


def summary_to_row(summary: SimulationSummary) -> dict:
    """One result-table row: a dict keyed by ``RESULT_COLUMNS``, the shape
    ``parse_results_csv`` returns."""
    cfg = summary.config
    stats = (summary.dse, summary.uncorrected, summary.corrected)
    values = (
        *(getattr(cfg, field) for field in SCENARIO_FIELDS.values()),
        *(s.erb_pct for s in stats),
        *(s.erse_pct for s in stats),
        summary.arse_pct,
        summary.exclusions,
    )
    return dict(zip(RESULT_COLUMNS, values, strict=True))


def _cells(row: dict, precision: int) -> list[str]:
    """Format one row: key columns and exclusions in their exact shortest
    representation, metrics with ``precision`` decimals or NA if undefined."""
    cells = [str(row[column]) for column in SCENARIO_COLUMNS]
    for column in METRIC_COLUMNS:
        value = row[column]
        cells.append("NA" if value is None else f"{value:.{precision}f}")
    cells.append(str(row["exclusions"]))
    return cells


def render_csv(rows: list[dict], seed: int | None, precision: int = 2) -> str:
    """Serialize the results table; ``rows`` are dicts keyed by
    ``RESULT_COLUMNS``. Metric columns use ``precision`` decimals. A
    ``seed`` of None writes no ``# seed=`` line."""
    out = io.StringIO()
    if seed is not None:
        out.write(f"# seed={seed}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow(_cells(row, precision))
    return out.getvalue()


def render_markdown(rows: list[dict], seed: int | None) -> str:
    lines = [] if seed is None else [f"seed = {seed}", ""]
    lines.append("| " + " | ".join(RESULT_COLUMNS) + " |")
    lines.append("|" + "|".join([" --- "] * len(RESULT_COLUMNS)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_cells(row, 2)) + " |")
    return "\n".join(lines) + "\n"


def parse_results_csv(text: str) -> tuple[int | None, list[dict]]:
    """Parse a results CSV back into (seed, rows); inverse of render_csv."""
    seed = None
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            if line.startswith("# seed="):
                seed = int(line.split("=", 1)[1])
            continue
        lines.append(line)
    reader = csv.DictReader(lines)
    rows = []
    for record in reader:
        parsed = {}
        for key, value in record.items():
            if key == "exclusions":
                parsed[key] = int(value)
            elif value == "NA":
                parsed[key] = None
            else:
                parsed[key] = float(value)
        rows.append(parsed)
    return seed, rows


def _atomic_write(path: str, text: str) -> None:
    """Replace the file that ``path`` resolves to by way of a uniquely named
    temp file beside it, so readers never see a partial table; an existing
    target that is not a regular file (a FIFO, a device) is written directly.
    The temp file is removed on any failure, and an OSError names ``path``.
    Exclusive creation, unlike ``tempfile.mkstemp``, keeps the default
    umask-based permissions."""
    target = os.path.realpath(path)
    direct = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if direct else f"{target}.{os.urandom(8).hex()}.tmp"
    pending = False
    try:
        with open(tmp, "w" if direct else "x", newline="\n", encoding="utf-8") as handle:
            pending = not direct
            handle.write(text)
        if not direct:
            os.replace(tmp, target)
        pending = False
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if pending:
            os.remove(tmp)


def cmd_estimate(args) -> int:
    counts = ContingencyCounts(args.n1, args.n2, args.m)
    report = {"dse": dse(counts, floor=args.floor).n_hat}
    if args.rematch:
        codes = load_rematch_codes(args.rematch)
        sample = RematchSample(codes, n1plus=args.n1)
        nu = ht_nu(sample)
        corrected = naive_corrected(counts, nu.nu_hat)
        variance = naive_variance_estimate(corrected.n_hat, counts, nu)
        report["nu_hat"] = nu.nu_hat
        report["sigma2_eps"] = nu.sigma2_eps
        report["corrected"] = corrected.n_hat
        report["corrected_variance"] = variance
        report["corrected_rse_pct"] = 100.0 * variance**0.5 / corrected.n_hat
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        report["ding_fienberg"] = ding_fienberg(counts, args.alpha, args.beta).n_hat
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value:.6f}")
    return 0


def cmd_simulate(args) -> int:
    source, value = "--threads", args.threads
    if value is None:
        source, value = "DSE_LINK_THREADS", os.environ.get("DSE_LINK_THREADS") or "1"
    # int()'s syntax for a non-negative integer, so int(value) cannot raise.
    if not re.fullmatch(r"\s*\+?\d+(_\d+)*\s*", str(value)) or int(value) < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}")
    if args.precision < 0:
        raise ValueError(f"--precision must be >= 0, got {args.precision}")
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big")
    path = args.scenario if args.scenario is not None else bundled_scenario_path()
    configs = load_scenario_file(path, args.iterations, seed, args.population)
    # the header names the default seed only if some row ran at it
    if all(config.seed != seed for config in configs):
        seed = None

    rows = []
    with _shared_draws(configs):
        for config in configs:
            summary = run_scenario(config)
            rows.append(summary_to_row(summary))
            if args.verbose:
                alt = summary.arse_root_mean_var_pct
                key = " ".join(f"{column}={rows[-1][column]}" for column in SCENARIO_COLUMNS)
                print(
                    f"scenario {key}: "
                    f"completed={summary.iterations_completed} "
                    f"arse_root_mean_var={'NA' if alt is None else f'{alt:.4f}%'}",
                    file=sys.stderr,
                )

    if args.format == "csv":
        text = render_csv(rows, seed, precision=args.precision)
    else:
        text = render_markdown(rows, seed)
    if args.output is not None:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_plan(args) -> int:
    n_r = plan_sample_size(
        n1plus=args.n1,
        anticipated=ErrorRates(fnr=args.fnr, fpr=args.fpr),
        capture=CaptureProbabilities(p1plus=args.p1, pplus1=args.p2),
        n_guess=args.N,
        target_rse=args.target_rse,
    )
    print(f"n_r: {n_r}")
    print(f"f: {n_r / args.n1:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dselink",
        description=(
            "Two-list population size estimation with linkage-error "
            "correction, plus a Monte Carlo scenario runner."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate", help="estimate population size from one observed table"
    )
    est.add_argument("--n1", type=int, required=True, help="source-1 record count")
    est.add_argument("--n2", type=int, required=True, help="source-2 record count")
    est.add_argument("--m", type=int, required=True, help="linked (matched) record count")
    est.add_argument(
        "--floor", action="store_true", help="apply the greatest-integer function"
    )
    est.add_argument(
        "--rematch",
        metavar="CSV",
        help="single-column CSV of rematch outcome codes {+1,-1,0} drawn from source 1",
    )
    est.add_argument(
        "--alpha", type=float, help="correct-link probability for ding_fienberg"
    )
    est.add_argument(
        "--beta", type=float, help="false-link probability for ding_fienberg"
    )
    est.add_argument("--json", action="store_true", help="machine-readable output")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run simulation scenarios from a CSV grid")
    sim.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario CSV (header p1,p2,fnr,fpr,f[,iterations,seed]); "
        "defaults to the bundled table1.csv benchmark grid",
    )
    sim.add_argument("--iterations", type=int, default=10000)
    sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed; omitted selects a random one; printed in the output header "
        "when a row runs at it",
    )
    sim.add_argument(
        "--threads",
        type=int,
        help="accepted for compatibility, must be >= 1; changes neither output nor "
        "speed (env DSE_LINK_THREADS as fallback, default 1)",
    )
    sim.add_argument("--format", choices=("csv", "markdown"), default="csv")
    sim.add_argument("--output", metavar="PATH", help="write the table here instead of stdout")
    sim.add_argument(
        "--precision", type=int, default=2, help="decimal places for CSV metric columns"
    )
    sim.add_argument("--population", type=int, default=1000, help="true population size N")
    sim.add_argument("--verbose", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    plan = sub.add_parser("plan", help="plan a rematch-study sample size")
    plan.add_argument("--n1", type=int, required=True, help="source-1 record count")
    plan.add_argument("--p1", type=float, required=True, help="source-1 capture probability")
    plan.add_argument("--p2", type=float, required=True, help="source-2 capture probability")
    plan.add_argument("--N", type=float, required=True, help="anticipated population size")
    plan.add_argument("--fnr", type=float, required=True, help="anticipated missed-link rate")
    plan.add_argument("--fpr", type=float, required=True, help="anticipated spurious-link rate")
    plan.add_argument("--target-rse", type=float, required=True, dest="target_rse")
    plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None) -> int:
    """Run a subcommand; an expected failure prints ``error: <Type>: <message>``, returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, Infeasible):
            print(f"minimum achievable rse: {exc.min_achievable_rse:.6f}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
