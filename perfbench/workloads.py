"""Workloads of the dse-link benchmark.

Every operation is one in-process ``dse_link.cli.main`` call, issued by a
single closed-loop client: the next call starts only after the previous
one returned and its answer was checked. Inputs are made from the
workload seed; the program only sees the generated arguments and files.

- ``grid``: ``dselink simulate`` on the bundled 12-row grid at N = 1000
  and 10^4 iterations per row, one thread. This is the paper's Monte Carlo
  study; per-iteration call overhead dominates it.
- ``oneshot``: a mix of ``estimate`` and ``plan`` calls, each checked
  against a closed-form oracle. The simulation is idle here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Acceptance bounds of the paper's grid, calibrated for 10^4 iterations.
MAX_ERB_CORRECTED_PCT = 0.3
MAX_ARSE_GAP_PP = 0.25
# Exclusions a row may show in one call of 10^4 iterations. An iteration
# is excluded, from every estimator, when the plug-in variance's
# EstimateBelowMargin check fails. Each limit is the count a Poisson
# variable exceeds with probability at most 1e-6, at the 99% upper
# confidence bound of the row's rate over 5.5 x 10^5 measured iterations.
# A row that never excluded in them still gets 4: zero in 5.5 x 10^5 only
# bounds its rate to 0.084 per call. The traced run reports the rate as
# simulation.exclusion_ratio.
MAX_EXCLUSIONS = {
    (0.9, 0.8, 0.02, 0.05, 0.1): 5,  # 4 of 5.5 x 10^5 excluded
    (0.9, 0.8, 0.05, 0.02, 0.1): 15,  # 145
    (0.9, 0.8, 0.05, 0.08, 0.1): 21,  # 302
}
NEVER_EXCLUDED_LIMIT = 4

METRIC_COLUMNS = (
    "erb_dse", "erb_uncorrected", "erb_corrected",
    "erse_dse", "erse_uncorrected", "erse_corrected", "arse_corrected",
)
KEY_COLUMNS = ("p1", "p2", "fnr", "fpr", "f")

# Kronecker (R2) sequence steps: every prefix of the sequence covers the
# unit square evenly, so the size mix of a run does not depend on how many
# calls fit in it, and the latency tail is the same from seed to seed.
_PLASTIC = 1.324717957244746
R2_STEP = (1.0 / _PLASTIC, 1.0 / _PLASTIC**2)
GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0


def cpu_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def invoke(main: Callable, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one ``cli.main`` call; returns (exit code, stdout, stderr, ms)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        code = main(argv)
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), elapsed / 1e6


@dataclass
class Tally:
    """Operations attempted and failed, and the latency of each timed call."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"wrong answer: {problem}", file=sys.stderr)


# --- grid workload --------------------------------------------------------

GRID_ITERATIONS = 10_000  # per row: the paper's study, and what the bounds assume
WARMUP_ITERATIONS = 20
INVARIANCE_ITERATIONS = 100
TRACE_ITERATIONS = 300


@dataclass
class GridInputs:
    keys: list[tuple[float, ...]]  # scenario key columns of each row
    output: Path
    rng: np.random.Generator

    def argv(self, seed: int, iterations: int, threads: int = 1) -> list[str]:
        return [
            "simulate", "--iterations", str(iterations), "--seed", str(seed),
            "--threads", str(threads), "--population", "1000",
            "--precision", "6", "--output", str(self.output),
        ]

    def next_seed(self) -> int:
        return int(self.rng.integers(2**63))


def prepare_grid(cli, seed: int, tmp: Path) -> GridInputs:
    """Read the bundled grid's scenario keys and run one small warm-up call."""
    with open(cli.bundled_scenario_path(), newline="", encoding="utf-8") as handle:
        keys = [tuple(float(row[c]) for c in KEY_COLUMNS) for row in csv.DictReader(handle)]
    inputs = GridInputs(keys, tmp / "grid-out.csv", np.random.default_rng(seed))
    code, _, err, _ = invoke(cli.main, inputs.argv(inputs.next_seed(), WARMUP_ITERATIONS))
    if code != 0:
        raise RuntimeError(f"warm-up simulate call failed: {err.strip()}")
    return inputs


def check_grid(cli, inputs: GridInputs, code: int, err: str, seed: int) -> str | None:
    """Check one simulate call's output file against the acceptance bounds."""
    if code != 0:
        return f"simulate exited {code}: {err.strip()}"
    got_seed, rows = cli.parse_results_csv(inputs.output.read_text(encoding="utf-8"))
    if got_seed != seed:
        return f"seed header {got_seed!r}, expected {seed}"
    keys = [tuple(row[c] for c in KEY_COLUMNS) for row in rows]
    if keys != inputs.keys:
        return "scenario keys differ from the bundled grid"
    for key, row in zip(keys, rows):
        where = ",".join(map(str, key))
        limit = MAX_EXCLUSIONS.get(key, NEVER_EXCLUDED_LIMIT)
        if row["exclusions"] > limit:
            return f"{where}: {row['exclusions']} of {GRID_ITERATIONS} iterations excluded (limit {limit})"
        if any(row[c] is None for c in METRIC_COLUMNS):
            return f"{where}: NA metric"
        erb = row["erb_corrected"]
        gap = abs(row["arse_corrected"] - row["erse_corrected"])
        if erb > MAX_ERB_CORRECTED_PCT:
            return f"{where}: corrected ERB {erb}% > {MAX_ERB_CORRECTED_PCT}%"
        if gap > MAX_ARSE_GAP_PP:
            return f"{where}: |ARSE - ERSE| = {gap} pp > {MAX_ARSE_GAP_PP} pp"
    return None


def run_grid(cli, inputs: GridInputs, seconds: float, tally: Tally) -> None:
    """Closed loop of simulate calls within ``seconds``: a call starts only
    if one more of the last call's length still fits (at least one call)."""
    start = time.perf_counter()
    ms = 0.0
    while tally.attempted == 0 or time.perf_counter() - start + ms / 1e3 <= seconds:
        seed = inputs.next_seed()
        code, _, err, ms = invoke(cli.main, inputs.argv(seed, GRID_ITERATIONS))
        tally.latencies_ms.append(ms)
        tally.record(check_grid(cli, inputs, code, err, seed))


def check_thread_invariance(cli, inputs: GridInputs, tally: Tally) -> None:
    """Untimed: the output at one seed is byte-identical at 1 and nproc
    threads (at least 2, so the pool is always exercised)."""
    seed = inputs.next_seed()
    outputs = []
    for threads in (1, max(2, cpu_count())):
        code, _, err, _ = invoke(cli.main, inputs.argv(seed, INVARIANCE_ITERATIONS, threads))
        if code != 0:
            tally.record(f"simulate --threads {threads} exited {code}: {err.strip()}")
            return
        outputs.append(inputs.output.read_bytes())
    tally.record(None if outputs[0] == outputs[1] else "output depends on the thread count")


# --- oneshot workload -----------------------------------------------------

# One block of the call mix; each block is shuffled by the seed.
ONESHOT_BLOCK = ("counts",) * 9 + ("alpha",) * 4 + ("rematch",) * 4 + ("plan",) * 3
# Rematch code files of 10^2..10^5 rows, log-spaced; the same sizes for
# every seed. Few, because writing them is most of oneshot's set-up, and
# file writes on a shared host are the noisiest part of setup_s.
CODE_FILES = 10
CODE_P = (0.03, 0.02, 0.95)  # shares of +1, -1 and 0 codes


@dataclass(frozen=True)
class CodeFile:
    path: Path
    n_r: int
    total: int  # sum of the codes
    nonzero: int


@dataclass
class Call:
    """One oneshot call: its arguments and the check of its answer."""

    kind: str
    argv: list[str]
    check: Callable[[str], str | None]
    codes: int = 0  # rematch codes the call loads
    candidates: int = 0  # plan: sizes 2..n_r a first-feasible scan tests


def write_code_files(seed: int, tmp: Path) -> list[CodeFile]:
    rng = np.random.default_rng([seed, 1])
    tokens = np.array(["+1", "-1", "0"])
    files = []
    for k in range(CODE_FILES):
        n_r = int(round(10 ** (2 + 3 * k / (CODE_FILES - 1))))
        picks = rng.choice(3, size=n_r, p=CODE_P)
        path = tmp / f"codes-{k:02d}.csv"
        path.write_text("\n".join(tokens[picks].tolist()) + "\n", encoding="utf-8")
        plus, minus = int(np.count_nonzero(picks == 0)), int(np.count_nonzero(picks == 1))
        files.append(CodeFile(path, n_r, plus - minus, plus + minus))
    return files


@dataclass(frozen=True)
class OneshotInputs:
    seed: int
    files: list[CodeFile]


def prepare_oneshot(seed: int, tmp: Path) -> OneshotInputs:
    """Write the rematch code files."""
    return OneshotInputs(seed, write_code_files(seed, tmp))


def check_report(out: str, expected: dict[str, float]) -> str | None:
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return f"not a JSON report: {out!r}"
    if set(report) != set(expected):
        return f"report keys {sorted(report)}, expected {sorted(expected)}"
    for key, value in expected.items():
        if not math.isclose(report[key], value, rel_tol=1e-9, abs_tol=1e-9):
            return f"{key} = {report[key]!r}, oracle {value!r}"
    return None


def counts_call(rng: np.random.Generator, alpha_beta: bool) -> Call:
    N = 10 ** rng.uniform(3, 7)
    p1, p2 = rng.uniform(0.6, 0.95), rng.uniform(0.5, 0.9)
    n1, n2 = round(N * p1), round(N * p2)
    m = min(max(1, round(N * p1 * p2 * rng.uniform(0.97, 1.03))), n1, n2)
    argv = ["estimate", "--n1", str(n1), "--n2", str(n2), "--m", str(m), "--json"]
    expected = {"dse": n1 * n2 / m}
    kind = "counts"
    if alpha_beta:
        alpha, beta = rng.uniform(0.85, 0.99), rng.uniform(0.005, 0.05)
        argv += ["--alpha", repr(alpha), "--beta", repr(beta)]
        expected["ding_fienberg"] = (alpha - beta) * n1 * n2 / (m - beta * n1)
        kind = "alpha"
    return Call(kind, argv, lambda out: check_report(out, expected))


def rematch_call(rng: np.random.Generator, code_file: CodeFile) -> Call:
    """An ``estimate --rematch`` call whose counts keep every estimate
    defined: the corrected estimate lands within 2% of the population."""
    n_r = code_file.n_r
    while True:
        n1 = round(n_r / rng.uniform(0.1, 0.5))
        p1, p2 = rng.uniform(0.6, 0.9), rng.uniform(0.5, 0.9)
        N = n1 / p1
        nu_hat = n1 * code_file.total / n_r
        n2 = round(N * p2)
        m = round(n1 * n2 / (N * rng.uniform(0.98, 1.02)) - nu_hat)
        if not 1 <= m <= min(n1, n2):
            continue
        corrected = n1 * n2 / (m + nu_hat)
        if corrected > 1.01 * max(n1, n2):
            break
    s2 = (code_file.nonzero - code_file.total**2 / n_r) / (n_r - 1)
    sigma2 = n1**2 * (1.0 - n_r / n1) * s2 / n_r
    q1, q2 = n1 / corrected, n2 / corrected
    variance = corrected * (1 - q1) * (1 - q2) / (q1 * q2) + sigma2 / (q1 * q2) ** 2
    expected = {
        "dse": n1 * n2 / m,
        "nu_hat": nu_hat,
        "sigma2_eps": sigma2,
        "corrected": corrected,
        "corrected_variance": variance,
        "corrected_rse_pct": 100.0 * math.sqrt(variance) / corrected,
    }
    argv = [
        "estimate", "--n1", str(n1), "--n2", str(n2), "--m", str(m),
        "--rematch", str(code_file.path), "--json",
    ]
    return Call("rematch", argv, lambda out: check_report(out, expected), codes=n_r)


def plan_variance(n_r: int, n1: int, p1: float, p2: float, N: float, fnr: float, fpr: float) -> float:
    """Anticipated variance of the corrected estimator at rematch size n_r:
    the no-error DSE variance plus the rematch noise over p11**2."""
    p11 = p1 * p2
    pi_bar, eta_bar = fnr * p11 * N, fpr * p1 * (1.0 - p2) * N
    s2 = (pi_bar + eta_bar) / n1 - ((pi_bar - eta_bar) / n1) ** 2
    dse_variance = N * (1.0 - p1) * (1.0 - p2) / p11
    return dse_variance + n1**2 * (1.0 - n_r / n1) / n_r * s2 / p11**2


def plan_call(rng: np.random.Generator, u_size: float, u_fraction: float) -> Call:
    """A ``plan`` call whose answer is near a fraction 0.3..0.95 of n1, so the
    candidate scan runs long at large n1 (10^3..10^7)."""
    n1 = round(10 ** (3 + 4 * u_size))
    p1, p2 = rng.uniform(0.7, 0.95), rng.uniform(0.6, 0.9)
    fnr, fpr = rng.uniform(0.01, 0.06), rng.uniform(0.01, 0.06)
    N = n1 / p1
    goal = min(max(3, round((0.3 + 0.65 * u_fraction) * n1)), n1 - 1)
    target_rse = math.sqrt(plan_variance(goal, n1, p1, p2, N, fnr, fpr)) / N
    argv = [
        "plan", "--n1", str(n1), "--p1", repr(p1), "--p2", repr(p2), "--N", repr(N),
        "--fnr", repr(fnr), "--fpr", repr(fpr), "--target-rse", repr(target_rse),
    ]
    target_variance = (target_rse * N) ** 2

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("n_r: "):
            return f"unexpected plan output {out!r}"
        n_r = int(lines[0].split()[1])
        call.candidates = n_r - 1
        if not 2 <= n_r <= n1:
            return f"n_r = {n_r} outside [2, {n1}]"
        if plan_variance(n_r, n1, p1, p2, N, fnr, fpr) > target_variance * (1 + 1e-9):
            return f"n_r = {n_r} misses the target (n1={n1})"
        if n_r > 2 and plan_variance(n_r - 1, n1, p1, p2, N, fnr, fpr) <= target_variance * (1 - 1e-9):
            return f"n_r - 1 = {n_r - 1} already meets the target (n1={n1})"
        return None

    call = Call("plan", argv, check)
    return call


def oneshot_calls(seed: int, files: list[CodeFile]):
    """Endless, seed-determined stream of oneshot calls, block by block."""
    rng = np.random.default_rng([seed, 2])
    plan_u = rng.random(2)
    file_u = rng.random()
    n_plan = n_rematch = 0
    while True:
        for kind in rng.permutation(ONESHOT_BLOCK):
            if kind == "plan":
                n_plan += 1
                yield plan_call(
                    rng, (plan_u[0] + n_plan * R2_STEP[0]) % 1.0,
                    (plan_u[1] + n_plan * R2_STEP[1]) % 1.0,
                )
            elif kind == "rematch":
                n_rematch += 1
                index = int(len(files) * ((file_u + n_rematch * GOLDEN_STEP) % 1.0))
                yield rematch_call(rng, files[index])
            else:
                yield counts_call(rng, alpha_beta=kind == "alpha")


def run_calls(main: Callable, calls, tally: Tally, stop: Callable[[], bool]) -> list[Call]:
    """Closed loop over ``calls`` until ``stop()``; returns the calls made."""
    done = []
    while tally.attempted == 0 or not stop():
        call = next(calls)
        code, out, err, ms = invoke(main, call.argv)
        tally.latencies_ms.append(ms)
        tally.record(call.check(out) if code == 0 else f"{call.argv}: exit {code}: {err.strip()}")
        done.append(call)
    return done
