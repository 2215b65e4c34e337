"""Traced run of the dse-link benchmark: per-layer numbers.

Spans are recorded from the benchmark's own code, around calls into the
public functions of each module (``simulation``, ``rematch``,
``estimators``, ``variance``, ``cli``). Calls that ``cli.main`` makes are
traced by swapping traced wrappers into the ``dse_link.cli`` namespace for
the duration of the traced calls, and the stage calls that ``run_scenario``
makes by swapping them into the ``dse_link.simulation`` namespace.

The tracer's own cost per span is measured at the start of a run and taken
out of every span total and self time (see ``Tracer.calibrate``).

The simulation stages are timed by composing them in the order
``run_scenario`` uses, with the same per-iteration random streams. The
composed aggregates must equal ``run_scenario``'s summary; if they do not,
the stage numbers would describe another program, so they are withheld
and the mismatch is reported.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import (
    TRACE_ITERATIONS, Tally, cpu_count, invoke, oneshot_calls, run_calls,
)

LAYERS = ("simulation", "rematch", "estimators", "variance", "cli")
# Layer functions that cli.main calls, traced as "<layer>.<name>".
CLI_CALLEES = {
    "dse": "estimators", "ding_fienberg": "estimators",
    "naive_corrected": "estimators", "ht_nu": "rematch",
    "plan_sample_size": "rematch", "naive_variance_estimate": "variance",
    "load_rematch_codes": "cli", "load_scenario_file": "cli",
    "render_csv": "cli",
}
# Stage functions that run_scenario calls, traced as "<layer>.<name>".
SIM_CALLEES = {
    "generate_population": "simulation", "inject_linkage_errors": "simulation",
    "draw_rematch": "simulation", "ht_nu": "rematch", "dse": "estimators",
    "naive_corrected": "estimators", "naive_variance_estimate": "variance",
}

# Every traced run prints all of these; a layer idle on a workload reads 0.
PER_LAYER = {
    "simulation.seed_us": "us",
    "simulation.generate_population_us": "us",
    "simulation.inject_linkage_errors_us": "us",
    "simulation.draw_rematch_us": "us",
    "simulation.run_scenario_self_us": "us",
    "simulation.records_touched_per_iter": "count",
    "simulation.thread_speedup.grid": "x",
    "simulation.exclusion_ratio": "ratio",
    "simulation.composition_mismatches": "count",
    "rematch.ht_nu_us": "us",
    "rematch.plan_sample_size_ms": "ms",
    "rematch.plan_candidates_scanned": "count",
    "estimators.dse_us": "us",
    "estimators.naive_corrected_us": "us",
    "estimators.ding_fienberg_us": "us",
    "variance.naive_variance_estimate_us": "us",
    "cli.parse_us": "us",
    "cli.load_rematch_codes_us_per_code": "us",
    "cli.main_self_us": "us",
    "cli.render_ms": "ms",
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans kept in memory, one column per field: name, start ns, end ns,
    parent span index (-1 for none) and iteration id (-1 for none).
    Columns of machine integers keep hundreds of thousands of spans small
    and add no objects for the garbage collector to walk."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.iterations = array("q")
        self._open: list[int] = []
        self.iteration = -1
        self.inside_ns = 0.0  # tracer time inside each span, set by calibrate()
        self.outside_ns = 0.0  # tracer time around each span, charged to its parent

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.iterations.append(self.iteration)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Measure what one span of a traced no-op call costs the tracer:
        the time between its clock reads beyond the call itself (inside),
        and the time the wrapper spends outside them (outside), which would
        otherwise land in the parent's self time. Medians over ``repeats``
        rounds of ``calls`` spans, each against an empty loop and a direct
        call."""
        inside, outside = [], []
        for _ in range(repeats):
            probe = Tracer()
            traced = probe.wrap("calibrate", _noop)
            loops = range(calls)
            start = time.perf_counter_ns()
            for _ in loops:
                pass
            empty = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for _ in loops:
                _noop(None, None)
            direct = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for _ in loops:
                traced(None, None)
            wrapped = time.perf_counter_ns() - start
            spans = sum(probe.ends) - sum(probe.starts)
            inside.append((spans - (direct - empty)) / calls)
            outside.append((wrapped - empty - spans) / calls)
        self.inside_ns = statistics.median(inside)
        self.outside_ns = statistics.median(outside)

    def totals(self) -> dict[str, list[float]]:
        """name -> [spans, total ns, self ns], with the calibrated tracer
        cost taken out: a span's duration loses ``inside_ns``, and its self
        time is that minus each child span's whole cost (its duration plus
        ``outside_ns``)."""
        child_ns = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_ns[parent] += end - start + self.outside_ns
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, children in zip(self.names, self.starts, self.ends, child_ns):
            duration = end - start - self.inside_ns
            entry = totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
        return totals

    def write(self, path: Path) -> None:
        """One JSON array [name, start_ns, end_ns, parent, iteration] a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.iterations):
                handle.write(json.dumps(span) + "\n")


def _noop(a, b):
    return None


@contextlib.contextmanager
def swapped(module, callees: dict[str, str], tracer: Tracer, extra: dict | None = None):
    """Swap traced wrappers of ``callees`` (name -> layer) and ``extra``
    into ``module``'s namespace, restoring the originals on exit."""
    swaps = {name: tracer.wrap(f"{layer}.{name}", getattr(module, name)) for name, layer in callees.items()}
    swaps.update(extra or {})
    saved = {name: getattr(module, name) for name in swaps}
    try:
        for name, fn in swaps.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def traced_cli(cli, tracer: Tracer, extra: dict | None = None):
    """Trace the layer functions ``cli.main`` calls. Parsing (building the
    parser and ``parse_args``) counts as cli.parse."""
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.call("cli.parse", build_parser)
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    return swapped(cli, CLI_CALLEES, tracer, {"build_parser": traced_build_parser, **(extra or {})})


def per_call_us(totals, name: str, per: float | None = None) -> float:
    count, total_ns, _ = totals.get(name, (0, 0, 0))
    divisor = count if per is None else per
    return total_ns / 1e3 / divisor if divisor else 0.0


def layer_calls(totals) -> dict[str, float]:
    calls = {layer: 0 for layer in LAYERS}
    for name, (count, _, _) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in calls:
            calls[layer] += count
    return {f"{layer}.calls": float(count) for layer, count in calls.items()}


# --- grid workload --------------------------------------------------------


def summary_key(summary) -> tuple:
    return (
        summary.dse.mean, summary.dse.erb_pct, summary.dse.erse_pct,
        summary.uncorrected.mean, summary.uncorrected.erb_pct, summary.uncorrected.erse_pct,
        summary.corrected.mean, summary.corrected.erb_pct, summary.corrected.erse_pct,
        summary.arse_pct, summary.arse_root_mean_var_pct,
        summary.iterations_completed, summary.exclusions,
    )


def _stats(values: np.ndarray, population: int) -> tuple:
    if values.size == 0 or population <= 0:
        return (None, None, None)
    mean = float(values.mean())
    erse = float(100.0 * values.std(ddof=1) / population) if values.size >= 2 else None
    return (mean, 100.0 * abs(mean - population) / population, erse)


def compose(dl, config, tracer: Tracer, first_iteration: int) -> tuple[tuple, int]:
    """Run ``config`` through the public stage functions, in ``run_scenario``'s
    order and with its per-iteration streams, one span per stage call.

    Returns the aggregates in ``summary_key`` order and the records the
    record-level stages touched (2N capture draws, one error draw per
    source-1 record, and the rematch draw)."""
    R, N = config.iterations, config.N
    tracer.iteration = -1
    children = tracer.call("simulation.seed", np.random.SeedSequence(config.seed).spawn, R)
    estimates = np.full((4, R), np.nan)
    ok = np.zeros(R, dtype=bool)
    touched = 0
    for i in range(R):
        tracer.iteration = first_iteration + i
        rng = tracer.call("simulation.seed", np.random.default_rng, children[i])
        try:
            state = tracer.call("simulation.generate_population", dl.generate_population, config, rng)
            state = tracer.call(
                "simulation.inject_linkage_errors", dl.inject_linkage_errors,
                state, config.fnr, config.fpr, rng,
            )
            sample = tracer.call("simulation.draw_rematch", dl.draw_rematch, state, config.f, rng)
            nu = tracer.call("rematch.ht_nu", dl.ht_nu, sample)
            e_true = tracer.call("estimators.dse", dl.dse, state.counts_true).n_hat
            e_star = tracer.call("estimators.dse", dl.dse, state.counts_star).n_hat
            e_corr = tracer.call(
                "estimators.naive_corrected", dl.naive_corrected, state.counts_star, nu.nu_hat
            ).n_hat
            v_corr = tracer.call(
                "variance.naive_variance_estimate", dl.naive_variance_estimate,
                e_corr, state.counts_star, nu,
            )
        except dl.EstimationError:
            continue
        estimates[:, i] = (e_true, e_star, e_corr, v_corr)
        ok[i] = True
        touched += 2 * N + state.counts_true.n1plus + sample.n_r
    tracer.iteration = -1
    completed = int(np.count_nonzero(ok))
    variances = estimates[3, ok]
    if completed and N > 0:
        arse = float(100.0 * np.sqrt(variances).mean() / N)
        arse_rmv = float(100.0 * np.sqrt(variances.mean()) / N)
    else:
        arse = arse_rmv = None
    key = (
        _stats(estimates[0, ok], N) + _stats(estimates[1, ok], N) + _stats(estimates[2, ok], N)
        + (arse, arse_rmv, completed, R - completed)
    )
    return key, touched


def trace_grid(dl, inputs, seconds: float, tally: Tally, tracer: Tracer) -> dict:
    """Rounds of: the grid's simulate call with the cli and the stage calls
    of ``run_scenario`` traced; each row's ``run_scenario`` at 1 and nproc
    threads; the composed stages. Runs until ``seconds`` have passed (at
    least one round)."""
    cli = dl.cli
    nproc = max(2, cpu_count())
    threads_ns = {1: 0, nproc: 0}
    compose_ns = iterations = simulated = touched = excluded = mismatches = 0

    # run_scenario seeds through numpy directly; these trace that seeding
    # as simulation.seed, so its self time holds only its own loop.
    class TracedSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            return tracer.call("simulation.seed", super().spawn, n_children)

    seeding = {
        "SeedSequence": TracedSeedSequence,
        "default_rng": tracer.wrap("simulation.seed", np.random.default_rng),
    }
    start = time.perf_counter()
    while tally.attempted == 0 or time.perf_counter() - start < seconds:
        summaries = []

        def run_scenario(config, threads=1):
            summary = dl.run_scenario(config, threads=threads)
            summaries.append(summary)
            return summary

        argv = inputs.argv(inputs.next_seed(), TRACE_ITERATIONS)
        traced_run = tracer.wrap("simulation.run_scenario", run_scenario)
        with (
            traced_cli(cli, tracer, {"run_scenario": traced_run}),
            swapped(dl.simulation, SIM_CALLEES, tracer),
            swapped(np.random, {}, tracer, seeding),
        ):
            code, _, err, _ = invoke(tracer.wrap("cli.main", cli.main), argv)
        if code != 0:
            tally.record(f"simulate exited {code}: {err.strip()}")
            continue
        simulated += sum(summary.config.iterations for summary in summaries)
        for summary in summaries:
            config = summary.config
            for threads in threads_ns:
                begin = time.perf_counter_ns()
                tracer.call(f"simulation.run_scenario.threads{threads}", dl.run_scenario, config, threads)
                threads_ns[threads] += time.perf_counter_ns() - begin
            begin = time.perf_counter_ns()
            key, records = compose(dl, config, tracer, iterations)
            compose_ns += time.perf_counter_ns() - begin
            iterations += config.iterations
            touched += records
            excluded += summary.exclusions
            # A mismatch means the composition no longer describes the
            # program; the program's own answer is not wrong.
            if key != summary_key(summary):
                mismatches += 1
                print(
                    f"composed stages do not reproduce run_scenario for {config}: "
                    f"{key} != {summary_key(summary)}; stage metrics withheld",
                    file=sys.stderr,
                )
            tally.record(None)

    totals = tracer.totals()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_calls(totals))
    main_calls = totals["cli.main"][0]
    metrics.update({
        "simulation.thread_speedup.grid": threads_ns[1] / threads_ns[nproc],
        "simulation.exclusion_ratio": excluded / iterations,
        "simulation.composition_mismatches": float(mismatches),
        "cli.parse_us": per_call_us(totals, "cli.parse", main_calls),
        "cli.main_self_us": totals["cli.main"][2] / 1e3 / main_calls,
        "cli.render_ms": per_call_us(totals, "cli.render_csv") / 1e3,
        "trace.overhead_pct": 100.0 * (compose_ns / threads_ns[1] - 1.0),
    })
    if mismatches == 0:
        metrics.update({
            "simulation.seed_us": per_call_us(totals, "simulation.seed", iterations + simulated),
            "simulation.generate_population_us": per_call_us(totals, "simulation.generate_population"),
            "simulation.inject_linkage_errors_us": per_call_us(totals, "simulation.inject_linkage_errors"),
            "simulation.draw_rematch_us": per_call_us(totals, "simulation.draw_rematch"),
            "simulation.run_scenario_self_us": totals["simulation.run_scenario"][2] / 1e3 / simulated,
            "simulation.records_touched_per_iter": touched / iterations,
            "rematch.ht_nu_us": per_call_us(totals, "rematch.ht_nu"),
            "estimators.dse_us": per_call_us(totals, "estimators.dse"),
            "estimators.naive_corrected_us": per_call_us(totals, "estimators.naive_corrected"),
            "variance.naive_variance_estimate_us": per_call_us(totals, "variance.naive_variance_estimate"),
        })
    return metrics


# --- oneshot workload -----------------------------------------------------


def trace_oneshot(dl, inputs, seconds: float, tally: Tally, tracer: Tracer) -> dict:
    """The oneshot mix untraced for half the time, then the same calls traced."""
    cli = dl.cli
    untraced = Tally()
    half = time.perf_counter() + seconds / 2
    done = run_calls(cli.main, oneshot_calls(inputs.seed, inputs.files), untraced, lambda: time.perf_counter() >= half)
    traced = Tally()
    traced_main = tracer.wrap("cli.main", cli.main)
    count = len(done)
    with traced_cli(cli, tracer):
        done = run_calls(traced_main, oneshot_calls(inputs.seed, inputs.files), traced, lambda: traced.attempted >= count)
    tally.attempted = untraced.attempted + traced.attempted
    tally.failed = untraced.failed + traced.failed

    totals = tracer.totals()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layer_calls(totals))
    plans = [call for call in done if call.kind == "plan"]
    codes = sum(call.codes for call in done)
    metrics.update({
        "rematch.ht_nu_us": per_call_us(totals, "rematch.ht_nu"),
        "rematch.plan_sample_size_ms": per_call_us(totals, "rematch.plan_sample_size") / 1e3,
        "rematch.plan_candidates_scanned": sum(c.candidates for c in plans) / max(1, len(plans)),
        "estimators.dse_us": per_call_us(totals, "estimators.dse"),
        "estimators.naive_corrected_us": per_call_us(totals, "estimators.naive_corrected"),
        "estimators.ding_fienberg_us": per_call_us(totals, "estimators.ding_fienberg"),
        "variance.naive_variance_estimate_us": per_call_us(totals, "variance.naive_variance_estimate"),
        "cli.parse_us": per_call_us(totals, "cli.parse", count),
        "cli.load_rematch_codes_us_per_code": per_call_us(totals, "cli.load_rematch_codes", codes),
        "cli.main_self_us": totals["cli.main"][2] / 1e3 / count,
        "trace.overhead_pct": 100.0 * (sum(traced.latencies_ms) / sum(untraced.latencies_ms) - 1.0),
    })
    return metrics
