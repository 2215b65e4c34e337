"""Write a BENCH_*.json file: end-to-end and per-layer figures of
``dselink simulate`` on the bundled grid, for one or more source trees.

    python bench/write_bench.py --out BENCH_<n>.json \\
        --tree parent=<clean clone of the parent> --tree change=.

Every file runs one fixed protocol, the module constants recorded under
``settings``, so any two compare; only ``--tier1-runs`` varies. Each
figure is taken in a child interpreter with ``PYTHONPATH=<tree>/src``, so
trees never share a process. In each of ``PAIRS`` rounds every tree takes
a turn, each pair of rounds alternating which runs first, and records:

- ``simulate_inprocess``: ``REPEATS`` warmed-up ``cli.main(["simulate",
  ...])`` calls at ``ITERATIONS`` iterations, wall and process time each;
- ``simulate_subprocess``: ``REPEATS`` fresh ``python -m dse_link.cli
  simulate`` processes at ``ITERATIONS``, wall and process time;
- ``peak_rss_mb``: the peak RSS of those processes, and of one more at
  each of ``RSS_ITERATIONS``;
- ``layers_ms``: each in-process call split into ``LAYERS``: the stage
  times in the counter of the ``_shared_draws`` block that
  ``cli.cmd_simulate`` opens (a reused stage costs only the state
  restore), and the time of ``cli.render_csv``.

Then ``tier1`` times ``--tier1-runs`` runs of each tree's test suite.
The in-process calls run in each tree's own ``bench/write_bench.py
--worker ITERATIONS REPEATS``, which prints one JSON object of per-call
lists and exits nonzero if a call fails; a tree older than the engine's
stage timers fills the same layers its own way. Timings give best,
median, quartiles and count. The file also records the machine and each
tree's commit (``dirty`` when tracked files differ from it).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Each layer's names in the counter of a simulation._shared_draws block;
# the worker adds render_csv.
LAYERS = dict(
    capture_draw=("capture",), error_injection=("missed", "spurious"), rematch_draw=("rematch",),
    estimate_counts=("estimate",), aggregation=("aggregation",), render_csv=("render_csv",),
)
SEED = 1
ITERATIONS = 10_000
PAIRS = 10  # rounds over the trees
REPEATS = 5  # calls of each kind per tree and round
RSS_ITERATIONS = (1_000_000,)  # besides ITERATIONS


def summary(values: list[float]) -> dict:
    """Best, median, quartiles and count of ``values``."""
    points = values if len(values) > 1 else values * 2  # quantiles needs two
    q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
    return dict(best=min(values), median=median, q1=q1, q3=q3, n=len(values))


def simulate_argv(iterations: int, output: str) -> list[str]:
    return ["simulate", "--iterations", str(iterations), "--seed", str(SEED), "--output", output]


def child(tree: Path, argv: list[str], cwd: Path | None = None, check: bool = True) -> dict:
    """Run ``python argv`` against ``tree``'s source; its wall time, process
    time and peak RSS, and the last line of its stdout. With ``check``, a
    nonzero exit status stops the writer."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if check and proc.returncode:
        raise SystemExit(f"{' '.join(argv)} on {tree} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return dict(
        wall_s=time.perf_counter() - start,
        process_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        last=lines[-1] if lines else "",
    )


def worker(iterations: int, repeats: int) -> dict:
    """In-process grid calls, each split into ``LAYERS``; run in a child
    whose ``dse_link`` is the tree's. A failed call stops it."""
    from dse_link import cli

    shared_draws, render_csv, totals = cli._shared_draws, cli.render_csv, collections.Counter()

    @contextlib.contextmanager
    def counted_draws(configs):
        with shared_draws(configs) as counter:
            yield counter
        totals.update(counter)

    def timed_render_csv(*args, **kwargs):
        start = time.perf_counter_ns()
        text = render_csv(*args, **kwargs)
        totals["render_csv"] += time.perf_counter_ns() - start
        return text

    cli._shared_draws, cli.render_csv = counted_draws, timed_render_csv
    figures = collections.defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        argv = simulate_argv(iterations, str(Path(tmp, "out.csv")))
        for call in range(repeats + 1):  # call 0 warms up: lazy imports and caches
            totals.clear()
            wall, process = time.perf_counter(), time.process_time()
            if code := cli.main(argv):
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            if not call:
                continue
            figures["wall_ms"].append(1e3 * (time.perf_counter() - wall))
            figures["process_ms"].append(1e3 * (time.process_time() - process))
            for layer, names in LAYERS.items():
                figures[layer].append(sum(totals[name] for name in names) / 1e6)
    return figures


def commit(tree: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return dict(commit=git("rev-parse", "HEAD"),
                dirty=bool(git("status", "--porcelain", "--untracked-files=no")))


def turns(trees: dict, round_: int) -> list:
    """The tree names in the order they run in round ``round_``: the order
    given in even rounds, reversed in odd ones."""
    return list(trees) if round_ % 2 == 0 else list(trees)[::-1]


def measure(trees: dict[str, Path], tier1_runs: int) -> dict:
    raw = {name: collections.defaultdict(list) for name in trees}
    for round_ in range(PAIRS):
        for name in turns(trees, round_):
            tree, figures = trees[name], raw[name]
            script = str(tree / "bench" / "write_bench.py")
            worker = [script, "--worker", str(ITERATIONS), str(REPEATS)]
            for key, values in json.loads(child(tree, worker)["last"]).items():
                figures[key] += values
            with tempfile.TemporaryDirectory() as tmp:
                output = str(Path(tmp, "out.csv"))
                for iterations in (ITERATIONS,) * REPEATS + RSS_ITERATIONS:
                    run = child(tree, ["-m", "dse_link.cli", *simulate_argv(iterations, output)])
                    figures[f"rss_{iterations}"].append(run["rss_mb"])
                    if iterations == ITERATIONS:
                        figures["sub_wall_ms"].append(1e3 * run["wall_s"])
                        figures["sub_process_ms"].append(1e3 * run["process_s"])
    tier1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    for round_ in range(tier1_runs):
        for name in turns(trees, round_):
            # a failing suite is still timed; its summary line is recorded
            run = child(trees[name], tier1, cwd=trees[name], check=False)
            raw[name]["tier1_wall_s"].append(run["wall_s"])
            raw[name]["tier1_process_s"].append(run["process_s"])
            raw[name]["tier1_result"].append(run["last"])
    return {
        name: dict(
            **commit(trees[name]),
            simulate_inprocess=dict(wall_ms=summary(f["wall_ms"]),
                                    process_ms=summary(f["process_ms"])),
            simulate_subprocess=dict(wall_ms=summary(f["sub_wall_ms"]),
                                     process_ms=summary(f["sub_process_ms"])),
            peak_rss_mb={str(n): summary(f[f"rss_{n}"]) for n in (ITERATIONS, *RSS_ITERATIONS)},
            tier1=dict(
                wall_s=summary(f["tier1_wall_s"]),
                process_s=summary(f["tier1_process_s"]),
                result=f["tier1_result"],
            ) if tier1_runs else None,
            layers_ms={layer: summary(f[layer]) for layer in LAYERS},
        )
        for name, f in raw.items()
    }


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        print(json.dumps(worker(*map(int, sys.argv[2:4]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout to measure; repeat to compare trees")
    parser.add_argument("--tier1-runs", type=int, default=1, help="test-suite runs per tree")
    args = parser.parse_args(argv)
    if args.tier1_runs < 0:
        parser.error("--tier1-runs must be >= 0")
    specs = (spec.partition("=") for spec in args.tree)
    trees = {name: Path(path).resolve() for name, _, path in specs}
    import numpy

    document = dict(
        machine=dict(
            cpu_count=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            python=platform.python_version(),
            numpy=numpy.__version__,
            platform=platform.platform(),
        ),
        settings=dict(
            seed=SEED, iterations=ITERATIONS, pairs=PAIRS, repeats=REPEATS,
            rss_iterations=[ITERATIONS, *RSS_ITERATIONS], tier1_runs=args.tier1_runs,
        ),
        trees=measure(trees, args.tier1_runs),
    )
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
