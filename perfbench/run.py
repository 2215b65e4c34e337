"""dse-link benchmark: one command for every metric, with its unit.

    python3 perfbench/run.py --workload {grid,oneshot} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory. ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is a separate traced run that prints the
per-layer metrics. Every answer is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and a wrong answer makes the exit code 1. Generated inputs
live in a temporary directory under ``.perfbench/`` that is removed at the
end; a traced run also leaves its spans in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 40
WORKLOADS = ("grid", "oneshot")
END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ``dse_link`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        dl = importlib.import_module("dse_link")
        importlib.import_module("dse_link.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dse_link from {SRC}: {exc}")
    if not Path(dl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: dse_link was imported from {dl.__file__}, not {SRC}")
    return dl


def set_up(workload: str, seed: int, tmp: Path):
    """Import ``dse_link`` afresh and generate the workload's inputs.

    Returns the package, the inputs and the seconds it took. Dependencies
    such as numpy stay imported, so this times dse_link's own import."""
    for name in [m for m in sys.modules if m == "dse_link" or m.startswith("dse_link.")]:
        del sys.modules[name]
    start = time.perf_counter()
    dl = import_program()
    if workload == "oneshot":
        inputs = workloads.prepare_oneshot(seed, tmp)
    else:
        inputs = workloads.prepare_grid(dl.cli, seed, tmp)
    return dl, inputs, time.perf_counter() - start


def measure(workload: str, dl, inputs, seconds: float, tally: workloads.Tally) -> None:
    if workload == "oneshot":
        deadline = time.perf_counter() + seconds
        calls = workloads.oneshot_calls(inputs.seed, inputs.files)
        workloads.run_calls(dl.cli.main, calls, tally, lambda: time.perf_counter() >= deadline)
    else:
        workloads.run_grid(dl.cli, inputs, seconds, tally)
        workloads.check_thread_invariance(dl.cli, inputs, tally)


def end_to_end(tally: workloads.Tally, setup_s: list[float]) -> dict[str, float]:
    latencies = np.array(tally.latencies_ms)
    return {
        "setup_s": statistics.median(setup_s),
        "calls_per_s": latencies.size / (latencies.sum() / 1e3),
        "call_p50_ms": float(np.percentile(latencies, 50)),
        "call_p99_ms": float(np.percentile(latencies, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()  # fail before writing anything when there is no program
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(dir=state, prefix="tmp-") as tmp:
        # Half the set-ups run before the calls and half after them: the
        # host's speed drifts by about 20% over seconds, and two moments a
        # minute apart give a steadier median than one.
        setup_s = []
        for _ in range(SETUP_REPEATS // 2):
            dl, inputs, seconds = set_up(args.workload, args.seed, Path(tmp))
            setup_s.append(seconds)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.calibrate()
            print(
                f"tracer cost per span: {tracer.inside_ns:.0f} ns inside, "
                f"{tracer.outside_ns:.0f} ns outside (taken out of every span)",
                file=sys.stderr,
            )
            if args.workload == "oneshot":
                metrics = tracing.trace_oneshot(dl, inputs, args.seconds, tally, tracer)
            else:
                metrics = tracing.trace_grid(dl, inputs, args.seconds, tally, tracer)
            units = tracing.PER_LAYER
            tracer.write(state / f"trace-{args.workload}.jsonl")
        else:
            measure(args.workload, dl, inputs, args.seconds, tally)
            setup_s += [set_up(args.workload, args.seed, Path(tmp))[2] for _ in range(SETUP_REPEATS // 2)]
            metrics, units = end_to_end(tally, setup_s), END_TO_END

    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} cpus={workloads.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"operations={tally.attempted}"
    )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
