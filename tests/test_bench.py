"""The BENCH writer, ``bench/write_bench.py``. Run in process with its
protocol constants patched to tiny values, it must write every field; it
must reject a negative ``--tier1-runs`` before it runs, and its worker
must stop at a failed call. Its figures are not checked, and it does not
run the test suite. Every committed ``BENCH_*.json`` must hold what the
writer writes, at the writer's settings, so any two of them compare."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WRITER = ROOT / "bench" / "write_bench.py"
SUMMARY = {"best", "median", "q1", "q3", "n"}
MACHINE = {"cpu_count", "python", "numpy", "platform"}
TREE = {
    "commit", "dirty", "simulate_inprocess", "simulate_subprocess", "peak_rss_mb", "tier1",
    "layers_ms",
}
LAYERS = {
    "capture_draw", "error_injection", "rematch_draw", "estimate_counts", "aggregation",
    "render_csv",
}

spec = importlib.util.spec_from_file_location("write_bench", WRITER)
write_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(write_bench)


def test_writer_rejects_counts_below_one(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_:
        write_bench.main(["--out", str(out), "--tree", f"change={ROOT}", "--tier1-runs", "-1"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("--tier1-runs must be >= 0")
    assert not out.exists()


def test_worker_stops_at_a_failed_call():
    # every call fails: the environment's thread count is invalid
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DSE_LINK_THREADS="0")
    proc = subprocess.run(
        [sys.executable, str(WRITER), "--worker", "20", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    pattern = r"simulate --iterations 20 --seed 1 --output \S+ exited [1-9][0-9]*"
    assert re.fullmatch(pattern, proc.stderr.splitlines()[-1])


def test_writer_writes_every_field(tmp_path, monkeypatch):
    # the constants reach each tree's worker through its argv
    for name, value in dict(ITERATIONS=20, PAIRS=1, REPEATS=2, RSS_ITERATIONS=(30,)).items():
        monkeypatch.setattr(write_bench, name, value)
    out = tmp_path / "BENCH.json"
    argv = ["--out", str(out), "--tree", f"change={ROOT}", "--tier1-runs", "0"]
    assert write_bench.main(argv) == 0
    document = json.loads(out.read_text())
    assert set(document) == {"machine", "settings", "trees"}
    assert set(document["machine"]) == MACHINE
    assert document["settings"] == dict(
        seed=1, iterations=20, pairs=1, repeats=2, rss_iterations=[20, 30], tier1_runs=0
    )
    assert set(document["trees"]) == {"change"}
    tree = document["trees"]["change"]
    assert set(tree) == TREE
    assert tree["tier1"] is None
    timings = [*tree["simulate_inprocess"].values(), *tree["simulate_subprocess"].values()]
    assert set(tree["simulate_inprocess"]) == set(tree["simulate_subprocess"]) == {
        "wall_ms", "process_ms"
    }
    assert set(tree["layers_ms"]) == LAYERS
    for figures in [*timings, *tree["layers_ms"].values()]:
        assert set(figures) == SUMMARY and figures["n"] == 2
    # every layer saw calls: a renamed engine timer cannot zero a layer
    for figures in tree["layers_ms"].values():
        assert figures["best"] > 0
    # the subprocess runs give the RSS at ITERATIONS; one more run each at RSS_ITERATIONS
    assert set(tree["peak_rss_mb"]) == {"20", "30"}
    for figures in tree["peak_rss_mb"].values():
        assert set(figures) == SUMMARY
    assert tree["peak_rss_mb"]["20"]["n"] == 2 and tree["peak_rss_mb"]["30"]["n"] == 1


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_bench_file_matches_the_writer(path):
    # a later file may add keys, but not drop any or change the protocol
    document = json.loads(path.read_text())
    assert {"machine", "settings", "trees"} <= set(document)
    assert MACHINE <= set(document["machine"])
    settings = {key: document["settings"][key] for key in (
        "seed", "iterations", "pairs", "repeats", "rss_iterations"
    )}
    assert settings == dict(
        seed=write_bench.SEED, iterations=write_bench.ITERATIONS, pairs=write_bench.PAIRS,
        repeats=write_bench.REPEATS,
        rss_iterations=[write_bench.ITERATIONS, *write_bench.RSS_ITERATIONS],
    )
    for tree in document["trees"].values():
        assert TREE <= set(tree)
        assert set(tree["layers_ms"]) == LAYERS
        assert set(tree["peak_rss_mb"]) == {str(n) for n in settings["rss_iterations"]}
