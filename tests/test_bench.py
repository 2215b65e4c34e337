"""The BENCH writer, ``bench/write_bench.py``, run at tiny settings: it
must write every field. Its figures are not checked, and it does not run
the test suite."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from dse_link.cli import bundled_scenario_path, load_scenario_file
from dse_link.simulation import _stage_keys

ROOT = Path(__file__).resolve().parent.parent
WRITER = ROOT / "bench" / "write_bench.py"
SUMMARY = {"best", "median", "q1", "q3", "n"}


def test_writer_splits_stages_by_the_capture_key():
    spec = importlib.util.spec_from_file_location("write_bench", WRITER)
    write_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(write_bench)
    capture, missed, spurious = _stage_keys(load_scenario_file(bundled_scenario_path(), 10, 1, 1000)[0], 0, 10)
    assert len(capture) == write_bench.CAPTURE_KEY_FIELDS
    assert write_bench.CAPTURE_KEY_FIELDS < len(missed) < len(spurious)


def test_writer_writes_every_field(tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run(
        [
            sys.executable, str(WRITER), "--out", str(out),
            "--tree", f"change={ROOT}", "--iterations", "20", "--pairs", "1", "--repeats", "2",
            "--rss-iterations", "20", "30", "--tier1-runs", "0",
        ],
        check=True,
        timeout=120,
    )
    document = json.loads(out.read_text())
    assert set(document) == {"machine", "settings", "trees"}
    assert set(document["machine"]) == {"cpu_count", "python", "numpy", "platform"}
    assert set(document["trees"]) == {"change"}
    tree = document["trees"]["change"]
    assert set(tree) == {
        "commit", "dirty", "simulate_inprocess", "simulate_subprocess", "peak_rss_mb",
        "tier1", "layers_ms", "proxy_overhead_ms",
    }
    assert tree["tier1"] is None
    timings = [*tree["simulate_inprocess"].values(), *tree["simulate_subprocess"].values()]
    assert set(tree["simulate_inprocess"]) == set(tree["simulate_subprocess"]) == {
        "wall_ms", "process_ms"
    }
    assert set(tree["layers_ms"]) == {
        "capture_draw", "error_injection", "rematch_draw", "estimate_counts", "aggregation",
        "render_csv",
    }
    assert set(tree["peak_rss_mb"]) == {"20", "30"}
    for figures in [*timings, *tree["layers_ms"].values()]:
        assert set(figures) == SUMMARY and figures["n"] == 2
    # each stage wrapper saw calls: a key layout change cannot zero a layer
    assert tree["layers_ms"]["capture_draw"]["best"] > 0
    assert tree["layers_ms"]["error_injection"]["best"] > 0
    for figures in tree["peak_rss_mb"].values():
        assert set(figures) == SUMMARY and figures["n"] == 1
