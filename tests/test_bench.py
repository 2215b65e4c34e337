"""The BENCH writer, ``bench/write_bench.py``, run at tiny settings: it
must write every field, and reject a count below one before it runs.
Its figures are not checked, and it does not run the test suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WRITER = ROOT / "bench" / "write_bench.py"
SUMMARY = {"best", "median", "q1", "q3", "n"}


@pytest.mark.parametrize("option", ["--pairs", "--repeats"])
def test_writer_rejects_counts_below_one(tmp_path, option):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [
            sys.executable, str(WRITER), "--out", str(out), "--tree", f"change={ROOT}",
            "--iterations", "20", "--rss-iterations", "20", "--tier1-runs", "0", option, "0",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith("the other counts >= 1")
    assert not out.exists()


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
        "tier1", "layers_ms",
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
    # every layer saw calls: a renamed engine timer cannot zero a layer
    for figures in tree["layers_ms"].values():
        assert figures["best"] > 0
    for figures in tree["peak_rss_mb"].values():
        assert set(figures) == SUMMARY and figures["n"] == 1
