"""The benchmark's traced run (perfbench/tracing.py) swaps traced wrappers
into the program's modules by name, calls ``run_scenario`` with a thread
count, counts a grid round by the rows that ``cli.run_scenario`` runs, and
composes each row from the record-level stages. These tests fail when a
rename, a deletion or a changed call path would break it, or would leave
its grid loop waiting for a row that never comes."""

import importlib
import inspect
from pathlib import Path

import pytest

import dse_link.cli
import dse_link.simulation
from dse_link import ScenarioConfig, run_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing")


@pytest.mark.parametrize(
    "table, module",
    [("CLI_CALLEES", dse_link.cli), ("SIM_CALLEES", dse_link.simulation)],
)
def test_traced_names_resolve(tracing, table, module):
    names = getattr(tracing, table)
    assert names
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def test_run_scenario_takes_threads():
    signature = inspect.signature(dse_link.simulation.run_scenario)
    config = ScenarioConfig(p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05, f=0.1, seed=1)
    signature.bind(config, 4)
    signature.bind(config, threads=4)


def test_simulate_runs_each_bundled_row_through_cli_run_scenario(tmp_path, monkeypatch):
    calls = []

    def counting_run_scenario(config, *args, **kwargs):
        calls.append(config)
        return run_scenario(config, *args, **kwargs)

    monkeypatch.setattr(dse_link.cli, "run_scenario", counting_run_scenario)
    argv = ["simulate", "--iterations", "3", "--seed", "1", "--output", str(tmp_path / "out.csv")]
    assert dse_link.cli.main(argv) == 0
    assert len(calls) == 12


def test_compose_and_summary_key_run(tracing):
    config = ScenarioConfig(
        p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05, f=0.1, seed=1, iterations=5
    )
    key, touched = tracing.compose(dse_link, config, tracing.Tracer(), 0)
    assert len(key) == len(tracing.summary_key(run_scenario(config)))
    assert touched > 0
