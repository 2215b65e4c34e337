"""The benchmark's traced run (perfbench/tracing.py) swaps traced wrappers
into the program's modules by name and calls ``run_scenario`` with a
thread count. These tests fail when a rename or deletion would break it."""

import importlib
import inspect
from pathlib import Path

import pytest

import dse_link.cli
import dse_link.simulation
from dse_link import ScenarioConfig

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
