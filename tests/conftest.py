import importlib.util
import sys
from pathlib import Path

import pytest

from uldplab.scenarios import run

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="session")
def pinned_run():
    """``pinned_run(name)``: the scenario's result at its pinned seed, run once per session.

    Every test that asks for the same scenario reads the same result, so
    the tests must not modify it.
    """
    results = {}

    def get(name):
        if name not in results:
            results[name] = run(name)
        return results[name]

    return get


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's ``workloads`` module, loaded from its file; nothing under bench/ is written."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]
