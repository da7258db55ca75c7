import pytest

from uldplab.scenarios import run


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
