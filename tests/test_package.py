import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uldplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(uldplab.__path__))


def test_every_module_is_found():
    assert {"cli", "convergence", "estimators", "models", "pathspace", "rates", "scenarios", "uldp"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = importlib.import_module(f"uldplab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


FAILING_EXAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_fails_one_test_and_the_session_goes_on(tmp_path):
    # warnings are errors in this config; one raised while reporting a failing example must not abort the run
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_example.py").write_text(FAILING_EXAMPLE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_example.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
    assert done.returncode == 1


NUMPY_ONLY = '''
import sys

from uldplab import cli
from uldplab.convergence import control_conv
from uldplab.estimators import EpsilonSchedule
from uldplab.models import TranslatedBM
from uldplab.pathspace import TimeGrid
from uldplab.uldp import IndexSetSample

out = sys.argv[1]
assert cli.main(["scenario", "ulp-counter", "--out", out + "/ulp.json"]) == 0  # the Laplace path
assert cli.main([
    "check", "--model", "translated-bm", "--definition", "fwuldp", "--x", "-1000000", "--x", "0",
    "--x", "1000000", "--eps-grid", "0.05:0.2:3", "--delta", "0.4", "--s0", "0.25", "--out", out + "/report.json",
]) == 0
table = control_conv(
    TranslatedBM(), TimeGrid(1.0, 8), IndexSetSample("origin", [(0.0,)], tag="bounded"),
    control_bound=1.0, delta=0.25, schedule=EpsilonSchedule((0.1, 0.01, 0.001)), control_count=2, n=16,
)
assert table.slope == table.slope  # the fit ran
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
'''


def test_the_package_runs_on_numpy_alone(tmp_path):
    # importing scipy more than doubled a process's set-up time; only the tests may use it
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(tmp_path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
