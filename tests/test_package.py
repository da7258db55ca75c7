import importlib
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
