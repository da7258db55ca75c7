import importlib
import pkgutil

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
