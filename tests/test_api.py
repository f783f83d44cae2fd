import importlib
import pkgutil
from types import ModuleType

import pytest

import pufir

# every submodule; the CLI front end exports nothing and has no __all__
MODULES = sorted(info.name for info in pkgutil.iter_modules(pufir.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"pufir.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_listed_names():
    listed = set()
    for name in MODULES:
        module = importlib.import_module(f"pufir.{name}")
        listed.update(getattr(module, "__all__", ()))
    exported = {n for n, value in vars(pufir).items()
                if not n.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(exported - listed) == []
