import dataclasses
import importlib
import inspect
import pkgutil
from types import ModuleType

import pytest

import pufir
from pufir.blaschke import AngleParams, BPProduct, design_optimize
from pufir.io import (dumps_json, dumps_poly, load_angles, load_poly,
                      save_angles, save_poly)
from pufir.laurent import LaurentPoly
from pufir.realization import gramian_normalize, gramians

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


def public_callables():
    """(qualified name, object) of every listed callable and the public
    methods of every listed class."""
    for name in MODULES:
        module = importlib.import_module(f"pufir.{name}")
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if callable(obj):
                yield f"{name}.{export}", obj
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(member):
                        yield f"{name}.{export}.{attr}", member


def test_no_side_parameter_or_field():
    # the shape decides the side: p >= m is isometric, p < m co-isometric
    named = [qual for qual, obj in public_callables()
             if "side" in inspect.signature(obj).parameters]
    named += [f"{qual}.side" for qual, obj in public_callables()
              if dataclasses.is_dataclass(obj)
              and "side" in {f.name for f in dataclasses.fields(obj)}]
    assert named == []


@pytest.mark.parametrize("func", [gramians, gramian_normalize,
                                  LaurentPoly.trim])
def test_fixed_tolerances_take_no_tol(func):
    assert "tol" not in inspect.signature(func).parameters


def test_chart_layer_gains_no_knobs():
    assert tuple(inspect.signature(design_optimize).parameters) == (
        "residual", "p", "m", "d", "gamma", "budget", "seed")
    fields = {cls: tuple(f.name for f in dataclasses.fields(cls))
              for cls in (AngleParams, BPProduct)}
    assert fields == {AngleParams: ("p", "m", "d", "gamma", "angles"),
                      BPProduct: ("gamma", "vs", "U")}


@pytest.mark.parametrize("func, params", [
    (dumps_json, ("data",)), (dumps_poly, ("F",)),
    (save_poly, ("F", "path")), (save_angles, ("params", "path")),
    (load_poly, ("path",)), (load_angles, ("path",))])
def test_io_entry_points_gain_no_knobs(func, params):
    # no indent, piece size or encoder option: one text format
    assert tuple(inspect.signature(func).parameters) == params
