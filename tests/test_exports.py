"""Every exported name exists, so tools that walk ``__all__`` can rely on it."""

import importlib
import inspect

import pytest

import unital_otto

LAYERS = ("qstate", "trajectory", "cumulants", "analysis", "landauzener")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_entry_is_defined(layer):
    module = importlib.import_module(f"unital_otto.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_only_layer_exports():
    exported = {}
    for layer in LAYERS:
        module = importlib.import_module(f"unital_otto.{layer}")
        exported.update((name, getattr(module, name)) for name in module.__all__)
    public = {
        name: value for name, value in vars(unital_otto).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(set(public) - set(exported)) == []
    assert all(public[name] is exported[name] for name in public)
