"""Every exported name exists, so tools that walk ``__all__`` can rely on it,
and the package reports the version that pyproject.toml gives it."""

import importlib
import inspect
import re
from pathlib import Path

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
    # __all__ names every layer export, the array layer's included, which
    # the package imports on first access
    assert sorted(unital_otto.__all__) == sorted(exported)
    assert all(getattr(unital_otto, name) is exported[name] for name in exported)


def test_version_is_the_project_version():
    # a regex, not tomllib: the oldest supported Python (3.10) has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert unital_otto.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
