"""The package's public names: exactly the union of its library modules' ``__all__``."""

from __future__ import annotations

import importlib
import types

import pytest

import bellsource

MODULES = [importlib.import_module(f"bellsource.{name}")
           for name in ("characterize", "control", "distortion", "source", "statevec")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_module_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(bellsource, name) is getattr(module, name), name


def test_the_package_has_no_other_public_name():
    exported = [name for module in MODULES for name in module.__all__]
    assert len(exported) == len(set(exported)), "two modules export the same name"
    public = {
        name
        for name, value in vars(bellsource).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)
