"""The package's public names: exactly the union of its library modules' ``__all__``;
the finite rule's refusal spelled by its owner and the sites it cannot serve; the
runtime dependencies the CLI loads."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_the_finite_refusal_is_written_only_by_its_owner_and_three_sites():
    """Outside ``statevec._require_finite`` and ``_complex_array``, only messages with their
    own context spell the refusal: ``j_parameter`` and ``evolve`` name the fields and t,
    and ``HamiltonianMatrix`` shows its non-finite entries."""
    text = "must be finite, got"
    distortion = importlib.import_module("bellsource.distortion")
    owners = [importlib.import_module("bellsource.statevec"), distortion.j_parameter,
              distortion.evolve, distortion.HamiltonianMatrix]
    in_owners = [inspect.getsource(owner).count(text) for owner in owners]
    assert all(in_owners)
    assert sum(inspect.getsource(module).count(text) for module in MODULES) == sum(in_owners)


def test_the_cli_loads_no_third_party_module_but_numpy_and_click():
    """A fresh interpreter importing ``bellsource.cli`` loads, outside the standard
    library, only the package and its two runtime dependencies. ``-S`` keeps the
    site hooks (``.pth`` files) from loading modules before the import."""
    code = (
        "import sys; before = set(sys.modules); import bellsource.cli; "
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(*sorted(new - sys.stdlib_module_names))"
    )
    path = os.pathsep.join([str(Path(bellsource.__file__).parents[1]), *sys.path])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.split() == ["bellsource", "click", "numpy"]
