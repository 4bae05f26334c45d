"""The package's public names: exactly the union of its library modules' ``__all__``,
each function with a caller or a paper quantity; the finite rule's refusal spelled by
its owner and the sites it cannot serve; the runtime dependencies the CLI loads."""

from __future__ import annotations

import ast
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


# README's rule for a public name: it stays if the CLI, another module or perfbench calls
# it, or if it is the only library path to a paper quantity README names. These functions
# stay by the second clause.
PAPER_QUANTITIES = {
    "j_parameter": "the interaction ratio j",
    "rational_approx": "the best rational approximation Q(j) and the mismatch delta",
    "psi1": "the first species",
    "psi2": "the second species at an angle",
    "controlled_psi1": "the first species after the correction cycle",
    "controlled_psi2": "the second species after the correction cycle",
    "circuit_outcome_distribution": "the ancilla circuit's outcome law",
    "region_arrays": "the steering region over the whole target grid",
}
# Functions that fit no clause yet; README names them as the next cut, with what they feed.
NEXT_CUT = {
    "collapse_qubits": "the shot/primitive digest",
    "sample_measurements": "the readout digest",
    "label_to_outcome": "no digest",
}


def _identifiers(path: Path) -> set[str]:
    """The names a module's code uses: plain names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_function_has_a_caller_or_a_paper_quantity():
    package = Path(bellsource.__file__).parent
    perfbench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert perfbench, "perfbench/ not found next to tests/"
    uncalled = set()
    for module in MODULES:
        others = [path for path in package.glob("*.py") if path != Path(module.__file__)]
        used = set().union(*map(_identifiers, others + perfbench))
        uncalled |= {name for name in module.__all__
                     if inspect.isfunction(getattr(module, name)) and name not in used}
    keep = set(PAPER_QUANTITIES) | set(NEXT_CUT)
    assert not uncalled - keep, f"no caller and no paper quantity: {sorted(uncalled - keep)}"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    unnamed = [name for name in sorted(keep) if f"`{name}`" not in readme]
    assert not unnamed, f"README's rule paragraph does not name {unnamed}"


def test_the_finite_refusal_is_written_only_by_its_owner_and_two_sites():
    """Outside ``statevec._require_finite`` and ``_complex_array``, only messages with their
    own context spell the refusal: ``j_parameter`` and ``evolve`` name the fields and t."""
    text = "must be finite, got"
    distortion = importlib.import_module("bellsource.distortion")
    owners = [importlib.import_module("bellsource.statevec"), distortion.j_parameter,
              distortion.evolve]
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
