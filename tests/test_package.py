"""The package's public names: exactly the union of its library modules' ``__all__``,
each function with a caller or a paper quantity and each class member with a reader; the
finite rule's refusal spelled by its owner and the sites it cannot serve; the runtime
dependencies the CLI loads; the contract every exported frozen holder keeps, however the
library builds it."""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
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
# stay by the second clause. A public member of an exported class stays only if code in
# the package or perfbench reads it as an attribute.
PAPER_QUANTITIES = {
    "j_parameter": "the interaction ratio j",
    "rational_approx": "the best rational approximation Q(j) and the mismatch delta",
    "psi2": "the second species at an angle",
    "controlled_psi1": "the first species after the correction cycle",
    "controlled_psi2": "the second species after the correction cycle",
    "circuit_outcome_distribution": "the ancilla circuit's outcome law",
    "region_arrays": "the steering region over the whole target grid",
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


def _attributes(path: Path) -> set[str]:
    """The attribute names a module's code reads: ``name`` of every ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _members(module: types.ModuleType) -> dict[str, str]:
    """``Class.member`` to ``member`` for each public property, method, classmethod and
    staticmethod that an exported class of ``module`` defines itself."""
    kinds = (property, classmethod, staticmethod, types.FunctionType)
    return {f"{name}.{member}": member
            for name in module.__all__ if isinstance(cls := getattr(module, name), type)
            for member, value in vars(cls).items()
            if not member.startswith("_") and isinstance(value, kinds)}


def _sources() -> tuple[Path, list[Path]]:
    """The package directory and perfbench's scripts, the code a public name needs a
    caller in."""
    perfbench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert perfbench, "perfbench/ not found next to tests/"
    return Path(bellsource.__file__).parent, perfbench


def test_every_public_function_has_a_caller_or_a_paper_quantity():
    package, perfbench = _sources()
    uncalled = set()
    for module in MODULES:
        others = [path for path in package.glob("*.py") if path != Path(module.__file__)]
        used = set().union(*map(_identifiers, others + perfbench))
        uncalled |= {name for name in module.__all__
                     if inspect.isfunction(getattr(module, name)) and name not in used}
    keep = set(PAPER_QUANTITIES)
    assert not uncalled - keep, f"no caller and no paper quantity: {sorted(uncalled - keep)}"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    unnamed = [name for name in sorted(keep) if f"`{name}`" not in readme]
    assert not unnamed, f"README's rule paragraph does not name {unnamed}"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_public_member_has_a_reader(module):
    """A public member of an exported class stays only if package or perfbench code reads
    it as an attribute, so a member that only tests read fails here by its qualified name."""
    package, perfbench = _sources()
    read = set().union(*map(_attributes, [*package.glob("*.py"), *perfbench]))
    unread = sorted(name for name, member in _members(module).items() if member not in read)
    assert not unread, f"no reader in the package or perfbench: {unread}"


def test_the_member_rule_sees_each_kind_of_member():
    """A method, a slotted class's method, a classmethod and a property, so the member rule
    cannot pass by reading no member at all."""
    members = set().union(*(_members(module) for module in MODULES))
    assert {"Populations.as_tuple", "PureState.inner", "SourceSpec.from_p1_theta1",
            "FieldParams.b_minus"} <= members


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


def _library_holders() -> dict[str, object]:
    """One instance of each exported frozen dataclass, built the way the library builds it:
    by the library call that returns it, or from numpy numbers where the holder reads them."""
    b = bellsource
    spec = b.SourceSpec.from_p1_theta1(0.7, -0.6, 0.3, True)
    fields = b.FieldParams(np.float64(1.0), np.float32(0.5), np.int64(2))
    knob = b.ControlKnob.from_field_params(fields, 16, n=3)
    state, _ = b.controlled_emission(spec, knob)
    return {
        "PureState": state,
        "UnitaryMatrix": b.expand_unitary(b.HADAMARD, (1,), 2),
        "SourceSpec": spec,
        "FieldParams": fields,
        "ControlKnob": knob,
        "Populations": b.table_populations(0.7, 0.4, 0.6, 0.1),
        "PopulationTable": b.populations_analytic(spec, knob),
        "PopulationTable-exact": b.populations_exact(state),
        "SpeciesMoments": b.species_moments(spec),
        "MeasurementRecord": b.nonlocal_bell_measurement(state, np.random.default_rng(1)),
        "MeasurementRecord-circuit": b.run_characterization_circuit(
            state, np.random.default_rng(1)),
        "SteeringSolution": b.solve_ndelta(0.7, 0.3, 0.3),
        "EmissionEstimate": b.infer_parameters(0.3, 0.4, 0.3, 0.1),
        "RegionPoint": b.feasible(0.7, 0.3, 0.3),
    }


def _bits(value):
    """A comparable image of ``value`` down to its bits: floats as hex (so -0.0 is not 0.0),
    arrays as dtype, shape, bytes and write flag, holders and dicts field by field."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__, tuple(
            (f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes(), value.flags.writeable
    if isinstance(value, dict):
        return tuple((key, _bits(item)) for key, item in value.items())
    if isinstance(value, tuple):
        return type(value).__name__, tuple(map(_bits, value))
    return value.hex() if type(value) is float else (type(value).__name__, value)


def _rebuilt(holder):
    """The same holder through its public constructor, from its own init fields."""
    return type(holder)(**{f.name: getattr(holder, f.name)
                           for f in dataclasses.fields(holder) if f.init})


def test_the_contract_covers_every_exported_frozen_holder():
    exported = {name for name, value in vars(bellsource).items()
                if isinstance(value, type) and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen}
    assert {type(holder).__name__ for holder in _library_holders().values()} == exported


@pytest.mark.parametrize("name", sorted(_library_holders()))
def test_a_library_built_holder_is_the_one_its_constructor_builds(name):
    """Equal fields, bits, ``repr`` and ``asdict``, and for the holders that compare by value
    ``==`` and ``hash``; PureState and UnitaryMatrix compare by identity (``eq=False``)."""
    holder = _library_holders()[name]
    built = _rebuilt(holder)
    assert type(built) is type(holder)
    assert _bits(built) == _bits(holder)
    assert repr(built) == repr(holder)
    assert _bits(dataclasses.asdict(built)) == _bits(dataclasses.asdict(holder))
    if type(holder).__dataclass_params__.eq:
        assert built == holder and hash(built) == hash(holder)


@pytest.mark.parametrize("name", sorted(_library_holders()))
def test_a_holder_survives_copy_deepcopy_pickle_and_replace(name):
    holder = _library_holders()[name]
    assert copy.copy(holder) is holder or _bits(copy.copy(holder)) == _bits(holder)
    assert _bits(copy.deepcopy(holder)) == _bits(holder)
    assert _bits(pickle.loads(pickle.dumps(holder))) == _bits(holder)
    assert _bits(dataclasses.replace(holder)) == _bits(holder)
    if type(holder).__dataclass_params__.eq:
        assert copy.copy(holder) == holder and dataclasses.replace(holder) == holder


@pytest.mark.parametrize("name", sorted(_library_holders()))
def test_a_holder_refuses_to_assign_or_delete_a_field(name):
    holder = _library_holders()[name]
    before = _bits(holder)
    for field in dataclasses.fields(holder):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(holder, field.name, getattr(holder, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(holder, field.name)
    assert _bits(holder) == before


@pytest.mark.parametrize(
    "name, change, message",
    [("SourceSpec", {"p1": 2.0}, r"p1\^2 \+ p2\^2 = 1 violated"),
     ("SourceSpec", {"gamma": np.array([0.1])}, "for gamma, got an array of shape"),
     ("ControlKnob", {"n": -1}, "n must be a non-negative integer"),
     ("ControlKnob", {"delta": 0.01}, "disagrees with provenance"),
     ("FieldParams", {"B2": np.array([1.0])}, "for B2, got an array of shape"),
     ("PureState", {"amplitudes": [1.0, 0.0, 0.0]}, "amplitude vector of length 3")],
    ids=["spec-p1", "spec-gamma", "knob-n", "knob-delta", "fields-B2", "state-length"],
)
def test_replace_runs_the_holders_checks(name, change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(_library_holders()[name], **change)


def test_replace_reads_numpy_numbers_as_python_numbers():
    holders = _library_holders()
    spec = dataclasses.replace(holders["SourceSpec"], gamma=np.float32(0.5))
    knob = dataclasses.replace(holders["ControlKnob"], n=np.int64(5))
    fields = dataclasses.replace(holders["FieldParams"], J=np.float64(3.0))
    assert type(spec.gamma) is float and spec.gamma == 0.5
    assert type(knob.n) is int and knob.ndelta == 5 * knob.delta
    assert type(fields.J) is float and fields.J == 3.0
