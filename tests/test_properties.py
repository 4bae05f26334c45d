"""Hypothesis properties of the rational knob, the Born sampler, the paper's
population identities and the CLI.

Kept apart from the example-based tests so that an environment without
Hypothesis loses only this module.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellsource
from bellsource import (
    ControlError,
    ControlKnob,
    DegenerateSourceError,
    FieldParams,
    SourceSpec,
    cli,
    controlled_emission,
    feasible,
    infer_parameters,
    j_parameter,
    populations_analytic,
    populations_exact,
    rational_approx,
    run_characterization_circuit,
    sample_histogram,
    species_moments,
    table_populations,
)
from bellsource.statevec import _ZERO_PROB, _born_index
from conftest import FixedDraw

# Derandomized and without an example database: the same examples on every
# run, and nothing written next to the tests.
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(
    j=st.floats(min_value=-0.5, max_value=0.5, allow_subnormal=True),
    max_den=st.integers(min_value=1, max_value=2**62),
)
def test_rational_approx_has_fraction_semantics(j, max_den):
    best = Fraction(j).limit_denominator(max_den)
    num, den, delta = rational_approx(j, max_den)
    assert (num, den) == (best.numerator, best.denominator)
    assert delta.hex() == float(Fraction(j) - best).hex()


@PROPERTY_SETTINGS
@given(
    J=finite.filter(lambda v: v != 0.0),
    B1=finite,
    B2=finite,
    max_den=st.integers(min_value=1, max_value=2**62),
    n=st.integers(min_value=0, max_value=10**6),
)
def test_from_field_params_accepts_its_own_provenance(J, B1, B2, max_den, n):
    fp = FieldParams(J, B1, B2)
    knob = ControlKnob.from_field_params(fp, max_den, n=n)
    j, num, den = knob.provenance
    assert j == j_parameter(fp)
    assert (num, den, knob.delta) == rational_approx(j, max_den)
    # The knob's own check accepts the provenance it was built with.
    assert ControlKnob(n, knob.delta, knob.provenance).ndelta == knob.ndelta


@st.composite
def weights_and_draw(draw):
    """Weights with zeros, and a draw that may equal a running sum or exceed them all."""
    probs = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=16))
    sums = [s for s in np.cumsum(probs).tolist() if s < 1.0]
    u = draw(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(sums or [0.0]))
    return probs, u


@PROPERTY_SETTINGS
@given(case=weights_and_draw())
@example(case=([0.0, 0.0], 0.5))
@example(case=([0.25, 0.0, 0.25], 0.5))
@example(case=([0.0, 0.5, 0.5], 0.0))
@example(case=([0.3, 0.3, 0.0], 0.7))  # a draw above the sum skips the zero-weight tail
def test_born_index_is_clamped_searchsorted(case):
    probs, u = case
    expected = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    if expected == len(probs):  # u in the gap above the sum: the last weight a collapse accepts
        accepted = [k for k, p in enumerate(probs) if p >= _ZERO_PROB]
        expected = accepted[-1] if accepted else len(probs) - 1
    assert _born_index(probs, FixedDraw(u)) == expected


# The edges of the paper's domain, listed first in each choice so that a
# shrunk example lands on them: gamma at 0 and pi/2, p1 p2 sin(2 theta1) = 0
# through p1 in {0, +-1} or theta1 = 0, and n delta = 1/8 +- 1e-12, where the
# control angle is pi/4.
direct_knobs = st.sampled_from([ControlKnob(1, 0.125 + e) for e in (-1e-12, 0.0, 1e-12)]) | (
    st.builds(ControlKnob, st.integers(0, 50), st.floats(-0.5, 0.5))
)
field = st.floats(-1.0, 1.0)
field_knobs = st.builds(
    ControlKnob.from_field_params,
    st.builds(FieldParams, st.floats(0.01, 2.0) | st.floats(-2.0, -0.01), field, field),
    st.integers(1, 100),
    st.integers(0, 50),
)
sources = st.builds(
    SourceSpec.from_p1_theta1,
    st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2),
    st.sampled_from([0.0, 1.0, -1.0]) | field,
    st.just(0.0) | st.floats(-math.pi, math.pi),
    st.booleans(),
)


def _raw_norm(spec: SourceSpec) -> float:
    """Closed form of the raw squared norm, 1 + sin^2(gamma) * 2 p1 p2 sin(2 theta1)."""
    return 1.0 + math.sin(spec.gamma) ** 2 * 2.0 * spec.p1 * spec.p2 * math.sin(2.0 * spec.theta1)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(spec=sources, knob=direct_knobs | field_knobs)
@example(spec=SourceSpec.from_p1_theta1(0.0, 0.6, 0.3), knob=ControlKnob(1, 0.125 - 1e-12))
@example(spec=SourceSpec.from_p1_theta1(math.pi / 2, 1.0, 0.3, True),
         knob=ControlKnob(1, 0.125 + 1e-12))
@example(spec=SourceSpec.from_p1_theta1(math.pi / 2, 0.6, 0.0, True),
         knob=ControlKnob.from_field_params(FieldParams(1.0, 0.3, -0.2), 7, 3))
# Raw norm 0, below the degenerate cut; then 2e-12, just above it, the least
# well-conditioned case.
@example(spec=SourceSpec.from_p1_theta1(math.pi / 2, 1 / math.sqrt(2), -math.pi / 4),
         knob=ControlKnob(0, 0.0))
@example(spec=SourceSpec.from_p1_theta1(math.pi / 2, 1 / math.sqrt(2), -math.pi / 4 + 1e-6),
         knob=ControlKnob(1, 0.203))
def test_paper_identities_over_spec_and_knob(spec, knob):
    """Analytic = Born populations, f10 = 0, the raw norm's closed form, steering.

    The populations agree within 1e-12 + c * 2**-52 / raw_norm with c = 1: the
    normalization divides by the raw norm, so the rounding of the raw
    amplitudes is magnified by the problem's conditioning and not by either
    route. The errors seen stay far inside this (about 2**-52 / sqrt(raw_norm),
    1.1e-10 at raw norm 2e-12). The raw norm must equal
    1 + sin^2(gamma) * 2 p1 p2 sin(2 theta1) within 1e-12, and a feasible
    steering solution for the Born populations must give them back through
    the closed form within 1e-9.
    """
    closed_form = _raw_norm(spec)
    try:
        state, raw_norm = controlled_emission(spec, knob)
    except DegenerateSourceError:
        assert closed_form < 1e-11
        return
    assert abs(raw_norm - closed_form) <= 1e-12

    analytic = populations_analytic(spec, knob).normalized
    born = populations_exact(state).normalized
    assert analytic.f10 == 0.0 and born.f10 == 0.0
    tolerance = 1e-12 + 2**-52 / raw_norm
    for a, b in zip(analytic.as_tuple(), born.as_tuple()):
        assert abs(a - b) <= tolerance

    if spec.gamma > 0.0:
        point = feasible(spec.gamma, born.f00, born.f11)
        if point.feasible:
            solution = point.solution
            back = table_populations(
                spec.gamma,
                solution.required_C_squared,
                solution.required_S_squared,
                solution.ndelta_principal,
            )
            assert abs(back.f00 - born.f00) <= 1e-9 and abs(back.f11 - born.f11) <= 1e-9


# Knobs within 1e-6 of n delta = 1/8, where the inference system is singular.
near_singular_knobs = st.builds(lambda step: ControlKnob(1, 0.125 + step), st.floats(-1e-6, 1e-6))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(spec=sources, knob=direct_knobs | field_knobs | near_singular_knobs)
@example(spec=SourceSpec.from_p1_theta1(0.0, 0.6, 0.3), knob=ControlKnob(1, 0.125))
@example(spec=SourceSpec.from_p1_theta1(math.pi / 2, 1.0, 0.3, True), knob=ControlKnob(0, 0.0))
@example(spec=SourceSpec.from_p1_theta1(math.pi / 2, 1 / math.sqrt(2), -math.pi / 4),
         knob=ControlKnob(1, 0.2))
# |cos(4 pi n delta)| = 2e-9, just above the singular cut of 1e-9.
@example(spec=SourceSpec.from_p1_theta1(1.0, 0.6, 0.3),
         knob=ControlKnob(1, 0.125 - 2e-9 / (4 * math.pi)))
def test_inference_round_trip_over_spec_and_knob(spec, knob):
    """infer_parameters on the normalized analytic populations either raises a
    typed ControlError (singular knob, unidentifiable source) or gives an
    estimate whose closed form returns those populations within
    1e-9 + c * 2**-52 / |cos(4 pi n delta)|, c = 1.

    The system determinant is cos(4 pi n delta), so near a singular knob the
    rounding of the populations is magnified by 1 / |det|: errors up to
    0.5 * 2**-52 / |det| (9e-8 at |det| = 1e-9) were seen. A degenerate source
    has no populations to invert.
    """
    if _raw_norm(spec) < 1e-11:
        return
    target = populations_analytic(spec, knob).normalized
    try:
        estimate = infer_parameters(target.f00, target.f01, target.f11, knob.ndelta)
    except ControlError:
        return
    gamma = math.asin(math.sqrt(estimate.sin2_gamma))
    back = table_populations(gamma, estimate.C_squared, estimate.S_squared, knob.ndelta)
    tolerance = 1e-9 + 2**-52 / abs(math.cos(4.0 * math.pi * knob.ndelta))
    for a, b in zip(back.as_tuple(), target.as_tuple()):
        assert abs(a - b) <= tolerance


def _normalized(gamma: float, c_squared: float, s_squared: float, ndelta: float) -> list[float]:
    """Closed-form populations over N = cos^2 gamma + sin^2 gamma (C^2 + S^2)."""
    norm = math.cos(gamma) ** 2 + math.sin(gamma) ** 2 * (c_squared + s_squared)
    return [f / norm for f in table_populations(gamma, c_squared, s_squared, ndelta).as_tuple()]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(spec=sources, knob=direct_knobs | field_knobs,
       others=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
@example(spec=SourceSpec.from_p1_theta1(0.9, 0.8, 0.6), knob=ControlKnob(1, 0.1), others=[0.3, 1.7])
def test_inferred_source_is_equivalent_at_every_knob(spec, knob, others):
    """Inference returns the source with C^2 + S^2 = 1 that is equivalent to the
    true one: both give the same normalized populations at every knob.

    Normalized populations see a source only through c^2/N, s^2 C^2/N and
    s^2 S^2/N, so no knob tells the two apart, although sin^2 gamma differs
    wherever N != 1 (0.7506 against 0.6136 in the explicit example). The
    tolerance is the inference round trip's, 1e-9 + 2**-52 / |cos(4 pi n delta)|.
    The residual is the sum defect of the frequencies over sin^2 gamma.
    """
    if _raw_norm(spec) < 1e-11:
        return
    moments = species_moments(spec)
    truth = (spec.gamma, moments.C**2, moments.S**2)
    f00, f01, _, f11 = _normalized(*truth, knob.ndelta)
    try:
        estimate = infer_parameters(f00, f01, f11, knob.ndelta)
    except ControlError:
        return
    det = abs(math.cos(4.0 * math.pi * knob.ndelta))
    defect = abs(f00 + f01 + f11 - 1.0) / estimate.sin2_gamma
    assert abs(estimate.residual - defect) <= 2**-49 / (det * estimate.sin2_gamma)
    gamma = math.asin(math.sqrt(estimate.sin2_gamma))
    tolerance = 1e-9 + 2**-52 / det
    for ndelta in [knob.ndelta, *others]:
        inferred = _normalized(gamma, estimate.C_squared, estimate.S_squared, ndelta)
        for a, b in zip(inferred, _normalized(*truth, ndelta)):
            assert abs(a - b) <= tolerance


def _sample_stdout(spec: SourceSpec, knob: ControlKnob, shots: int, seed: int) -> bytes:
    """stdout of the CLI ``sample`` command for this spec and direct-form knob."""
    config = {"gamma": spec.gamma, "p1": spec.p1, "p2": spec.p2, "theta1": spec.theta1,
              "theta2": spec.theta2, "knob": {"n": knob.n, "delta": knob.delta}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        args = ["sample", str(path), "--shots", str(shots), "--seed", str(seed)]
        return CliRunner().invoke(cli.main, args).stdout_bytes


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(spec=sources, knob=direct_knobs | field_knobs, shots=st.integers(1, 10**7),
       seed=st.integers(0, 2**63))
def test_equal_seeds_give_equal_bytes(spec, knob, shots, seed):
    """sample_histogram, run_characterization_circuit and CLI ``sample`` stdout
    are functions of their seed: two runs with equal seeds agree byte for byte.
    """
    try:
        state, _ = controlled_emission(spec, knob)
    except DegenerateSourceError:
        return
    histograms = [sample_histogram(state, shots, np.random.default_rng(seed)) for _ in range(2)]
    assert repr(histograms[0]) == repr(histograms[1])
    records = [run_characterization_circuit(state, np.random.default_rng(seed)) for _ in range(2)]
    first, second = ((r.outcome, r.probability.hex(), r.post_state.amplitudes.tobytes())
                     for r in records)
    assert first == second
    stdout = _sample_stdout(spec, knob, shots, seed)
    assert stdout and stdout == _sample_stdout(spec, knob, shots, seed)


# Numbers at the edges of the float range, subnormals, NaN and infinities
# (written as the non-standard NaN/Infinity tokens), integers past the float
# range, and values of the wrong type.
_EDGE_NUMBERS = [0.0, -0.0, 0.5, 1.0, -1.0, 1e-320, 5e-324, 1e154, 1e200, 1e300, 1e308,
                 -1e308, 1.7976931348623157e308, 10**400, -(10**400), 2**63, 2**63 - 1]
numbers = st.floats(allow_subnormal=True) | st.integers(-(2**70), 2**70) | st.sampled_from(
    _EDGE_NUMBERS
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)
# Mostly numbers, sometimes any JSON value.
fields = st.one_of(numbers, numbers, numbers, json_values)
unit = st.floats(-1.0, 1.0)
valid_knobs = st.fixed_dictionaries({"n": st.integers(0, 50), "delta": st.floats(-0.5, 0.5)}) | (
    st.fixed_dictionaries(
        {"J": unit, "B1": unit, "B2": unit, "max_den": st.integers(1, 100)},
        optional={"n": st.integers(0, 50)},
    )
)
valid_configs = st.fixed_dictionaries(
    {"gamma": st.floats(0.0, math.pi / 2), "p1": unit, "theta1": st.floats(-4.0, 4.0),
     "knob": valid_knobs},
    optional={"shots": st.integers(1, 10**6), "seed": st.integers(0, 2**32)},
)
_CONFIG_KEYS = ["gamma", "p1", "p2", "theta1", "theta2", "p2_negative", "shots", "seed", "knob"]
_KNOB_KEYS = ["n", "delta", "J", "B1", "B2", "max_den"]


@st.composite
def configs(draw):
    """A valid config with up to two top-level and two knob fields replaced."""
    config = draw(valid_configs)
    knob = dict(config["knob"])
    knob.update(draw(st.dictionaries(st.sampled_from(_KNOB_KEYS), fields, max_size=2)))
    config["knob"] = knob
    config.update(draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS), fields, max_size=2)))
    return config


_FLAG_VALUES = ["0", "-0.0", "0.125", "0.3", "1", "-1", "1e-320", "5e-324", "1e308",
                "1.7976931348623157e308", "1e309", "nan", "inf", "-inf", "1" + "0" * 400,
                str(2**63 - 1), str(2**63), "1.5", "x", ""]
flag_values = st.one_of(
    st.sampled_from(_FLAG_VALUES),
    st.floats(allow_subnormal=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
)
# Region grids stay small: a valid resolution up to 4096 solves and prints up to 16.8M cells.
resolutions = st.sampled_from(["0", "1", "2", "3", "11", "-5", "4097", str(2**70), "nan", "x"])


@st.composite
def cli_calls(draw):
    """A command, its config (or None) and its flags."""
    command = draw(st.sampled_from(["simulate", "sample", "region", "solve", "infer"]))
    if command in ("simulate", "sample"):
        flags = []
        for flag in ("--shots", "--seed") if command == "sample" else ("--seed",):
            if draw(st.booleans()):
                flags += [flag, draw(flag_values)]
        return command, draw(configs()), flags
    names = {"region": ["--gamma"], "solve": ["--gamma", "--f00", "--f11"],
             "infer": ["--f00", "--f01", "--f11", "--ndelta"]}[command]
    flags = [part for name in names for part in (name, draw(flag_values))]
    if command == "region":
        flags += ["--resolution", draw(resolutions)]
    return command, None, flags


def _strict_json(text: str) -> None:
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    json.loads(text, parse_constant=reject)


def _check_region_csv(text: str) -> None:
    header, *rows = text.split("\n")[:-1]
    assert header == "f00,f11,feasible,s_squared,ndelta" and text.endswith("\n")
    for row in rows:
        f00, f11, feasible, s_squared, ndelta = row.split(",")
        assert math.isfinite(float(f00)) and math.isfinite(float(f11))
        assert feasible in ("0", "1") and (s_squared == ndelta == "") == (feasible == "0")
        if feasible == "1":
            assert math.isfinite(float(s_squared)) and math.isfinite(float(ndelta))


def _j_is_exact_within_rounding(j: float, fp: FieldParams) -> bool:
    """|j - J / sqrt((B1 - B2)^2 + 4 J^2)| within 1e-13 relative or one subnormal step.

    Checked on exact rationals, by squares, so nothing in the oracle rounds or
    overflows.
    """
    J, B1, B2 = Fraction(fp.J), Fraction(fp.B1), Fraction(fp.B2)
    exact_sq = J**2 / ((B1 - B2) ** 2 + 4 * J**2)
    size, tiny, eps = abs(Fraction(j)), Fraction(2) ** -1074, Fraction(1, 10**13)
    same_sign = j == 0.0 or (j > 0.0) == (J > 0)
    return (
        same_sign
        and max(size - tiny, 0) ** 2 <= exact_sq * (1 + eps) ** 2
        and (size + tiny) ** 2 >= exact_sq * (1 - eps) ** 2
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(call=cli_calls())
@example(call=("simulate", {"gamma": 0.5, "p1": 1e200, "p2": 0.0, "theta1": 0.0,
                            "knob": {"n": 1, "delta": 0.1}}, []))
@example(call=("simulate", {"gamma": 0.5, "p1": 0.6, "theta1": 0.3,
                            "knob": {"J": 1e300, "B1": 1e308, "B2": -1e308, "max_den": 10,
                                     "n": 5 * 10**7}}, []))
@example(call=("simulate", {"gamma": 0.5, "p1": 0.6, "theta1": 0.3,
                            "knob": {"J": 1e308, "B1": 1e308, "B2": 0.0, "max_den": 10}}, []))
@example(call=("sample", {"gamma": 0.5, "p1": 0.6, "theta1": 0.3,
                          "knob": {"n": 1, "delta": 0.1}}, ["--shots", str(2**63 - 1)]))
def test_cli_never_crashes_and_prints_only_strict_output(call):
    """Exit 0, 2, 3 or 4; no exception escapes; stdout is empty, strict JSON or the CSV.

    An accepted field-form knob also carries the true interaction ratio j.
    """
    command, config, flags = call
    with tempfile.TemporaryDirectory() as tmp:
        args = [command]
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config, allow_nan=True))
            args.append(str(path))
        result = CliRunner().invoke(cli.main, args + flags)
        assert result.exit_code in (0, 2, 3, 4), (result.exit_code, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.stdout:
            if command == "region":
                _check_region_csv(result.stdout)
            else:
                _strict_json(result.stdout)
        if result.exit_code == 0 and config is not None:
            provenance = cli.load_config(path).knob.provenance
            if provenance is not None:
                fp = FieldParams(*(float(config["knob"][k]) for k in ("J", "B1", "B2")))
                assert _j_is_exact_within_rounding(provenance.j, fp)


# Every public callable of the library that takes a number: a call with one
# parameter per number, and a valid value for each. The property below puts
# hostile numbers of accepted kinds at each position in turn; any ValueError is
# a refusal. Wrong types (None, str, a non-state) are left out.
_PSI = bellsource.bell_state((0, 1))
_KNOB = ControlKnob(3, 0.125)


def _fields(call):
    return lambda J, B1, B2, *rest: call(FieldParams(J, B1, B2), *rest)


NUMERIC_ARGUMENTS = {
    "ControlKnob": (ControlKnob, (3, 0.125)),
    "ControlKnob+provenance": (
        lambda n, delta, j, num, den: ControlKnob(
            n, delta, bellsource.RationalProvenance(j, num, den)),
        (3, 0.125, 0.375, 1, 4),
    ),
    "ControlKnob.from_field_params": (
        _fields(ControlKnob.from_field_params), (1.0, 0.3, 0.1, 16, 2)
    ),
    "PureState": (lambda a, b: bellsource.PureState([a, b]), (0.6, 0.8)),
    "PureState+normalize": (lambda a, b: bellsource.PureState([a, b], normalize=True), (3.0, 4.0)),
    "SourceSpec": (SourceSpec, (0.7, 0.6, 0.8, 0.3, math.pi / 2 - 0.3)),
    "SourceSpec.from_p1_theta1": (SourceSpec.from_p1_theta1, (0.7, 0.6, 0.3)),
    "UnitaryMatrix": (lambda a, b, c, d: bellsource.UnitaryMatrix([[a, b], [c, d]]), (0, 1, 1, 0)),
    "apply_unitary": (lambda q: bellsource.apply_unitary(_PSI, bellsource.HADAMARD, (q,)), (2,)),
    "basis_state": (lambda a, b: bellsource.basis_state((a, b)), (0, 1)),
    "bell_state": (lambda a, b: bellsource.bell_state((a, b)), (1, 0)),
    "collapse_qubits": (lambda q, b: bellsource.collapse_qubits(_PSI, (q,), (b,)), (1, 0)),
    "controlled_psi2": (lambda theta: bellsource.controlled_psi2(theta, _KNOB), (0.3,)),
    "evolve": (_fields(lambda fp, t: bellsource.evolve(_PSI, fp, t)), (1.0, 0.3, 0.1, 2.5)),
    "expand_unitary": (lambda n: bellsource.expand_unitary(bellsource.HADAMARD, (1,), n), (2,)),
    "feasible": (feasible, (0.7, 0.3, 0.3)),
    "infer_parameters": (infer_parameters, (0.3, 0.4, 0.3, 0.1)),
    "j_parameter": (_fields(j_parameter), (1.0, 0.3, 0.1)),
    "label_to_outcome": (lambda a, b: bellsource.label_to_outcome((a, b)), (1, 1)),
    "measure_qubits": (
        lambda q: bellsource.measure_qubits(_PSI, (q,), np.random.default_rng(0)), (1,)
    ),
    "outcome_to_label": (lambda a, b: bellsource.outcome_to_label((a, b)), (0, 1)),
    "psi1": (bellsource.psi1, (0.3,)),
    "psi2": (bellsource.psi2, (0.3,)),
    "rational_approx": (rational_approx, (0.3, 8)),
    "region_arrays": (bellsource.region_arrays, (0.7, 3)),
    "sample_histogram": (
        lambda shots: sample_histogram(_PSI, shots, np.random.default_rng(0)), (10,)
    ),
    "sample_measurements": (
        lambda q, shots: bellsource.sample_measurements(
            _PSI, (q,), shots, np.random.default_rng(0)),
        (1, 10),
    ),
    "solve_ndelta": (bellsource.solve_ndelta, (0.7, 0.3, 0.3)),
    "table_populations": (table_populations, (0.7, 0.5, 0.5, 0.1)),
}
# Public callables that take no number of their own: records that check
# nothing (their numbers reach the checks through the calls above), and calls
# on states, specs and knobs only.
NO_NUMERIC_ARGUMENT = {
    "BellLabel", "BestRational", "EmissionEstimate", "FieldParams", "MeasurementRecord",
    "PopulationTable", "Populations", "RationalProvenance", "RegionArrays", "RegionPoint",
    "SpeciesMoments", "SteeringSolution", "bell_coefficients", "circuit_outcome_distribution",
    "circuit_realization", "controlled_emission", "controlled_psi1", "emitted_state",
    "fidelity_up_to_phase", "nonlocal_bell_measurement", "populations_analytic",
    "populations_exact", "run_characterization_circuit", "species_moments", "tensor",
}
# Every argument the wrong-kind rule covers (README, "Input rules"): a call with one
# parameter per such argument, and a valid value for each. The property puts a wrong
# kind at each position in turn; it must be refused with a ValueError.
_SPEC = SourceSpec.from_p1_theta1(0.7, 0.6, 0.3)
_RNG = np.random.default_rng(0)
KIND_ARGUMENTS = {
    "apply_unitary": (lambda u: bellsource.apply_unitary(_PSI, u, (1,)), (bellsource.HADAMARD,)),
    "expand_unitary": (lambda u: bellsource.expand_unitary(u, (1,), 2), (bellsource.HADAMARD,)),
    "tensor": (bellsource.tensor, (_PSI, _PSI)),
    "bell_coefficients": (bellsource.bell_coefficients, (_PSI,)),
    "measure_qubits": (lambda s, rng: bellsource.measure_qubits(s, (1,), rng), (_PSI, _RNG)),
    "sample_measurements": (
        lambda rng: bellsource.sample_measurements(_PSI, (1,), 10, rng), (_RNG,)
    ),
    "evolve": (lambda s, fp: bellsource.evolve(s, fp, 1.0), (_PSI, FieldParams(1.0, 0.3, 0.1))),
    "emitted_state": (bellsource.emitted_state, (_SPEC,)),
    "controlled_emission": (controlled_emission, (_SPEC, _KNOB)),
    "controlled_psi1": (bellsource.controlled_psi1, (_KNOB,)),
    "controlled_psi2": (lambda knob: bellsource.controlled_psi2(0.3, knob), (_KNOB,)),
    "populations_analytic": (populations_analytic, (_SPEC, _KNOB)),
    "populations_exact": (populations_exact, (_PSI,)),
    "sample_histogram": (lambda s, rng: sample_histogram(s, 10, rng), (_PSI, _RNG)),
    "nonlocal_bell_measurement": (bellsource.nonlocal_bell_measurement, (_PSI, _RNG)),
    "run_characterization_circuit": (run_characterization_circuit, (_PSI, _RNG)),
    "circuit_outcome_distribution": (bellsource.circuit_outcome_distribution, (_PSI,)),
    "circuit_realization": (bellsource.circuit_realization, (_PSI,)),
}
# Plain values and the other library types; a draw of the position's own type is skipped.
_WRONG_KINDS = (None, 0.5, 3, np.float64(0.5), "00", (1, 0), [0.6, 0.8],
                np.array([1.0, 0.0, 0.0, 0.0]), _PSI, _SPEC, _KNOB, _RNG, bellsource.HADAMARD,
                FieldParams(1.0, 0.3, 0.1))
_HOSTILE = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
            10**400, -(10**400), True, False)


def _kinds(value):
    """``value`` and each numpy scalar that holds it: float64 within the float range,
    float32 within its own (NaN and the infinities included), int64 for an int."""
    kinds = [value]
    if not abs(value) > sys.float_info.max:
        kinds.append(np.float64(value))
    if not abs(value) > float(np.finfo(np.float32).max):
        kinds.append(np.float32(value))
    if isinstance(value, int) and abs(value) < 2**63:
        kinds.append(np.int64(value))
    return kinds


_HOSTILE_KINDS = [kind for value in _HOSTILE for kind in _kinds(value)]


def test_the_numeric_argument_table_names_every_public_callable():
    public = {name for name, value in vars(bellsource).items()
              if not name.startswith("_") and callable(value)
              and not (isinstance(value, type) and issubclass(value, Exception))}
    named = {key.split("+")[0].split(".")[0] for key in NUMERIC_ARGUMENTS}
    assert public == named | NO_NUMERIC_ARGUMENT
    assert not named & NO_NUMERIC_ARGUMENT


def _refused_only_by_value_error(name, args):
    """Only ValueError (or a subclass) escapes, and no warning at all."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            NUMERIC_ARGUMENTS[name][0](*args)
        except ValueError:
            pass
    assert not caught, (name, args, [str(w.message) for w in caught])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(first=st.sampled_from(_HOSTILE_KINDS), second=st.sampled_from(_HOSTILE_KINDS),
       kind=st.integers(0, 3), wrong=st.sampled_from(_WRONG_KINDS))
def test_a_hostile_number_of_an_accepted_kind_is_refused_with_a_value_error(
        first, second, kind, wrong):
    """At each numeric position of each table entry: ``first`` with every other number
    valid (as the drawn kind, or the last of its kinds that holds it), then ``second``
    at the next position too. At each library-type position: ``wrong``, refused."""
    for name, (call, valid) in KIND_ARGUMENTS.items():
        for i, value in enumerate(valid):
            if type(wrong) is not type(value):
                args = list(valid)
                args[i] = wrong
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(ValueError, match=r" must be a \w+, got \w+$"):
                        call(*args)
                assert not caught, (name, args, [str(w.message) for w in caught])
    for name, (_, valid) in NUMERIC_ARGUMENTS.items():
        base = [_kinds(value)[min(kind, len(_kinds(value)) - 1)] for value in valid]
        for i in range(len(base)):
            args = base.copy()
            args[i] = first
            _refused_only_by_value_error(name, args)
            if len(args) > 1:
                args[(i + 1) % len(args)] = second
                _refused_only_by_value_error(name, args)
