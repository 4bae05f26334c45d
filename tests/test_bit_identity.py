"""Bit-identity gate for the shot routes and the state-vector primitives.

``bit_digest`` feeds the exact bytes of every result below into one SHA-256:
outcomes, probabilities (as float hex) and amplitude buffers. All draws come
from one seeded generator, so a change to the number or order of draws moves
every later byte as well. All four digests were last pinned when
``bell_coefficients`` came to compute the Bell basis change by butterflies and
``PureState(normalize=True)`` its norm by ``statevec._squared_norm`` (README,
"Byte-identical output"); an optimisation must keep them.

``emission_digest`` covers the emission builders at the domain edges, where
signed zeros show: it pins the bytes of the closed form, its part-by-part
superposition and its fixed-order raw norm.

Every report byte is computed in Python arithmetic or elementwise numpy, with
no BLAS call: the Bell coefficients, the normalize norm, the circuit register
and the emission. Only the gate-by-gate route of ``evolution_digest`` still
multiplies by 16 x 16 gates through numpy's matmul, with ``apply_unitary``'s
user matrices, so that digest pins the BLAS matrix-vector kernel of the
machine it runs on. The other three read the same under the OpenBLAS
SkylakeX, Haswell, Nehalem and Prescott kernels. The emission and evolution
builders call ``math.sin``, ``cos`` and ``exp``, so the digests also pin the
libm variant glibc selects for the host's CPU, and the seeded draws pin
numpy's Generator streams (``test_numpy_generator_streams_are_pinned``;
ROADMAP item 2).
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np
import pytest

from bellsource import (
    BELL_LABELS,
    CNOT,
    ControlKnob,
    DegenerateSourceError,
    FieldParams,
    PopulationTable,
    SourceSpec,
    UnitaryMatrix,
    apply_unitary,
    basis_state,
    bell_state,
    circuit_outcome_distribution,
    circuit_realization,
    controlled_emission,
    controlled_psi1,
    controlled_psi2,
    emitted_state,
    evolve,
    expand_unitary,
    feasible,
    measure_qubits,
    nonlocal_bell_measurement,
    populations_analytic,
    populations_exact,
    psi2,
    run_characterization_circuit,
    sample_histogram,
    species_moments,
    table_populations,
    tensor,
)
from bellsource import characterize, statevec
from conftest import random_knob, random_spec, random_state
from oracles import _superpose


def _pair_input(rng: np.random.Generator, i: int):
    """A random pair, a source-reachable pair (f10 = 0) or a Bell state, in turn."""
    kind = i % 3
    if kind == 0:
        return random_state(rng, 2)
    if kind == 1:
        return controlled_emission(random_spec(rng), random_knob(rng))[0]
    return bell_state(BELL_LABELS[(i // 3) % 4])


def _collapse_onto(state, indices, bits):
    """The post-state and weight of outcome ``bits`` (valid, of nonzero weight) of ``indices``."""
    rows = statevec._check_targets(indices, state.num_qubits)
    k = int("".join(map(str, bits)), 2)
    prob = float(statevec._marginal_probabilities(state, rows)[k])
    return statevec._collapse(state, rows[k], prob), prob


def _outcome_counts(state, indices, shots, rng):
    """Counts of ``shots`` measurements of ``indices``: numpy's ``w / w.sum()``, one multinomial."""
    rows = statevec._check_targets(indices, state.num_qubits)
    probs = statevec._marginal_probabilities(state, rows)
    return statevec._multinomial(shots, probs / probs.sum(), rng)


def bit_digest(count: int, seed: int = 0) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()

    def feed(outcome, prob, state) -> None:
        h.update(repr(outcome).encode())
        h.update(float(prob).hex().encode())
        h.update(b"-" if state is None else state.amplitudes.tobytes())

    for i in range(count):
        pair = _pair_input(rng, i)
        for shot in (run_characterization_circuit, nonlocal_bell_measurement):
            record = shot(pair, rng)
            feed(record.outcome, record.probability, record.post_state)
        for outcome, (prob, post) in sorted(circuit_outcome_distribution(pair).items()):
            feed(outcome, prob, post)

        n = 1 + i % 4
        state = random_state(rng, n)
        indices = (rng.permutation(n)[: rng.integers(1, n + 1)] + 1).tolist()
        bits, post, prob = measure_qubits(state, indices, rng)
        feed(bits, prob, post)
        post, prob = _collapse_onto(state, indices, bits)
        feed(bits, prob, post)
        other = tuple(rng.integers(0, 2, size=len(indices)).tolist())
        post, prob = _collapse_onto(state, indices, other)
        feed(other, prob, post)

        width = int(rng.integers(1, 4))
        factor = random_state(rng, width)
        bits = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 5 - width))))
        basis = basis_state(bits)
        feed(bits, 1.0, basis)
        feed((), 1.0, tensor(factor, basis))
        feed((), 1.0, tensor(basis, factor))
    return h.hexdigest()


def test_numpy_generator_streams_are_pinned():
    """The two draws every seeded byte rests on: ``Generator.random`` (each shot's Born
    draw) and ``Generator.multinomial`` (each histogram). NEP 19 lets numpy change
    them between releases; such a change fails here by name before any digest."""
    rng = np.random.default_rng(0)
    assert [rng.random().hex() for _ in range(3)] == [
        "0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"]
    assert rng.multinomial(10**6, [0.1, 0.2, 0.3, 0.4]).tolist() == [99482, 200479, 299243, 400796]


def test_seeded_shot_and_primitive_bits_are_pinned():
    assert bit_digest(400) == "0d383e9f0dda62ab0647d18df7c7c3e19812a94bc544c42b3e2a735a95b8b6d2"


def readout_digest(count: int, seed: int = 1) -> str:
    """SHA-256 over the readout paths: populations, both histograms, the
    circuit's outcome analysis and the steering verdict, ``count`` inputs each.

    Every float goes in as hex and every count as its decimal repr, so the
    digest pins the readout order, the multinomial draws and the region
    point of each input.
    """
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()

    def feed(*values) -> None:
        h.update(repr(values).encode())

    for i in range(count):
        pair = _pair_input(rng, i)
        table = populations_exact(pair)
        feed(*(f.hex() for f in table.raw.as_tuple()), table.normalized == table.raw)
        for outcome, (prob, post) in sorted(circuit_outcome_distribution(pair).items()):
            feed(outcome, prob.hex())
            h.update(b"-" if post is None else post.amplitudes.tobytes())
        shots = int(rng.integers(1, 10**6))
        feed(sorted(sample_histogram(pair, shots, rng).items()))

        n = 1 + i % 4
        state = random_state(rng, n)
        indices = (rng.permutation(n)[: rng.integers(1, n + 1)] + 1).tolist()
        feed(_outcome_counts(state, indices, int(rng.integers(1, 10**6)), rng).tolist())

        gamma = float(rng.uniform(0.0, np.pi / 2))
        f00, f11 = (float(v) for v in rng.uniform(-0.05, 1.05, size=2))
        try:
            point = feasible(gamma, f00, f11)
        except ValueError as exc:
            feed("ValueError", str(exc))
            continue
        solution = point.solution
        feed(point.f00_target.hex(), point.f11_target.hex(), point.feasible)
        if solution is not None:
            feed(
                solution.s_squared.hex(),
                solution.ndelta_principal.hex(),
                solution.required_C_squared.hex(),
                solution.required_S_squared.hex(),
            )
    return h.hexdigest()


def test_seeded_readout_bits_are_pinned():
    assert readout_digest(3000) == "7ce5b03bcc6612d830cc35cf06ef9ea47ddefb3dd4e6d9f463e5e271eb5935e7"


def _unitary(rng: np.random.Generator, t: int) -> UnitaryMatrix:
    """A seeded 1- or 2-qubit unitary built without LAPACK.

    One qubit: [[a, -b*], [b, a*]] for a random unit vector (a, b). Two
    qubits: the Kronecker product of two of those, then CNOT.
    """
    if t == 1:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = v / np.sqrt(np.vdot(v, v).real)
        return UnitaryMatrix(np.array([[a, -b.conjugate()], [b, a.conjugate()]]))
    left, right = _unitary(rng, 1).entries, _unitary(rng, 1).entries
    return UnitaryMatrix(CNOT.entries @ np.kron(left, right))


def _target_orders(rng: np.random.Generator, n: int) -> list[tuple[tuple[int, ...], UnitaryMatrix]]:
    """Gate targets on an n-qubit register: in order, reversed, non-contiguous, permuted."""
    q = int(rng.integers(1, n + 1))
    orders = [((q,), _unitary(rng, 1))]
    if n >= 2:
        q = int(rng.integers(1, n))
        pairs = [(q, q + 1), (q + 1, q), tuple(int(k) + 1 for k in rng.permutation(n)[:2])]
        if n >= 3:
            pairs += [(1, n), (n, 1)]
        orders += [(pair, _unitary(rng, 2)) for pair in pairs]
    if n == 4:
        gates, _ = circuit_realization(bell_state((0, 0)))
        whole = [(1, 2, 3, 4), (4, 3, 2, 1), tuple(int(k) + 1 for k in rng.permutation(4))]
        orders += [(order, gates[int(rng.integers(0, len(gates)))]) for order in whole]
    return orders


def evolution_digest(count: int, seed: int = 2) -> str:
    """SHA-256 over gate application, gate embedding and the built source states.

    Per input: ``apply_unitary`` on a random 1-4 qubit state, and
    ``expand_unitary`` onto its register (not for 3 qubits), for every order
    of ``_target_orders``; the six circuit gates applied one by one to a pair
    and its ancillas, then the ancilla measurement; and ``emitted_state``,
    ``controlled_emission`` and ``evolve`` of a random spec, knob, field and
    time, as amplitude bytes and raw norm hex.
    """
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()

    def feed(state, *values) -> None:
        h.update(repr(values).encode())
        h.update(state.amplitudes.tobytes())

    for i in range(count):
        n = 1 + i % 4
        state = random_state(rng, n)
        for targets, u in _target_orders(rng, n):
            feed(apply_unitary(state, u, targets), targets)
            if n != 3:  # a UnitaryMatrix acts on 1, 2 or 4 qubits
                h.update(expand_unitary(u, targets, n).entries.tobytes())

        pair = _pair_input(rng, i)
        psi = tensor(pair, basis_state("00"))
        for gate in circuit_realization(pair)[0]:
            psi = apply_unitary(psi, gate, (1, 2, 3, 4))
            feed(psi)
        bits, post, prob = measure_qubits(psi, (3, 4), rng)
        feed(post, bits, prob.hex())

        spec, knob = random_spec(rng), random_knob(rng)
        emitted, raw_norm = emitted_state(spec)
        feed(emitted, raw_norm.hex())
        controlled, raw_norm = controlled_emission(spec, knob)
        feed(controlled, raw_norm.hex())
        fields = FieldParams(*(float(v) for v in rng.uniform(-2.0, 2.0, size=3)))
        feed(evolve(emitted, fields, float(rng.uniform(0.0, 50.0))))
    return h.hexdigest()


def test_seeded_gate_and_emission_bits_are_pinned():
    assert evolution_digest(400) == "fdbc90abd3803e7e5bdefa86a69ecef8ba29d88e01877cea3b5785f353f383b5"


# The edges of the emission domain: gamma at both ends, theta1 at signed zeros,
# +-pi/4 and +-pi, p1 where a weight vanishes or both are equal, and n delta at
# signed zeros, 1/8, 1/4 and +-1/2.
_GAMMAS = (0.0, math.pi / 2)
_THETA1S = (0.0, -0.0, math.pi / 4, -math.pi / 4, math.pi, -math.pi)
_P1S = (0.0, 1.0, -1.0, 1 / math.sqrt(2))
_KNOBS = tuple(ControlKnob(1, d) for d in (0.0, -0.0, 0.125, 0.25, 0.5, -0.5))


def _edge_or(rng: np.random.Generator, edges: tuple, draw):
    """One of ``edges`` half the time, else ``draw()``."""
    if rng.random() < 0.5:
        return edges[int(rng.integers(len(edges)))]
    return draw()


def emission_digest(count: int, seed: int = 3) -> str:
    """SHA-256 over the emission builders, edge values included.

    Per input: ``emitted_state`` and ``controlled_emission`` of a spec and
    knob drawn from the domain edges or at random, with both signs of p2;
    ``psi2``, ``controlled_psi1`` and ``controlled_psi2`` at its angles;
    ``oracles._superpose``, the part-by-part superposition the closed form was derived
    from, on the amplitudes of three random pairs; and
    ``evolve`` of the emitted state. States go in as amplitude bytes, raw norms as hex, and a
    degenerate superposition as its ``DegenerateSourceError`` text.
    """
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()

    def feed(build, *args) -> None:
        try:
            result = build(*args)
        except DegenerateSourceError as exc:
            h.update(f"degenerate: {exc}".encode())
            return
        state, raw_norm = result if isinstance(result, tuple) else (result, None)
        h.update(state.amplitudes.tobytes())
        h.update(b"-" if raw_norm is None else raw_norm.hex().encode())

    for i in range(count):
        spec = SourceSpec.from_p1_theta1(
            _edge_or(rng, _GAMMAS, lambda: float(rng.uniform(0.0, math.pi / 2))),
            _edge_or(rng, _P1S, lambda: float(rng.uniform(-1.0, 1.0))),
            _edge_or(rng, _THETA1S, lambda: float(rng.uniform(-math.pi, math.pi))),
            bool(i % 2),
        )
        knob = _edge_or(rng, _KNOBS, lambda: random_knob(rng))
        feed(emitted_state, spec)
        feed(controlled_emission, spec, knob)
        feed(psi2, spec.theta1)
        feed(psi2, spec.theta2)
        feed(controlled_psi1, knob)
        feed(controlled_psi2, spec.theta1, knob)
        feed(controlled_psi2, spec.theta2, knob)
        states = [random_state(rng, 2) for _ in range(3)]
        feed(_superpose, spec, *(s.amplitudes.tolist() for s in states))
        fields = FieldParams(*(float(v) for v in rng.uniform(-2.0, 2.0, size=3)))
        if i % 5 == 0:  # J = 0 and B1 = B2: the mixing frequency omega is 0
            fields = FieldParams(0.0, fields.B1, fields.B1)
        t = float(rng.uniform(0.0, 50.0))
        feed(lambda: evolve(emitted_state(spec)[0], fields, t))
    return h.hexdigest()


def test_seeded_emission_bits_are_pinned():
    assert emission_digest(3000) == "79a5d1884b01d68e095d6797990f415da569785bb881d5fd19b900ca82ea4c3e"


# The closed form has one owner (characterize._closed_form) and the histogram normalizes its
# four weights in Python floats; neither may move a bit. The shot digests hash counts, not
# the normalized weights, so they cannot see a 1-ulp shift there: these tests can.

_NEAR_OVERFLOW = (int(sys.float_info.max / 4), int(sys.float_info.max / 3.2))


def _analytic_holders() -> list[tuple[SourceSpec, ControlKnob]]:
    """Derandomized (spec, knob) pairs over the closed form's edges: gamma 0 and pi/2, p1 = +-1,
    theta1 = +-pi, n = 0, and n delta with 2 pi n delta at 0.79 and 0.98 of the float range;
    then seeded pairs."""
    specs = [
        SourceSpec.from_p1_theta1(gamma, p1, theta1, p2_negative)
        for gamma in (0.0, math.pi / 2, 0.7)
        for p1 in (1.0, -1.0, 0.0, 0.6)
        for theta1 in (math.pi, -math.pi, 0.0, 0.7)
        for p2_negative in (False, True)
    ]
    knobs = [ControlKnob(0, 0.0), ControlKnob(0, -0.3), ControlKnob(1, 0.125)]
    knobs += [ControlKnob(n, delta) for n in _NEAR_OVERFLOW for delta in (0.5, -0.5)]
    rng = np.random.default_rng(7)
    seeded = [(random_spec(rng), random_knob(rng)) for _ in range(500)]
    return [(spec, knob) for spec in specs for knob in knobs] + seeded


def _table_hex(build) -> list[str] | str:
    """The raw then normalized weights of ``build()`` as float hex, or its ValueError text."""
    try:
        table = build()
    except ValueError as exc:
        return str(exc)
    return [f.hex() for f in (*table.raw.as_tuple(), *table.normalized.as_tuple())]


def test_populations_analytic_is_the_table_of_its_moments_bit_for_bit():
    for spec, knob in _analytic_holders():
        m = species_moments(spec)
        expected = _table_hex(lambda: PopulationTable.from_raw(
            table_populations(spec.gamma, m.C**2, m.S**2, knob.ndelta)))
        assert _table_hex(lambda: populations_analytic(spec, knob)) == expected, (spec, knob)


def test_populations_analytic_bits_are_pinned():
    """Pinned before the closed form got its one owner and from_raw its single read."""
    h = hashlib.sha256()
    for spec, knob in _analytic_holders():
        h.update(repr(_table_hex(lambda: populations_analytic(spec, knob))).encode())
    assert h.hexdigest() == "e425a5cc465ed2e6ca499c109aff3d83ece266d917a459caad158cf9ba405308"


def _histogram_pairs() -> list:
    rng = np.random.default_rng(8)
    return [bell_state(label) for label in BELL_LABELS] + [_pair_input(rng, i) for i in range(300)]


def _numpy_weights(pair) -> np.ndarray:
    """The four readout weights normalized as numpy does: ``w / w.sum()``."""
    w = np.array(populations_exact(pair).raw.as_tuple())
    return w / w.sum()


def test_four_weights_sum_in_order_as_numpy_sums_them():
    rng = np.random.default_rng(9)
    for _ in range(20000):
        w = rng.random(4) * 2.0 ** rng.integers(-60, 60, size=4)
        a, b, c, d = w.tolist()
        assert (a + b + c + d).hex() == float(w.sum()).hex()


def test_sample_histogram_weights_are_numpys_normalization_bit_for_bit(monkeypatch):
    seen = []
    draw = characterize._multinomial
    monkeypatch.setattr(characterize, "_multinomial",
                        lambda shots, probs, rng: seen.append(probs) or draw(shots, probs, rng))
    rng = np.random.default_rng(10)
    for pair in _histogram_pairs():
        sample_histogram(pair, 10, rng)
        assert [p.hex() for p in seen.pop()] == [p.hex() for p in _numpy_weights(pair).tolist()]


@pytest.mark.parametrize("shots", [1, 10**5, 2**63 - 1])
def test_sample_histogram_counts_are_the_numpy_routes(shots):
    for seed, pair in enumerate(_histogram_pairs()):
        expected = np.random.default_rng(seed).multinomial(shots, _numpy_weights(pair)).tolist()
        histogram = sample_histogram(pair, shots, np.random.default_rng(seed))
        assert list(histogram) == ["00", "01", "10", "11"]
        assert list(histogram.values()) == expected
        assert {type(count) for count in histogram.values()} == {int}
