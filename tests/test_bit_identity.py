"""Bit-identity gate for the shot routes and the state-vector primitives.

``bit_digest`` feeds the exact bytes of every result below into one SHA-256:
outcomes, probabilities (as float hex) and amplitude buffers. All draws come
from one seeded generator, so a change to the number or order of draws moves
every later byte as well. ``bit_digest`` and ``readout_digest`` were last
pinned when the circuit shot came to build its register by the gates'
structure, the other two when the emission builders moved to their closed
form (README, "Notes on the math"); an optimisation must keep them.

``emission_digest`` covers the emission builders at the domain edges, where
signed zeros show: it pins the bytes of the closed form, its part-by-part
superposition and its fixed-order raw norm.

The circuit shot and ``circuit_outcome_distribution`` build their register
by the gates' structure in Python arithmetic. Only the gate-by-gate route of
``evolution_digest`` still multiplies by 16 x 16 gates through numpy's
matmul, with ``apply_unitary``'s user matrices, so that digest pins the BLAS
matrix-vector kernel of the machine it runs on. ``bit_digest`` pins it too,
through ``np.linalg.norm`` in the ``PureState(normalize=True)`` of its random
inputs. ``readout_digest`` and ``emission_digest`` read the same under the
OpenBLAS SkylakeX, Haswell and Nehalem kernels. The emission and evolution
builders call ``math.sin``, ``cos`` and ``exp``, so the digests also pin the
libm variant glibc selects for the host's CPU (ROADMAP item 2).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from bellsource import (
    BELL_LABELS,
    CNOT,
    ControlKnob,
    DegenerateSourceError,
    FieldParams,
    SourceSpec,
    UnitaryMatrix,
    apply_unitary,
    basis_state,
    bell_state,
    circuit_outcome_distribution,
    circuit_realization,
    collapse_qubits,
    controlled_emission,
    controlled_psi1,
    controlled_psi2,
    emitted_state,
    evolve,
    expand_unitary,
    feasible,
    measure_qubits,
    nonlocal_bell_measurement,
    populations_exact,
    psi2,
    run_characterization_circuit,
    sample_histogram,
    sample_measurements,
    superpose_species,
    tensor,
)
from conftest import random_knob, random_spec, random_state


def _pair_input(rng: np.random.Generator, i: int):
    """A random pair, a source-reachable pair (f10 = 0) or a Bell state, in turn."""
    kind = i % 3
    if kind == 0:
        return random_state(rng, 2)
    if kind == 1:
        return controlled_emission(random_spec(rng), random_knob(rng))[0]
    return bell_state(BELL_LABELS[(i // 3) % 4])


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
        post, prob = collapse_qubits(state, indices, bits)
        feed(bits, prob, post)
        other = tuple(rng.integers(0, 2, size=len(indices)).tolist())
        post, prob = collapse_qubits(state, indices, other)
        feed(other, prob, post)

        width = int(rng.integers(1, 4))
        factor = random_state(rng, width)
        bits = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 5 - width))))
        basis = basis_state(bits)
        feed(bits, 1.0, basis)
        feed((), 1.0, tensor(factor, basis))
        feed((), 1.0, tensor(basis, factor))
    return h.hexdigest()


def test_seeded_shot_and_primitive_bits_are_pinned():
    assert bit_digest(400) == "7fda705e6dde8886839cb09a7f175307b7e64a6d1a25bf0234ccc1bb109cff86"


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
        feed(sample_measurements(state, indices, int(rng.integers(1, 10**6)), rng).tolist())

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
    assert readout_digest(3000) == "f451539f360a37e581593859b0b89d423b7fd1b0607e7f8c4f7e678716fb2d68"


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
    assert evolution_digest(400) == "399f29c03398f18568f18762a7d14a67715a4eb91289e3ad0648c1b1be887c51"


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
    ``superpose_species`` on three random pairs; and ``evolve`` of the
    emitted state. States go in as amplitude bytes, raw norms as hex, and a
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
        feed(superpose_species, spec, *(random_state(rng, 2) for _ in range(3)))
        fields = FieldParams(*(float(v) for v in rng.uniform(-2.0, 2.0, size=3)))
        if i % 5 == 0:  # J = 0 and B1 = B2: the mixing frequency omega is 0
            fields = FieldParams(0.0, fields.B1, fields.B1)
        t = float(rng.uniform(0.0, 50.0))
        feed(lambda: evolve(emitted_state(spec)[0], fields, t))
    return h.hexdigest()


def test_seeded_emission_bits_are_pinned():
    assert emission_digest(3000) == "7094ae4a005f890b214e367ff4c0cd46840ee32c83d57bd96a12b0d6daf1f2f1"
