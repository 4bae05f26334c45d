"""Bit-identity gate for the shot routes and the state-vector primitives.

``bit_digest`` feeds the exact bytes of every result below into one SHA-256:
outcomes, probabilities (as float hex) and amplitude buffers. All draws come
from one seeded generator, so a change to the number or order of draws moves
every later byte as well. The pinned digests were computed before the shot
path was reworked; an optimisation must keep them.

The circuit routes multiply by 16 x 16 gates through numpy's matmul, so the
digest also pins the BLAS matrix-vector kernel of the machine it runs on.
"""

from __future__ import annotations

import hashlib

import numpy as np

from bellsource import (
    BELL_LABELS,
    basis_state,
    bell_state,
    circuit_outcome_distribution,
    collapse_qubits,
    controlled_emission,
    measure_qubits,
    nonlocal_bell_measurement,
    run_characterization_circuit,
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
    assert bit_digest(400) == "a373efb318f3a6788aebfdfbc4e9c18242b5bf05d44753c948b4786b29049727"
