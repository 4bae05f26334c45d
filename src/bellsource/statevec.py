"""Dense complex state-vector algebra for 1 to 4 qubits.

Qubits are numbered 1..n, left to right in the ket: the amplitude at
index b1 b2 ... bn (read big-endian) is the coefficient of |b1 b2 ... bn>,
so qubit 1 is the most significant bit. All values are immutable after
construction; sampling operations take an explicit numpy Generator and
touch no global randomness.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "BELL_LABELS",
    "BellLabel",
    "PureState",
    "UnitaryMatrix",
    "ZeroProbabilityError",
    "IDENTITY",
    "HADAMARD",
    "CNOT",
    "basis_state",
    "tensor",
    "apply_unitary",
    "expand_unitary",
    "bell_state",
    "bell_coefficients",
    "fidelity_up_to_phase",
    "measure_qubits",
    "collapse_qubits",
    "sample_measurements",
]

MAX_QUBITS = 4

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-12
_ZERO_PROB = 1e-12


class ZeroProbabilityError(ValueError):
    """Requested collapse onto an outcome with (numerically) zero Born weight."""


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over 1..4 qubits.

    Input whose norm deviates from 1 by more than 1e-9, or is NaN, is
    rejected unless ``normalize=True`` is passed, which rescales any input
    of finite nonzero norm; silent rescaling would hide unnormalized
    superpositions that callers need to account for explicitly.
    """

    amplitudes: np.ndarray
    normalize: InitVar[bool] = False
    num_qubits: int = field(init=False)

    def __post_init__(self, normalize: bool) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size != 2**n or not 1 <= n <= MAX_QUBITS:
            raise ValueError(
                f"amplitude vector of length {amps.size} is not a 1..{MAX_QUBITS} qubit state"
            )
        if normalize:
            # The norm divides the amplitudes here, so it decides their bits.
            norm = float(np.linalg.norm(amps))
            if not math.isfinite(norm):
                raise ValueError(f"cannot normalize a vector of non-finite norm {norm!r}")
            if norm < 1e-12:
                raise ValueError("cannot normalize a zero vector")
            amps = amps / norm
        else:
            # Only a check, so one pass suffices; a NaN norm fails it.
            norm = math.sqrt(np.vdot(amps, amps).real)
            if not abs(norm - 1.0) <= _NORM_TOL:
                raise ValueError(
                    f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}; "
                    "pass normalize=True to rescale"
                )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("inner product requires equal qubit counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Born weights of the computational-basis outcomes."""
        a = self.amplitudes
        return a.real**2 + a.imag**2


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square complex matrix acting on 1, 2, or 4 qubits; U U+ = I within 1e-12."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        if m.shape[0] not in (2, 4, 16):
            raise ValueError(f"unitary dim must be 2, 4, or 16, got {m.shape[0]}")
        defect = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if not defect <= _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (U U+ deviates from I by {defect!r})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", int(m.shape[0]))

    @property
    def num_targets(self) -> int:
        return self.dim.bit_length() - 1


class BellLabel(NamedTuple):
    a: int
    b: int


BELL_LABELS: tuple[BellLabel, ...] = (
    BellLabel(0, 0),
    BellLabel(0, 1),
    BellLabel(1, 0),
    BellLabel(1, 1),
)

IDENTITY = UnitaryMatrix(np.eye(2))
HADAMARD = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
# Control on the first target qubit, flip on the second.
CNOT = UnitaryMatrix(
    np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
)


def basis_state(bits: str | Sequence[int]) -> PureState:
    """Computational basis state |b1 b2 ... bn> from a bit string or sequence."""
    values = [int(b) for b in bits]
    if not values or any(v not in (0, 1) for v in values):
        raise ValueError(f"bits must be a nonempty 0/1 sequence, got {bits!r}")
    amps = np.zeros(2 ** len(values), dtype=complex)
    index = 0
    for v in values:
        index = (index << 1) | v
    amps[index] = 1.0
    return PureState(amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product with a's qubits first; at most 4 qubits total.

    Formed as an outer product, whose amplitudes equal ``np.kron``'s bit for
    bit at a fraction of the cost; ``source._square`` forms the species'
    products by broadcasting the same ``multiply`` ufunc, on raw amplitudes
    that are not validated states. The result is a new state even when a
    factor is a cached constant such as ``bell_state(l)`` or ``psi1()``;
    those are shared immutable instances.
    """
    total = a.num_qubits + b.num_qubits
    if total > MAX_QUBITS:
        raise ValueError(f"tensor product would have {total} qubits (max {MAX_QUBITS})")
    return PureState(np.outer(a.amplitudes, b.amplitudes).reshape(-1))


def _check_targets(targets: Sequence[int], num_qubits: int) -> list[int]:
    """Validate distinct 1-based qubit indices; return 0-based axes."""
    idx = [int(q) for q in targets]
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated qubit index in {targets!r}")
    for q in idx:
        if not 1 <= q <= num_qubits:
            raise ValueError(f"qubit index {q} out of range 1..{num_qubits}")
    return [q - 1 for q in idx]


def _apply_matrix(amps: np.ndarray, matrix: np.ndarray, axes: list[int], n: int) -> np.ndarray:
    t = len(axes)
    if axes == list(range(n)):
        # Whole register in order: the permutation is the identity. Same
        # (2**t, 1) operand as the general path, so the same matmul bits.
        return (matrix @ amps.reshape(2**t, -1)).reshape(-1)
    rest = [i for i in range(n) if i not in axes]
    psi = amps.reshape([2] * n).transpose(axes + rest).reshape(2**t, -1)
    psi = matrix @ psi
    inverse = np.argsort(axes + rest)
    return psi.reshape([2] * n).transpose(inverse).reshape(-1)


def apply_unitary(state: PureState, u: UnitaryMatrix, targets: Sequence[int]) -> PureState:
    """Apply ``u`` to the ordered target qubits, identity elsewhere."""
    axes = _check_targets(targets, state.num_qubits)
    if u.dim != 2 ** len(axes):
        raise ValueError(f"unitary of dim {u.dim} does not act on {len(axes)} qubit(s)")
    return PureState(_apply_matrix(state.amplitudes, u.entries, axes, state.num_qubits))


def expand_unitary(u: UnitaryMatrix, targets: Sequence[int], num_qubits: int) -> UnitaryMatrix:
    """Embed ``u`` on the given qubits of an ``num_qubits``-qubit register."""
    axes = _check_targets(targets, num_qubits)
    if u.dim != 2 ** len(axes):
        raise ValueError(f"unitary of dim {u.dim} does not act on {len(axes)} qubit(s)")
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        column = np.zeros(dim, dtype=complex)
        column[k] = 1.0
        full[:, k] = _apply_matrix(column, u.entries, axes, num_qubits)
    return UnitaryMatrix(full)


def _build_bell_state(a: int, b: int) -> PureState:
    amps = np.zeros(4, dtype=complex)
    amps[b] = 1.0 / math.sqrt(2)
    amps[2 + (1 - b)] = (-1.0) ** a / math.sqrt(2)
    return PureState(amps)


_BELL_STATES = {label: _build_bell_state(*label) for label in BELL_LABELS}


def bell_state(label: BellLabel | tuple[int, int]) -> PureState:
    """Bell state with the fixed sign convention.

    (0,0) -> (|00>+|11>)/sqrt2   (0,1) -> (|01>+|10>)/sqrt2
    (1,0) -> (|00>-|11>)/sqrt2   (1,1) -> (|01>-|10>)/sqrt2

    The four states are built once, at import; a call validates the label
    and returns the shared immutable instance, so
    ``bell_state(l) is bell_state(l)``.
    """
    a, b = label
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"Bell label bits must be 0/1, got {label!r}")
    return _BELL_STATES[a, b]


_BELL_AMPS = np.stack([bell_state(lbl).amplitudes for lbl in BELL_LABELS])


def bell_coefficients(state: PureState) -> tuple[complex, complex, complex, complex]:
    """Coefficients (c00, c01, c10, c11) of a 2-qubit state in the Bell basis."""
    if state.num_qubits != 2:
        raise ValueError(f"Bell decomposition needs a 2-qubit state, got {state.num_qubits}")
    c = _BELL_AMPS.conj() @ state.amplitudes
    return (complex(c[0]), complex(c[1]), complex(c[2]), complex(c[3]))


def fidelity_up_to_phase(a: PureState, b: PureState) -> float:
    """|<a|b>|: equals 1 iff the states agree up to a global phase."""
    return min(abs(a.inner(b)), 1.0)


def _marginal_probabilities(state: PureState, axes: list[int]) -> np.ndarray:
    """Born weights of the measured subset, flattened in the axes' bit order."""
    n = state.num_qubits
    t = len(axes)
    rest = [i for i in range(n) if i not in axes]
    abs2 = state.probabilities().reshape([2] * n)
    return abs2.transpose(axes + rest).reshape(2**t, -1).sum(axis=1)


def _collapse(state: PureState, axes: list[int], bits: tuple[int, ...], prob: float) -> PureState:
    n = state.num_qubits
    psi = state.amplitudes.reshape([2] * n)
    selector: list[object] = [slice(None)] * n
    for ax, bit in zip(axes, bits):
        selector[ax] = bit
    collapsed = np.zeros_like(psi)
    collapsed[tuple(selector)] = psi[tuple(selector)] / math.sqrt(prob)
    return PureState(collapsed.reshape(-1))


def _bits_of(k: int, width: int) -> tuple[int, ...]:
    return tuple((k >> (width - 1 - i)) & 1 for i in range(width))


def measure_qubits(
    state: PureState, indices: Sequence[int], rng: np.random.Generator
) -> tuple[tuple[int, ...], PureState, float]:
    """Projective computational-basis measurement of the given qubits.

    Samples an outcome by the Born rule (deterministic for a given rng
    state), collapses and renormalizes. Returns (outcome bits in the order
    of ``indices``, collapsed state, outcome probability).
    """
    if not indices:
        raise ValueError("must measure at least one qubit")
    axes = _check_targets(indices, state.num_qubits)
    probs = _marginal_probabilities(state, axes)
    k = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    k = min(k, probs.size - 1)
    bits = _bits_of(k, len(axes))
    prob = float(probs[k])
    return bits, _collapse(state, axes, bits, prob), prob


def sample_measurements(
    state: PureState, indices: Sequence[int], shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Outcome counts of ``shots`` independent measurements of the given qubits.

    Uses the same marginal Born distribution as :func:`measure_qubits`; the
    counts are drawn in one multinomial step, whose joint law equals that of
    the independent per-shot measurements. Entry k counts the outcome whose
    bits (in ``indices`` order) spell k in binary.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    axes = _check_targets(indices, state.num_qubits)
    probs = _marginal_probabilities(state, axes)
    return rng.multinomial(shots, probs / probs.sum())


def collapse_qubits(
    state: PureState, indices: Sequence[int], outcome: Sequence[int]
) -> tuple[PureState, float]:
    """Deterministic-outcome variant of :func:`measure_qubits`.

    Raises ZeroProbabilityError when the requested outcome has no Born
    weight, which signals inconsistent input rather than valid physics.
    """
    axes = _check_targets(indices, state.num_qubits)
    bits = tuple(int(b) for b in outcome)
    if len(bits) != len(axes) or any(b not in (0, 1) for b in bits):
        raise ValueError(f"outcome {outcome!r} does not match {len(axes)} measured qubit(s)")
    probs = _marginal_probabilities(state, axes)
    k = 0
    for b in bits:
        k = (k << 1) | b
    prob = float(probs[k])
    if prob < _ZERO_PROB:
        raise ZeroProbabilityError(
            f"outcome {bits} has probability {prob!r}; collapse is undefined"
        )
    return _collapse(state, axes, bits, prob), prob
