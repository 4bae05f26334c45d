"""Dense complex state-vector algebra for 1 to 4 qubits.

Qubits are numbered 1..n, left to right in the ket: the amplitude at
index b1 b2 ... bn (read big-endian) is the coefficient of |b1 b2 ... bn>,
so qubit 1 is the most significant bit. All values are immutable after
construction; sampling operations take an explicit numpy Generator and
touch no global randomness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "BELL_LABELS",
    "BellLabel",
    "PureState",
    "UnitaryMatrix",
    "ZeroProbabilityError",
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
_MAX_SHOTS = 2**63 - 1  # numpy draws the shot counts as int64
_QUBITS_OF_SIZE = {2**n: n for n in range(1, MAX_QUBITS + 1)}
_IN_ORDER = {n: tuple(range(n)) for n in range(1, MAX_QUBITS + 1)}
_Axes = tuple[int, ...]  # 0-based qubit axes, in target order


class ZeroProbabilityError(ValueError):
    """Requested collapse onto an outcome with (numerically) zero Born weight."""


def _is_integer(value: object) -> bool:
    """An integer count: any ``numbers.Integral`` but bool. Exact ints skip the ABC check."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


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
        if normalize and amps.size in _QUBITS_OF_SIZE:  # a bad length fails in _fresh
            # The norm divides the amplitudes here, so it decides their bits.
            norm = float(np.linalg.norm(amps))
            if not math.isfinite(norm):
                raise ValueError(f"cannot normalize a vector of non-finite norm {norm!r}")
            if norm < 1e-12:
                raise ValueError("cannot normalize a zero vector")
            amps = amps / norm
        _fresh(amps, self)

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("inner product requires equal qubit counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Born weights of the computational-basis outcomes."""
        a = self.amplitudes
        return a.real**2 + a.imag**2


def _fresh(amps: np.ndarray, state: PureState | None = None) -> PureState:
    """The one PureState validator; internal callers pass no state and a new array: no copy."""
    n = _QUBITS_OF_SIZE.get(amps.size)
    if n is None:
        raise ValueError(
            f"amplitude vector of length {amps.size} is not a 1..{MAX_QUBITS} qubit state"
        )
    # Only a check, so one pass suffices; a NaN norm fails it.
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(
            f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}; "
            "pass normalize=True to rescale"
        )
    amps.setflags(write=False)
    state = object.__new__(PureState) if state is None else state
    object.__setattr__(state, "amplitudes", amps)
    object.__setattr__(state, "num_qubits", n)
    return state


def _check_unitary_dim(dim: int) -> None:
    if dim not in (2, 4, 16):
        raise ValueError(f"unitary dim must be 2, 4, or 16, got {dim}")


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square complex matrix acting on 1, 2, or 4 qubits; U U+ = I within 1e-12."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        _check_unitary_dim(m.shape[0])
        defect = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if not defect <= _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (U U+ deviates from I by {defect!r})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", int(m.shape[0]))


class BellLabel(NamedTuple):
    a: int
    b: int


BELL_LABELS: tuple[BellLabel, ...] = (
    BellLabel(0, 0),
    BellLabel(0, 1),
    BellLabel(1, 0),
    BellLabel(1, 1),
)

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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Amplitudes of a (x) b: ``np.outer``'s ``multiply``, broadcast without its overhead."""
    return (a[:, None] * b).reshape(-1)


def _bits_of(k: int, width: int) -> tuple[int, ...]:
    return tuple((k >> (width - 1 - i)) & 1 for i in range(width))


_BASIS_STATES = {
    _bits_of(k, n): PureState(np.eye(2**n, dtype=complex)[k])
    for n in range(1, MAX_QUBITS + 1)
    for k in range(2**n)
}
_BASIS_STATES.update({"".join(map(str, b)): state for b, state in list(_BASIS_STATES.items())})


def basis_state(bits: str | Sequence[int]) -> PureState:
    """Shared immutable basis state |b1 b2 ... bn>, built at import, from a string
    of '0'/'1' characters or a sequence of values equal to 0 or 1 (1.0 and True count)."""
    state = _BASIS_STATES.get(bits if isinstance(bits, str) else tuple(bits))
    if state is None:
        raise ValueError(f"bits must be a nonempty 0/1 sequence of at most {MAX_QUBITS}, got {bits!r}")
    return state


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product with a's qubits first; at most 4 qubits total.

    The result is a new state even when a factor is a shared constant such
    as ``basis_state(bits)``, ``bell_state(l)`` or ``psi1()``.
    """
    total = a.num_qubits + b.num_qubits
    if total > MAX_QUBITS:
        raise ValueError(f"tensor product would have {total} qubits (max {MAX_QUBITS})")
    return _fresh(_kron(a.amplitudes, b.amplitudes))


def _check_targets(targets: Sequence[int], num_qubits: int) -> _Axes:
    """0-based axes of distinct qubit indices, each equal to one of 1..num_qubits (2.0 and
    True count as 2 and 1, 2.9 is rejected); from ``_AXES`` if there."""
    try:
        return _AXES[targets, num_qubits]
    except (KeyError, TypeError):  # not in the table, or unhashable such as a list
        pass
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated qubit index in {targets!r}")
    positions = range(1, num_qubits + 1)
    for q in targets:
        if q not in positions:
            detail = f"{q} out of range" if _is_integer(q) else f"{q!r} is not an integer in"
            raise ValueError(f"qubit index {detail} 1..{num_qubits}")
    return tuple(map(positions.index, targets))


_AXES: dict[tuple[Sequence[int], int], _Axes] = {}
_AXES.update(  # every ordered target tuple of 1..4 qubits, checked once: 84 entries
    ((targets, n), _check_targets(targets, n))
    for n in range(1, MAX_QUBITS + 1)
    for t in range(1, n + 1)
    for targets in itertools.permutations(range(1, n + 1), t)
)


def _apply_matrix(amps: np.ndarray, matrix: np.ndarray, axes: _Axes, n: int) -> np.ndarray:
    t = len(axes)
    if axes == _IN_ORDER.get(n):
        # Whole register in order: the permutation is the identity. Same
        # (2**t, 1) operand as the general path, so the same matmul bits.
        return (matrix @ amps.reshape(2**t, -1)).reshape(-1)
    order = axes + tuple(i for i in range(n) if i not in axes)
    psi = amps.reshape((2,) * n).transpose(order).reshape(2**t, -1)
    psi = matrix @ psi
    return psi.reshape((2,) * n).transpose(np.argsort(order)).reshape(-1)


def _gate_axes(u: UnitaryMatrix, targets: Sequence[int], num_qubits: int) -> _Axes:
    axes = _check_targets(targets, num_qubits)
    if u.dim != 2 ** len(axes):
        raise ValueError(f"unitary of dim {u.dim} does not act on {len(axes)} qubit(s)")
    return axes


def apply_unitary(state: PureState, u: UnitaryMatrix, targets: Sequence[int]) -> PureState:
    """Apply ``u`` to the ordered target qubits, identity elsewhere."""
    axes = _gate_axes(u, targets, state.num_qubits)
    return _fresh(_apply_matrix(state.amplitudes, u.entries, axes, state.num_qubits))


def expand_unitary(u: UnitaryMatrix, targets: Sequence[int], num_qubits: int) -> UnitaryMatrix:
    """Embed ``u`` on the given qubits of an ``num_qubits``-qubit register."""
    _check_unitary_dim(2**num_qubits)  # before the 2**n columns are built
    axes = _gate_axes(u, targets, num_qubits)
    columns = [
        _apply_matrix(e, u.entries, axes, num_qubits)
        for e in np.eye(2**num_qubits, dtype=complex)
    ]
    return UnitaryMatrix(np.stack(columns, axis=1))


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


# Conjugated once here: bell_coefficients reads <label|state> on every shot.
_BELL_BRAS = np.stack([bell_state(lbl).amplitudes for lbl in BELL_LABELS]).conj()


def bell_coefficients(state: PureState) -> tuple[complex, complex, complex, complex]:
    """Coefficients (c00, c01, c10, c11) of a 2-qubit state in the Bell basis."""
    if state.num_qubits != 2:
        raise ValueError(f"Bell decomposition needs a 2-qubit state, got {state.num_qubits}")
    c = _BELL_BRAS @ state.amplitudes
    return (complex(c[0]), complex(c[1]), complex(c[2]), complex(c[3]))


def fidelity_up_to_phase(a: PureState, b: PureState) -> float:
    """|<a|b>|: equals 1 iff the states agree up to a global phase."""
    return min(abs(a.inner(b)), 1.0)


def _marginal_probabilities(state: PureState, axes: _Axes) -> np.ndarray:
    """Born weights of the measured subset, flattened in the axes' bit order."""
    n = state.num_qubits
    rest = tuple(i for i in range(n) if i not in axes)
    abs2 = state.probabilities().reshape((2,) * n)
    return abs2.transpose(axes + rest).reshape(2 ** len(axes), -1).sum(axis=1)


def _collapse(state: PureState, axes: _Axes, bits: tuple[int, ...], prob: float) -> PureState:
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n)
    selector: list[object] = [slice(None)] * n
    for ax, bit in zip(axes, bits):
        selector[ax] = bit
    collapsed = np.zeros(psi.shape, complex)
    collapsed[tuple(selector)] = psi[tuple(selector)] / math.sqrt(prob)
    return _fresh(collapsed.reshape(-1))


def _born_index(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Born-rule index for one draw u = ``rng.random()``, by a running sum.

    Equals ``min(searchsorted(cumsum(probs), u, side="right"), len(probs) - 1)``.
    """
    u = rng.random()
    total = 0.0
    for k, p in enumerate(probs):
        total += p
        if total > u:
            return k
    return len(probs) - 1


def _draw(
    state: PureState, axes: _Axes, rng: np.random.Generator
) -> tuple[tuple[int, ...], float]:
    """Outcome bits of the measured axes, drawn by the Born rule, and their weight."""
    probs = _marginal_probabilities(state, axes).tolist()
    k = _born_index(probs, rng)
    return _bits_of(k, len(axes)), probs[k]


def _multinomial(shots: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Counts of ``shots`` Born draws over the weights ``probs``, in one multinomial step.

    Its joint law equals that of ``shots`` independent measurements; the
    weights are rescaled to sum to 1. ``shots`` must be an integer in [1, 2**63 - 1].
    """
    if not (_is_integer(shots) and 1 <= shots <= _MAX_SHOTS):
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots!r}")
    return rng.multinomial(shots, probs / probs.sum())


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
    bits, prob = _draw(state, axes, rng)
    return bits, _collapse(state, axes, bits, prob), prob


def sample_measurements(
    state: PureState, indices: Sequence[int], shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Outcome counts of ``shots`` independent measurements of the given qubits.

    The marginal Born weights of :func:`measure_qubits`, drawn by one
    multinomial step. Entry k counts the outcome whose bits (in ``indices``
    order) spell k in binary.
    """
    axes = _check_targets(indices, state.num_qubits)
    return _multinomial(shots, _marginal_probabilities(state, axes), rng)


def collapse_qubits(
    state: PureState, indices: Sequence[int], outcome: Sequence[int]
) -> tuple[PureState, float]:
    """Deterministic-outcome variant of :func:`measure_qubits`.

    Raises ZeroProbabilityError when the requested outcome has no Born
    weight, which signals inconsistent input rather than valid physics.
    """
    axes = _check_targets(indices, state.num_qubits)
    if len(outcome) != len(axes) or any(b not in (0, 1) for b in outcome):
        raise ValueError(f"outcome {outcome!r} does not match {len(axes)} measured qubit(s)")
    bits = tuple(1 if b == 1 else 0 for b in outcome)
    # The marginal weights as a 2 x ... x 2 array, indexed by the outcome bits.
    prob = float(_marginal_probabilities(state, axes).reshape([2] * len(bits))[bits])
    if prob < _ZERO_PROB:
        raise ZeroProbabilityError(
            f"outcome {bits} has probability {prob!r}; collapse is undefined"
        )
    return _collapse(state, axes, bits, prob), prob
