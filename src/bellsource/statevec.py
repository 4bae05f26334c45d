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
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "BELL_LABELS",
    "BellLabel",
    "PureState",
    "UnitaryMatrix",
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
]

MAX_QUBITS = 4

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-12
_ZERO_PROB = 1e-12
_MAX_SHOTS = 2**63 - 1  # numpy draws the shot counts as int64
_QUBITS_OF_SIZE = {2**n: n for n in range(1, MAX_QUBITS + 1)}
_FLOAT_MAX = sys.float_info.max


def _is_integer(value: object) -> bool:
    """An integer count: any ``numbers.Integral`` but bool. Exact ints skip the ABC check."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def _python_number(value: object, what: str = "") -> object:
    """``value``, or the Python number a numpy scalar or 0-d array holds: no later arithmetic
    wraps or warns. An array of one or more dimensions is refused, naming ``what`` and its shape."""
    if type(value) is float or not isinstance(value, (np.generic, np.ndarray)):
        return value
    if value.ndim:
        named = f" for {what}" if what else ""
        raise ValueError(f"expected a number{named}, got an array of shape {value.shape}")
    return value.item()


def _require_kind(what: str, kind: type, value: object) -> None:
    """The wrong-kind rule's one refusal: ValueError naming ``what``, ``kind`` and the type.
    A gate or shot path tests the exact type first and calls it only when that fails."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def _is_finite(value: float) -> bool:
    """A finite real: NaN, the infinities and an int past the float range fail, compared exactly."""
    return abs(value if type(value) is float else _python_number(value)) <= _FLOAT_MAX


def _require_finite(what: str, *values: float) -> None:
    """The finite rule's one refusal: ValueError naming ``what`` and the value (or values),
    each numpy scalar shown as the Python number it holds, and an array refused naming ``what``."""
    try:
        finite = all(map(_is_finite, values))
    except ValueError:  # an array: the read below refuses it by name
        finite = False
    if not finite:
        shown = tuple(_python_number(value, what) for value in values)
        raise ValueError(f"{what} must be finite, got {(shown[0] if len(shown) == 1 else shown)!r}")


def _build(cls: type, **fields: object):
    """A frozen ``cls`` holding values the library has already computed and checked: one
    ``__dict__`` write in place of the dataclass ``__init__``'s ``object.__setattr__`` each."""
    holder = object.__new__(cls)
    holder.__dict__.update(fields)
    return holder


def _or_infinity(value: float) -> float:
    """``value``, or the float infinity of its sign past the float range (NaN stays NaN)."""
    return value if _is_finite(value) or value != value else math.inf if value > 0 else -math.inf


def _complex_array(values: object) -> np.ndarray:
    """A new complex array of ``values``: the one entry conversion of the state and matrix types."""
    try:
        return np.array(values, dtype=complex)
    except OverflowError:  # numpy's, for an int past the float range
        raise ValueError("entries must be finite, got an int past the float range") from None


def _squared_norm(values: Sequence[complex]) -> float:
    """Sum of |v|^2: the real squares, the imaginary squares, then both; ``*`` overflows to inf."""
    re = im = 0.0
    for v in values:
        re += v.real * v.real
        im += v.imag * v.imag
    return re + im


@dataclass(frozen=True, eq=False, slots=True)
class PureState:
    """Normalized amplitude vector over 1..4 qubits.

    Input whose norm deviates from 1 by more than 1e-9, or is NaN, is
    rejected: silent rescaling would hide unnormalized superpositions that
    callers need to account for explicitly.

    The two fields are slots: an instance has no ``__dict__`` and cannot be
    weak-referenced, and setting or deleting any name raises FrozenInstanceError. A copy
    or pickle rebuilds through this constructor, so it holds a new read-only array that
    passed the norm check.
    """

    amplitudes: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self) -> None:
        _fresh(_complex_array(self.amplitudes).reshape(-1), self)

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        if type(other) is not PureState:
            _require_kind("other", PureState, other)
        if self.num_qubits != other.num_qubits:
            raise ValueError("inner product requires equal qubit counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Born weights of the computational-basis outcomes."""
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def __reduce__(self):
        return PureState, (self.amplitudes,)


# _fresh's slot writers, and numpy's C vdot without the __array_function__ dispatch (the same
# routine, so the same bits): _fresh reads only base-class ndarrays that statevec has just built.
_set_amplitudes, _set_num_qubits = PureState.amplitudes.__set__, PureState.num_qubits.__set__
_vdot = np.vdot.__wrapped__


def _fresh(amps: np.ndarray, state: PureState | None = None) -> PureState:
    """The one PureState validator; it fills the two slots with ``amps``, new and not copied."""
    n = _QUBITS_OF_SIZE.get(amps.size)
    if n is None:
        raise ValueError(
            f"amplitude vector of length {amps.size} is not a 1..{MAX_QUBITS} qubit state"
        )
    # Only a check, so one pass suffices; a NaN norm fails it.
    norm = math.sqrt(_vdot(amps, amps).real)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}")
    amps.setflags(False)  # write=False, passed by position: no keyword parsing
    state = object.__new__(PureState) if state is None else state
    _set_amplitudes(state, amps)
    _set_num_qubits(state, n)
    return state


def _check_unitary_dim(dim: int) -> None:
    if dim not in (2, 4, 16):
        raise ValueError(f"unitary dim must be 2, 4, or 16, got {dim}")


@dataclass(frozen=True, eq=False, slots=True)
class UnitaryMatrix:
    """Unitary on 1, 2 or 4 qubits (U U+ = I within 1e-12), slotted and copied as PureState is."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = _complex_array(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        _check_unitary_dim(m.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # a huge or infinite entry: inf or nan
            defect = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if not defect <= _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (U U+ deviates from I by {defect!r})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", int(m.shape[0]))

    def __reduce__(self):
        return UnitaryMatrix, (self.entries,)


def _frozen(self, name: str, *value: object) -> None:
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# dataclass's own pair sent a name that is not a field to super(), which slots=True breaks.
PureState.__setattr__ = PureState.__delattr__ = _frozen
UnitaryMatrix.__setattr__ = UnitaryMatrix.__delattr__ = _frozen


class BellLabel(NamedTuple):
    a: int
    b: int


# The one spelling of r = 1/sqrt2 and of the Bell basis, as Python complex.
# Every imaginary zero is +0.0, so -r is complex(-r), never -complex(r).
_RSQRT2 = 1.0 / math.sqrt(2)
_R, _ZERO, _MINUS_R = complex(_RSQRT2), complex(0.0), complex(-_RSQRT2)
_BELL_AMPLITUDES: dict[BellLabel, tuple[complex, complex, complex, complex]] = {
    BellLabel(0, 0): (_R, _ZERO, _ZERO, _R),
    BellLabel(0, 1): (_ZERO, _R, _R, _ZERO),
    BellLabel(1, 0): (_R, _ZERO, _ZERO, _MINUS_R),
    BellLabel(1, 1): (_ZERO, _R, _MINUS_R, _ZERO),
}
BELL_LABELS: tuple[BellLabel, ...] = tuple(_BELL_AMPLITUDES)

HADAMARD = UnitaryMatrix(_RSQRT2 * np.array([[1, 1], [1, -1]]))
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


# The bits of outcome k on t qubits, big-endian: _OUTCOME_BITS[t][k], built once at import.
_OUTCOME_BITS = tuple(tuple(itertools.product((0, 1), repeat=t)) for t in range(MAX_QUBITS + 1))
_BASIS_STATES = {
    bits: PureState(np.eye(2**n, dtype=complex)[k])
    for n in range(1, MAX_QUBITS + 1)
    for k, bits in enumerate(_OUTCOME_BITS[n])
}
_BASIS_STATES.update({"".join(map(str, b)): state for b, state in list(_BASIS_STATES.items())})


def basis_state(bits: str | Sequence[int]) -> PureState:
    """Shared immutable basis state |b1 b2 ... bn>, built at import, from a string
    of '0'/'1' characters or a sequence of values equal to 0 or 1 (1.0 and True count)."""
    try:
        return _BASIS_STATES[bits if isinstance(bits, str) else tuple(bits)]
    except (KeyError, TypeError):  # not 0/1 bits, not a sequence, or unhashable bits
        raise ValueError(
            f"bits must be a nonempty 0/1 sequence of at most {MAX_QUBITS}, got {bits!r}"
        ) from None


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product with a's qubits first; at most 4 qubits total.

    The result is a new state even when a factor is a shared constant such
    as ``basis_state(bits)`` or ``bell_state(l)``.
    """
    if type(a) is not PureState or type(b) is not PureState:
        _require_kind("a", PureState, a)
        _require_kind("b", PureState, b)
    total = a.num_qubits + b.num_qubits
    if total > MAX_QUBITS:
        raise ValueError(f"tensor product would have {total} qubits (max {MAX_QUBITS})")
    return _fresh(_kron(a.amplitudes, b.amplitudes))


def _check_targets(targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Layout rows of one or more distinct qubit indices, each equal to one of 1..num_qubits
    (2.0 and True count as 2 and 1, 2.9 is rejected): the ``_ROWS`` entry of the targets."""
    try:
        return _ROWS[targets, num_qubits]
    except (KeyError, TypeError):  # not in the table, or unhashable such as a list
        pass
    try:
        count, distinct = len(targets), len(set(targets))
    except TypeError:  # not a sequence, or an unhashable index such as [1]
        raise ValueError(f"qubit indices must be a sequence of integers, got {targets!r}") from None
    if count == 0:
        raise ValueError(f"need at least one qubit index, got {targets!r}")
    if distinct != count:
        raise ValueError(f"repeated qubit index in {targets!r}")
    positions = range(1, num_qubits + 1)
    for q in targets:
        if q not in positions:
            detail = f"{q} out of range" if _is_integer(q) else f"{q!r} is not an integer in"
            raise ValueError(f"qubit index {detail} 1..{num_qubits}")
    return _ROWS[tuple(targets), num_qubits]


def _layout(targets: tuple[int, ...], n: int) -> np.ndarray:
    """Row k: the flat positions whose ``targets`` bits spell k (big-endian), in register order.

    The rows read line 0 of a read-only (2, 2**n) block, ``rows.base``, with the strides the
    reshape gave them (a reduction's order follows them); line 1 is their inverse permutation,
    ``_apply_matrix``'s gather, equal to the flat full-register entry of the inverse qubit order.
    For the whole register in qubit order both lines are the identity, and no gate reads them.
    """
    order = [q - 1 for q in targets] + [i for i in range(n) if i + 1 not in targets]
    rows = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(2 ** len(targets), -1)
    block = np.stack([rows.ravel(order="K"), np.argsort(rows, axis=None)])
    block.setflags(write=False)
    return np.ndarray(rows.shape, rows.dtype, block, strides=rows.strides)


# The one qubit layout, read-only, keyed by every ordered target tuple (84 entries): every gate,
# marginal and collapse takes its rows here. _IN_ORDER: the whole register in order, by size.
_ROWS: dict[tuple[Sequence[int], int], np.ndarray] = {
    (targets, n): _layout(targets, n)
    for n in range(1, MAX_QUBITS + 1)
    for t in range(1, n + 1)
    for targets in itertools.permutations(range(1, n + 1), t)
}
_IN_ORDER = {2**n: _ROWS[tuple(range(1, n + 1)), n] for n in range(1, MAX_QUBITS + 1)}


def _apply_matrix(amps: np.ndarray, matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix`` on ``rows``: one BLAS call (``ndarray.dot``) on the gathered rows, put back in
    register order by one gather through the layout's inverse permutation (``rows.base[1]``).
    The whole register in qubit order is ``matrix.dot(amps)`` alone: numpy hands the vector and
    the gathered ``(2**n, 1)`` column to the same BLAS gemv, so the bytes are the same."""
    if rows is _IN_ORDER[amps.size]:
        return matrix.dot(amps)
    return matrix.dot(amps[rows]).ravel()[rows.base[1]]


def _gate_rows(u: UnitaryMatrix, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    if type(u) is not UnitaryMatrix:
        _require_kind("gate", UnitaryMatrix, u)
    rows = _check_targets(targets, num_qubits)
    if u.dim != len(rows):
        raise ValueError(f"unitary of dim {u.dim} does not act on {len(targets)} qubit(s)")
    return rows


def apply_unitary(state: PureState, u: UnitaryMatrix, targets: Sequence[int]) -> PureState:
    """Apply ``u`` to the ordered target qubits, identity elsewhere."""
    if type(state) is not PureState:
        _require_kind("state", PureState, state)
    rows = _gate_rows(u, targets, state.num_qubits)
    return _fresh(_apply_matrix(state.amplitudes, u.entries, rows))


def expand_unitary(u: UnitaryMatrix, targets: Sequence[int], num_qubits: int) -> UnitaryMatrix:
    """Embed ``u`` on the given qubits of an ``num_qubits``-qubit register (1, 2 or 4)."""
    if not (_is_integer(num_qubits) and num_qubits in (1, 2, 4)):  # before any 2**n is built
        if type(num_qubits) in (int, float) and 0 < num_qubits <= 64:  # a real size: name its dim
            _check_unitary_dim(2**num_qubits)
        raise ValueError(f"num_qubits must be an integer 1, 2 or 4, got {num_qubits!r}")
    rows = _gate_rows(u, targets, num_qubits)
    columns = [_apply_matrix(e, u.entries, rows) for e in np.eye(2**num_qubits, dtype=complex)]
    return UnitaryMatrix(np.stack(columns, axis=1))


_BELL_STATES = {label: PureState(amps) for label, amps in _BELL_AMPLITUDES.items()}


def _bell_lookup(table: dict, label: object, what: str = "Bell label"):
    """``table[tuple(label)]`` for a Bell-label key: a pair of values equal to 0 or 1."""
    try:
        return table[tuple(label)]
    except (KeyError, TypeError):  # not a 0/1 pair, not a sequence, or unhashable bits
        raise ValueError(f"{what} bits must be 0/1, got {label!r}") from None


def bell_state(label: BellLabel | tuple[int, int]) -> PureState:
    """Bell state with the fixed sign convention.

    (0,0) -> (|00>+|11>)/sqrt2   (0,1) -> (|01>+|10>)/sqrt2
    (1,0) -> (|00>-|11>)/sqrt2   (1,1) -> (|01>-|10>)/sqrt2

    The four states are built once, at import; a call validates the label
    and returns the shared immutable instance, so
    ``bell_state(l) is bell_state(l)``.
    """
    return _bell_lookup(_BELL_STATES, label)


def bell_coefficients(state: PureState) -> tuple[complex, complex, complex, complex]:
    """Coefficients (c00, c01, c10, c11) of a 2-qubit state in the Bell basis, by butterflies."""
    if type(state) is not PureState:
        _require_kind("state", PureState, state)
    if state.num_qubits != 2:
        raise ValueError(f"Bell decomposition needs a 2-qubit state, got {state.num_qubits}")
    x00, x01, x10, x11 = state.amplitudes.tolist()
    r = _RSQRT2
    return ((x00 + x11) * r, (x01 + x10) * r, (x00 - x11) * r, (x01 - x10) * r)


def fidelity_up_to_phase(a: PureState, b: PureState) -> float:
    """|<a|b>|: equals 1 iff the states agree up to a global phase."""
    _require_kind("a", PureState, a)
    _require_kind("b", PureState, b)
    return min(abs(a.inner(b)), 1.0)


def _marginal_probabilities(state: PureState, rows: np.ndarray) -> np.ndarray:
    """Born weights of the measured subset: entry k sums layout row k."""
    return np.add.reduce(state.probabilities()[rows], axis=1)


def _collapse(state: PureState, row: np.ndarray, prob: float) -> PureState:
    """The amplitudes at layout ``row`` over the root of its weight ``prob``, zeros elsewhere."""
    collapsed = np.zeros(state.amplitudes.size, complex)
    collapsed[row] = state.amplitudes[row] / math.sqrt(prob)
    return _fresh(collapsed)


def _born_index(probs: Sequence[float], rng: np.random.Generator) -> int:
    """Born-rule index for one draw u = ``rng.random()``, by a running sum.

    Equals ``searchsorted(cumsum(probs), u, side="right")`` for u below the sum.
    A u in the rounding gap above it gets the last index of weight at least
    ``_ZERO_PROB``, or the last index if none is.
    """
    if type(rng) is not np.random.Generator:
        _require_kind("rng", np.random.Generator, rng)
    u = rng.random()
    total = 0.0
    for k, p in enumerate(probs):
        total += p
        if total > u:
            return k
    return max((k for k, p in enumerate(probs) if p >= _ZERO_PROB), default=len(probs) - 1)


def _multinomial(shots: int, probs: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """Counts of ``shots`` Born draws over the weights ``probs``, rescaled to sum to 1 by the
    caller, in one multinomial step; its joint law equals that of ``shots`` independent
    measurements. ``shots`` must be an integer in [1, 2**63 - 1], ``rng`` a Generator.
    """
    if not (_is_integer(shots) and 1 <= shots <= _MAX_SHOTS):
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots!r}")
    _require_kind("rng", np.random.Generator, rng)
    return rng.multinomial(shots, probs)


def measure_qubits(
    state: PureState, indices: Sequence[int], rng: np.random.Generator
) -> tuple[tuple[int, ...], PureState, float]:
    """Projective computational-basis measurement of the given qubits.

    Samples an outcome by the Born rule (deterministic for a given rng
    state), collapses and renormalizes. Returns (outcome bits in the order
    of ``indices``, collapsed state, outcome probability).
    """
    if type(state) is not PureState:
        _require_kind("state", PureState, state)
    rows = _check_targets(indices, state.num_qubits)
    probs = _marginal_probabilities(state, rows).tolist()
    k = _born_index(probs, rng)  # the measured bits spell k
    return _OUTCOME_BITS[len(indices)][k], _collapse(state, rows[k], probs[k]), probs[k]

