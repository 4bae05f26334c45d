"""Non-local Bell-basis characterization and the species population formulas.

The measurement contract: a Bell label (a, b) is reported as the outcome
(a, a XOR b) on two ancilla readout bits, so the label (1,0) species shows
up as outcome 11 and outcome 10 belongs to the species that the source can
never emit (f10 is identically zero on source-reachable states). The
measured pair survives in the identified Bell state. Two routes read the
pair's Bell coefficients (statevec.bell_coefficients): direct Born-rule projection,
and a four-qubit ancilla circuit realization proven equivalent by tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .distortion import ControlKnob
from .source import _DEGENERATE_NORM, SourceSpec
from .statevec import (
    BELL_LABELS,
    CNOT,
    HADAMARD,
    _ROWS,
    _RSQRT2,
    _ZERO_PROB,
    BellLabel,
    PureState,
    UnitaryMatrix,
    _bell_lookup,
    _born_index,
    _fresh,
    _multinomial,
    _python_number,
    _require_finite,
    _require_kind,
    bell_coefficients,
    bell_state,
    expand_unitary,
)

__all__ = [
    "MeasurementRecord",
    "PopulationTable",
    "Populations",
    "SpeciesMoments",
    "label_to_outcome",
    "outcome_to_label",
    "species_moments",
    "table_populations",
    "populations_analytic",
    "populations_exact",
    "nonlocal_bell_measurement",
    "circuit_realization",
    "run_characterization_circuit",
    "circuit_outcome_distribution",
    "sample_histogram",
]


# Raw ancilla bits (the copied label bits) to the readout they report: Bell label
# (a, b) is announced as (a, a XOR b), the only spelling of the readout order.
_RELABEL = {label: (label.a, label.a ^ label.b) for label in BELL_LABELS}


def label_to_outcome(label: BellLabel | tuple[int, int]) -> tuple[int, int]:
    """Readout bits (i3, j4) announced for Bell label (a, b): (a, a XOR b)."""
    return _bell_lookup(_RELABEL, label)


def outcome_to_label(outcome: tuple[int, int]) -> BellLabel:
    """Bell label identified by readout bits (i3, j4); the map is an involution."""
    return BellLabel(*_bell_lookup(_RELABEL, outcome, "readout"))


# The readout strings "00".."11" and, in that order, the index of the label each reports.
_OUTCOME_KEYS = tuple(sorted("%d%d" % bits for bits in _RELABEL.values()))
_READOUT_ORDER = operator.itemgetter(*sorted(range(4), key=lambda k: _RELABEL[BELL_LABELS[k]]))


@dataclass(frozen=True)
class SpeciesMoments:
    """Weighted cosine/cosine moments of the second-species angles.

    C = p1 cos(theta1) + p2 cos(theta2), S = p1 sin(theta1) + p2 sin(theta2).
    C^2 + S^2 = 1 + 2 p1 p2 sin(2 theta1), which is 1 only when
    p1 p2 sin(2 theta1) = 0.
    """

    C: float
    S: float


@dataclass(frozen=True)
class Populations:
    """Occupation weights of the four readout outcomes."""

    f00: float
    f01: float
    f10: float
    f11: float

    def __init__(self, f00: float, f01: float, f10: float, f11: float) -> None:
        # dataclass keeps this __init__: one __dict__ write, not four object.__setattr__ calls.
        self.__dict__.update(f00=f00, f01=f01, f10=f10, f11=f11)

    def total(self) -> float:
        return self.f00 + self.f01 + self.f10 + self.f11

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f00, self.f01, self.f10, self.f11)


@dataclass(frozen=True)
class PopulationTable:
    """Raw closed-form populations next to their normalized (physical) view."""

    raw: Populations
    normalized: Populations

    @classmethod
    def from_raw(cls, raw: Populations) -> "PopulationTable":
        weights = f00, f01, f10, f11 = raw.f00, raw.f01, raw.f10, raw.f11
        total = f00 + f01 + f10 + f11  # in raw.total()'s order
        # The total is the emission's raw norm, held to its degenerate bound; NaN fails too.
        if min(weights) < -1e-12 or not _DEGENERATE_NORM <= total < math.inf:
            raise ValueError(f"invalid population weights {weights!r}")
        return cls(raw, Populations(f00 / total, f01 / total, f10 / total, f11 / total))


def _moments(spec: SourceSpec) -> tuple[float, float]:
    """The moments (C, S) of ``spec``'s second species."""
    return (spec.p1 * math.cos(spec.theta1) + spec.p2 * math.cos(spec.theta2),
            spec.p1 * math.sin(spec.theta1) + spec.p2 * math.sin(spec.theta2))


def species_moments(spec: SourceSpec) -> SpeciesMoments:
    return SpeciesMoments(*_moments(spec))


def table_populations(
    gamma: float, c_squared: float, s_squared: float, ndelta: float
) -> Populations:
    """Raw closed-form populations for moments C^2, S^2 at control value n*delta.

    f00 = cos^2(g) cos^2(x) + C^2 sin^2(g) sin^2(x)
    f01 = S^2 sin^2(g)
    f10 = 0
    f11 = C^2 sin^2(g) cos^2(x) + cos^2(g) sin^2(x)      with x = 2 pi n delta.
    NaN, an infinity, an int past the float range or an overflowing 2 pi ndelta raises ValueError.
    """
    names = ("gamma", "C^2", "S^2", "ndelta")
    return _closed_form(*map(_python_number, (gamma, c_squared, s_squared, ndelta), names))


def _closed_form(gamma: float, c_squared: float, s_squared: float, ndelta: float) -> Populations:
    """table_populations on Python numbers: the formula's one owner, with its checks."""
    _require_finite("gamma, C^2, S^2 and ndelta", gamma, c_squared, s_squared, ndelta)
    x = 2.0 * math.pi * ndelta
    if not math.isfinite(x):
        raise ValueError(f"ndelta={ndelta!r} is too large: 2 pi ndelta overflows")
    cos2_g = math.cos(gamma) ** 2
    sin2_g = math.sin(gamma) ** 2
    cos2_x = math.cos(x) ** 2
    sin2_x = math.sin(x) ** 2
    f00 = cos2_g * cos2_x + c_squared * sin2_g * sin2_x
    f11 = c_squared * sin2_g * cos2_x + cos2_g * sin2_x
    return Populations(f00, s_squared * sin2_g, 0.0, f11)


def populations_analytic(spec: SourceSpec, knob: ControlKnob) -> PopulationTable:
    """Closed-form population table for a controlled emission, with table_populations' checks."""
    _require_kind("spec", SourceSpec, spec)
    _require_kind("knob", ControlKnob, knob)
    c, s = _moments(spec)
    return PopulationTable.from_raw(_closed_form(spec.gamma, c**2, s**2, knob.ndelta))


def _bell_weights(state12: PureState) -> list[float]:
    """Born weights of the Bell labels, in BELL_LABELS order."""
    return [abs(c) ** 2 for c in bell_coefficients(state12)]


def populations_exact(state12: PureState) -> PopulationTable:
    """Born-rule population table of a normalized 2-qubit state.

    Raw and normalized views coincide because the input is already physical.
    """
    pops = Populations(*_READOUT_ORDER(_bell_weights(state12)))
    return PopulationTable(pops, pops)


@dataclass(frozen=True)
class MeasurementRecord:
    """One characterization shot: readout bits, surviving pair state, Born weight."""

    outcome: tuple[int, int]
    post_state: PureState
    probability: float


def _record(outcome: tuple[int, int], post_state: PureState, probability: float):
    """A MeasurementRecord by one ``__dict__`` write, not the frozen ``__init__``'s three."""
    record = object.__new__(MeasurementRecord)
    record.__dict__.update(outcome=outcome, post_state=post_state, probability=probability)
    return record


def nonlocal_bell_measurement(state12: PureState, rng: np.random.Generator) -> MeasurementRecord:
    """Sample one Bell-basis measurement of the pair (non-destructive).

    The Bell label is drawn by the Born rule, reported through the readout
    labeling, and the pair is left in the identified Bell state.
    """
    probs = _bell_weights(state12)
    k = _born_index(probs, rng)
    label = BELL_LABELS[k]
    return _record(_RELABEL[label], bell_state(label), probs[k])


# Map the pair to its label bits (a, b), copy them onto the ancillas, map back.
_GATES = (
    expand_unitary(CNOT, (1, 2), 4),
    expand_unitary(HADAMARD, (1,), 4),
    expand_unitary(CNOT, (1, 3), 4),
    expand_unitary(CNOT, (2, 4), 4),
    expand_unitary(HADAMARD, (1,), 4),
    expand_unitary(CNOT, (1, 2), 4),
)


def circuit_realization(
    state12: PureState,
) -> tuple[tuple[UnitaryMatrix, ...], dict[tuple[int, int], tuple[int, int]]]:
    """Concrete 4-qubit realization of the non-local measurement.

    Returns the gate sequence to run on ``state12 (x) |00>`` (qubits 3, 4
    are the ancillas) and the classical relabeling applied to the raw
    ancilla readout. The gates are input-independent; the argument fixes
    and validates the measured pair.
    """
    _check_pair(state12)
    return _GATES, dict(_RELABEL)


def _check_pair(state12: PureState) -> None:
    if state12.num_qubits != 2:
        raise ValueError(f"characterization measures a 2-qubit pair, got {state12.num_qubits}")


_ANCILLA_ROWS = _ROWS[(3, 4), 4]  # raw readout k of qubits 3, 4, the label bits, is row k


def _run_gates(state12: PureState) -> tuple[PureState, list[float]]:
    """The register ``_GATES`` make of ``state12 (x) |00>``, built by their structure, and the
    Born weights of its ancilla readouts k = 0..3, the label bits, by the same arithmetic."""
    _check_pair(state12)
    # CNOT(1, 2) and H(1) turn the pair into its Bell coefficients c_ab (bell_coefficients);
    # CNOT(1, 3) and CNOT(2, 4) only move each c_ab to |a b a b>.
    c00, c01, c10, c11 = bell_coefficients(state12)
    r = _RSQRT2
    # H(1) puts r c_ab at |0 b a b> and (-1)^a r c_ab at |1 b a b>; CNOT(1, 2) flips that b.
    c00, c10, c01, c11 = r * c00, r * c10, r * c01, r * c11
    final = [c00, 0j, c10, 0j, 0j, c01, 0j, c11, 0j, c01, 0j, -c11, c00, 0j, -c10, 0j]
    # Ancilla row k holds r c_ab twice (negated once if a = 1) and +0.0 twice: its weights
    # q, q, 0, 0 sum to 2q in any order, so this equals _marginal_probabilities bit for bit.
    weights = [2 * (z.real * z.real + z.imag * z.imag) for z in (c00, c01, c10, c11)]
    return _fresh(np.array(final)), weights


def _surviving_pair(final: PureState, k: int, prob: float) -> PureState:
    """Pair left by ancilla readout k of weight ``prob``: its layout row over sqrt(prob)."""
    return _fresh(final.amplitudes[_ANCILLA_ROWS[k]] / math.sqrt(prob))


def run_characterization_circuit(
    state12: PureState, rng: np.random.Generator
) -> MeasurementRecord:
    """Execute the ancilla circuit by its gates' structure and measure qubits 3, 4.

    It shares only ``bell_coefficients`` with :func:`nonlocal_bell_measurement` and makes no
    matrix product: the outcome is drawn from the ancillas' Born weights, taken by
    ``_run_gates`` from the register's four scaled coefficients (equal to the register's
    marginal bit for bit), and the surviving pair state is that register's selected block over
    the root of its weight (the division a collapse makes), not constructed.
    """
    final, probs = _run_gates(state12)
    k = _born_index(probs, rng)
    prob = probs[k]
    pair = _surviving_pair(final, k, prob)
    return _record(_RELABEL[BELL_LABELS[k]], pair, prob)


def circuit_outcome_distribution(
    state12: PureState,
) -> dict[tuple[int, int], tuple[float, PureState | None]]:
    """Full outcome analysis of the ancilla circuit, without sampling.

    Maps each relabeled outcome to (probability, surviving pair state);
    the state is None for outcomes of zero weight.
    """
    final, probs = _run_gates(state12)  # the weights the circuit shot samples
    result: dict[tuple[int, int], tuple[float, PureState | None]] = {}
    for k, (outcome, prob) in enumerate(zip(_RELABEL.values(), probs)):
        result[outcome] = (prob, _surviving_pair(final, k, prob) if prob > _ZERO_PROB else None)
    return result


def sample_histogram(
    state12: PureState, shots: int, rng: np.random.Generator
) -> dict[str, int]:
    """Outcome counts of ``shots`` independent Bell measurements of the pair.

    Each shot measures a freshly prepared copy; the counts are drawn in one
    multinomial step. Keys are the readout strings "00".."11". The weights are normalized in
    Python floats, summed in order as numpy sums four, so the Generator sees the same values.
    """
    w00, w01, w10, w11 = _READOUT_ORDER(_bell_weights(state12))
    total = w00 + w01 + w10 + w11
    counts = _multinomial(shots, [w00 / total, w01 / total, w10 / total, w11 / total], rng)
    return dict(zip(_OUTCOME_KEYS, counts.tolist()))
