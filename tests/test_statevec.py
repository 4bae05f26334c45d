"""State-vector algebra: construction, gates, Bell basis, measurement."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest

from bellsource import (
    BELL_LABELS,
    CNOT,
    HADAMARD,
    BellLabel,
    ControlKnob,
    FieldParams,
    PureState,
    RationalProvenance,
    SourceSpec,
    UnitaryMatrix,
    apply_unitary,
    basis_state,
    bell_coefficients,
    bell_state,
    circuit_outcome_distribution,
    controlled_emission,
    controlled_psi2,
    emitted_state,
    evolve,
    expand_unitary,
    feasible,
    fidelity_up_to_phase,
    infer_parameters,
    j_parameter,
    measure_qubits,
    psi2,
    rational_approx,
    region_arrays,
    run_characterization_circuit,
    solve_ndelta,
    table_populations,
    tensor,
)
from bellsource.statevec import (
    _BELL_AMPLITUDES,
    _ROWS,
    _apply_matrix,
    _check_targets,
    _fresh,
    _is_finite,
    _marginal_probabilities,
    _python_number,
    _vdot,
)
from conftest import random_state
from oracles import BELL_VECTORS, binomial_4sigma, random_unitary

SQRT2 = math.sqrt(2.0)


def reference_apply(amps: np.ndarray, matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Gate on the targets by moving their axes to the front, one matmul on
    the (2**t, rest) operand, and moving them back; written out in full for
    any targets, with no shortcut."""
    axes = [q - 1 for q in targets]
    rest = [i for i in range(n) if i not in axes]
    psi = amps.reshape([2] * n).transpose(axes + rest).reshape(2 ** len(axes), -1)
    psi = matrix @ psi
    return psi.reshape([2] * n).transpose(np.argsort(axes + rest)).reshape(-1)


class TestPureState:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="^state norm 1.4142135623730951 deviates from 1"):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_a_zero_vector(self):
        with pytest.raises(ValueError, match="^state norm 0.0 deviates from 1"):
            PureState(np.zeros(4))

    def test_takes_no_normalize_option(self):
        # The rescaling option is gone: an unnormalized vector is the caller's to scale.
        with pytest.raises(TypeError, match="normalize"):
            PureState(np.array([1.0, 1.0]), normalize=True)

    @pytest.mark.parametrize("length", [1, 3, 6, 32])
    def test_rejects_bad_lengths(self, length):
        amps = np.zeros(length)
        if length:
            amps[0] = 1.0
        with pytest.raises(ValueError):
            PureState(amps)

    def test_num_qubits_derived(self):
        assert basis_state("0").num_qubits == 1
        assert basis_state("0110").num_qubits == 4

    def test_amplitudes_are_read_only(self):
        state = basis_state("01")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_tolerates_tiny_norm_error(self):
        PureState(np.array([1.0 + 3e-10, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match="deviates from 1"):
            PureState(np.array([bad, 0.0]))

    @pytest.mark.parametrize(
        "other, kind",
        [(None, "NoneType"), (np.array([1.0, 0.0]), "ndarray"), ((1, 0), "tuple"),
         (HADAMARD, "UnitaryMatrix")],
        ids=["None", "ndarray", "tuple", "UnitaryMatrix"],
    )
    def test_inner_refuses_a_wrong_kind_naming_its_type(self, other, kind):
        # Each raised AttributeError: inner read other.num_qubits first.
        with pytest.raises(ValueError, match=f"^other must be a PureState, got {kind}$"):
            basis_state("0").inner(other)

    def test_inner_refuses_unequal_qubit_counts(self):
        with pytest.raises(ValueError, match="^inner product requires equal qubit counts$"):
            basis_state("0").inner(bell_state((0, 0)))


class TestUnitaryMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ValueError, match="dim"):
            UnitaryMatrix(np.eye(8))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryMatrix(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=r"unitary must be square, got shape \("):
            UnitaryMatrix(np.ones(shape))

    def test_gate_constants_are_unitary(self):
        assert CNOT.dim == 4
        assert HADAMARD.dim == 2


class TestBasisState:
    @pytest.mark.parametrize("bits", ["0", "1", "01", "110", "1011", (1, 0, 1)])
    def test_shared_instance(self, bits):
        state = basis_state(bits)
        assert state is basis_state(bits)
        index = int("".join(str(b) for b in bits), 2)
        np.testing.assert_array_equal(state.amplitudes, np.eye(2 ** len(bits))[index])

    def test_string_and_sequence_share_a_state(self):
        assert basis_state("10") is basis_state([1, 0])

    @pytest.mark.parametrize("bits", [(1.0, 0), (True, False), np.array([1, 0]), [np.int8(1), 0.0]])
    def test_values_equal_to_bits_share_the_state(self, bits):
        assert basis_state(bits) is basis_state("10")

    # [1.5, 0] returned |10>; " 1" and ["1"] were read by int().
    @pytest.mark.parametrize("bits", ["", "2", "01011", [0, 1, 2], [1.5, 0], " 1", ["1"]])
    def test_rejects_bad_bits(self, bits):
        with pytest.raises(ValueError, match="nonempty 0/1 sequence"):
            basis_state(bits)

    # Raised TypeError: 5 is not iterable, and the tuple of [[0]] is not hashable.
    @pytest.mark.parametrize("bits", [5, [[0]]])
    def test_rejects_a_non_sequence_or_unhashable_bits_with_value_error(self, bits):
        with pytest.raises(ValueError, match="nonempty 0/1 sequence"):
            basis_state(bits)


class TestTensor:
    def test_basis_product(self):
        state = tensor(basis_state("0"), basis_state("0"))
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_half_angle_product(self):
        # phi(theta=pi/2) = (|0>+|1>)/sqrt2; Kronecker square has four 1/2 entries.
        plus = PureState(np.array([1.0, 1.0]) / SQRT2)
        state = tensor(plus, plus)
        np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_norm_multiplicative(self, rng):
        for _ in range(20):
            product = tensor(random_state(rng, 2), random_state(rng, 2))
            assert abs(np.linalg.norm(product.amplitudes) - 1.0) < 1e-12

    def test_dimension_overflow(self):
        with pytest.raises(ValueError, match="qubits"):
            tensor(random_state(np.random.default_rng(0), 3), basis_state("00"))

    @pytest.mark.parametrize("left, right", [(1, 1), (2, 2), (1, 3), (3, 1)])
    def test_bytes_equal_kron(self, left, right):
        rng = np.random.default_rng(7100 + 10 * left + right)
        for _ in range(50):
            a, b = random_state(rng, left), random_state(rng, right)
            expected = np.kron(a.amplitudes, b.amplitudes)
            assert tensor(a, b).amplitudes.tobytes() == expected.tobytes()


class TestApplyUnitary:
    def test_cnot_control_zero(self):
        assert fidelity_up_to_phase(apply_unitary(basis_state("00"), CNOT, (1, 2)), basis_state("00")) == 1.0

    def test_cnot_truth_table(self):
        state = apply_unitary(basis_state("10"), CNOT, (1, 2))
        np.testing.assert_allclose(state.amplitudes, basis_state("11").amplitudes, atol=1e-15)

    def test_unbell_maps_bell_to_basis(self):
        # CNOT(1,2) then H on qubit 1 sends each Bell state to |ab>.
        for a, b in BELL_LABELS:
            out = apply_unitary(bell_state((a, b)), CNOT, (1, 2))
            out = apply_unitary(out, HADAMARD, (1,))
            np.testing.assert_allclose(
                out.amplitudes, basis_state((a, b)).amplitudes, atol=1e-15
            )

    def test_unbell_as_single_matrix(self):
        unbell = UnitaryMatrix(np.kron(HADAMARD.entries, np.eye(2)) @ CNOT.entries)
        for a, b in BELL_LABELS:
            out = apply_unitary(bell_state((a, b)), unbell, (1, 2))
            np.testing.assert_allclose(out.amplitudes, basis_state((a, b)).amplitudes, atol=1e-15)

    def test_acts_on_selected_qubits_only(self, rng):
        state = basis_state("100")
        out = apply_unitary(state, CNOT, (1, 3))
        np.testing.assert_allclose(out.amplitudes, basis_state("101").amplitudes, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            apply_unitary(basis_state("00"), HADAMARD, (1, 2))

    def test_repeated_target(self):
        with pytest.raises(ValueError, match="repeated"):
            apply_unitary(basis_state("00"), CNOT, (1, 1))

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="range"):
            apply_unitary(basis_state("00"), HADAMARD, (3,))

    def test_norm_preserved_1000_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(1, min(n, 2) + 1))
            state = random_state(rng, n)
            u = UnitaryMatrix(random_unitary(2**t, rng))
            targets = tuple(int(q) + 1 for q in rng.choice(n, size=t, replace=False))
            out = apply_unitary(state, u, targets)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_whole_register_bytes_equal_reference(self, n):
        rng = np.random.default_rng(7200 + n)
        targets = tuple(range(1, n + 1))
        for _ in range(50):
            state = random_state(rng, n)
            u = UnitaryMatrix(random_unitary(2**n, rng))
            expected = reference_apply(state.amplitudes, u.entries, targets, n)
            assert apply_unitary(state, u, targets).amplitudes.tobytes() == expected.tobytes()

    def test_whole_register_circuit_gates_bytes_equal_reference(self):
        rng = np.random.default_rng(7300)
        gates = [expand_unitary(CNOT, (1, 2), 4), expand_unitary(HADAMARD, (1,), 4),
                 expand_unitary(CNOT, (2, 4), 4)]
        for _ in range(50):
            state = tensor(random_state(rng, 2), basis_state("00"))
            for gate in gates:
                expected = reference_apply(state.amplitudes, gate.entries, (1, 2, 3, 4), 4)
                state = apply_unitary(state, gate, (1, 2, 3, 4))
                assert state.amplitudes.tobytes() == expected.tobytes()

    def test_permuted_targets_bytes_equal_reference(self):
        rng = np.random.default_rng(7400)
        for targets in [(2, 1), (4, 3, 2, 1), (1, 2, 4, 3), (3, 1)]:
            n = max(targets)
            state = random_state(rng, n)
            u = UnitaryMatrix(random_unitary(2 ** len(targets), rng))
            expected = reference_apply(state.amplitudes, u.entries, targets, n)
            assert apply_unitary(state, u, targets).amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_qubits", [3, 5, 64, 2.5])
    def test_expand_unitary_rejects_register_size_before_building(self, num_qubits):
        # 64 qubits would need 4**64 entries: the size is rejected first, and
        # before the targets, whose range needs an integer size.
        message = rf"^unitary dim must be 2, 4, or 16, got {2**num_qubits}$"
        with pytest.raises(ValueError, match=message):
            expand_unitary(HADAMARD, (1,), num_qubits)

    @pytest.mark.parametrize("num_qubits", [4.0, True, -1, 0, 10**8, math.nan, "4"])
    def test_expand_unitary_rejects_a_size_that_is_not_a_count(self, num_qubits):
        # No 2**n is evaluated: 2**10**8 alone is a 12.5 MB integer.
        message = rf"^num_qubits must be an integer 1, 2 or 4, got {num_qubits!r}$"
        with pytest.raises(ValueError, match=message):
            expand_unitary(HADAMARD, (1,), num_qubits)

    @pytest.mark.parametrize(
        "call, kind",
        [(lambda: apply_unitary(basis_state("0000"), np.eye(16), (1, 2, 3, 4)), "ndarray"),
         (lambda: expand_unitary(np.eye(2), (1,), 4), "ndarray"),
         (lambda: apply_unitary(basis_state("0"), [[1, 0], [0, 1]], (1,)), "list"),
         (lambda: expand_unitary(None, (1,), 2), "NoneType")],
        ids=["apply-ndarray", "expand-ndarray", "apply-list", "expand-None"],
    )
    def test_a_gate_that_is_not_a_unitary_matrix_is_refused_naming_its_type(self, call, kind):
        # Such a gate used to escape as AttributeError: no attribute 'dim'.
        with pytest.raises(ValueError, match=rf"^gate must be a UnitaryMatrix, got {kind}$"):
            call()

    def test_expand_unitary_matches_apply(self, rng):
        state = random_state(rng, 4)
        full = expand_unitary(CNOT, (2, 4), 4)
        via_apply = apply_unitary(state, CNOT, (2, 4))
        via_matrix = PureState(full.entries @ state.amplitudes)
        np.testing.assert_allclose(via_matrix.amplitudes, via_apply.amplitudes, atol=1e-14)


class TestBellBasis:
    def test_frozen_conventions(self):
        for label, expected in BELL_VECTORS.items():
            np.testing.assert_allclose(bell_state(label).amplitudes, expected, atol=1e-15)

    def test_orthonormality_all_pairs(self):
        for la in BELL_LABELS:
            for lb in BELL_LABELS:
                overlap = bell_state(la).inner(bell_state(lb))
                expected = 1.0 if la == lb else 0.0
                assert abs(overlap - expected) < 1e-15

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            bell_state((0, 2))
        # Not a pair, unhashable bits and NaN miss the table as well.
        for label in (5, (0, 1, 1), ([0], 1), (float("nan"), 0)):
            with pytest.raises(ValueError, match="Bell label bits must be 0/1"):
                bell_state(label)

    @pytest.mark.parametrize("label", [[0, 1], (True, False), (np.int64(1), 0), (1.0, 0.0)])
    def test_equal_labels_return_the_shared_instance(self, label):
        assert bell_state(label) is bell_state(BellLabel(*(int(bit) for bit in label)))

    def test_labels_are_the_table_keys_in_order(self):
        assert BELL_LABELS == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert BELL_LABELS == tuple(_BELL_AMPLITUDES)

    def test_imaginary_zeros_are_positive(self):
        # complex(-r) keeps +0.0j; -complex(r) would write -0.0j into b10 and b11.
        for label in BELL_LABELS:
            amps = bell_state(label).amplitudes
            assert amps.tolist() == list(_BELL_AMPLITUDES[label])
            assert not np.signbit(amps.imag).any()
        assert not np.signbit(HADAMARD.entries.imag).any()

    def test_bell_states_are_shared_instances(self):
        for label in BELL_LABELS:
            assert bell_state(label) is bell_state(tuple(label))
            assert not bell_state(label).amplitudes.flags.writeable

    def test_coefficients_of_bell_state(self):
        np.testing.assert_allclose(bell_coefficients(bell_state((0, 1))), [0, 1, 0, 0], atol=1e-15)

    def test_coefficients_of_00(self):
        # Inverting the definitions: |00> = (b00 + b10)/sqrt2.
        coeffs = bell_coefficients(basis_state("00"))
        np.testing.assert_allclose(coeffs, [1 / SQRT2, 0, 1 / SQRT2, 0], atol=1e-15)

    def test_coefficient_round_trip(self, rng):
        for _ in range(50):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            c /= np.linalg.norm(c)
            amps = sum(ci * bell_state(lbl).amplitudes for ci, lbl in zip(c, BELL_LABELS))
            recovered = bell_coefficients(PureState(amps))
            np.testing.assert_allclose(recovered, c, atol=1e-12)

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError, match="2-qubit"):
            bell_coefficients(basis_state("0"))


class TestFidelity:
    def test_global_phase_invariance(self):
        phased = PureState(np.exp(1j * math.pi / 7) * bell_state((0, 0)).amplitudes)
        assert fidelity_up_to_phase(bell_state((0, 0)), phased) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_states(self):
        assert fidelity_up_to_phase(bell_state((0, 0)), bell_state((1, 0))) == pytest.approx(0.0, abs=1e-15)

    def test_overlap_value(self):
        plus = PureState(np.array([1.0, 1.0]) / SQRT2)
        assert fidelity_up_to_phase(basis_state("0"), plus) == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_up_to_phase(basis_state("0"), basis_state("00"))


class TestMeasurement:
    def test_deterministic_outcome(self, rng):
        bits, collapsed, prob = measure_qubits(basis_state("00"), (1,), rng)
        assert bits == (0,)
        assert prob == 1.0
        np.testing.assert_allclose(collapsed.amplitudes, basis_state("00").amplitudes, atol=1e-15)

    def test_bell_correlations(self):
        # Measuring qubit 1 of b00 collapses the pair to |00> or |11>.
        seen = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            bits, collapsed, prob = measure_qubits(bell_state((0, 0)), (1,), rng)
            assert prob == pytest.approx(0.5, abs=1e-12)
            expected = basis_state("00" if bits == (0,) else "11")
            np.testing.assert_allclose(collapsed.amplitudes, expected.amplitudes, atol=1e-12)
            seen.add(bits)
        assert seen == {(0,), (1,)}

    def test_deterministic_given_seed(self):
        state = random_state(np.random.default_rng(3), 3)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([measure_qubits(state, (1, 3), rng)[0] for _ in range(64)])
        assert runs[0] == runs[1]

    def test_plus_state_frequency_1e5_shots(self):
        # 1e5 independent shots through the sampling path itself.
        plus = PureState(np.array([1.0, 1.0]) / SQRT2)
        rng = np.random.default_rng(11)
        shots = 100_000
        zeros = sum(1 for _ in range(shots) if measure_qubits(plus, (1,), rng)[0] == (0,))
        assert binomial_4sigma(zeros, shots, 0.5)

    def test_born_marginals_20_random_states(self):
        # The marginal weights measure_qubits draws from, against a transpose-reshape sum;
        # the two sum in different orders, so they agree within rounding, not bit for bit.
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            k = int(rng.integers(1, n + 1))
            indices = tuple(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
            axes = [q - 1 for q in indices]
            rest = [i for i in range(n) if i not in axes]
            probs = (
                np.abs(state.amplitudes.reshape([2] * n)) ** 2
            ).transpose(axes + rest).reshape(2**k, -1).sum(axis=1)
            marginal = _marginal_probabilities(state, _check_targets(indices, n))
            np.testing.assert_allclose(marginal, probs, rtol=0, atol=1e-15)

    def test_requires_indices(self, rng):
        with pytest.raises(ValueError):
            measure_qubits(basis_state("00"), (), rng)

    @pytest.mark.parametrize(
        "call",
        [lambda state, rng: measure_qubits(state, (), rng),
         lambda state, rng: apply_unitary(state, HADAMARD, []),
         lambda state, rng: expand_unitary(HADAMARD, (), 2)],
        ids=["measure", "apply", "expand"],
    )
    def test_every_target_taker_requires_an_index(self, call, rng):
        with pytest.raises(ValueError, match="need at least one qubit index"):
            call(basis_state("00"), rng)

    def test_measure_accepts_an_index_array(self):
        state = random_state(np.random.default_rng(3), 3)
        by_array = measure_qubits(state, np.array([3, 1]), np.random.default_rng(8))
        by_tuple = measure_qubits(state, (3, 1), np.random.default_rng(8))
        assert by_array[0] == by_tuple[0] and by_array[2] == by_tuple[2]
        assert by_array[1].amplitudes.tobytes() == by_tuple[1].amplitudes.tobytes()

    # Seven of the eight weights are zero: every draw lands on the one the state holds.
    @pytest.mark.parametrize("bits", ["000", "001", "010", "011", "100", "101", "110", "111"])
    def test_a_basis_state_reads_its_own_bits_and_never_a_zero_weight(self, bits):
        state = basis_state(bits)
        rng = np.random.default_rng(0)
        for _ in range(8):
            outcome, collapsed, prob = measure_qubits(state, (3, 1, 2), rng)
            assert outcome == (int(bits[2]), int(bits[0]), int(bits[1]))
            assert prob == 1.0
            assert collapsed.amplitudes.tobytes() == state.amplitudes.tobytes()

    @pytest.mark.parametrize(
        "targets", [(1,), (4,), (2, 3), (3, 2), (1, 4), (4, 2, 1), (1, 2, 3, 4), (3, 1, 4, 2)]
    )
    def test_the_collapse_is_the_outcome_projection_over_the_root_of_its_weight(self, targets):
        # Reference: the register entries whose target bits (qubit 1 most significant) spell
        # the outcome, and the sum of their squared moduli.
        state = random_state(np.random.default_rng(17), 4)
        rng = np.random.default_rng(18)
        seen = set()
        for _ in range(32):
            outcome, collapsed, prob = measure_qubits(state, targets, rng)
            keep = np.array([all((i >> (4 - q)) & 1 == b for q, b in zip(targets, outcome))
                             for i in range(16)])
            weight = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
            assert prob == pytest.approx(weight, rel=0, abs=1e-15)
            assert not collapsed.amplitudes[~keep].any()
            np.testing.assert_allclose(
                collapsed.amplitudes[keep], state.amplitudes[keep] / math.sqrt(weight),
                rtol=0, atol=1e-15,
            )
            seen.add(outcome)
        assert len(seen) > 1

    def test_fractional_index_is_rejected(self, rng):
        # Measured qubit 2 and returned (1,).
        with pytest.raises(ValueError, match="qubit index 2.9 is not an integer in 1..2"):
            measure_qubits(basis_state("01"), (2.9,), rng)


def _returned_states(rng: np.random.Generator) -> dict[str, list[PureState]]:
    """A state from every function that builds its result through ``_fresh``."""
    pair, four = random_state(rng, 2), random_state(rng, 4)
    spec = SourceSpec.from_p1_theta1(0.7, 0.6, 0.3)
    emitted = emitted_state(spec)[0]
    outcomes = circuit_outcome_distribution(pair).values()
    return {
        "tensor": [tensor(pair, basis_state("00"))],
        "apply_unitary": [apply_unitary(four, CNOT, (4, 2)), apply_unitary(pair, CNOT, (1, 2))],
        "measure_qubits": [measure_qubits(four, (3, 1), rng)[1]],
        "run_characterization_circuit": [run_characterization_circuit(pair, rng).post_state],
        "circuit_outcome_distribution": [post for _, post in outcomes if post is not None],
        "emitted_state": [emitted],
        "controlled_emission": [controlled_emission(spec, ControlKnob(3, 0.01))[0]],
        "evolve": [evolve(emitted, FieldParams(1.0, 0.3, -0.2), 0.8)],
    }


class TestStateValidator:
    def test_every_returned_state_is_read_only_and_normalized(self, rng):
        for name, states in _returned_states(rng).items():
            assert states, name
            for state in states:
                assert state.amplitudes.flags.writeable is False, name
                with pytest.raises(ValueError):
                    state.amplitudes[0] = 0.0
                assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9, name

    def test_public_constructor_copies_its_input(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        state = PureState(amps)
        amps[0], amps[1] = 0.0, 1.0
        assert state.amplitudes.tolist() == [1.0, 0.0]
        assert amps.flags.writeable

    def test_both_entry_points_reject_with_the_same_text(self):
        text = "state norm 1.4142135623730951 deviates from 1 by more than 1e-09"
        for build in (PureState, _fresh):
            with pytest.raises(ValueError) as error:
                build(np.array([1.0, 1.0], dtype=complex))
            assert str(error.value) == text
            with pytest.raises(ValueError, match="length 32 is not a 1..4 qubit state"):
                build(np.zeros(32, dtype=complex))


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


class TestSlottedHolders:
    """``PureState`` and ``UnitaryMatrix`` hold their fields in slots, and a copy or pickle
    rebuilds through the validating constructor."""

    def test_instances_have_no_dict_and_slots_name_exactly_the_fields(self):
        for holder in (bell_state((0, 0)), HADAMARD):
            cls = type(holder)
            assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
            assert not hasattr(holder, "__dict__")
        assert PureState.__slots__ == ("amplitudes", "num_qubits")
        assert UnitaryMatrix.__slots__ == ("entries", "dim")

    def test_instances_cannot_be_weak_referenced(self):
        for holder in (bell_state((0, 0)), HADAMARD):
            with pytest.raises(TypeError, match="cannot create weak reference"):
                weakref.ref(holder)

    @pytest.mark.parametrize("holder, name", [(bell_state((0, 0)), "amplitudes"),
                                              (bell_state((0, 0)), "num_qubits"),
                                              (HADAMARD, "entries"), (HADAMARD, "dim")])
    def test_setting_a_field_raises_frozen_instance_error(self, holder, name):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(holder, name, None)

    def test_a_name_that_is_not_a_field_cannot_be_set(self):
        state = bell_state((0, 0))
        with pytest.raises((AttributeError, TypeError)):
            state.label = "phi+"
        assert not hasattr(state, "label")

    @pytest.mark.parametrize("holder", [bell_state((0, 0)), HADAMARD], ids=["state", "unitary"])
    def test_a_name_that_is_not_a_field_raises_frozen_instance_error(self, holder):
        # Setting one raised TypeError "super(type, obj): obj must be an instance or subtype of
        # type": the generated frozen methods name the class that slots=True replaced.
        frozen = dataclasses.FrozenInstanceError
        with pytest.raises(frozen, match="^cannot assign to field 'label'$"):
            holder.label = 1
        with pytest.raises(frozen, match="^cannot delete field 'label'$"):
            del holder.label
        with pytest.raises(frozen, match="^cannot delete field 'dim'$"):
            del holder.dim
        assert not hasattr(holder, "label")

    def test_repr_is_the_dataclass_repr(self):
        assert repr(PureState(np.array([0.6, 0.8j]))) == (
            "PureState(amplitudes=array([0.6+0.j , 0. +0.8j]), num_qubits=1)")
        assert repr(HADAMARD) == (
            "UnitaryMatrix(entries=array([[ 0.70710678+0.j,  0.70710678+0.j],\n"
            "       [ 0.70710678+0.j, -0.70710678+0.j]]), dim=2)")

    def test_every_state_builder_returns_the_slotted_type(self, rng):
        built = [state for states in _returned_states(rng).values() for state in states]
        for state in built + [PureState(np.array([1.0, 0.0]))]:
            assert type(state) is PureState and not hasattr(state, "__dict__")

    def test_the_direct_vdot_equals_np_vdot_bit_for_bit(self):
        rng = np.random.default_rng(2718)
        for n in range(1, 5):
            for _ in range(50):
                a, b = rng.normal(size=(2, 2**n)) + 1j * rng.normal(size=(2, 2**n))
                assert _vdot(a, a).tobytes() == np.vdot(a, a).tobytes()
                assert _vdot(a, b).tobytes() == np.vdot(a, b).tobytes()

    @pytest.mark.parametrize("norm, shown", [(1.0 + 2e-9, "1.000000002"), (1.0 - 2e-9, "0.999999998")])
    def test_fresh_refuses_a_norm_two_tolerances_off(self, norm, shown):
        with pytest.raises(ValueError) as error:
            _fresh(np.array([norm, 0.0], dtype=complex))
        assert str(error.value) == f"state norm {shown} deviates from 1 by more than 1e-09"
        assert _fresh(np.array([1.0 + (norm - 1.0) / 4, 0.0], dtype=complex)).num_qubits == 1

    @pytest.mark.parametrize("route", [copy.deepcopy, copy.copy, _pickled],
                             ids=["deepcopy", "copy", "pickle"])
    def test_a_copied_state_holds_a_new_read_only_array(self, route, rng):
        # A deepcopy or pickle gave a writable array, so writing 5 into it made a
        # state of norm 5.05 with no check run; a copy shared the original's array.
        for state in (bell_state((0, 0)), random_state(rng, 4)):
            copied = route(state)
            assert type(copied) is PureState and copied.num_qubits == state.num_qubits
            assert copied.amplitudes.tobytes() == state.amplitudes.tobytes()
            assert copied.amplitudes.flags.writeable is False
            assert not np.shares_memory(copied.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("route", [copy.deepcopy, copy.copy, _pickled],
                             ids=["deepcopy", "copy", "pickle"])
    def test_a_copied_unitary_holds_a_new_read_only_array(self, route):
        # A deepcopy or pickle of HADAMARD gave writable entries; a copy shared them.
        for gate in (HADAMARD, CNOT, expand_unitary(HADAMARD, (3,), 4)):
            copied = route(gate)
            assert type(copied) is UnitaryMatrix and copied.dim == gate.dim
            assert copied.entries.tobytes() == gate.entries.tobytes()
            assert copied.entries.flags.writeable is False
            assert not np.shares_memory(copied.entries, gate.entries)

    def test_a_copy_is_rebuilt_through_the_validating_constructor(self):
        rebuild, args = bell_state((0, 0)).__reduce__()
        with pytest.raises(ValueError, match="deviates from 1"):
            rebuild(5 * args[0])
        rebuild, args = HADAMARD.__reduce__()
        with pytest.raises(ValueError, match="not unitary"):
            rebuild(5 * args[0])


class TestTargetTable:
    # A list is unhashable, so it always takes the validating path.
    def test_holds_every_valid_ordered_target_tuple(self):
        assert len(_ROWS) == 84
        for (targets, n), rows in _ROWS.items():
            assert _check_targets(targets, n) is rows
            assert _check_targets(list(targets), n) is rows

    @pytest.mark.parametrize(
        "targets, n, key",
        [((3, 1), 4, (3, 1)), (np.array([3, 1]), 4, (3, 1)),
         ((np.int64(3), np.int32(1)), 4, (3, 1)), ([np.int64(3), 1], 4, (3, 1)),
         ((1.0,), 1, (1,)), ([2.0, 1], 2, (2, 1)), ((4, 2, 3, 1), 4, (4, 2, 3, 1)),
         # A bool counts as its integer value on both paths.
         ((True, 2), 2, (1, 2)), ([np.float64(3.0)], 4, (3,))],
    )
    def test_lookup_equals_the_validator(self, targets, n, key):
        rows = _ROWS[key, n]
        assert _check_targets(targets, n) is rows
        assert _check_targets(list(targets), n) is rows

    @pytest.mark.parametrize(
        "targets, n, message",
        [((1, 1), 2, "repeated qubit index in (1, 1)"),
         ([2, 2], 2, "repeated qubit index in [2, 2]"),
         (np.array([1, 1]), 2, "repeated qubit index in array([1, 1])"),
         ((3,), 2, "qubit index 3 out of range 1..2"),
         ([0], 2, "qubit index 0 out of range 1..2"),
         ((1, 5), 4, "qubit index 5 out of range 1..4"),
         (np.array([9]), 4, "qubit index 9 out of range 1..4"),
         ((2.9,), 4, "qubit index 2.9 is not an integer in 1..4"),
         ([1, 0.5], 2, "qubit index 0.5 is not an integer in 1..2"),
         (("2",), 4, "qubit index '2' is not an integer in 1..4"),
         ((), 2, "need at least one qubit index, got ()"),
         ([], 4, "need at least one qubit index, got []"),
         (np.array([], dtype=np.int64), 1, "need at least one qubit index, got array([], dtype=int64)")],
    )
    def test_rejects_with_the_same_messages(self, targets, n, message):
        with pytest.raises(ValueError) as error:
            _check_targets(targets, n)
        assert str(error.value) == message

    @pytest.mark.parametrize("targets", [1, [[1]], np.array([[1]]), [np.array([1, 2])]])
    def test_rejects_bad_index_containers(self, targets):
        # A non-sequence or an unhashable index used to raise TypeError.
        message = f"qubit indices must be a sequence of integers, got {targets!r}"
        with pytest.raises(ValueError) as error:
            _check_targets(targets, 2)
        assert str(error.value) == message
        with pytest.raises(ValueError, match="qubit indices must be a sequence"):
            measure_qubits(basis_state("00"), targets, np.random.default_rng(0))

    @pytest.mark.parametrize("targets", [(2,), (3, 1), (4, 2), (2, 4, 1, 3)])
    def test_public_calls_give_the_same_bytes_for_tuple_list_and_numpy_targets(self, targets):
        state = random_state(np.random.default_rng(5), 4)
        u = UnitaryMatrix(random_unitary(2 ** len(targets), np.random.default_rng(6)))

        def outputs(t):
            bits, measured, p_measured = measure_qubits(state, t, np.random.default_rng(0))
            return (
                apply_unitary(state, u, t).amplitudes.tobytes(),
                expand_unitary(u, t, 4).entries.tobytes(),
                bits, measured.amplitudes.tobytes(), p_measured,
            )

        expected = outputs(targets)
        for t in (list(targets), np.array(targets), tuple(map(np.int64, targets))):
            assert outputs(t) == expected


class TestLayoutTable:
    @staticmethod
    def spelled(index: int, targets, n: int) -> int:
        """The integer the ``targets`` bits of a register index spell, by shifts and masks."""
        k = 0
        for q in targets:
            k = (k << 1) | ((index >> (n - q)) & 1)
        return k

    def test_has_one_entry_per_valid_ordered_target_tuple(self):
        assert set(_ROWS) == {
            (targets, n)
            for n in range(1, 5)
            for t in range(1, n + 1)
            for targets in itertools.permutations(range(1, n + 1), t)
        }

    def test_rows_are_a_permutation_of_the_register(self):
        for (targets, n), rows in _ROWS.items():
            assert rows.shape == (2 ** len(targets), 2 ** (n - len(targets)))
            assert sorted(rows.ravel().tolist()) == list(range(2**n))

    def test_row_k_holds_the_indices_whose_target_bits_spell_k_in_register_order(self):
        for (targets, n), rows in _ROWS.items():
            for k, row in enumerate(rows.tolist()):
                assert row == [i for i in range(2**n) if self.spelled(i, targets, n) == k]

    def test_strides_fix_the_marginal_summation_order(self):
        # _marginal_probabilities sums each row in the order of its strides, so they
        # are part of the pinned shot bits: targets trailing in order, such as (4,) and
        # (3, 4) on 4 qubits, are F-strided (a C-contiguous rebuild moved 9
        # shot/primitive digest inputs by 1 ulp); every other entry is row-major.
        for (targets, n), rows in _ROWS.items():
            t = len(targets)
            trailing = t < n and targets == tuple(range(n - t + 1, n + 1))
            expected = (1, 2**t) if trailing else (2 ** (n - t), 1)
            assert tuple(s // rows.itemsize for s in rows.strides) == expected, (targets, n)
        for key in [((4,), 4), ((3, 4), 4)]:
            assert not _ROWS[key].flags.c_contiguous

    def test_is_read_only(self):
        for rows in _ROWS.values():
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                rows.base[1, 0] = 1

    def test_gather_line_is_the_full_register_entry_of_the_inverse_qubit_order(self):
        for (targets, n), rows in _ROWS.items():
            order = list(targets) + [q for q in range(1, n + 1) if q not in targets]
            inverse_order = tuple(order.index(q) + 1 for q in range(1, n + 1))
            gather = rows.base[1]
            assert gather.tolist() == _ROWS[inverse_order, n].ravel().tolist()
            assert rows.ravel()[gather].tolist() == list(range(2**n))

    def test_gate_gather_equals_the_scatter_and_matmul_form_bit_for_bit(self):
        # The gather after ndarray.dot against the scatter after matmul it replaced, with
        # user unitaries on every layout: a BLAS kernel or numpy release where the two
        # products take different routines fails here by name.
        rng = np.random.default_rng(2300)
        for (targets, n), rows in _ROWS.items():
            for _ in range(4):
                amps = random_state(rng, n).amplitudes
                matrix = np.array(random_unitary(2 ** len(targets), rng), dtype=complex)
                scattered = np.empty_like(amps)
                scattered[rows] = matrix @ amps[rows]
                assert _apply_matrix(amps, matrix, rows).tobytes() == scattered.tobytes()

    def test_an_in_order_whole_register_gate_is_one_product_with_the_gathered_bytes(self):
        # The whole register in qubit order skips both gathers, which are identities there:
        # numpy hands the vector and the gathered (2**n, 1) column to the same BLAS gemv.
        rng = np.random.default_rng(2600)
        for n in (1, 2, 4):
            targets = tuple(range(1, n + 1))
            rows = _ROWS[targets, n]
            for _ in range(8):
                state = random_state(rng, n)
                u = UnitaryMatrix(random_unitary(2**n, rng))
                amps, m = state.amplitudes, u.entries
                gathered = m.dot(amps[rows]).ravel()[rows.base[1]]
                assert _apply_matrix(amps, m, rows).tobytes() == gathered.tobytes()
                out = apply_unitary(state, u, targets).amplitudes
                assert out.tobytes() == gathered.tobytes()
                assert not out.flags.writeable and not np.shares_memory(out, amps)
                assert expand_unitary(u, targets, n).entries.tobytes() == m.tobytes()


# Each raised OverflowError: int too large to convert to float.
_PAST_FLOAT_RANGE = {
    "solve_ndelta-f00": (lambda x: solve_ndelta(0.5, x, 0.1), "target populations must be finite"),
    "solve_ndelta-f11": (lambda x: solve_ndelta(0.5, 0.1, x), "target populations must be finite"),
    "feasible": (lambda x: feasible(0.5, x, 0.1), "target populations must be finite"),
    "infer_parameters-f01": (
        lambda x: infer_parameters(0.3, x, 0.3, 0.1), "frequencies and ndelta must be finite"
    ),
    "infer_parameters-ndelta": (
        lambda x: infer_parameters(0.4, 0.3, 0.3, x), "frequencies and ndelta must be finite"
    ),
    "j_parameter-J": (lambda x: j_parameter(FieldParams(x, 0.5, 0.1)), "J, B1 and B2 must be finite"),
    "j_parameter-B1": (lambda x: j_parameter(FieldParams(1.0, x, 0.1)), "J, B1 and B2 must be finite"),
    "from_field_params-B2": (
        lambda x: ControlKnob.from_field_params(FieldParams(1.0, 0.5, x), 10),
        "J, B1 and B2 must be finite",
    ),
    "ControlKnob-provenance-j": (
        lambda x: ControlKnob(1, 0.1, RationalProvenance(x, 1, 2)), "provenance j must be finite"
    ),
    "evolve-J": (
        lambda x: evolve(bell_state((0, 0)), FieldParams(x, 0.5, 0.1), 1.0), "^J must be finite"
    ),
    "evolve-B1": (
        lambda x: evolve(bell_state((0, 0)), FieldParams(1.0, x, 0.1), 1.0), "^B1 must be finite"
    ),
    "evolve-B2": (
        lambda x: evolve(bell_state((0, 0)), FieldParams(1.0, 0.5, x), 1.0), "^B2 must be finite"
    ),
    "evolve-t": (
        lambda x: evolve(bell_state((0, 0)), FieldParams(1.0, 0.5, 0.1), x), "^t must be finite"
    ),
    "table_populations-gamma": (
        lambda x: table_populations(x, 0.5, 0.5, 0.1), "gamma, C.2, S.2 and ndelta must be finite"
    ),
    "table_populations-ndelta": (
        lambda x: table_populations(0.5, 0.5, 0.5, x), "gamma, C.2, S.2 and ndelta must be finite"
    ),
    "SourceSpec-theta1": (
        lambda x: SourceSpec(0.5, 1.0, 0.0, x, 0.0), r"theta1 \+ theta2 = pi/2 violated: got nan"
    ),
    "SourceSpec-theta2": (
        lambda x: SourceSpec(0.5, 1.0, 0.0, 0.0, x), r"theta1 \+ theta2 = pi/2 violated: got nan"
    ),
}


class TestFiniteRule:
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize(
        "call, message", list(_PAST_FLOAT_RANGE.values()), ids=list(_PAST_FLOAT_RANGE)
    )
    def test_an_int_past_the_float_range_is_a_value_error(self, call, message, value):
        with pytest.raises(ValueError, match=message):
            call(value)

    @pytest.mark.parametrize("position", range(4))
    def test_table_populations_rejects_nan(self, position):
        args = [0.5, 0.5, 0.5, 0.1]
        args[position] = math.nan
        with pytest.raises(ValueError, match="must be finite"):
            table_populations(*args)


def no_warning(call):
    """``call()`` with every warning an error, whatever the session's filters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


class TestNumpyScalars:
    """numpy numbers are accepted numbers: the finite rule and the rational reads take them."""

    def test_the_finite_rule_reads_a_numpy_scalar_as_its_number(self):
        # Each used to cast the float bound to float32: "overflow encountered in cast".
        assert no_warning(lambda: _is_finite(np.float32(3e38)))
        assert not no_warning(lambda: _is_finite(np.float32("inf")))
        assert not no_warning(lambda: _is_finite(np.float32("nan")))
        assert no_warning(lambda: _is_finite(np.int64(2**63 - 1)))
        assert not _is_finite(10**400) and _is_finite(10**308)

    @pytest.mark.parametrize(
        "call",
        [lambda: solve_ndelta(0.7, np.float32(0.3), 0.3), lambda: psi2(np.float32(0.3)),
         lambda: infer_parameters(np.float32(0.4), 0.3, 0.3, 0.1)],
        ids=["solve_ndelta", "psi2", "infer_parameters"],
    )
    def test_a_float32_argument_raises_no_warning(self, call):
        no_warning(call)

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: ControlKnob(3, np.float32(-0.0), RationalProvenance(1e308, 1, 4)),
          r"^delta -0\.0 disagrees with provenance j - Q\(j\) = 1e\+308$"),
         (lambda: SourceSpec(0.3, 1.0, 0.0, np.float32(0.0), 1e308),
          r"^theta1 \+ theta2 = pi/2 violated: got 1e\+308$"),
         (lambda: infer_parameters(0.3, 0.4, 0.3, np.float64(1e308)),
          r"^ndelta=1e\+308 is too large: 4 pi ndelta overflows$"),
         (lambda: table_populations(0.3, 0.5, 0.5, np.float64(1e308)),
          r"^ndelta=1e\+308 is too large: 2 pi ndelta overflows$")],
        ids=["ControlKnob+provenance", "SourceSpec", "infer_parameters", "table_populations"],
    )
    def test_a_numpy_scalar_at_a_finite_extreme_raises_no_warning(self, call, message):
        # Each warned first: "overflow encountered in cast" or "in scalar multiply".
        with pytest.raises(ValueError, match=message):
            no_warning(call)

    def test_a_source_spec_holds_numpy_fields_as_python_numbers(self):
        # The float32 weights made float32 parts, and the emission raised numpy's
        # "When changing to a larger dtype" error; from_p1_theta1 derived p2 in float32.
        spec = SourceSpec(0.7, np.float32(1.0), np.float32(0.0), np.float64(0.3), math.pi / 2 - 0.3)
        assert [type(v) for v in (spec.gamma, spec.p1, spec.p2, spec.theta1)] == [float] * 4
        assert emitted_state(spec)[0].amplitudes.tobytes() == emitted_state(
            SourceSpec(0.7, 1.0, 0.0, 0.3, math.pi / 2 - 0.3))[0].amplitudes.tobytes()
        derived = SourceSpec.from_p1_theta1(0.7, np.float32(0.6), np.float32(0.3))
        assert derived.p2 == math.sqrt(1.0 - float(np.float32(0.6)) ** 2)

    def test_a_knob_and_a_region_point_hold_numpy_values_as_python_numbers(self):
        # Each read its numbers on entry but kept the originals: the knob's repr showed
        # n=np.int64(2), and feasible returned f11_target=np.float32(0.1).
        provenance = RationalProvenance(np.float64(0.0), np.int64(0), 1)
        knob = ControlKnob(np.int64(2), np.float64(0.0), provenance)
        assert repr(knob) == repr(ControlKnob(2, 0.0, RationalProvenance(0.0, 0, 1)))
        held = (knob.n, knob.delta, *knob.provenance)
        assert [type(v) for v in held] == [int, float, float, int, int]
        point = feasible(np.float64(0.7), np.float64(0.5), np.float32(0.1))
        assert (type(point.f00_target), type(point.f11_target)) == (float, float)
        assert point == feasible(0.7, 0.5, float(np.float32(0.1)))

    def test_a_knob_holds_0d_arrays_as_python_numbers(self):
        # Held delta=array(0.1), and hash() raised "unhashable type: 'numpy.ndarray'";
        # an n of array(1) was refused as not an integer.
        knob = ControlKnob(np.array(1), np.array(0.1))
        assert [type(v) for v in (knob.n, knob.delta, knob.ndelta)] == [int, float, float]
        assert knob == ControlKnob(1, 0.1) and hash(knob) == hash(ControlKnob(1, 0.1))

    def test_field_params_hold_0d_arrays_as_python_numbers(self):
        # Held J=array(1.).
        fp = FieldParams(np.array(1.0), np.array(0.3, np.float32), 0.1)
        assert [type(v) for v in (fp.J, fp.B1, fp.B2)] == [float] * 3
        assert fp == FieldParams(1.0, float(np.float32(0.3)), 0.1)

    def test_a_source_spec_holds_0d_arrays_as_python_numbers(self):
        # Held gamma=array(0.7), p1=array(1.) and theta1=array(0.3).
        spec = SourceSpec(np.array(0.7), np.array(1.0), 0.0, np.array(0.3), math.pi / 2 - 0.3)
        assert [type(v) for v in (spec.gamma, spec.p1, spec.theta1)] == [float] * 3
        assert spec == SourceSpec(0.7, 1.0, 0.0, 0.3, math.pi / 2 - 0.3)

    def test_feasible_reads_0d_arrays_as_python_numbers(self):
        # Returned f00_target=array(0.3) and np.float64 solution fields.
        point = feasible(0.7, np.array(0.3), 0.3)
        assert point == feasible(0.7, 0.3, 0.3)
        held = (point.f00_target, *dataclasses.astuple(point.solution))
        assert [type(v) for v in held] == [float] * 5

    def test_solve_ndelta_reads_0d_arrays_as_python_numbers(self):
        # Returned np.float64 s_squared and required moments.
        solution = solve_ndelta(np.array(0.7), np.array(0.3), np.array(0.3))
        assert solution == solve_ndelta(0.7, 0.3, 0.3)
        assert [type(v) for v in dataclasses.astuple(solution)] == [float] * 4
        with pytest.raises(ValueError, match=r"^expected a number, got an array of shape \(1,\)$"):
            _python_number(np.array([0.3]))  # an array of one or more dimensions is refused

    @pytest.mark.parametrize(
        "call, name",
        [(lambda: FieldParams(np.array([1.0]), 0.3, 0.1), "J"),
         (lambda: SourceSpec(np.array([0.7]), 1.0, 0.0, 0.3, math.pi / 2 - 0.3), "gamma"),
         (lambda: table_populations(0.7, np.array([0.3]), 0.3, 0.1), "C\\^2"),
         (lambda: ControlKnob(1, np.array([0.1])), "delta"),
         (lambda: feasible(0.7, np.array([0.3]), 0.3), "f00"),
         (lambda: solve_ndelta(0.7, np.array([0.3]), 0.3), "f00"),
         (lambda: FieldParams(1.0, 0.3, np.array([[0.1]])), "B2"),
         (lambda: SourceSpec(0.7, 1.0, 0.0, 0.3, np.array([math.pi / 2 - 0.3])), "theta2"),
         (lambda: SourceSpec.from_p1_theta1(0.7, np.array([1.0]), 0.3), "p1"),
         (lambda: solve_ndelta(np.array([0.7]), 0.3, 0.3), "gamma"),
         (lambda: solve_ndelta(0.7, 0.3, np.array([0.3, 0.3])), "f11"),
         (lambda: ControlKnob(np.array([1]), 0.1), "n"),
         (lambda: ControlKnob(1, 0.0, RationalProvenance(np.array([0.5]), 1, 2)), "provenance j"),
         (lambda: rational_approx(np.array([0.3]), 4), "j"),
         (lambda: infer_parameters(0.3, 0.4, 0.3, np.array([0.1])), "ndelta"),
         (lambda: region_arrays(np.array([0.5]), 3), "gamma"),
         (lambda: evolve(bell_state((0, 0)), FieldParams(1.0, 0.3, 0.1), np.array([1.0])), "t"),
         (lambda: psi2(np.array([0.3])), "theta"),
         (lambda: controlled_psi2(np.array([0.3]), ControlKnob(1, 0.1)), "theta")],
        ids=["FieldParams", "SourceSpec", "table_populations", "ControlKnob", "feasible",
             "solve_ndelta", "FieldParams-B2", "SourceSpec-theta2", "from_p1_theta1",
             "solve_ndelta-gamma", "solve_ndelta-f11", "ControlKnob-n", "provenance",
             "rational_approx", "infer_parameters", "region_arrays", "evolve-t", "psi2",
             "controlled_psi2"],
    )
    def test_an_array_of_one_or_more_dimensions_is_refused_where_a_number_is_read(self, call, name):
        # Each said "expected a number, got an array of shape ..." without the name, but
        # region_arrays, which raised numpy's TypeError on an array gamma.
        message = rf"^expected a number for {name}, got an array of shape \(\d+,( \d+)?\)$"
        with pytest.raises(ValueError, match=message):
            call()

    def test_a_numpy_integer_j_is_the_equal_python_int(self):
        # Each raised AttributeError: no as_integer_ratio on numpy.int64.
        assert rational_approx(np.int64(0), 4) == rational_approx(0, 4)
        knob = ControlKnob(1, 0.0, RationalProvenance(np.int64(0), 0, 1))
        assert knob.ndelta == 0.0


class TestPastTheFloatRange:
    """A derived value past the float range reads as an infinity, as a float one does."""

    def test_an_int_sector_energy_past_the_float_range(self):
        # Raised OverflowError: the exact int energy -J + B1 + B2 met the float t.
        with pytest.raises(ValueError, match=r"^E00 \* t must be finite, got inf for "):
            evolve(bell_state((0, 0)), FieldParams(0, 10**308, 10**308), 1.0)

    @pytest.mark.parametrize("p1, p2, weight", [(10**200, 0, "inf"),
                                                (np.float32(1e38), 0.0, r"9\.999999360571395e\+75")],
                             ids=["int", "float32"])
    def test_a_weight_whose_square_leaves_the_float_range(self, p1, p2, weight):
        # The ints raised OverflowError; the float32 warned "overflow encountered in scalar power"
        # and read inf. It is now held as the Python float it equals, whose square is finite.
        with pytest.raises(ValueError, match=rf"^p1\^2 \+ p2\^2 = 1 violated: got {weight}$"):
            no_warning(lambda: SourceSpec(0.5, p1, p2, 0.3, math.pi / 2 - 0.3))

    def test_from_p1_theta1_with_an_int_angle_past_the_float_range(self):
        # Raised OverflowError at pi/2 - theta1; a float inf already read nan.
        for theta1 in (10**400, math.inf):
            with pytest.raises(ValueError, match=r"^theta1 \+ theta2 = pi/2 violated: got nan$"):
                SourceSpec.from_p1_theta1(0.7, 0.6, theta1)


class TestEntryConversion:
    """PureState and UnitaryMatrix share one checked entry conversion."""

    @pytest.mark.parametrize(
        "call",
        [lambda: PureState([10**400, 0]), lambda: UnitaryMatrix([[10**400, 0], [0, 1]])],
        ids=["PureState", "UnitaryMatrix"],
    )
    def test_an_int_past_the_float_range_is_a_value_error(self, call):
        # Each raised OverflowError: int too large to convert to float.
        with pytest.raises(ValueError, match="must be finite"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: UnitaryMatrix([[math.inf, 0], [0, 1]]), r"deviates from I by nan"),
         (lambda: UnitaryMatrix([[1e200, 0], [0, 1]]), r"deviates from I by inf"),
         (lambda: PureState([1e308, 1e308]), "^state norm inf deviates"),
         (lambda: PureState([math.inf, 0]), "^state norm nan deviates"),
         (lambda: PureState([math.nan, 0]), "^state norm nan deviates"),
         (lambda: PureState([math.inf, math.nan]), "^state norm nan deviates"),
         (lambda: PureState([1e200, 1e200]), "^state norm inf deviates"),
         (lambda: PureState([1e-200, 1e-200]), "^state norm 0.0 deviates")],
        ids=["unitary-inf", "unitary-1e200", "state-1e308", "state-inf",
             "state-nan", "state-inf-nan", "state-1e200", "state-1e-200"],
    )
    def test_an_overflowing_check_raises_no_warning(self, call, message):
        # The unitary rows warned first (invalid value or overflow in matmul); the state rows
        # keep _fresh's norm read, numpy's C vdot, free of a warning.
        with pytest.raises(ValueError, match=message):
            no_warning(call)
