"""State-vector algebra: construction, gates, Bell basis, measurement."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellsource import (
    BELL_LABELS,
    CNOT,
    HADAMARD,
    ControlKnob,
    FieldParams,
    PureState,
    SourceSpec,
    UnitaryMatrix,
    ZeroProbabilityError,
    apply_unitary,
    basis_state,
    bell_coefficients,
    bell_state,
    circuit_outcome_distribution,
    collapse_qubits,
    controlled_emission,
    emitted_state,
    evolve,
    expand_unitary,
    fidelity_up_to_phase,
    measure_qubits,
    run_characterization_circuit,
    sample_measurements,
    tensor,
)
from bellsource.statevec import _AXES, _check_targets, _fresh
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
        with pytest.raises(ValueError, match="normalize=True"):
            PureState(np.array([1.0, 1.0]))

    def test_normalize_flag_rescales(self):
        state = PureState(np.array([1.0, 1.0]), normalize=True)
        np.testing.assert_allclose(state.amplitudes, [1 / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_rejects_zero_vector_even_with_flag(self):
        with pytest.raises(ValueError):
            PureState(np.zeros(4), normalize=True)

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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_normalize_rejects_non_finite_norm(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(np.array([bad, 0.0]), normalize=True)


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

    def test_born_statistics_20_random_states(self):
        # 1e5-shot histograms against Born weights for 20 random states.
        rng = np.random.default_rng(2024)
        shots = 100_000
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            k = int(rng.integers(1, n + 1))
            indices = tuple(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
            counts = sample_measurements(state, indices, shots, rng)
            axes = [q - 1 for q in indices]
            rest = [i for i in range(n) if i not in axes]
            probs = (
                np.abs(state.amplitudes.reshape([2] * n)) ** 2
            ).transpose(axes + rest).reshape(2**k, -1).sum(axis=1)
            for count, prob in zip(counts, probs):
                assert binomial_4sigma(int(count), shots, float(prob))

    def test_sample_measurements_matches_loop_distribution(self):
        state = bell_state((0, 0))
        rng = np.random.default_rng(5)
        counts = sample_measurements(state, (1, 2), 50_000, rng)
        assert counts[1] == 0 and counts[2] == 0
        assert binomial_4sigma(int(counts[0]), 50_000, 0.5)

    def test_requires_indices(self, rng):
        with pytest.raises(ValueError):
            measure_qubits(basis_state("00"), (), rng)

    def test_collapse_onto_outcome(self):
        collapsed, prob = collapse_qubits(bell_state((0, 0)), (1,), (1,))
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(collapsed.amplitudes, basis_state("11").amplitudes, atol=1e-12)

    def test_collapse_zero_probability(self):
        with pytest.raises(ZeroProbabilityError):
            collapse_qubits(basis_state("00"), (1,), (1,))

    # (0.7,) collapsed onto outcome 0; "1" was read by int().
    @pytest.mark.parametrize("outcome", [(0.7,), (0, 1), (), "1", (2,)])
    def test_collapse_rejects_an_outcome_that_is_not_one_bit_per_qubit(self, outcome):
        with pytest.raises(ValueError, match=r"does not match 1 measured qubit\(s\)"):
            collapse_qubits(bell_state((0, 0)), (1,), outcome)

    @pytest.mark.parametrize("outcome", [(1.0,), (True,), [np.int64(1)]])
    def test_collapse_takes_values_equal_to_a_bit(self, outcome):
        collapsed, prob = collapse_qubits(bell_state((0, 0)), (1,), outcome)
        assert collapsed.amplitudes.tobytes() == basis_state("11").amplitudes.tobytes()
        assert prob == collapse_qubits(bell_state((0, 0)), (1,), (1,))[1]

    def test_fractional_index_is_rejected(self, rng):
        # Measured qubit 2 and returned (1,).
        with pytest.raises(ValueError, match="qubit index 2.9 is not an integer in 1..2"):
            measure_qubits(basis_state("01"), (2.9,), rng)

    def test_fractional_shot_count_is_rejected(self, rng):
        # Drew 3 shots.
        with pytest.raises(ValueError, match=r"shots must be an integer in \[1, 2\*\*63 - 1\], got 3.9"):
            sample_measurements(bell_state((0, 0)), (1, 2), 3.9, rng)


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
        "collapse_qubits": [collapse_qubits(bell_state((0, 0)), (2,), (1,))[0]],
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
        text = (
            "state norm 1.4142135623730951 deviates from 1 by more than 1e-09; "
            "pass normalize=True to rescale"
        )
        for build in (PureState, _fresh):
            with pytest.raises(ValueError) as error:
                build(np.array([1.0, 1.0], dtype=complex))
            assert str(error.value) == text
            with pytest.raises(ValueError, match="length 32 is not a 1..4 qubit state"):
                build(np.zeros(32, dtype=complex))

    def test_normalize_flag_still_checks_the_length_first(self):
        with pytest.raises(ValueError, match="length 3 is not a 1..4 qubit state"):
            PureState(np.zeros(3), normalize=True)


class TestTargetTable:
    # A list is unhashable, so it always takes the validating path.
    def test_holds_every_valid_ordered_target_tuple(self):
        assert len(_AXES) == 84
        for (targets, n), axes in _AXES.items():
            assert axes == tuple(q - 1 for q in targets)
            assert _check_targets(list(targets), n) == axes

    @pytest.mark.parametrize(
        "targets, n, axes",
        [((3, 1), 4, (2, 0)), (np.array([3, 1]), 4, (2, 0)),
         ((np.int64(3), np.int32(1)), 4, (2, 0)), ([np.int64(3), 1], 4, (2, 0)),
         ((1.0,), 1, (0,)), ([2.0, 1], 2, (1, 0)), ((5, 1), 5, (4, 0)),
         # A bool counts as its integer value on both paths.
         ((True, 2), 2, (0, 1)), ([np.float64(3.0)], 4, (2,))],
    )
    def test_lookup_equals_the_validator(self, targets, n, axes):
        assert _check_targets(targets, n) == _check_targets(list(targets), n) == axes

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
         (("2",), 4, "qubit index '2' is not an integer in 1..4")],
    )
    def test_rejects_with_the_same_messages(self, targets, n, message):
        with pytest.raises(ValueError) as error:
            _check_targets(targets, n)
        assert str(error.value) == message
