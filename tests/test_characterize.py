"""Characterization measurement: labeling, populations, circuit equivalence."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from bellsource import (
    BELL_LABELS,
    BellLabel,
    ControlKnob,
    MeasurementRecord,
    Populations,
    PopulationTable,
    PureState,
    SourceSpec,
    basis_state,
    bell_state,
    circuit_outcome_distribution,
    circuit_realization,
    controlled_emission,
    controlled_psi1,
    controlled_psi2,
    emitted_state,
    fidelity_up_to_phase,
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
from bellsource.characterize import _ANCILLA_ROWS, _run_gates, label_to_outcome, outcome_to_label
from bellsource.statevec import _marginal_probabilities
from conftest import FixedDraw, random_knob, random_spec, random_state
from oracles import binomial_4sigma

WORKED_SPEC = SourceSpec.from_p1_theta1(math.pi / 4, 1.0, math.pi / 2)
WORKED_KNOB = ControlKnob(n=1, delta=0.125)
# b00 at the edge of the 1e-9 norm tolerance: its Born weights sum to about
# 1 - 8e-10, so the draw above falls in the gap past the last running sum.
EDGE_PAIR = PureState(bell_state((0, 0)).amplitudes * (1 - 4e-10))
DRAW_ABOVE_SUM = 1 - 1e-10


class TestLabeling:
    def test_table_assignments(self):
        assert label_to_outcome((0, 0)) == (0, 0)
        assert label_to_outcome((0, 1)) == (0, 1)
        assert label_to_outcome((1, 0)) == (1, 1)
        assert label_to_outcome((1, 1)) == (1, 0)

    def test_involution(self):
        for label in BELL_LABELS:
            assert outcome_to_label(label_to_outcome(label)) == label

    def test_non_bell_labels_are_refused(self):
        # (2, 0) used to map to (2, 2), and (0, 2) to BellLabel(0, 2).
        for label in ((2, 0), (0, 2), (0, 1, 1), 5, ([1], 0)):
            with pytest.raises(ValueError, match="Bell label bits must be 0/1"):
                label_to_outcome(label)
            with pytest.raises(ValueError, match="readout bits must be 0/1"):
                outcome_to_label(label)

    @pytest.mark.parametrize("label", [(1.0, 0), (True, False), (np.int64(1), np.int32(0))])
    def test_equal_bits_count_as_0_and_1(self, label):
        # (1.0, 0) used to raise TypeError from the XOR.
        assert label_to_outcome(label) == (1, 1)
        assert outcome_to_label(label) == BellLabel(1, 1)


class TestSpeciesMoments:
    def test_single_species_theta_zero(self):
        moments = species_moments(SourceSpec.from_p1_theta1(0.3, 1.0, 0.0))
        assert moments.C == pytest.approx(1.0, abs=1e-15)
        assert moments.S == pytest.approx(0.0, abs=1e-15)

    def test_single_species_theta_half_pi(self):
        moments = species_moments(SourceSpec.from_p1_theta1(0.3, 1.0, math.pi / 2))
        assert moments.C == pytest.approx(0.0, abs=1e-15)
        assert moments.S == pytest.approx(1.0, abs=1e-15)

    def test_non_unit_moment_case(self):
        # Equal weights at complementary pi/4 angles: C = S = 1, C^2+S^2 = 2.
        spec = SourceSpec.from_p1_theta1(0.3, 1 / math.sqrt(2), math.pi / 4)
        moments = species_moments(spec)
        assert moments.C == pytest.approx(1.0, abs=1e-12)
        assert moments.S == pytest.approx(1.0, abs=1e-12)

    def test_moment_identity(self, rng):
        for _ in range(100):
            spec = random_spec(rng)
            m = species_moments(spec)
            expected = 1.0 + 2.0 * spec.p1 * spec.p2 * math.sin(2.0 * spec.theta1)
            assert m.C**2 + m.S**2 == pytest.approx(expected, abs=1e-12)


class TestAnalyticPopulations:
    def test_gamma_zero_oscillates_between_f00_f11(self):
        spec = SourceSpec.from_p1_theta1(0.0, 1.0, 0.2)
        knob = ControlKnob(n=1, delta=0.2)
        x = 2 * math.pi * 0.2
        raw = populations_analytic(spec, knob).raw
        assert raw.f00 == pytest.approx(math.cos(x) ** 2, abs=1e-12)
        assert raw.f01 == pytest.approx(0.0, abs=1e-15)
        assert raw.f10 == 0.0
        assert raw.f11 == pytest.approx(math.sin(x) ** 2, abs=1e-12)

    def test_worked_point(self):
        raw = populations_analytic(WORKED_SPEC, WORKED_KNOB).raw
        np.testing.assert_allclose(raw.as_tuple(), (0.25, 0.5, 0.0, 0.25), atol=1e-12)

    def test_no_mismatch_row(self, rng):
        knob = ControlKnob(n=0, delta=0.4)
        for _ in range(25):
            spec = random_spec(rng)
            m = species_moments(spec)
            raw = populations_analytic(spec, knob).raw
            sin2_g = math.sin(spec.gamma) ** 2
            assert raw.f00 == pytest.approx(math.cos(spec.gamma) ** 2, abs=1e-12)
            assert raw.f01 == pytest.approx(m.S**2 * sin2_g, abs=1e-12)
            assert raw.f11 == pytest.approx(m.C**2 * sin2_g, abs=1e-12)

    def test_raw_sum_formula(self, rng):
        for _ in range(100):
            spec = random_spec(rng)
            table = populations_analytic(spec, random_knob(rng))
            expected = 1.0 + math.sin(spec.gamma) ** 2 * 2.0 * spec.p1 * spec.p2 * math.sin(
                2.0 * spec.theta1
            )
            assert table.raw.total() == pytest.approx(expected, abs=1e-12)
            assert table.normalized.total() == pytest.approx(1.0, abs=1e-12)

    def test_f00_f11_sum_is_knob_invariant(self, rng):
        # The knob only moves weight between f00 and f11.
        for _ in range(25):
            spec = random_spec(rng)
            m = species_moments(spec)
            expected = math.cos(spec.gamma) ** 2 + math.sin(spec.gamma) ** 2 * m.C**2
            for _ in range(10):
                raw = populations_analytic(spec, random_knob(rng)).raw
                assert raw.f00 + raw.f11 == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "raw",
        [
            (0.5, -0.1, 0.0, 0.6),
            (0.0, 0.0, 0.0, 0.0),
            (math.nan, 0.5, 0.0, 0.5),
            (math.inf, 0.5, 0.0, 0.5),
            (0.5, -math.inf, 0.0, 0.5),
        ],
    )
    def test_population_table_rejects_invalid_weights(self, raw):
        with pytest.raises(ValueError, match="invalid population weights"):
            PopulationTable.from_raw(Populations(*raw))

    # Raised "math domain error" from math.cos(inf): the knob is finite, 2 pi ndelta is not.
    @pytest.mark.parametrize("ndelta", [1e308, 3e307, -1e308])
    def test_table_populations_refuses_an_overflowing_knob(self, ndelta):
        with pytest.raises(ValueError) as info:
            table_populations(0.3, 0.5, 0.5, ndelta)
        assert str(info.value) == f"ndelta={ndelta!r} is too large: 2 pi ndelta overflows"

    def test_table_populations_direct(self):
        pops = table_populations(math.pi / 3, 0.2, 0.8, 0.0)
        assert pops.f00 == pytest.approx(0.25, abs=1e-12)
        assert pops.f01 == pytest.approx(0.6, abs=1e-12)
        assert pops.f11 == pytest.approx(0.15, abs=1e-12)


class TestExactPopulations:
    def test_bell_basis_state(self):
        pops = populations_exact(bell_state((0, 0))).normalized
        np.testing.assert_allclose(pops.as_tuple(), (1.0, 0.0, 0.0, 0.0), atol=1e-15)

    def test_absent_species_outcome(self):
        # The label (1,1) species lands on readout 10.
        pops = populations_exact(bell_state((1, 1))).normalized
        np.testing.assert_allclose(pops.as_tuple(), (0.0, 0.0, 1.0, 0.0), atol=1e-15)

    def test_worked_point(self):
        state, _ = controlled_emission(WORKED_SPEC, WORKED_KNOB)
        pops = populations_exact(state).normalized
        np.testing.assert_allclose(pops.as_tuple(), (0.25, 0.5, 0.0, 0.25), atol=1e-12)

    def test_second_species_profile(self, rng):
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi)
            pops = populations_exact(psi2(theta)).normalized
            np.testing.assert_allclose(
                pops.as_tuple(),
                (0.0, math.sin(theta) ** 2, 0.0, math.cos(theta) ** 2),
                atol=1e-12,
            )

    def test_matches_analytic_sweep(self, rng):
        for _ in range(200):
            spec = random_spec(rng)
            knob = random_knob(rng)
            state, _ = controlled_emission(spec, knob)
            exact = populations_exact(state).normalized.as_tuple()
            analytic = populations_analytic(spec, knob).normalized.as_tuple()
            np.testing.assert_allclose(exact, analytic, atol=1e-12)


class TestProjectiveMeasurement:
    def test_pure_bell_inputs(self, rng):
        record = nonlocal_bell_measurement(bell_state((0, 1)), rng)
        assert record.outcome == (0, 1)
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        assert fidelity_up_to_phase(record.post_state, bell_state((0, 1))) == pytest.approx(
            1.0, abs=1e-12
        )

        record = nonlocal_bell_measurement(bell_state((1, 0)), rng)
        assert record.outcome == (1, 1)
        assert fidelity_up_to_phase(record.post_state, bell_state((1, 0))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_equal_superposition_statistics(self):
        amps = (bell_state((0, 0)).amplitudes + bell_state((0, 1)).amplitudes) / math.sqrt(2)
        from bellsource import PureState

        state = PureState(amps)
        rng = np.random.default_rng(17)
        outcomes = [nonlocal_bell_measurement(state, rng).outcome for _ in range(4000)]
        count00 = outcomes.count((0, 0))
        assert set(outcomes) == {(0, 0), (0, 1)}
        assert binomial_4sigma(count00, 4000, 0.5)

    def test_draw_above_the_weight_sum_reports_an_emitted_outcome(self):
        # The last Bell label, readout (1, 0), has zero weight and is never reported.
        assert EDGE_PAIR.probabilities().sum() < DRAW_ABOVE_SUM
        record = nonlocal_bell_measurement(EDGE_PAIR, FixedDraw(DRAW_ABOVE_SUM))
        assert record.outcome == (0, 0)
        assert record.probability == pytest.approx(1.0, abs=1e-9)
        assert record.post_state is bell_state((0, 0))

    def test_deterministic_per_seed(self, rng):
        state = random_state(rng, 2)
        first = [
            nonlocal_bell_measurement(state, np.random.default_rng(9)).outcome for _ in range(1)
        ]
        second = [
            nonlocal_bell_measurement(state, np.random.default_rng(9)).outcome for _ in range(1)
        ]
        assert first == second


class TestCircuitRealization:
    def test_gate_sequence_shape(self, rng):
        gates, relabel = circuit_realization(random_state(rng, 2))
        assert len(gates) == 6
        assert all(g.dim == 16 for g in gates)
        assert relabel == {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}

    def test_rejects_non_pair_input(self, rng):
        with pytest.raises(ValueError, match="2-qubit"):
            circuit_realization(random_state(rng, 3))

    def test_b00_leaves_pair_untouched(self, rng):
        record = run_characterization_circuit(bell_state((0, 0)), rng)
        assert record.outcome == (0, 0)
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        assert fidelity_up_to_phase(record.post_state, bell_state((0, 0))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_b10_relabeled_outcome(self, rng):
        # Raw ancilla copy reads (1,0); the published outcome is (1,1).
        record = run_characterization_circuit(bell_state((1, 0)), rng)
        assert record.outcome == (1, 1)
        assert fidelity_up_to_phase(record.post_state, bell_state((1, 0))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_projective_distribution_50_random(self, rng):
        for _ in range(50):
            state = random_state(rng, 2)
            distribution = circuit_outcome_distribution(state)
            projective = populations_exact(state).normalized
            expected = {
                (0, 0): projective.f00,
                (0, 1): projective.f01,
                (1, 0): projective.f10,
                (1, 1): projective.f11,
            }
            assert sum(p for p, _ in distribution.values()) == pytest.approx(1.0, abs=1e-12)
            for outcome, (prob, post) in distribution.items():
                assert prob == pytest.approx(expected[outcome], abs=1e-12)
                if post is not None:
                    target = bell_state(outcome_to_label(outcome))
                    assert fidelity_up_to_phase(post, target) == pytest.approx(1.0, abs=1e-12)

    def test_sampled_record_consistent_with_distribution(self, rng):
        state = random_state(rng, 2)
        distribution = circuit_outcome_distribution(state)
        record = run_characterization_circuit(state, np.random.default_rng(21))
        prob, post = distribution[record.outcome]
        assert record.probability == pytest.approx(prob, abs=1e-12)
        assert post is not None
        assert fidelity_up_to_phase(record.post_state, post) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_record_is_its_distribution_entry(self, seed):
        # The shot draws from the same Born weights the table reports, bit for bit.
        state = random_state(np.random.default_rng(seed), 2)
        record = run_characterization_circuit(state, np.random.default_rng(seed))
        prob, post = circuit_outcome_distribution(state)[record.outcome]
        assert record.probability.hex() == prob.hex()
        assert record.post_state.amplitudes.tobytes() == post.amplitudes.tobytes()

    @pytest.mark.parametrize("shot", [nonlocal_bell_measurement, run_characterization_circuit])
    def test_a_shot_record_is_the_frozen_dataclass_of_its_fields(self, shot):
        # Both routes build their record by one __dict__ write, not the dataclass __init__.
        record = shot(random_state(np.random.default_rng(4), 2), np.random.default_rng(4))
        built = MeasurementRecord(record.outcome, record.post_state, record.probability)
        assert record == built and hash(record) == hash(built) and repr(record) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.outcome = (1, 1)

    def test_draw_above_the_weight_sum_reports_an_emitted_outcome(self):
        # The last ancilla readout has zero weight: its pair over its root would be NaN.
        record = run_characterization_circuit(EDGE_PAIR, FixedDraw(DRAW_ABOVE_SUM))
        assert record.outcome == (0, 0)
        assert record.probability == pytest.approx(1.0, abs=1e-9)
        assert fidelity_up_to_phase(record.post_state, bell_state((0, 0))) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("kind", ["random", "source", "bell"])
    def test_register_is_the_product_of_the_six_gates(self, kind):
        # The structural kernel against the 16 x 16 gates applied to pair (x) |00>.
        rng = np.random.default_rng(31)
        pairs = {
            "random": lambda: random_state(rng, 2),
            "source": lambda: controlled_emission(random_spec(rng), random_knob(rng))[0],
            "bell": lambda: bell_state(BELL_LABELS[int(rng.integers(4))]),
        }[kind]
        for _ in range(300):
            pair = pairs()
            reference = tensor(pair, basis_state("00")).amplitudes
            for gate in circuit_realization(pair)[0]:
                reference = gate.entries @ reference
            assert np.max(np.abs(_run_gates(pair)[0].amplitudes - reference)) <= 4 * 2**-52

    @pytest.mark.parametrize("kind", ["random", "source", "bell", "signed-zero", "subnormal"])
    def test_circuit_weights_equal_the_register_marginal_bit_for_bit(self, kind):
        # The ancilla weights both circuit routes read, 2 |r c_ab|^2 of the scaled Bell
        # coefficients, against the Born marginal of the register they come with.
        rng = np.random.default_rng(2301)
        zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        tiny = [complex(re, im) for re in (5e-324, -1e-310) for im in (-5e-324, 2e-309)]

        def sparse(fill):
            # One real and one imaginary amplitude, every other entry drawn from ``fill``.
            amps = [fill[int(rng.integers(len(fill)))] for _ in range(4)]
            k1, k2 = (int(k) for k in rng.permutation(4)[:2])
            angle = rng.uniform(-math.pi, math.pi)
            amps[k1] = complex(math.cos(angle), zeros[int(rng.integers(4))].imag)
            amps[k2] = complex(zeros[int(rng.integers(4))].real, math.sin(angle))
            return PureState(amps)

        pairs = {
            "random": lambda: random_state(rng, 2),
            "source": lambda: controlled_emission(random_spec(rng), random_knob(rng))[0],
            "bell": lambda: bell_state(BELL_LABELS[int(rng.integers(4))]),
            "signed-zero": lambda: sparse(zeros),
            "subnormal": lambda: sparse(tiny),
        }[kind]
        for _ in range(300):
            register, weights = _run_gates(pairs())
            marginal = _marginal_probabilities(register, _ANCILLA_ROWS).tolist()
            assert [w.hex() for w in weights] == [p.hex() for p in marginal]

    def test_post_states_knob_independent(self, rng):
        # Fixed outcome -> fixed Bell state, whatever the knob; readout (1, 0), the
        # paper's f10, has weight exactly 0.0 for every source-reachable pair.
        spec = random_spec(rng)
        for _ in range(20):
            state, _ = controlled_emission(spec, random_knob(rng))
            distribution = circuit_outcome_distribution(state)
            assert distribution[(1, 0)][0] == 0.0
            for outcome, (prob, post) in distribution.items():
                if post is None:
                    continue
                target = bell_state(outcome_to_label(outcome))
                assert fidelity_up_to_phase(post, target) == pytest.approx(1.0, abs=1e-12)


class TestSampleHistogram:
    def test_keys_and_total(self, rng):
        state, _ = controlled_emission(WORKED_SPEC, WORKED_KNOB)
        histogram = sample_histogram(state, 1000, rng)
        assert sorted(histogram) == ["00", "01", "10", "11"]
        assert sum(histogram.values()) == 1000

    def test_absent_species_never_counted(self, rng):
        state, _ = controlled_emission(WORKED_SPEC, WORKED_KNOB)
        histogram = sample_histogram(state, 100_000, rng)
        assert histogram["10"] == 0
        assert binomial_4sigma(histogram["01"], 100_000, 0.5)

    def test_deterministic_per_seed(self):
        state, _ = controlled_emission(WORKED_SPEC, WORKED_KNOB)
        h1 = sample_histogram(state, 5000, np.random.default_rng(1))
        h2 = sample_histogram(state, 5000, np.random.default_rng(1))
        assert h1 == h2

    def test_single_shot(self, rng):
        state, _ = controlled_emission(WORKED_SPEC, WORKED_KNOB)
        histogram = sample_histogram(state, 1, rng)
        assert sum(histogram.values()) == 1

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError, match="shots"):
            sample_histogram(bell_state((0, 0)), 0, rng)

    # The count rule: 2.7 drew 2 shots, 2**63 raised numpy's OverflowError.
    @pytest.mark.parametrize("shots", [2.7, 2**63, True, np.float64(5.0)])
    def test_rejects_a_count_outside_the_count_rule(self, rng, shots):
        with pytest.raises(ValueError, match=r"shots must be an integer in \[1, 2\*\*63 - 1\]"):
            sample_histogram(bell_state((0, 0)), shots, rng)

    def test_numpy_integer_count_draws_the_same_histogram(self):
        state = bell_state((0, 0))
        counts = [sample_histogram(state, shots, np.random.default_rng(4))
                  for shots in (7, np.int64(7))]
        assert counts[0] == counts[1]


class TestWrongKind:
    """A wrong kind where a library type is read is a ValueError naming its type (README,
    "Input rules"); each of these raised AttributeError."""

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: populations_analytic(None, WORKED_KNOB),
          "spec must be a SourceSpec, got NoneType"),
         (lambda: populations_analytic(WORKED_SPEC, 0.1), "knob must be a ControlKnob, got float"),
         (lambda: populations_exact(None), "state must be a PureState, got NoneType"),
         (lambda: populations_exact(np.array([1.0, 0, 0, 0])),
          "state must be a PureState, got ndarray"),
         (lambda: sample_histogram(bell_state((0, 0)), 10, None),
          "rng must be a Generator, got NoneType"),
         (lambda: sample_histogram(bell_state((0, 0)), 10, 7), "rng must be a Generator, got int"),
         (lambda: sample_histogram("00", 10, np.random.default_rng(0)),
          "state must be a PureState, got str")],
        ids=["analytic-spec", "analytic-knob", "exact-None", "exact-array", "histogram-rng-None",
             "histogram-rng-int", "histogram-state"],
    )
    def test_a_wrong_kind_is_a_value_error_naming_its_type(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: tensor(bell_state((0, 0)), 1), "b must be a PureState, got int"),
         (lambda: tensor(None, bell_state((0, 0))), "a must be a PureState, got NoneType"),
         (lambda: measure_qubits(None, (1,), np.random.default_rng(0)),
          "state must be a PureState, got NoneType"),
         (lambda: measure_qubits(bell_state((0, 0)), (1,), 7), "rng must be a Generator, got int"),
         (lambda: run_characterization_circuit(None, np.random.default_rng(0)),
          "state must be a PureState, got NoneType"),
         (lambda: run_characterization_circuit(bell_state((0, 0)), None),
          "rng must be a Generator, got NoneType"),
         (lambda: circuit_outcome_distribution("00"), "state must be a PureState, got str"),
         (lambda: circuit_realization(None), "state must be a PureState, got NoneType"),
         (lambda: nonlocal_bell_measurement(bell_state((0, 0)), None),
          "rng must be a Generator, got NoneType"),
         (lambda: controlled_emission(None, WORKED_KNOB),
          "spec must be a SourceSpec, got NoneType"),
         (lambda: controlled_emission(WORKED_SPEC, 0.1), "knob must be a ControlKnob, got float"),
         (lambda: controlled_psi1((1, 0.1)), "knob must be a ControlKnob, got tuple"),
         (lambda: controlled_psi2(0.3, None), "knob must be a ControlKnob, got NoneType"),
         (lambda: emitted_state(None), "spec must be a SourceSpec, got NoneType")],
        ids=["tensor-b", "tensor-a", "measure-state", "measure-rng", "circuit-state",
             "circuit-rng", "distribution-state", "realization-state", "direct-rng",
             "controlled-spec", "controlled-knob", "controlled_psi1", "controlled_psi2",
             "emitted"],
    )
    def test_a_wrong_kind_on_a_shot_or_emission_path_is_a_value_error(self, call, message):
        # Each raised AttributeError.
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
