"""Distortion machinery: exact evolution, mismatch, controlled states."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from bellsource import (
    ControlKnob,
    FieldParams,
    PureState,
    RationalProvenance,
    SourceSpec,
    basis_state,
    bell_coefficients,
    bell_state,
    controlled_emission,
    controlled_psi1,
    controlled_psi2,
    emitted_state,
    evolve,
    fidelity_up_to_phase,
    j_parameter,
    psi2,
    rational_approx,
)
from conftest import edge_knobs, edge_specs, random_knob, random_spec, random_state
from oracles import (
    BELL_VECTORS,
    _superpose,
    best_rational_bruteforce,
    controlled_emission_reference,
    expm_eigh,
    expm_taylor,
    pauli_hamiltonian,
)


class TestEvolveIsTheExponentialOfThePauliHamiltonian:
    """evolve against exp(-iHt), H the Pauli-product oracle, exponentiated by eigh."""

    @pytest.mark.parametrize(
        "fields",
        [(1.0, 0.0, 0.0), (0.0, 1.0, -1.0), (1.3, 0.4, 0.4), None],
        ids=["exchange", "field", "homogeneous", "random"],
    )
    def test_matches_the_eigh_exponential(self, rng, fields):
        cases = [fields] * 10 if fields else rng.uniform(-3, 3, size=(50, 3)).tolist()
        for J, B1, B2 in cases:
            t = rng.uniform(0.0, 5.0)
            state = random_state(rng, 2)
            expected = expm_eigh(pauli_hamiltonian(J, B1, B2), t) @ state.amplitudes
            out = evolve(state, FieldParams(J=J, B1=B1, B2=B2), t)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-11)

    def test_pure_field_turns_each_basis_state_by_its_energy(self):
        # At J = 0, B1 = 1, B2 = -1, H is diag(0, 2, -2, 0).
        fp = FieldParams(J=0.0, B1=1.0, B2=-1.0)
        for bits, energy in zip(("00", "01", "10", "11"), (0.0, 2.0, -2.0, 0.0)):
            start = basis_state(bits).amplitudes
            out = evolve(basis_state(bits), fp, 0.7)
            np.testing.assert_allclose(out.amplitudes, np.exp(-0.7j * energy) * start, atol=1e-15)

    def test_singlet_eigenvector_for_homogeneous_field(self):
        # With B1 = B2 the (|01>-|10>)/sqrt2 state has exchange eigenvalue 3J.
        singlet = BELL_VECTORS[(1, 1)]
        for t in (0.1, 1.7, 4.0):
            out = evolve(PureState(singlet), FieldParams(J=1.3, B1=0.4, B2=0.4), t)
            np.testing.assert_allclose(out.amplitudes, np.exp(-3j * 1.3 * t) * singlet, atol=1e-12)

    def test_the_two_sectors_stay_closed(self, rng):
        # H is block-diagonal over {|00>,|11>} + {|01>,|10>}: |00> and |11> only turn,
        # and |01>, |10> stay in their span.
        outside = {"00": [1, 2, 3], "11": [0, 1, 2], "01": [0, 3], "10": [0, 3]}
        for _ in range(50):
            fp = FieldParams(*rng.uniform(-3, 3, size=3))
            t = rng.uniform(0.0, 5.0)
            for bits, zeros in outside.items():
                assert (evolve(basis_state(bits), fp, t).amplitudes[zeros] == 0).all()


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        state = random_state(rng, 2)
        out = evolve(state, FieldParams(J=1.0, B1=0.7, B2=-0.4), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_b01_is_stationary_for_homogeneous_field(self):
        # With B1 = B2 the (|01>+|10>)/sqrt2 state only picks up a phase.
        fp = FieldParams(J=0.9, B1=0.5, B2=0.5)
        for t in (0.1, 1.7, 4.0):
            out = evolve(bell_state((0, 1)), fp, t)
            assert fidelity_up_to_phase(out, bell_state((0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_00_11_sector_closure(self):
        # b00 evolves inside span{b00, b10} for any fields.
        out = evolve(bell_state((0, 0)), FieldParams(J=1.0, B1=1.0, B2=0.0), 0.7)
        c00, c01, c10, c11 = bell_coefficients(out)
        assert abs(c10) > 0.1
        assert abs(c01) < 1e-12 and abs(c11) < 1e-12
        assert abs(c00) ** 2 + abs(c10) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_against_taylor_oracle_100_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            J, B1, B2 = rng.uniform(-2, 2, size=3)
            fp = FieldParams(J=J, B1=B1, B2=B2)
            h = pauli_hamiltonian(J, B1, B2)
            h_norm = float(np.linalg.norm(h, 2))
            t = rng.uniform(0.0, 10.0 / h_norm) if h_norm > 1e-9 else rng.uniform(0.0, 1.0)
            state = random_state(rng, 2)
            expected = expm_taylor(-1j * h * t) @ state.amplitudes
            np.testing.assert_allclose(evolve(state, fp, t).amplitudes, expected, atol=1e-10)

    def test_semigroup_property(self, rng):
        for _ in range(50):
            J, B1, B2 = rng.uniform(-2, 2, size=3)
            fp = FieldParams(J=J, B1=B1, B2=B2)
            t1, t2 = rng.uniform(0, 3, size=2)
            state = random_state(rng, 2)
            once = evolve(state, fp, t1 + t2)
            twice = evolve(evolve(state, fp, t1), fp, t2)
            np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(100):
            out = evolve(random_state(rng, 2), FieldParams(*rng.uniform(-2, 2, size=3)), 2.5)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "state, fp, message",
        [(bell_state((0, 0)), None, "fp must be a FieldParams, got NoneType"),
         (bell_state((0, 0)), (1.0, 0.3, 0.1), "fp must be a FieldParams, got tuple"),
         (None, FieldParams(1.0, 0.3, 0.1), "state must be a PureState, got NoneType")],
        ids=["fp-None", "fp-tuple", "state-None"],
    )
    def test_a_wrong_kind_is_a_value_error_naming_its_type(self, state, fp, message):
        # Each raised AttributeError.
        with pytest.raises(ValueError, match=f"^{message}$"):
            evolve(state, fp, 1.0)

    def test_rejects_wrong_size(self, rng):
        with pytest.raises(ValueError):
            evolve(random_state(rng, 3), FieldParams(1.0, 0.0, 0.0), 1.0)

    # Each of these used to end in a bare "math domain error", or for NaN in
    # "state norm nan deviates from 1".
    def test_rejects_rotation_angle_overflow(self):
        with pytest.raises(ValueError, match=r"omega \* t must be finite, got inf"):
            evolve(bell_state((0, 0)), FieldParams(1.0, 0.3, 0.1), 1e308)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match=f"t must be finite, got {t!r}"):
            evolve(bell_state((0, 0)), FieldParams(1.0, 0.3, 0.1), t)

    def test_rejects_field_difference_past_float_range(self):
        with pytest.raises(ValueError, match="B1 - B2 must be finite, got inf"):
            evolve(bell_state((0, 0)), FieldParams(1e308, 1e308, -1e308), 1.0)

    @pytest.mark.parametrize("field", ["J", "B1", "B2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, bad):
        values = {"J": 1.0, "B1": 0.5, "B2": 0.1, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad!r}"):
            evolve(bell_state((0, 0)), FieldParams(**values), 1.0)

    @pytest.mark.parametrize(
        "fp, message",
        [
            # B1 = B2 leaves omega = 0, but -J + B1 + B2 overflows.
            (FieldParams(0.0, 1e308, 1e308), r"E00 \* t must be finite, got inf"),
            # omega * t is finite, but -J - B1 - B2 overflows.
            (FieldParams(8e307, 6e307, 6e307), r"E11 \* t must be finite, got -inf"),
            # The same with int fields: each sector energy is an exact int past the float range.
            (FieldParams(0, 10**308, 10**308), r"E00 \* t must be finite, got inf"),
            (FieldParams(8 * 10**307, 6 * 10**307, 6 * 10**307),
             r"E11 \* t must be finite, got -inf"),
        ],
        ids=["E00", "E11", "E00-int", "E11-int"],
    )
    def test_rejects_sector_energy_overflow(self, fp, message):
        with pytest.raises(ValueError, match=message):
            evolve(bell_state((0, 0)), fp, 1.0)

    def test_numpy_integer_fields_evolve_as_the_equal_python_ints(self):
        # B1 - B2 = 2**63 wrapped to -2**63 in int64 (a RuntimeWarning), and the
        # state came back as the complex conjugate of the Python-int result.
        big = 2**62
        expected = evolve(bell_state((0, 1)), FieldParams(1, big, -big), 1e-18)
        fp = FieldParams(np.int64(1), np.int64(big), np.int64(-big))
        out = evolve(bell_state((0, 1)), fp, np.float64(1e-18))
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert fp == FieldParams(1, big, -big) and type(fp.B1) is int


class TestInteractionRatio:
    def test_homogeneous_field(self):
        assert j_parameter(FieldParams(J=1.0, B1=0.3, B2=0.3)) == 0.5

    def test_quarter_value(self):
        assert j_parameter(FieldParams(J=1.0, B1=2 * math.sqrt(3), B2=0.0)) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_weak_inhomogeneity_leading_order(self):
        # j - 1/2 = -B-^2/(16 J^2) + O(B-^4); the exact value for J = 1, B- = 0.2 is
        # frozen from direct evaluation.
        fp = FieldParams(J=1.0, B1=0.2, B2=0.0)
        exact = j_parameter(fp) - 0.5
        assert exact == pytest.approx(-0.002481404895005368, abs=1e-15)
        assert exact == pytest.approx(-fp.b_minus**2 / 16.0, abs=2e-5)

    def test_scale_invariance(self, rng):
        for _ in range(25):
            J, B1, B2 = rng.uniform(-2, 2, size=3)
            k = rng.uniform(0.1, 10.0)
            j1 = j_parameter(FieldParams(J=J, B1=B1, B2=B2))
            j2 = j_parameter(FieldParams(J=k * J, B1=k * B1, B2=k * B2))
            assert j1 == pytest.approx(j2, abs=1e-12)

    def test_range(self, rng):
        for _ in range(100):
            j = j_parameter(FieldParams(*rng.uniform(-2, 2, size=3)))
            assert -0.5 < j <= 0.5

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="undefined"):
            j_parameter(FieldParams(J=0.0, B1=1.0, B2=1.0))

    @pytest.mark.parametrize("field", ["J", "B1", "B2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, bad):
        values = {"J": 1.0, "B1": 0.5, "B2": 0.1, field: bad}
        with pytest.raises(ValueError, match="J, B1 and B2 must be finite"):
            j_parameter(FieldParams(**values))

    @pytest.mark.parametrize("B1, B2", [(1e308, -1e308), (-1.7e308, 1.7e308)])
    def test_rejects_field_difference_past_float_range(self, B1, B2):
        # Finite fields whose B1 - B2 overflows used to give j = 0.0.
        with pytest.raises(ValueError, match="B1 - B2 must be finite"):
            j_parameter(FieldParams(J=1e300, B1=B1, B2=B2))

    @pytest.mark.parametrize(
        "J, B1, B2, expected",
        [
            (1e308, 1e308, 0.0, 1 / math.sqrt(5)),
            (-1e308, 0.0, 1e308, -1 / math.sqrt(5)),
            (8.98846567431158e307, 0.0, 0.0, 0.5),
            (1.0, 1.5e308, 0.0, 1.0 / 1.5e308),
            (10**308, 10**308, 0, 1 / math.sqrt(5)),
        ],
    )
    def test_overflowing_root_gives_the_true_ratio(self, J, B1, B2, expected):
        # 2 J or sqrt(B-^2 + 4 J^2) past the float range used to give j = 0.0.
        assert j_parameter(FieldParams(J=J, B1=B1, B2=B2)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "J, B1, expected",
        [(1e200, 0.2, 0.5), (1.0, 1e200, 1e-200), (1e-200, 0.2, 5e-200), (1e-60, 1e100, 1e-160)],
    )
    def test_the_mismatch_stays_finite_where_b_minus_or_j_squared_leaves_the_float_range(
        self, J, B1, expected
    ):
        # B-^2 or J^2 overflows, J^2 underflows to 0, or B-^2 / J^2 overflows; the
        # ratio and the mismatch it gives are read without squaring either.
        fp = FieldParams(J=J, B1=B1, B2=0.0)
        assert j_parameter(fp) == pytest.approx(expected, rel=1e-15)
        knob = ControlKnob.from_field_params(fp, max_den=10)
        assert math.isfinite(knob.delta) and abs(knob.delta) <= 0.5


class TestRationalApprox:
    def test_exact_half(self):
        assert rational_approx(0.5, 10) == (1, 2, 0.0)

    def test_near_half(self):
        num, den, delta = rational_approx(0.49, 10)
        assert (num, den) == (1, 2)
        assert delta == pytest.approx(-0.01, abs=1e-15)

    def test_inverse_pi(self):
        # Exhaustive search over denominators <= 120 picks 7/22.
        num, den, delta = rational_approx(1 / math.pi, 120)
        p, q, _ = best_rational_bruteforce(1 / math.pi, 120)
        assert (num, den) == (p, q) == (7, 22)
        assert delta == pytest.approx(1 / math.pi - 7 / 22, abs=1e-15)

    def test_optimal_up_to_50(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            j = rng.uniform(0.0, 0.5)
            max_den = int(rng.integers(1, 51))
            num, den, _ = rational_approx(j, max_den)
            _, _, best_err = best_rational_bruteforce(j, max_den)
            assert den <= max_den
            assert abs(j - num / den) <= best_err + 1e-15

    def test_dirichlet_bound(self, rng):
        # The optimum in absolute error can be a semiconvergent, for which
        # 1/(den*max_den) fails; 1/(max_den+1) is the bound that always holds.
        for _ in range(100):
            j = rng.uniform(-0.5, 0.5)
            max_den = int(rng.integers(1, 200))
            _, den, delta = rational_approx(j, max_den)
            assert den <= max_den
            assert abs(delta) <= 1.0 / (max_den + 1)

    @pytest.mark.parametrize(
        "j, max_den",
        [
            (0.0, 1),
            (0.0, 2**60),
            (0.5, 1),
            (-0.5, 1),
            (0.5, 2**60),
            (-0.5, 2**60),
            (2.0**-1074, 1),
            (-(2.0**-1074), 1),
            (2.0**-1074, 2**60),
            (-(2.0**-1074), 2**60),
            (0.25, 4),
            (0.25, 3),
            (0.3, 1),
            (-0.3, 1),
            (-0.41, 7),
            (-1 / math.pi, 2**60),
            (1 / 3, 2**60),
            (-0.2, 2**60),
        ],
    )
    def test_matches_fraction_semantics_at_edges(self, j, max_den):
        # m = 1 at j = +-1/2 is a tie between two integers.
        best = Fraction(j).limit_denominator(max_den)
        num, den, delta = rational_approx(j, max_den)
        assert (num, den) == (best.numerator, best.denominator)
        assert delta.hex() == float(Fraction(j) - best).hex()

    def test_preconditions(self):
        with pytest.raises(ValueError, match="max_den"):
            rational_approx(0.3, 0)
        with pytest.raises(ValueError, match=r"\|j\|"):
            rational_approx(0.7, 10)

    def test_nan_j_is_refused(self):
        # NaN used to fail later, in as_integer_ratio.
        with pytest.raises(ValueError, match=r"^\|j\| <= 1/2 violated: got nan$"):
            rational_approx(math.nan, 5)

    @pytest.mark.parametrize("j", [np.float64(0.7), np.float32(-0.75), np.int64(1)],
                             ids=["float64", "float32", "int64"])
    def test_a_numpy_j_is_refused_as_the_python_number_it_holds(self, j):
        with pytest.raises(ValueError, match=rf"^\|j\| <= 1/2 violated: got {j.item()!r}$"):
            rational_approx(j, 4)

    @pytest.mark.parametrize("max_den", [2.5, 3.0, True, False, 0, -4, "3", None, np.float64(3.0)])
    def test_max_den_must_be_a_positive_integer(self, max_den):
        with pytest.raises(ValueError, match="max_den must be a positive integer"):
            rational_approx(0.3, max_den)

    @pytest.mark.parametrize("j", [0.1234567, 1e-300, -0.3])
    def test_numpy_integer_max_den_equals_python_int(self, j):
        for max_den in (np.int64(10**6), np.uint32(10**6), np.int8(100)):
            assert rational_approx(j, max_den) == rational_approx(j, int(max_den))


class TestControlKnob:
    def test_ndelta_product(self):
        assert ControlKnob(n=3, delta=0.05).ndelta == pytest.approx(0.15)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="n must"):
            ControlKnob(n=-1, delta=0.1)

    def test_rejects_large_delta(self):
        with pytest.raises(ValueError, match="delta"):
            ControlKnob(n=1, delta=0.6)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            ControlKnob(n=1, delta=delta)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 10**400])
    def test_rejects_non_finite_n(self, n):
        with pytest.raises(ValueError, match="n must"):
            ControlKnob(n=n, delta=0.1)

    def test_rejects_control_angle_overflow(self):
        # n * delta = 5e307 is finite, but 2 pi n delta is not.
        with pytest.raises(ValueError, match="2 pi n delta overflows"):
            ControlKnob(n=10**308, delta=0.5)
        assert ControlKnob(n=10**307, delta=0.5).ndelta == 5e306

    def test_rejects_bool_n(self):
        with pytest.raises(ValueError, match="n must"):
            ControlKnob(n=True, delta=0.1)

    def test_rejects_integral_float_n(self):
        with pytest.raises(ValueError, match=r"n must be a non-negative integer, got 3\.0"):
            ControlKnob(3.0, 0.1)

    def test_field_form_rejects_integral_float_n(self):
        fp = FieldParams(J=1.0, B1=0.9, B2=0.1)
        with pytest.raises(ValueError, match=r"n must be a non-negative integer, got 2\.0"):
            ControlKnob.from_field_params(fp, max_den=9, n=2.0)

    def test_accepts_numpy_integer_n(self):
        knob = ControlKnob(np.int64(3), 0.05)
        assert knob.n == 3
        assert knob.ndelta == ControlKnob(3, 0.05).ndelta

    def test_provenance_consistency(self):
        j = 0.41
        num, den, delta = rational_approx(j, 7)
        ControlKnob(n=2, delta=delta, provenance=RationalProvenance(j, num, den))
        with pytest.raises(ValueError, match="provenance"):
            ControlKnob(n=2, delta=delta + 1e-12, provenance=RationalProvenance(j, num, den))

    def test_provenance_gap_rejects_inconsistent_delta(self):
        # 1/4 - 1/3 = -1/12; 2**-1074 - 0/2**60 is the smallest subnormal.
        ControlKnob(1, -1 / 12, RationalProvenance(0.25, 1, 3))
        ControlKnob(1, 2.0**-1074, RationalProvenance(2.0**-1074, 0, 2**60))
        for delta in (1 / 12, -1 / 12 + 1e-14, 0.0):
            with pytest.raises(ValueError, match="disagrees with provenance"):
                ControlKnob(1, delta, RationalProvenance(0.25, 1, 3))
        with pytest.raises(ValueError, match="disagrees with provenance"):
            ControlKnob(1, 3e-15, RationalProvenance(2.0**-1074, 0, 2**60))

    @pytest.mark.parametrize("num", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_provenance_gap_beyond_float_range_disagrees(self, num):
        with pytest.raises(ValueError, match="disagrees with provenance"):
            ControlKnob(1, 0.0, RationalProvenance(0.25, num, 1))

    @pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_provenance_j(self, j):
        with pytest.raises(ValueError, match="provenance j must be finite"):
            ControlKnob(1, 0.0, RationalProvenance(j, 0, 1))

    @pytest.mark.parametrize("den", [0, -3])
    def test_rejects_provenance_denominator_below_one(self, den):
        with pytest.raises(ValueError, match=f"provenance denominator must be >= 1, got {den}"):
            ControlKnob(1, 0.0, RationalProvenance(0.25, 1, den))

    @pytest.mark.parametrize("num, den", [(1.5, 3), (1, 2.0), (True, 2), (1, True), (None, 3)])
    def test_rejects_non_integer_provenance_ratio(self, num, den):
        with pytest.raises(ValueError, match=r"provenance Q\(j\) must be integers"):
            ControlKnob(1, 0.5 - 1 / 3, RationalProvenance(0.5, num, den))

    def test_rejects_a_provenance_that_is_not_a_sequence(self):
        # Raised TypeError: cannot unpack non-iterable int object.
        with pytest.raises(ValueError) as error:
            ControlKnob(1, 0.1, provenance=5)
        assert str(error.value) == "provenance must be (j, q_num, q_den), got 5"

    def test_rejects_a_provenance_of_two_values(self):
        # Raised ValueError: not enough values to unpack, naming no argument.
        with pytest.raises(ValueError) as error:
            ControlKnob(1, 0.1, provenance=(0.3, 1))
        assert str(error.value) == "provenance must be (j, q_num, q_den), got (0.3, 1)"

    def test_rejects_an_empty_provenance(self):
        with pytest.raises(ValueError) as error:
            ControlKnob(1, 0.1, provenance=())
        assert str(error.value) == "provenance must be (j, q_num, q_den), got ()"

    def test_rejects_a_provenance_of_four_values(self):
        # Was accepted: the first three agree with delta, and the fourth was dropped.
        with pytest.raises(ValueError) as error:
            ControlKnob(1, 0.5 - 1 / 3, provenance=(0.5, 1, 3, 99))
        assert str(error.value) == "provenance must be (j, q_num, q_den), got (0.5, 1, 3, 99)"

    def test_a_provenance_of_three_values_is_held_as_a_rational_provenance(self):
        for provenance in ([0.5, 1, 3], (value for value in (0.5, 1, 3))):
            knob = ControlKnob(1, 0.5 - 1 / 3, provenance=provenance)
            assert type(knob.provenance) is RationalProvenance
            assert knob.provenance == RationalProvenance(0.5, 1, 3)

    def test_accepts_numpy_integer_provenance_ratio(self):
        # The gap is taken over Python ints: j = 1e-300 has a 2**1049 denominator,
        # which no int64 can multiply.
        knob = ControlKnob(1, 1e-300, RationalProvenance(1e-300, np.int64(0), np.int64(1)))
        assert knob.ndelta == 1e-300

    def test_from_field_params(self):
        fp = FieldParams(J=1.0, B1=0.9, B2=0.1)
        knob = ControlKnob.from_field_params(fp, max_den=9, n=4)
        assert knob.n == 4
        assert knob.provenance is not None
        j = j_parameter(fp)
        assert knob.provenance.j == pytest.approx(j)
        assert knob.delta == pytest.approx(j - knob.provenance.q_num / knob.provenance.q_den)

    @pytest.mark.parametrize(
        "J", [1.0, -0.7, 1e308, 10**308], ids=["unit", "negative", "1e308", "int-1e308"]
    )
    def test_a_homogeneous_field_has_no_mismatch(self, J):
        # B1 = B2 gives j = +-1/2, a rational, so delta is exactly zero.
        knob = ControlKnob.from_field_params(FieldParams(J=J, B1=0.3, B2=0.3), max_den=10)
        assert knob.delta == 0.0 and knob.provenance.j == math.copysign(0.5, J)

    def test_from_field_params_refuses_zero_coupling_in_a_homogeneous_field(self):
        with pytest.raises(ValueError, match=r"^j is undefined for J = 0 and B1 = B2"):
            ControlKnob.from_field_params(FieldParams(J=0.0, B1=0.3, B2=0.3), max_den=10)


class TestControlledStates:
    def test_psi1_no_mismatch(self):
        knob = ControlKnob(n=0, delta=0.3)
        np.testing.assert_allclose(
            controlled_psi1(knob).amplitudes, bell_state((0, 0)).amplitudes, atol=1e-15
        )

    def test_psi1_quarter_turn(self):
        knob = ControlKnob(n=1, delta=0.25)
        assert fidelity_up_to_phase(controlled_psi1(knob), bell_state((1, 0))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_psi1_overlap_magnitude(self, rng):
        # |<b00|psi1'>| = |cos(2 pi n delta)| from the simplified closed form.
        for _ in range(100):
            knob = random_knob(rng)
            overlap = bell_state((0, 0)).inner(controlled_psi1(knob))
            assert abs(overlap) == pytest.approx(
                abs(math.cos(2 * math.pi * knob.ndelta)), abs=1e-12
            )

    def test_psi1_simplified_form(self, rng):
        for _ in range(50):
            knob = random_knob(rng)
            x = 2 * math.pi * knob.ndelta
            simplified = np.exp(1j * x) * (
                math.cos(x) * bell_state((0, 0)).amplitudes
                - 1j * math.sin(x) * bell_state((1, 0)).amplitudes
            )
            np.testing.assert_allclose(controlled_psi1(knob).amplitudes, simplified, atol=1e-12)

    def test_psi2_no_mismatch_reduces(self, rng):
        knob = ControlKnob(n=5, delta=0.0)
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi)
            np.testing.assert_allclose(
                controlled_psi2(theta, knob).amplitudes, psi2(theta).amplitudes, atol=1e-12
            )

    def test_psi2_theta_half_pi_ignores_knob(self, rng):
        for _ in range(25):
            out = controlled_psi2(math.pi / 2, random_knob(rng))
            assert fidelity_up_to_phase(out, bell_state((0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norms(self, rng):
        for _ in range(100):
            knob = random_knob(rng)
            theta = rng.uniform(-math.pi, math.pi)
            assert abs(np.linalg.norm(controlled_psi1(knob).amplitudes) - 1.0) < 1e-12
            assert abs(np.linalg.norm(controlled_psi2(theta, knob).amplitudes) - 1.0) < 1e-12

    def test_mutual_orthogonality(self, rng):
        for _ in range(100):
            knob = random_knob(rng)
            theta = rng.uniform(-math.pi, math.pi)
            assert abs(controlled_psi1(knob).inner(controlled_psi2(theta, knob))) < 1e-12


class TestControlledEmission:
    def test_no_mismatch_equals_plain_emission(self, rng):
        knob = ControlKnob(n=0, delta=0.17)
        for _ in range(25):
            spec = random_spec(rng)
            plain, plain_norm = emitted_state(spec)
            controlled, controlled_norm = controlled_emission(spec, knob)
            np.testing.assert_allclose(controlled.amplitudes, plain.amplitudes, atol=1e-12)
            assert controlled_norm == pytest.approx(plain_norm, abs=1e-12)

    def test_worked_bell_populations(self):
        # gamma=pi/4, single species at theta1=pi/2, n delta = 1/8.
        from bellsource import SourceSpec

        spec = SourceSpec.from_p1_theta1(math.pi / 4, 1.0, math.pi / 2)
        state, _ = controlled_emission(spec, ControlKnob(n=1, delta=0.125))
        c00, c01, c10, c11 = bell_coefficients(state)
        assert abs(c00) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert abs(c01) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(c10) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert abs(c11) ** 2 == pytest.approx(0.0, abs=1e-15)

    def test_bits_equal_superposed_public_species(self):
        knobs = edge_knobs()
        for spec in edge_specs():
            for knob in knobs:
                state, raw_norm = controlled_emission(spec, knob)
                species = (controlled_psi1(knob), controlled_psi2(spec.theta1, knob),
                           controlled_psi2(spec.theta2, knob))
                ref, ref_norm = _superpose(spec, *(s.amplitudes.tolist() for s in species))
                assert state.amplitudes.tobytes() == ref.amplitudes.tobytes()
                assert raw_norm.hex() == ref_norm.hex()

    def test_forward_error_against_the_50_digit_reference(self):
        """Every amplitude lies within 8 * 2**-52 / sqrt(N) of the 50-digit
        reference and the raw norm N within 8 * 2**-52, at 500 seeded points:
        the domain edges, random specs and knobs, knobs with |n delta| up to
        1e11, and specs with N down to about 1e-10.

        Normalizing divides by sqrt(N), so the rounding of the raw amplitudes
        grows as 1/sqrt(N). n delta is reduced mod 1/2 exactly before the
        control angle is formed, so the error does not grow with |n delta|.
        Over 4000 such points the largest errors were 3.0 and 4.9 (in these
        units, amplitude error times sqrt(N) and raw-norm error).
        """
        rng = np.random.default_rng(17)
        knobs = edge_knobs()
        points = [(spec, knobs[i % len(knobs)]) for i, spec in enumerate(edge_specs()[:64])]
        while len(points) < 500:
            spec, knob = random_spec(rng), random_knob(rng)
            if len(points) % 3 == 1:
                knob = ControlKnob(int(10 ** rng.uniform(0, 12)), float(rng.uniform(-0.5, 0.5)))
            elif len(points) % 3 == 2:  # near gamma = pi/2, p1 = -p2 = sqrt(1/2), theta1 = pi/4
                eps = 10 ** rng.uniform(-5, -1)
                spec = SourceSpec.from_p1_theta1(
                    math.pi / 2 - eps * rng.random(),
                    math.sqrt(0.5) + eps * rng.uniform(-1, 1),
                    math.pi / 4 + eps * rng.uniform(-1, 1),
                    True,
                )
            points.append((spec, knob))
        for spec, knob in points:
            amplitudes, raw_norm = controlled_emission_reference(
                spec.gamma, spec.p1, spec.p2, spec.theta1, spec.theta2, knob.ndelta
            )
            state, computed_norm = controlled_emission(spec, knob)
            bound = 8 * 2**-52 / math.sqrt(raw_norm)
            for exact, value in zip(amplitudes, state.amplitudes.tolist()):
                assert abs(exact - value) <= bound, (spec, knob)
            assert abs(raw_norm - computed_norm) <= 8 * 2**-52, (spec, knob)

    def test_raw_norm_knob_independent(self, rng):
        spec = random_spec(rng)
        _, reference = controlled_emission(spec, ControlKnob(n=0, delta=0.0))
        for _ in range(100):
            _, raw_norm = controlled_emission(spec, random_knob(rng))
            assert raw_norm == pytest.approx(reference, abs=1e-12)
