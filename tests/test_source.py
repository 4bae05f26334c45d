"""Source states: the two species from their component generators, weighted emission."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellsource import (
    ControlKnob,
    DegenerateSourceError,
    SourceSpec,
    basis_state,
    bell_coefficients,
    bell_state,
    controlled_psi2,
    emitted_state,
    fidelity_up_to_phase,
    psi1,
    psi2,
)
from bellsource.source import _superpose
from conftest import edge_specs


class TestSourceSpec:
    def test_valid_spec(self):
        spec = SourceSpec(gamma=0.3, p1=0.6, p2=0.8, theta1=0.2, theta2=math.pi / 2 - 0.2)
        assert spec.alpha1 == pytest.approx(math.cos(0.3))
        assert spec.alpha2 == pytest.approx(math.sin(0.3))

    def test_weight_invariant(self):
        with pytest.raises(ValueError, match=r"p1\^2 \+ p2\^2 = 1"):
            SourceSpec(gamma=0.3, p1=0.9, p2=0.9, theta1=0.2, theta2=math.pi / 2 - 0.2)

    def test_angle_sum_invariant(self):
        with pytest.raises(ValueError, match=r"theta1 \+ theta2 = pi/2"):
            SourceSpec(gamma=0.3, p1=1.0, p2=0.0, theta1=0.2, theta2=0.3)

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            SourceSpec(gamma=2.0, p1=1.0, p2=0.0, theta1=0.2, theta2=math.pi / 2 - 0.2)

    def test_from_p1_theta1(self):
        spec = SourceSpec.from_p1_theta1(0.4, 0.6, 0.1)
        assert spec.p2 == pytest.approx(0.8)
        assert spec.theta2 == pytest.approx(math.pi / 2 - 0.1)
        negative = SourceSpec.from_p1_theta1(0.4, 0.6, 0.1, p2_negative=True)
        assert negative.p2 == pytest.approx(-0.8)

    def test_from_p1_out_of_range(self):
        with pytest.raises(ValueError):
            SourceSpec.from_p1_theta1(0.4, 1.2, 0.1)

    def test_from_p1_theta1_rejects_nan_p1(self):
        with pytest.raises(ValueError, match=r"p1\^2 \+ p2\^2 = 1"):
            SourceSpec.from_p1_theta1(0.3, math.nan, 0.2)

    def test_from_p1_theta1_rejects_nan_theta1(self):
        with pytest.raises(ValueError, match=r"theta1 \+ theta2 = pi/2"):
            SourceSpec.from_p1_theta1(0.3, 0.6, math.nan)

    @pytest.mark.parametrize("p1, p2", [(1e200, 0.0), (0.0, -1e200), (1.5e154, 1.5e154)])
    def test_weight_whose_square_overflows_is_rejected(self, p1, p2):
        # Float ** raises OverflowError here; the spec reports the weight as inf.
        with pytest.raises(ValueError, match=r"p1\^2 \+ p2\^2 = 1 violated: got inf"):
            SourceSpec(gamma=0.5, p1=p1, p2=p2, theta1=0.0, theta2=math.pi / 2)

    @pytest.mark.parametrize("field", ["p1", "p2", "theta1", "theta2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameter(self, field, value):
        params = dict(gamma=0.3, p1=0.6, p2=0.8, theta1=0.2, theta2=math.pi / 2 - 0.2)
        params[field] = value
        with pytest.raises(ValueError, match="violated"):
            SourceSpec(**params)


class TestSpecies:
    @pytest.mark.parametrize("angle", [0.0, math.pi / 2, None], ids=["zero", "half_pi", "random"])
    def test_species_are_built_from_the_four_component_states(self, rng, angle):
        # The generators at angle theta, with c = cos(theta/2), s = sin(theta/2):
        # phi = (c, s), eta = (s, -c), varphi = (s, c), mu = (c, -s).
        # psi1 = (phi phi + eta eta)/sqrt2 and psi2 = (varphi varphi - mu mu)/sqrt2.
        for theta in [angle] if angle is not None else rng.uniform(-math.pi, math.pi, size=25):
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            phi, eta, varphi, mu = map(np.array, ([c, s], [s, -c], [s, c], [c, -s]))
            first = (np.kron(phi, phi) + np.kron(eta, eta)) / math.sqrt(2)
            second = (np.kron(varphi, varphi) - np.kron(mu, mu)) / math.sqrt(2)
            np.testing.assert_allclose(psi1(theta).amplitudes, first, atol=1e-15)
            np.testing.assert_allclose(psi2(theta).amplitudes, second, atol=1e-15)

    def test_psi1_is_b00_at_any_theta(self):
        assert fidelity_up_to_phase(psi1(0.3), bell_state((0, 0))) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(psi1(0.0).amplitudes, bell_state((0, 0)).amplitudes, atol=1e-15)

    def test_psi1_theta_independent(self, rng):
        reference = psi1(0.1).amplitudes
        np.testing.assert_allclose(psi1(1.2345).amplitudes, reference, atol=1e-12)
        for _ in range(50):
            np.testing.assert_allclose(psi1(rng.uniform(-5, 5)).amplitudes, reference, atol=1e-12)

    def test_psi1_default_is_shared_instance(self):
        assert psi1() is psi1()
        assert psi1(0.0) is psi1()

    def test_psi1_is_shared_b00_at_every_angle(self):
        for theta in (0.0, -0.0, 0.3, -5.0, 1e300):
            assert psi1(theta) is bell_state((0, 0))

    # A numpy scalar is shown as the Python number it holds, not as np.float64(nan).
    @pytest.mark.parametrize(
        "theta",
        [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf"), np.float32("nan"),
         np.float32("-inf")],
        ids=["nan", "inf", "-inf", "float64-nan", "float64-inf", "float32-nan", "float32--inf"],
    )
    @pytest.mark.parametrize(
        "builder",
        [psi1, psi2, lambda theta: controlled_psi2(theta, ControlKnob(1, 0.1))],
        ids=["psi1", "psi2", "controlled_psi2"],
    )
    def test_species_builders_reject_non_finite_angle(self, builder, theta):
        with pytest.raises(ValueError, match=f"^theta must be finite, got {float(theta)!r}$"):
            builder(theta)

    # Raised OverflowError: int too large to convert to float.
    @pytest.mark.parametrize(
        "builder",
        [psi1, psi2, lambda theta: controlled_psi2(theta, ControlKnob(1, 0.1))],
        ids=["psi1", "psi2", "controlled_psi2"],
    )
    def test_species_builders_reject_an_int_past_the_float_range(self, builder):
        for theta in (10**400, -(10**400)):
            with pytest.raises(ValueError, match=f"^theta must be finite, got {theta!r}$"):
                builder(theta)
        assert builder(10**300) is not None  # a large int inside the float range is an angle

    def test_psi2_endpoints(self):
        np.testing.assert_allclose(
            psi2(math.pi / 2).amplitudes, bell_state((0, 1)).amplitudes, atol=1e-15
        )
        np.testing.assert_allclose(psi2(0.0).amplitudes, -bell_state((1, 0)).amplitudes, atol=1e-15)

    def test_psi2_bell_coefficients(self, rng):
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi)
            coeffs = bell_coefficients(psi2(theta))
            np.testing.assert_allclose(
                coeffs, [0.0, math.sin(theta), -math.cos(theta), 0.0], atol=1e-12
            )

    def test_species_orthogonal(self, rng):
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi)
            assert abs(psi1().inner(psi2(theta))) < 1e-12

    def test_psi2_complementary_overlap(self, rng):
        # <psi2(t1)|psi2(t2)> = cos(t1 - t2) = sin(2 t1) when t1 + t2 = pi/2.
        for _ in range(25):
            theta1 = rng.uniform(-math.pi, math.pi)
            overlap = psi2(theta1).inner(psi2(math.pi / 2 - theta1))
            assert overlap.real == pytest.approx(math.sin(2 * theta1), abs=1e-12)
            assert abs(overlap.imag) < 1e-15


class TestEmittedState:
    def test_gamma_zero_is_pure_b00(self):
        spec = SourceSpec.from_p1_theta1(0.0, 0.7, 0.4)
        state, raw_norm = emitted_state(spec)
        assert raw_norm == pytest.approx(1.0, abs=1e-12)
        assert fidelity_up_to_phase(state, bell_state((0, 0))) == pytest.approx(1.0, abs=1e-12)

    def test_single_species_is_b01(self):
        spec = SourceSpec(gamma=math.pi / 2, p1=1.0, p2=0.0, theta1=math.pi / 2, theta2=0.0)
        state, raw_norm = emitted_state(spec)
        assert raw_norm == pytest.approx(1.0, abs=1e-12)
        assert fidelity_up_to_phase(state, bell_state((0, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_worked_raw_norm(self):
        # Overlap formula: 1 + sin^2(pi/4) * 2 * (1/2) * sin(pi/2) = 1.5.
        spec = SourceSpec.from_p1_theta1(math.pi / 4, 1 / math.sqrt(2), math.pi / 4)
        _, raw_norm = emitted_state(spec)
        assert raw_norm == pytest.approx(1.5, abs=1e-12)

    def test_bits_equal_superposed_public_species(self):
        for spec in edge_specs():
            state, raw_norm = emitted_state(spec)
            species = (psi1(), psi2(spec.theta1), psi2(spec.theta2))
            ref, ref_norm = _superpose(spec, *(s.amplitudes.tolist() for s in species))
            assert state.amplitudes.tobytes() == ref.amplitudes.tobytes()
            assert raw_norm.hex() == ref_norm.hex()

    def test_raw_norm_formula_1000_random(self):
        rng = np.random.default_rng(99)
        from conftest import random_spec

        for _ in range(1000):
            spec = random_spec(rng)
            state, raw_norm = emitted_state(spec)
            expected = 1.0 + math.sin(spec.gamma) ** 2 * 2.0 * spec.p1 * spec.p2 * math.sin(
                2.0 * spec.theta1
            )
            assert raw_norm == pytest.approx(expected, abs=1e-12)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_no_absent_species_component(self, rng):
        from conftest import random_spec

        for _ in range(200):
            state, _ = emitted_state(random_spec(rng))
            assert abs(bell_coefficients(state)[3]) < 1e-12

    def test_degenerate_cancellation(self):
        # Equal and opposite weights on a self-overlapping species pair.
        spec = SourceSpec(
            gamma=math.pi / 2,
            p1=1 / math.sqrt(2),
            p2=-1 / math.sqrt(2),
            theta1=math.pi / 4,
            theta2=math.pi / 4,
        )
        with pytest.raises(DegenerateSourceError):
            emitted_state(spec)
