"""Steering solutions, the feasibility region, and parameter inference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellsource import (
    ControlError,
    ControlKnob,
    DegenerateSteeringError,
    InfeasibleError,
    SingularSystemError,
    SourceSpec,
    UnidentifiableSourceError,
    controlled_emission,
    feasible,
    infer_parameters,
    populations_exact,
    region_arrays,
    solve_ndelta,
    table_populations,
)
from bellsource.control import _MAX_RESOLUTION


def forward_populations(gamma, solution):
    """Closed-form populations at a steering solution (round-trip check helper)."""
    return table_populations(
        gamma,
        solution.required_C_squared,
        solution.required_S_squared,
        solution.ndelta_principal,
    )


class TestSolveNdelta:
    def test_worked_symmetric_point(self):
        sol = solve_ndelta(math.pi / 4, 0.3, 0.3)
        assert sol.s_squared == pytest.approx(0.5, abs=1e-12)
        assert sol.ndelta_principal == pytest.approx(0.125, abs=1e-12)
        assert sol.required_C_squared == pytest.approx(0.2, abs=1e-12)
        assert sol.required_S_squared == pytest.approx(0.8, abs=1e-12)

    def test_worked_gamma_half_pi(self):
        sol = solve_ndelta(math.pi / 2, 0.3, 0.45)
        assert sol.s_squared == pytest.approx(0.4, abs=1e-12)

    def test_no_mismatch_round_trip(self):
        # Forward populations at n*delta = 0 invert to s_squared = 0.
        gamma, c2 = 0.7, 0.3
        f00 = math.cos(gamma) ** 2
        f11 = c2 * math.sin(gamma) ** 2
        sol = solve_ndelta(gamma, f00, f11)
        assert sol.s_squared == pytest.approx(0.0, abs=1e-12)
        assert sol.required_C_squared == pytest.approx(c2, abs=1e-12)

    def test_moment_split_consistency(self):
        sol = solve_ndelta(1.1, 0.25, 0.35)
        assert sol.required_C_squared + sol.required_S_squared == pytest.approx(1.0, abs=1e-12)
        assert sol.ndelta_principal == pytest.approx(
            math.asin(math.sqrt(sol.s_squared)) / (2 * math.pi), abs=1e-15
        )

    def test_probability_bound(self):
        with pytest.raises(InfeasibleError, match="f00 \\+ f11"):
            solve_ndelta(math.pi / 4, 0.9, 0.9)

    def test_moment_bound(self):
        # required_S_squared = 0.8 / sin^2(0.01) >> 1.
        with pytest.raises(InfeasibleError, match="required_S_squared"):
            solve_ndelta(0.01, 0.1, 0.1)

    def test_s_squared_bound(self):
        # f00 = 0.8 exceeds the reachable range at gamma = pi/4, C^2 = 0.8.
        with pytest.raises(InfeasibleError, match="sin\\^2"):
            solve_ndelta(math.pi / 4, 0.8, 0.1)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateSteeringError):
            solve_ndelta(math.pi / 2, 0.0, 0.0)
        # f00 + f11 = 1 at gamma = pi/4 cancels the denominator exactly.
        with pytest.raises(DegenerateSteeringError):
            solve_ndelta(math.pi / 4, 0.2, 0.8)

    def test_boundary_point_is_stable(self):
        # f00 + f11 = 1 - sin^2(gamma) sits on the S^2 = 1 boundary; rounding
        # in sin^2(pi/4) must not flip it infeasible.
        sol = solve_ndelta(math.pi / 4, 0.25, 0.25)
        assert sol.required_S_squared == 1.0
        assert sol.required_C_squared == 0.0
        assert sol.s_squared == pytest.approx(0.5, abs=1e-12)

    def test_gamma_precondition(self):
        with pytest.raises(ValueError, match="gamma"):
            solve_ndelta(0.0, 0.3, 0.3)

    @pytest.mark.parametrize("entry", [solve_ndelta, feasible, region_arrays],
                             ids=lambda entry: entry.__name__)
    @pytest.mark.parametrize(
        "gamma",
        [np.float64(3.0), np.float32(-0.0), np.float64("nan"), np.int64(2)],
        ids=["float64", "float32", "nan", "int64"],
    )
    def test_a_numpy_gamma_is_refused_as_the_python_number_it_holds(self, entry, gamma):
        message = rf"^gamma must lie in \(0, pi/2\], got {gamma.item()!r}$"
        with pytest.raises(ValueError, match=message):
            entry(gamma, 11) if entry is region_arrays else entry(gamma, 0.3, 0.3)
        with pytest.raises(ValueError, match="gamma"):
            solve_ndelta(2.0, 0.3, 0.3)

    def test_negative_population_precondition(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_ndelta(math.pi / 4, -0.1, 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_is_bad_input(self, bad):
        for f00, f11 in ((bad, 0.2), (0.2, bad)):
            with pytest.raises(ValueError, match="finite") as info:
                solve_ndelta(0.7, f00, f11)
            assert not isinstance(info.value, ControlError)


class TestFeasible:
    def test_feasible_point_embeds_solution(self):
        point = feasible(math.pi / 4, 0.3, 0.3)
        assert point.feasible and point.solution is not None
        assert point.solution.s_squared == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_is_a_value(self):
        point = feasible(math.pi / 4, 0.9, 0.9)
        assert not point.feasible and point.solution is None

    def test_small_gamma_infeasible(self):
        assert not feasible(0.01, 0.1, 0.1).feasible

    def test_steering_only_redistributes(self, rng):
        # cos^2 g + sin^2 g * required_C_squared = f00 + f11 on feasible points.
        hits = 0
        for _ in range(500):
            gamma = rng.uniform(0.1, math.pi / 2)
            f00, f11 = rng.uniform(0, 1, size=2)
            point = feasible(gamma, f00, f11)
            if not point.feasible:
                continue
            hits += 1
            sol = point.solution
            lhs = math.cos(gamma) ** 2 + math.sin(gamma) ** 2 * sol.required_C_squared
            assert lhs == pytest.approx(f00 + f11, abs=1e-12)
        assert hits > 20

    def test_forward_reproduces_target(self, rng):
        for _ in range(500):
            gamma = rng.uniform(0.1, math.pi / 2)
            f00, f11 = rng.uniform(0, 1, size=2)
            point = feasible(gamma, f00, f11)
            if not point.feasible:
                continue
            pops = forward_populations(gamma, point.solution)
            assert pops.f00 == pytest.approx(f00, abs=1e-12)
            assert pops.f11 == pytest.approx(f11, abs=1e-12)


# cos^2 gamma is exactly 0.36 and 0.1 at these gamma, so on the grid row f00 =
# cos^2 gamma the steering numerator is +0.0; over a negative denominator the
# quotient is -0.0, and the scan prints -0.0 cells (29 and 81 at resolution 101).
SIGNED_ZERO_GAMMAS = [0.9272952180016123, 1.2490457723982544]


class TestRegionGrid:
    # 3.5 built a 4 x 4 grid whose axis ran to 1.2.
    @pytest.mark.parametrize("resolution", [3.5, 3.0, True])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match=f"resolution must be an integer, got {resolution!r}"):
            region_arrays(0.7, resolution)

    def test_resolution_precondition(self):
        with pytest.raises(ValueError, match="resolution must be >= 2, got 1"):
            region_arrays(math.pi / 4, 1)

    def test_arrays_layout_and_preconditions(self):
        scan = region_arrays(math.pi / 4, 5)
        assert scan.axis.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert scan.feasible.shape == scan.s_squared.shape == (5, 5)
        for values in (scan.s_squared, scan.ndelta):
            assert np.isnan(values[~scan.feasible]).all()
            assert not np.isnan(values[scan.feasible]).any()
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, pi/2\], got 3.0"):
            region_arrays(3.0, 11)

    def test_row_major_layout(self):
        # Entry [i, j] is (f00, f11) = (axis[i], axis[j]); flattened, f00 varies
        # slowest, the order of the region command's rows.
        scan = region_arrays(math.pi / 4, 3)
        axis = scan.axis.tolist()
        assert axis == [0.0, 0.5, 1.0]
        points = [feasible(math.pi / 4, f00, f11) for f00 in axis for f11 in axis]
        assert scan.feasible.ravel().tolist() == [p.feasible for p in points]
        expected = [p.solution.s_squared if p.feasible else math.nan for p in points]
        np.testing.assert_array_equal(scan.s_squared.ravel(), expected)
        assert scan.s_squared[0, 1] == 1.0  # not symmetric: about 2e-16 at [1, 0]

    def test_quarter_pi_slice(self):
        scan = region_arrays(math.pi / 4, 101)
        assert scan.feasible.any()
        (i,) = np.flatnonzero(np.abs(scan.axis - 0.30) < 1e-12)
        assert scan.feasible[i, i]
        assert scan.ndelta[i, i] == pytest.approx(0.125, abs=1e-12)

    def test_probability_bound_propagates(self):
        scan = region_arrays(math.pi / 4, 21)
        over = scan.axis[:, None] + scan.axis[None, :] > 1.0
        assert over.any() and not scan.feasible[over].any()

    def test_grid_matches_per_point_calls(self):
        scan = region_arrays(1.0, 11)
        values = [i / 10 for i in range(11)]
        direct = [feasible(1.0, f00, f11) for f00 in values for f11 in values]
        assert scan.feasible.ravel().tolist() == [p.feasible for p in direct]
        expected = [p.solution.ndelta_principal if p.feasible else math.nan for p in direct]
        np.testing.assert_array_equal(scan.ndelta.ravel(), expected)

    @pytest.mark.parametrize("resolution", [2, 3, 51, 101])
    @pytest.mark.parametrize(
        "gamma", [1e-3, 0.3, math.pi / 4, 1.2, math.pi / 2, *SIGNED_ZERO_GAMMAS]
    )
    def test_arrays_bitwise_equal_per_point_calls(self, gamma, resolution):
        scan = region_arrays(gamma, resolution)
        values = [i / (resolution - 1) for i in range(resolution)]
        assert scan.axis.tolist() == values
        rows = zip(scan.feasible.tolist(), scan.s_squared.tolist(), scan.ndelta.tolist())
        for f00, (oks, s_row, nd_row) in zip(values, rows):
            for f11, ok, s_squared, ndelta in zip(values, oks, s_row, nd_row):
                point = feasible(gamma, f00, f11)
                assert ok == point.feasible
                if not ok:
                    assert math.isnan(s_squared) and math.isnan(ndelta)
                    continue
                # repr tells -0.0 from 0.0, which == does not.
                expected = (point.solution.s_squared, point.solution.ndelta_principal)
                assert (s_squared, ndelta) == expected
                assert repr((s_squared, ndelta)) == repr(expected)

    def test_resolution_bound_checked_before_allocating(self):
        # One past the bound; the check runs before any grid array exists.
        message = rf"resolution must be at most {_MAX_RESOLUTION}, got {_MAX_RESOLUTION + 1}"
        with pytest.raises(ValueError, match=message):
            region_arrays(0.5, _MAX_RESOLUTION + 1)

    def test_underflowing_sin_gamma_is_infeasible_not_a_crash(self):
        # sin(1e-200)**2 underflows to 0; the required S^2 is then undetermined.
        with pytest.raises(DegenerateSteeringError, match="underflows"):
            solve_ndelta(1e-200, 0.3, 0.3)
        scan = region_arrays(1e-200, 3)
        assert not scan.feasible.any()
        assert np.isnan(scan.s_squared).all() and np.isnan(scan.ndelta).all()
        values = scan.axis.tolist()
        assert not any(feasible(1e-200, f00, f11).feasible for f00 in values for f11 in values)


class TestInferParameters:
    def test_worked_point(self):
        est = infer_parameters(0.4, 0.4, 0.2, 1 / 12)
        assert est.sin2_gamma == pytest.approx(0.5, abs=1e-12)
        assert est.C_squared == pytest.approx(0.2, abs=1e-12)
        assert est.S_squared == pytest.approx(0.8, abs=1e-12)
        assert est.residual < 1e-12

    def test_residual_is_the_sum_defect_over_sin2_gamma(self):
        # The frequencies sum to 1 + 3e-8, so the estimate's C^2 + S^2 is 1 + 3e-8 / sin^2 gamma.
        f00, f01, f11 = 0.4, 0.4, 0.2 + 3e-8
        est = infer_parameters(f00, f01, f11, 1 / 12)
        assert est.residual == pytest.approx(abs(f00 + f01 + f11 - 1.0) / est.sin2_gamma, rel=1e-7)

    def test_no_mismatch_decouples(self, rng):
        for _ in range(25):
            gamma = rng.uniform(0.2, math.pi / 2 - 0.05)
            tau = rng.uniform(0.0, math.pi / 2)
            c2, s2 = math.cos(tau) ** 2, math.sin(tau) ** 2
            pops = table_populations(gamma, c2, s2, 0.0)
            est = infer_parameters(pops.f00, pops.f01, pops.f11, 0.0)
            assert est.sin2_gamma == pytest.approx(math.sin(gamma) ** 2, abs=1e-12)
            assert est.C_squared == pytest.approx(c2, abs=1e-12)
            assert est.S_squared == pytest.approx(s2, abs=1e-12)

    def test_singular_at_eighth(self):
        with pytest.raises(SingularSystemError):
            infer_parameters(0.4, 0.4, 0.2, 0.125)

    def test_frequency_sum_precondition(self):
        with pytest.raises(ValueError, match="normalized"):
            infer_parameters(0.5, 0.5, 0.2, 0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_is_bad_input(self, bad):
        for args in ((bad, 0.4, 0.2, 0.05), (0.4, 0.4, bad, 0.05), (0.4, 0.4, 0.2, bad)):
            with pytest.raises(ValueError, match="finite") as info:
                infer_parameters(*args)
            assert not isinstance(info.value, ControlError)

    def test_negative_frequency_is_bad_input(self):
        # Checked before the sum, so (0.1, -0.5, 1.0) names the sign, not the sum.
        for args in ((0.1, -0.1, 1.0, 0.0), (-0.2, 0.6, 0.6, 0.0), (0.6, 0.6, -0.2, 0.0),
                     (0.1, -0.5, 1.0, 0.0)):
            message = "frequencies must be non-negative, got (%r, %r, %r)" % args[:3]
            with pytest.raises(ValueError) as info:
                infer_parameters(*args)
            assert str(info.value) == message
            assert not isinstance(info.value, ControlError)
        # -0.0 is not negative.
        assert infer_parameters(0.4, -0.0, 0.6, 0.0).S_squared == 0.0

    def test_ndelta_overflow_is_bad_input(self):
        # ndelta is finite, but the determinant's angle 4 pi ndelta is not.
        with pytest.raises(ValueError, match=r"ndelta=1e\+308 is too large") as info:
            infer_parameters(0.5, 0.2, 0.3, 1e308)
        assert not isinstance(info.value, ControlError)

    def test_unidentifiable_weight_out_of_range(self):
        with pytest.raises(UnidentifiableSourceError, match="outside"):
            infer_parameters(0.95, 0.0, 0.05, 0.2)

    def test_unidentifiable_pure_first_species(self):
        with pytest.raises(UnidentifiableSourceError, match="unidentifiable"):
            infer_parameters(1.0, 0.0, 0.0, 0.0)

    def test_round_trip_from_exact_populations(self, rng):
        for _ in range(100):
            gamma = rng.uniform(0.2, math.pi / 2)
            theta1 = rng.uniform(0.0, math.pi / 2)
            spec = SourceSpec.from_p1_theta1(gamma, 1.0, theta1)
            ndelta = rng.uniform(0.0, 0.25)
            if abs(math.cos(4 * math.pi * ndelta)) < 0.1:
                continue
            state, _ = controlled_emission(spec, ControlKnob(n=1, delta=ndelta))
            pops = populations_exact(state).normalized
            est = infer_parameters(pops.f00, pops.f01, pops.f11, ndelta)
            assert est.sin2_gamma == pytest.approx(math.sin(gamma) ** 2, abs=1e-9)
            assert est.C_squared == pytest.approx(math.cos(theta1) ** 2, abs=1e-9)
            assert est.S_squared == pytest.approx(math.sin(theta1) ** 2, abs=1e-9)
            assert est.residual < 1e-9


class TestInferNdelta:
    """The inverse problem's answer, ``solve_ndelta(...).ndelta_principal``."""

    def test_worked_point(self):
        pops = table_populations(math.pi / 4, 0.2, 0.8, 0.125)
        assert (pops.f00, pops.f11) == pytest.approx((0.3, 0.3), abs=1e-12)
        recovered = solve_ndelta(math.pi / 4, pops.f00, pops.f11).ndelta_principal
        assert recovered == pytest.approx(0.125, abs=1e-12)

    def test_no_mismatch_family(self):
        # Rounding in cos^2(pi/4) leaves a ~1e-16 numerator, which the square
        # root inflates to ~1e-8 in the angle; the sin^2 view stays at 1e-9.
        for c2 in (0.1, 0.5, 0.9):
            recovered = solve_ndelta(math.pi / 4, 0.5, c2 * 0.5).ndelta_principal
            assert recovered == pytest.approx(0.0, abs=1e-7)
            assert math.sin(2 * math.pi * recovered) ** 2 < 1e-9

    def test_round_trip_200_random(self, rng):
        done = 0
        while done < 200:
            gamma = rng.uniform(0.1, math.pi / 2)
            tau = rng.uniform(0.0, math.pi / 2)
            ndelta = rng.uniform(0.0, 0.25)
            pops = table_populations(gamma, math.cos(tau) ** 2, math.sin(tau) ** 2, ndelta)
            try:
                recovered = solve_ndelta(gamma, pops.f00, pops.f11).ndelta_principal
            except (InfeasibleError, DegenerateSteeringError):
                continue
            lhs = math.sin(2 * math.pi * recovered) ** 2
            rhs = math.sin(2 * math.pi * ndelta) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-9)
            done += 1
