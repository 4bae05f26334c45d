"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a `criterion NN ...: PASS|FAIL` line (visible with
``pytest -s`` or in captured output). Random sweeps use fixed seeds so the
suite is exactly reproducible.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bellsource import (
    ControlKnob,
    SingularSystemError,
    SourceSpec,
    bell_state,
    circuit_outcome_distribution,
    controlled_emission,
    controlled_psi1,
    controlled_psi2,
    evolve,
    fidelity_up_to_phase,
    infer_parameters,
    populations_analytic,
    populations_exact,
    psi2,
    rational_approx,
    solve_ndelta,
    table_populations,
)
from bellsource.characterize import outcome_to_label
from bellsource.cli import main as cli_main
from bellsource.distortion import FieldParams
from conftest import random_knob, random_spec, random_state
from oracles import (binomial_4sigma, bruteforce_error_by_denominator, expm_taylor,
                     pauli_hamiltonian)


class _Criterion:
    """Context manager printing the pass/fail line for one criterion."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} ({self.description}): {verdict}")
        return False


def _sweep_1000():
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        yield random_spec(rng), random_knob(rng)


def test_criterion_01_closed_form_equivalence():
    with _Criterion(1, "closed-form vs Born-rule populations, 1000 sweeps, 1e-12"):
        start = time.perf_counter()
        for spec, knob in _sweep_1000():
            state, _ = controlled_emission(spec, knob)
            exact = populations_exact(state).normalized.as_tuple()
            analytic = populations_analytic(spec, knob).normalized.as_tuple()
            assert max(abs(e - a) for e, a in zip(exact, analytic)) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.2f}s (budget 5s)"


def test_criterion_02_circuit_equivalence():
    with _Criterion(2, "ancilla circuit vs projective Bell measurement, 50 states"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        for _ in range(50):
            state = random_state(rng, 2)
            projective = populations_exact(state).normalized
            expected = {
                (0, 0): projective.f00,
                (0, 1): projective.f01,
                (1, 0): projective.f10,
                (1, 1): projective.f11,
            }
            for outcome, (prob, post) in circuit_outcome_distribution(state).items():
                assert abs(prob - expected[outcome]) < 1e-12
                if post is not None:
                    target = bell_state(outcome_to_label(outcome))
                    assert abs(fidelity_up_to_phase(post, target) - 1.0) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"circuit sweep took {elapsed:.2f}s (budget 2s)"


def test_criterion_03_absent_species():
    with _Criterion(3, "f10 identically zero across the full sweep"):
        for spec, knob in _sweep_1000():
            state, _ = controlled_emission(spec, knob)
            assert populations_analytic(spec, knob).raw.f10 <= 1e-12
            assert populations_exact(state).normalized.f10 <= 1e-12


def test_criterion_04_knob_invariant_outputs():
    with _Criterion(4, "post-measurement states and f00+f11 are knob-invariant"):
        rng = np.random.default_rng(404)
        spec = SourceSpec.from_p1_theta1(1.1, 0.8, 0.5)
        reference_sum = None
        for _ in range(100):
            knob = random_knob(rng)
            state, _ = controlled_emission(spec, knob)
            for outcome, (prob, post) in circuit_outcome_distribution(state).items():
                if post is None:
                    continue
                target = bell_state(outcome_to_label(outcome))
                assert abs(fidelity_up_to_phase(post, target) - 1.0) < 1e-12
            raw = populations_analytic(spec, knob).raw
            if reference_sum is None:
                reference_sum = raw.f00 + raw.f11
            assert abs(raw.f00 + raw.f11 - reference_sum) < 1e-12


def test_criterion_05_steering_round_trip():
    with _Criterion(5, "forward populations then steering solve, 200 draws, 1e-9"):
        rng = np.random.default_rng(505)
        done = 0
        while done < 200:
            gamma = rng.uniform(0.1, math.pi / 2)
            tau = rng.uniform(0.0, math.pi / 2)
            ndelta = rng.uniform(0.0, 0.25)
            if abs(math.cos(4.0 * math.pi * ndelta)) <= 0.05:
                continue
            pops = table_populations(gamma, math.cos(tau) ** 2, math.sin(tau) ** 2, ndelta)
            solution = solve_ndelta(gamma, pops.f00, pops.f11)
            assert abs(solution.s_squared - math.sin(2.0 * math.pi * ndelta) ** 2) < 1e-9
            done += 1
        worked = solve_ndelta(math.pi / 4, 0.3, 0.3)
        assert abs(worked.ndelta_principal - 0.125) < 1e-12


def test_criterion_06_inference_round_trip():
    with _Criterion(6, "parameter inference recovers (sin^2 g, C^2, S^2), 200 draws, 1e-9"):
        rng = np.random.default_rng(606)
        done = 0
        while done < 200:
            gamma = rng.uniform(0.15, math.pi / 2)
            theta1 = rng.uniform(0.0, math.pi / 2)
            ndelta = rng.uniform(0.0, 0.25)
            if abs(math.cos(4.0 * math.pi * ndelta)) <= 0.1:
                continue
            # Single-species spec keeps the moment identity C^2 + S^2 = 1 exact.
            spec = SourceSpec.from_p1_theta1(gamma, 1.0, theta1)
            state, _ = controlled_emission(spec, ControlKnob(n=1, delta=ndelta))
            pops = populations_exact(state).normalized
            estimate = infer_parameters(pops.f00, pops.f01, pops.f11, ndelta)
            assert abs(estimate.sin2_gamma - math.sin(gamma) ** 2) < 1e-9
            assert abs(estimate.C_squared - math.cos(theta1) ** 2) < 1e-9
            assert abs(estimate.S_squared - math.sin(theta1) ** 2) < 1e-9
            assert estimate.residual < 1e-9
            done += 1
        with pytest.raises(SingularSystemError):
            infer_parameters(0.4, 0.4, 0.2, 0.125)


def test_criterion_07_evolution_correctness():
    with _Criterion(7, "exact evolution vs Taylor oracle (1e-10), norm+semigroup (1e-12)"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            fp = FieldParams(*rng.uniform(-2.0, 2.0, size=3))
            h = pauli_hamiltonian(fp.J, fp.B1, fp.B2)
            h_norm = float(np.linalg.norm(h, 2))
            t = rng.uniform(0.0, 10.0 / h_norm) if h_norm > 1e-9 else rng.uniform(0.0, 1.0)
            state = random_state(rng, 2)
            oracle = expm_taylor(-1j * h * t) @ state.amplitudes
            evolved = evolve(state, fp, t)
            assert np.max(np.abs(evolved.amplitudes - oracle)) < 1e-10
            assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-12
            t1, t2 = 0.4 * t, 0.6 * t
            split = evolve(evolve(state, fp, t1), fp, t2)
            assert np.max(np.abs(split.amplitudes - evolved.amplitudes)) < 1e-12


def test_criterion_08_controlled_state_structure():
    with _Criterion(8, "controlled species: norms, orthogonality, limits"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            knob = random_knob(rng)
            theta = rng.uniform(-math.pi, math.pi)
            first = controlled_psi1(knob)
            second = controlled_psi2(theta, knob)
            assert abs(np.linalg.norm(first.amplitudes) - 1.0) < 1e-12
            assert abs(np.linalg.norm(second.amplitudes) - 1.0) < 1e-12
            assert abs(first.inner(second)) < 1e-12
        zero = ControlKnob(n=0, delta=0.3)
        b00 = bell_state((0, 0)).amplitudes
        assert np.max(np.abs(controlled_psi1(zero).amplitudes - b00)) < 1e-12
        for theta in (-1.0, 0.2, 1.4):
            gap = controlled_psi2(theta, zero).amplitudes - psi2(theta).amplitudes
            assert np.max(np.abs(gap)) < 1e-12
        quarter = ControlKnob(n=1, delta=0.25)
        assert abs(fidelity_up_to_phase(controlled_psi1(quarter), bell_state((1, 0))) - 1.0) < 1e-12


def test_criterion_09_rational_best_approximation():
    with _Criterion(9, "best rational approximation never beaten, 1000-point grid"):
        start = time.perf_counter()
        max_den = 50
        for k in range(1000):
            j = 0.5 * k / 999
            errs = bruteforce_error_by_denominator(j, max_den)
            best_so_far = math.inf
            for bound in range(1, max_den + 1):
                best_so_far = min(best_so_far, errs[bound])
                num, den, _ = rational_approx(j, bound)
                assert den <= bound
                assert abs(j - num / den) <= best_so_far + 1e-15
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"grid took {elapsed:.2f}s (budget 10s)"


def test_criterion_10_sampling_statistics(tmp_path):
    with _Criterion(10, "1e5-shot histograms within 4 sigma, byte-identical reports"):
        rng = np.random.default_rng(1010)
        runner = CliRunner()
        shots = 100_000
        for i in range(10):
            gamma = rng.uniform(0.2, math.pi / 2)
            theta1 = rng.uniform(0.0, math.pi / 2)
            p1 = rng.uniform(0.3, 1.0)
            config = {
                "gamma": gamma,
                "p1": p1,
                "theta1": theta1,
                "knob": {"n": int(rng.integers(0, 6)), "delta": float(rng.uniform(-0.5, 0.5))},
            }
            path = tmp_path / f"config_{i}.json"
            path.write_text(json.dumps(config))
            args = ["sample", str(path), "--shots", str(shots), "--seed", str(1000 + i)]
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0
            report = json.loads(result.output)
            histogram = report["histogram"]
            assert histogram["10"] == 0
            for key, freq in report["populations_exact"].items():
                count = histogram[key.removeprefix("f")]
                assert binomial_4sigma(count, shots, freq)
            assert runner.invoke(cli_main, args).output == result.output


def test_criterion_11_region_slice():
    with _Criterion(11, "feasibility slice at gamma=pi/4 contains (0.30, 0.30)"):
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["region", "--gamma", str(math.pi / 4), "--resolution", "101"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 101 * 101 + 1
        feasible_rows = []
        worked_row = None
        for line in lines[1:]:
            f00_str, f11_str, flag, _, _ = line.split(",")
            f00, f11 = float(f00_str), float(f11_str)
            if flag == "1":
                feasible_rows.append((f00, f11))
                assert f00 + f11 <= 1.0 + 1e-12
            if abs(f00 - 0.30) < 1e-12 and abs(f11 - 0.30) < 1e-12:
                worked_row = line
        assert feasible_rows
        assert worked_row is not None and worked_row.split(",")[2] == "1"
