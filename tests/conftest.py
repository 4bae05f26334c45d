from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bellsource import ControlKnob, PureState, SourceSpec
from bellsource.statevec import _squared_norm


def random_state(rng: np.random.Generator, num_qubits: int) -> PureState:
    dim = 2**num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / math.sqrt(_squared_norm(amps.tolist())))


def random_spec(rng: np.random.Generator) -> SourceSpec:
    weight_angle = rng.uniform(0.0, 2.0 * math.pi)
    return SourceSpec(
        gamma=rng.uniform(0.0, math.pi / 2),
        p1=math.cos(weight_angle),
        p2=math.sin(weight_angle),
        theta1=(theta1 := rng.uniform(-math.pi, math.pi)),
        theta2=math.pi / 2 - theta1,
    )


def random_knob(rng: np.random.Generator) -> ControlKnob:
    return ControlKnob(n=int(rng.integers(0, 12)), delta=rng.uniform(-0.5, 0.5))


class FixedDraw(np.random.Generator):
    """Generator whose ``random()`` returns a chosen draw: a Generator to the kind check."""

    def __init__(self, u: float) -> None:
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def edge_specs() -> list[SourceSpec]:
    """Seeded specs plus the domain edges: gamma at pi/2 and 1e-3, p1 at +-1
    and 0, theta1 at 0 and +-pi, and both signs of p2."""
    specs = [
        SourceSpec.from_p1_theta1(gamma, p1, theta1, p2_negative)
        for gamma in (math.pi / 2, 1e-3)
        for p1 in (1.0, -1.0, 0.0, 0.6)
        for theta1 in (0.0, math.pi, -math.pi, 0.7)
        for p2_negative in (False, True)
    ]
    rng = np.random.default_rng(5)
    return specs + [random_spec(rng) for _ in range(100)]


def edge_knobs() -> list[ControlKnob]:
    """Seeded knobs plus n*delta = 0 and n*delta at and next to 1/8."""
    knobs = [ControlKnob(0, 0.0)] + [
        ControlKnob(1, 0.125 + step) for step in (-1e-12, 0.0, 1e-12)
    ]
    rng = np.random.default_rng(6)
    return knobs + [random_knob(rng) for _ in range(20)]
