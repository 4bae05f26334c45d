"""Emission-source states: two entangled species and their weighted superposition.

The source emits a combination of a fixed maximally entangled pair and a
one-parameter family of entangled pairs; the mixing weights live on a unit
circle and the two family angles are complementary. The combined raw
superposition is generally *not* normalized (the two family members at
complementary angles overlap), so the builder returns both the physical
normalized state and the raw squared norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import PureState

__all__ = [
    "ComponentStates",
    "DegenerateSourceError",
    "SourceSpec",
    "component_states",
    "psi1",
    "psi2",
    "superpose_species",
    "emitted_state",
]

_SPEC_TOL = 1e-9
_DEGENERATE_NORM = 1e-12


class DegenerateSourceError(ValueError):
    """The requested superposition cancels to (numerically) zero norm."""


@dataclass(frozen=True)
class SourceSpec:
    """Emission parameters: mixing angle gamma, species weights, species angles.

    Invariants checked on construction: p1^2 + p2^2 = 1 and
    theta1 + theta2 = pi/2 (both within 1e-9), gamma in [0, pi/2]; a NaN or
    infinite parameter fails them.
    The state amplitudes are alpha1 = cos(gamma), alpha2 = sin(gamma).
    """

    gamma: float
    p1: float
    p2: float
    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        weight = self.p1**2 + self.p2**2
        if not abs(weight - 1.0) <= _SPEC_TOL:
            raise ValueError(f"p1^2 + p2^2 = 1 violated: got {weight!r}")
        angle_sum = self.theta1 + self.theta2
        if not abs(angle_sum - math.pi / 2) <= _SPEC_TOL:
            raise ValueError(f"theta1 + theta2 = pi/2 violated: got {angle_sum!r}")
        if not 0.0 <= self.gamma <= math.pi / 2:
            raise ValueError(f"gamma in [0, pi/2] violated: got {self.gamma!r}")

    @property
    def alpha1(self) -> float:
        return math.cos(self.gamma)

    @property
    def alpha2(self) -> float:
        return math.sin(self.gamma)

    @classmethod
    def from_p1_theta1(
        cls, gamma: float, p1: float, theta1: float, p2_negative: bool = False
    ) -> "SourceSpec":
        """Complete a spec from (gamma, p1, theta1); p2 and theta2 are derived."""
        if not abs(p1) <= 1.0:
            raise ValueError(f"p1^2 + p2^2 = 1 violated: |p1| = {abs(p1)!r} is not at most 1")
        p2 = math.sqrt(max(0.0, 1.0 - p1**2))
        if p2_negative:
            p2 = -p2
        return cls(gamma=gamma, p1=p1, p2=p2, theta1=theta1, theta2=math.pi / 2 - theta1)


@dataclass(frozen=True)
class ComponentStates:
    """The four single-qubit states generating both species at a given angle."""

    phi: PureState
    eta: PureState
    varphi: PureState
    mu: PureState


def _component_amplitudes(theta: float) -> tuple[np.ndarray, ...]:
    """Amplitudes of phi, eta, varphi and mu at angle theta."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return tuple(np.array(v, dtype=complex) for v in ([c, s], [s, -c], [s, c], [c, -s]))


def component_states(theta: float) -> ComponentStates:
    """Single-qubit generators at angle theta; phi _|_ eta and varphi _|_ mu."""
    return ComponentStates(*(PureState(amps) for amps in _component_amplitudes(theta)))


def _square(v: np.ndarray) -> np.ndarray:
    """Amplitudes of v (x) v, bit for bit as ``statevec.tensor`` forms them.

    Broadcasting ``v[:, None] * v`` runs the same ``multiply`` ufunc that
    ``np.outer`` calls, without its Python overhead.
    """
    return (v[:, None] * v).reshape(-1)


def _psi1(theta: float) -> PureState:
    phi, eta, _, _ = _component_amplitudes(theta)
    return PureState((_square(phi) + _square(eta)) / math.sqrt(2))


_PSI1 = _psi1(0.0)


def psi1(theta: float = 0.0) -> PureState:
    """First species (phi phi + eta eta)/sqrt2; identical for every theta.

    At the default theta = 0.0 it is built once, at import, and every call
    returns that shared immutable instance (``psi1() is psi1()``). Other
    angles agree with it only up to rounding, so they are built afresh.
    """
    if theta == 0.0 and math.copysign(1.0, theta) > 0.0:
        return _PSI1
    return _psi1(theta)


def _psi2_amplitudes(theta: float) -> np.ndarray:
    """Amplitudes of psi2(theta), built from varphi and mu only."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    varphi = np.array([s, c], dtype=complex)
    mu = np.array([c, -s], dtype=complex)
    return (_square(varphi) - _square(mu)) / math.sqrt(2)


def psi2(theta: float) -> PureState:
    """Second species (varphi varphi - mu mu)/sqrt2.

    Its Bell coefficients are (0, sin theta, -cos theta, 0), so it is
    orthogonal to psi1 for every theta.
    """
    return PureState(_psi2_amplitudes(theta))


def _superpose(
    spec: SourceSpec, species1: np.ndarray, species2_first: np.ndarray, species2_second: np.ndarray
) -> tuple[PureState, float]:
    """superpose_species on raw species amplitudes.

    The species are unit vectors by construction, so only the returned state
    goes through the norm check of ``PureState``.
    """
    raw = spec.alpha1 * species1 + spec.alpha2 * (
        spec.p1 * species2_first + spec.p2 * species2_second
    )
    raw_norm = float(np.vdot(raw, raw).real)
    if raw_norm < _DEGENERATE_NORM:
        raise DegenerateSourceError(f"raw squared norm {raw_norm!r} below {_DEGENERATE_NORM}")
    return PureState(raw / math.sqrt(raw_norm)), raw_norm


def superpose_species(
    spec: SourceSpec, species1: PureState, species2_first: PureState, species2_second: PureState
) -> tuple[PureState, float]:
    """alpha1*species1 + alpha2*(p1*first + p2*second), normalized.

    Returns the physical state together with the raw squared norm of the
    unnormalized combination, which equals
    1 + sin(gamma)^2 * 2 p1 p2 * sin(2 theta1).
    """
    return _superpose(
        spec, species1.amplitudes, species2_first.amplitudes, species2_second.amplitudes
    )


def emitted_state(spec: SourceSpec) -> tuple[PureState, float]:
    """Undistorted source output and the raw squared norm of its superposition."""
    return _superpose(
        spec,
        _PSI1.amplitudes,
        _psi2_amplitudes(spec.theta1),
        _psi2_amplitudes(spec.theta2),
    )
