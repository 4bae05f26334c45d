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
from typing import Sequence

import numpy as np

from .statevec import _BELL_AMPLITUDES, _RSQRT2, PureState, _fresh, bell_state

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
_Amplitudes = Sequence[complex]  # the four amplitudes of a pair, Python complex
_DEGENERATE_NORM = 1e-12


class DegenerateSourceError(ValueError):
    """The requested superposition cancels to (numerically) zero norm."""


@dataclass(frozen=True)
class SourceSpec:
    """Emission parameters: mixing angle gamma, species weights, species angles.

    Invariants checked on construction: p1^2 + p2^2 = 1 and
    theta1 + theta2 = pi/2 (both within 1e-9), gamma in [0, pi/2]; a NaN or
    infinite parameter, or a weight whose square overflows, fails them.
    The state amplitudes are alpha1 = cos(gamma), alpha2 = sin(gamma).
    """

    gamma: float
    p1: float
    p2: float
    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        try:
            weight = self.p1**2 + self.p2**2
        except OverflowError:  # a finite weight whose square leaves the float range
            weight = math.inf
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


def _require_finite(theta: float) -> None:
    """The angle rule of the public species builders."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")


def component_states(theta: float) -> ComponentStates:
    """Single-qubit generators at angle theta; phi _|_ eta and varphi _|_ mu."""
    _require_finite(theta)
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return ComponentStates(*(PureState(v) for v in ([c, s], [s, -c], [s, c], [c, -s])))


_PSI1 = bell_state((0, 0))


def psi1(theta: float = 0.0) -> PureState:
    """First species (phi phi + eta eta)/sqrt2, which is b00 for every theta.

    Every call with a finite theta returns the shared immutable
    ``bell_state((0, 0))``, so ``psi1(theta) is psi1()``.
    """
    _require_finite(theta)
    return _PSI1


def _div_sqrt2(z: complex) -> complex:
    """``z / sqrt(2)`` as numpy divides a complex array: Smith's rule, ratio 0."""
    return complex((z.real + z.imag * 0.0) * _RSQRT2, (z.imag - z.real * 0.0) * _RSQRT2)


def _psi2_amplitudes(theta: float) -> list[complex]:
    """Amplitudes of psi2(theta), (varphi varphi - mu mu) / sqrt2 element by element.

    varphi = (s, c) and mu = (c, -s); the two middle amplitudes are the
    same products, so they are built once.
    """
    cos_half, sin_half = math.cos(theta / 2), math.sin(theta / 2)
    c, s, minus_s = complex(cos_half), complex(sin_half), complex(-sin_half)
    middle = _div_sqrt2(s * c - c * minus_s)
    return [_div_sqrt2(s * s - c * c), middle, middle, _div_sqrt2(c * c - minus_s * minus_s)]


def psi2(theta: float) -> PureState:
    """Second species (varphi varphi - mu mu)/sqrt2.

    Its Bell coefficients are (0, sin theta, -cos theta, 0), so it is
    orthogonal to psi1 for every theta.
    """
    _require_finite(theta)
    return PureState(_psi2_amplitudes(theta))


def _superpose(
    spec: SourceSpec, species1: _Amplitudes, species2_first: _Amplitudes, species2_second: _Amplitudes
) -> tuple[PureState, float]:
    """superpose_species on raw species amplitudes, Python complex scalars.

    Each amplitude repeats numpy's per-element operations on the arrays
    (README, "bit contract of the emission kernel"). The species are unit
    vectors by construction, so only the returned state goes through the
    norm check of ``PureState``.
    """
    a1, a2 = complex(spec.alpha1), complex(spec.alpha2)
    p1, p2 = complex(spec.p1), complex(spec.p2)
    species = zip(species1, species2_first, species2_second)
    raw = np.array([a1 * e + a2 * (p1 * f + p2 * g) for e, f, g in species])
    raw_norm = float(np.vdot(raw, raw).real)
    if raw_norm < _DEGENERATE_NORM:
        raise DegenerateSourceError(f"raw squared norm {raw_norm!r} below {_DEGENERATE_NORM}")
    return _fresh(raw / math.sqrt(raw_norm)), raw_norm


def superpose_species(
    spec: SourceSpec, species1: PureState, species2_first: PureState, species2_second: PureState
) -> tuple[PureState, float]:
    """alpha1*species1 + alpha2*(p1*first + p2*second), normalized.

    Returns the physical state together with the raw squared norm of the
    unnormalized combination, which equals
    1 + sin(gamma)^2 * 2 p1 p2 * sin(2 theta1).
    """
    species = (species1, species2_first, species2_second)
    return _superpose(spec, *(state.amplitudes.tolist() for state in species))


def emitted_state(spec: SourceSpec) -> tuple[PureState, float]:
    """Undistorted source output and the raw squared norm of its superposition."""
    return _superpose(
        spec,
        _BELL_AMPLITUDES[0, 0],
        _psi2_amplitudes(spec.theta1),
        _psi2_amplitudes(spec.theta2),
    )
