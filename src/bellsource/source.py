"""Emission-source states: two entangled species and their weighted superposition.

The source emits a combination of a fixed maximally entangled pair and a
one-parameter family of entangled pairs; the mixing weights live on a unit
circle and the two family angles are complementary. The combined raw
superposition is generally *not* normalized (the two family members at
complementary angles overlap), so the builder returns both the physical
normalized state and the raw squared norm.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .statevec import (_RSQRT2, PureState, _fresh, _is_finite, _or_infinity, _python_number,
                       _require_finite, _require_kind, _squared_norm, bell_state)

__all__ = [
    "DegenerateSourceError",
    "SourceSpec",
    "psi1",
    "psi2",
    "emitted_state",
]

_SPEC_TOL = 1e-9
_SPEC_FIELDS = ("gamma", "p1", "p2", "theta1", "theta2")
_DEGENERATE_NORM = 1e-12


class DegenerateSourceError(ValueError):
    """The requested superposition cancels to (numerically) zero norm."""


@dataclass(frozen=True)
class SourceSpec:
    """Emission parameters: mixing angle gamma, species weights, species angles.

    Invariants checked on construction: p1^2 + p2^2 = 1 and
    theta1 + theta2 = pi/2 (both within 1e-9), gamma in [0, pi/2]; a NaN or
    infinite parameter, an int angle past the float range (its sum reads nan),
    or a weight whose square overflows fails them. numpy fields are held as Python numbers.
    The state amplitudes are alpha1 = cos(gamma), alpha2 = sin(gamma).
    """

    gamma: float
    p1: float
    p2: float
    theta1: float
    theta2: float

    def __init__(self, gamma: float, p1: float, p2: float, theta1: float, theta2: float) -> None:
        # dataclass keeps this __init__: the checks, then one __dict__ write of the five fields.
        if not (type(gamma) is type(p1) is type(p2) is type(theta1) is type(theta2) is float):
            gamma, p1, p2, theta1, theta2 = map(
                _python_number, (gamma, p1, p2, theta1, theta2), _SPEC_FIELDS)
        if not (abs(p1) <= 2 and abs(p2) <= 2 and abs(p1**2 + p2**2 - 1.0) <= _SPEC_TOL):
            weight = math.inf  # kept where a float square leaves the float range and raises
            with contextlib.suppress(OverflowError):
                weight = _or_infinity(p1**2 + p2**2)  # an int sum past the range reads inf too
            raise ValueError(f"p1^2 + p2^2 = 1 violated: got {weight!r}")
        finite = _is_finite(theta1) and _is_finite(theta2)  # no sum past the float range
        angle_sum = theta1 + theta2 if finite else math.nan
        if not abs(angle_sum - math.pi / 2) <= _SPEC_TOL:
            raise ValueError(f"theta1 + theta2 = pi/2 violated: got {angle_sum!r}")
        if not 0.0 <= gamma <= math.pi / 2:
            raise ValueError(f"gamma in [0, pi/2] violated: got {gamma!r}")
        self.__dict__.update(gamma=gamma, p1=p1, p2=p2, theta1=theta1, theta2=theta2)

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
        # p2 and theta2 are derived in Python floats too.
        p1, theta1 = _python_number(p1, "p1"), _python_number(theta1, "theta1")
        if not abs(p1) <= 1.0:
            raise ValueError(f"p1^2 + p2^2 = 1 violated: |p1| = {abs(p1)!r} is not at most 1")
        p2 = math.sqrt(max(0.0, 1.0 - p1**2))
        if p2_negative:
            p2 = -p2
        return cls(gamma, p1, p2, theta1, math.pi / 2 - _or_infinity(theta1))


_PSI1 = bell_state((0, 0))


def psi1(theta: float = 0.0) -> PureState:
    """First species (phi phi + eta eta)/sqrt2, which is b00 for every theta.

    Every call with a finite theta returns the shared immutable
    ``bell_state((0, 0))``, so ``psi1(theta) is psi1()``.
    """
    _require_finite("theta", theta)
    return _PSI1


def _species(keep: float, flip: float, side: float, turn: complex = 1.0) -> list:
    """Amplitudes r (keep - flip, side, side, turn (keep + flip)), r = 1/sqrt2.

    That is keep b00 - flip b10 + side b01 with its |11> amplitude turned by
    ``turn``. Every species has this form: psi1 is (1, 0, 0) and psi2(theta)
    is (0, cos theta, sin theta); the control turns by e^{4 pi i n delta}.
    """
    r_side = _RSQRT2 * side
    return [_RSQRT2 * (keep - flip), r_side, r_side, turn * (_RSQRT2 * (keep + flip))]


def psi2(theta: float) -> PureState:
    """Second species (varphi varphi - mu mu)/sqrt2.

    Its Bell coefficients are (0, sin theta, -cos theta, 0), so it is
    orthogonal to psi1 for every theta.
    """
    _require_finite("theta", theta)
    return PureState(_species(0.0, math.cos(theta), math.sin(theta)))


def _emission(spec: SourceSpec, turn: complex = 1.0) -> tuple[PureState, float]:
    """The source output with every |11> amplitude turned by ``turn``, and its raw squared norm.

    The closed form of alpha1 psi1 + alpha2 (p1 psi2(theta1) + p2 psi2(theta2)), each species
    ``_species``' amplitudes, combined part by part: real and imaginary parts apart, in the order
    ``tests/oracles._superpose`` combines any three pairs, so every output bit and signed zero
    agrees; its ``0.0 +`` and ``0.0 -`` terms move no output byte (README, the emission note).
    A float part's imaginary zero is +0.0 (alpha1 > 0); ``turn`` times a float is CPython's.
    """
    if type(spec) is not SourceSpec:
        _require_kind("spec", SourceSpec, spec)
    a1, a2, p1, p2 = math.cos(spec.gamma), math.sin(spec.gamma), spec.p1, spec.p2
    t1, t2, r = spec.theta1, spec.theta2, _RSQRT2
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    side = complex(a2 * (p1 * (r * s1) + p2 * (r * s2)), 0.0)  # components 1 and 2
    e, f, g = turn * r, turn * (r * c1), turn * (r * c2)
    parts = [complex(a1 * r + a2 * (p1 * (r * -c1) + p2 * (r * -c2)), 0.0),
             side, side, complex(a1 * e.real + a2 * (p1 * f.real + p2 * g.real),
                                 a1 * e.imag + a2 * (p1 * f.imag + p2 * g.imag))]
    raw_norm = _squared_norm(parts)
    if raw_norm < _DEGENERATE_NORM:
        raise DegenerateSourceError(f"raw squared norm {raw_norm!r} below {_DEGENERATE_NORM}")
    # One call, the conversion and the loop of np.array(parts) / root: the same bits.
    return _fresh(np.divide(parts, math.sqrt(raw_norm))), raw_norm


def emitted_state(spec: SourceSpec) -> tuple[PureState, float]:
    """Undistorted source output and the raw squared norm of its superposition."""
    return _emission(spec)
