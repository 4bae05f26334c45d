"""Exchange-coupled pair under local fields: exact evolution and post-control states.

The two-spin Hamiltonian is H = -J sigma1.sigma2 + B1 sigma1z + B2 sigma2z
(hbar = 1, energies and inverse times share units). Its field inhomogeneity
B- = B1 - B2 mixes the (|00>,|11>)-sector Bell states; the residual mixing
after a correction cycle is captured by the dimensionless product n*delta,
where delta = j - Q(j) is the gap between the interaction ratio
j = J / sqrt(B-^2 + 4 J^2) and its best rational approximation Q(j).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .source import SourceSpec, _emission, _species
from .statevec import (_FLOAT_MAX, PureState, _fresh, _is_finite, _is_integer, _or_infinity,
                       _python_number, _require_finite, _require_kind)

__all__ = [
    "BestRational",
    "ControlKnob",
    "FieldParams",
    "RationalProvenance",
    "evolve",
    "j_parameter",
    "rational_approx",
    "controlled_psi1",
    "controlled_psi2",
    "controlled_emission",
]

_PROVENANCE_TOL = 1e-15
_PROVENANCE_FIELDS = ("provenance j", "provenance q_num", "provenance q_den")


@dataclass(frozen=True)
class FieldParams:
    """Exchange coupling J and local field strengths B1, B2 (energy units); a numpy scalar
    field is held as the Python number it equals, so no field arithmetic wraps or warns."""

    J: float
    B1: float
    B2: float

    def __init__(self, J: float, B1: float, B2: float) -> None:
        # dataclass keeps this __init__: the reads, then one __dict__ write of the three fields.
        if not (type(J) is type(B1) is type(B2) is float):
            J, B1, B2 = map(_python_number, (J, B1, B2), ("J", "B1", "B2"))
        self.__dict__.update(J=J, B1=B1, B2=B2)

    @property
    def b_minus(self) -> float:
        return self.B1 - self.B2


def evolve(state: PureState, fp: FieldParams, t: float) -> PureState:
    """exp(-iHt) applied exactly through the two 2x2 sector solutions.

    The {|00>,|11>} sector is diagonal (pure phases); the {|01>,|10>} sector
    is J*I + B-*Z - 2J*X, whose exponential is a rotation about an axis in
    the X-Z plane with frequency omega = sqrt(B-^2 + 4J^2). Raises ValueError
    for a NaN or infinite J, B1, B2, B1 - B2, t or phase angle (omega or a sector energy, times t).
    """
    _require_kind("state", PureState, state)
    _require_kind("fp", FieldParams, fp)
    if state.num_qubits != 2:
        raise ValueError(f"evolution is defined on 2-qubit states, got {state.num_qubits}")

    def require(*named: tuple[str, float]) -> None:  # each value before any arithmetic on it
        for name, value in named:
            if not _is_finite(value):
                raise ValueError(f"{name} must be finite, got {value!r} for {fp!r}, t={t!r}")

    # Each group is tested in one expression; require names the first failure, in this order.
    t = _python_number(t, "t")  # as a field: Python arithmetic from here
    J, B1, B2 = fp.J, fp.B1, fp.B2
    if not (_is_finite(J) and _is_finite(B1) and _is_finite(B2)):
        require(("J", J), ("B1", B1), ("B2", B2))
    bm = B1 - B2
    if not (_is_finite(bm) and _is_finite(t)):
        require(("B1 - B2", bm), ("t", t))
    omega = math.hypot(bm, 2.0 * J)
    e00, e11 = _or_infinity(-J + B1 + B2), _or_infinity(-J - B1 - B2)  # ints stay exact
    if not (_is_finite(omega * t) and _is_finite(e00 * t) and _is_finite(e11 * t)):
        require(("omega * t", omega * t), ("E00 * t", e00 * t), ("E11 * t", e11 * t))
    a0, a1, a2, a3 = state.amplitudes.tolist()
    if omega != 0.0:
        phase = cmath.exp(-1j * J * t)
        c = math.cos(omega * t)
        s = math.sin(omega * t) / omega
        a1, a2 = (
            phase * ((c - 1j * s * bm) * a1 + 1j * s * 2.0 * J * a2),
            phase * (1j * s * 2.0 * J * a1 + (c + 1j * s * bm) * a2),
        )
    return _fresh(np.array([cmath.exp(-1j * e00 * t) * a0, a1, a2, cmath.exp(-1j * e11 * t) * a3]))


def j_parameter(fp: FieldParams) -> float:
    """Interaction ratio J / sqrt(B-^2 + 4 J^2), in (-1/2, 1/2].

    Raises ValueError for a NaN or infinite J, B1, B2 or B1 - B2, or a zero denominator.
    """
    if type(fp) is not FieldParams:
        _require_kind("fp", FieldParams, fp)
    if not (_is_finite(fp.J) and _is_finite(fp.B1) and _is_finite(fp.B2)):
        raise ValueError(
            f"J, B1 and B2 must be finite, got J={fp.J!r}, B1={fp.B1!r}, B2={fp.B2!r}"
        )
    bm = fp.b_minus
    if not _is_finite(bm):
        raise ValueError(f"B1 - B2 must be finite, got {bm!r} for B1={fp.B1!r}, B2={fp.B2!r}")
    denom = math.hypot(bm, 2.0 * fp.J)
    if denom == 0.0:
        raise ValueError("j is undefined for J = 0 and B1 = B2 (zero denominator)")
    if denom == math.inf:  # 2 J or the root overflows: halve both terms, exactly
        return (fp.J / 2.0) / math.hypot(bm / 2.0, fp.J)
    return fp.J / denom


class BestRational(NamedTuple):
    num: int
    den: int
    delta: float


def _gap(ratio: tuple[int, int], num: int, den: int) -> float:
    """j - num/den, j given as its integer ``ratio``: ``float(Fraction(j) - Fraction(num, den))``.

    Python's int true division is correctly rounded, so the exact integer
    difference over the exact common denominator gives the same bits. A gap
    beyond the float range rounds to an infinity of its sign.
    """
    a, b = ratio
    difference = a * den - num * b
    try:
        return difference / (b * den)
    except OverflowError:
        return math.inf if difference > 0 else -math.inf


def rational_approx(j: float, max_den: int) -> BestRational:
    """Best rational approximation num/den to j with den <= max_den.

    Continued-fraction convergent semantics (no fraction with denominator
    at most max_den lies strictly closer); delta = j - num/den. This is
    ``Fraction(j).limit_denominator(max_den)``, same loop and tie rule, on
    the integer ratio of j. ``max_den`` must be a positive integer (bool
    excluded); a numpy integer, as ``max_den`` or ``j``, is taken as the equal Python int.
    """
    if not _is_integer(max_den) or max_den < 1:
        raise ValueError(f"max_den must be a positive integer, got {max_den!r}")
    max_den, j = int(max_den), _python_number(j, "j")  # numpy ints have no as_integer_ratio
    if not abs(j) <= 0.5:
        raise ValueError(f"|j| <= 1/2 violated: got {j!r}")
    a, b = j.as_integer_ratio()
    if b <= max_den:
        return BestRational(a, b, 0.0)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = a, b
    while True:
        q = n // d
        q2 = q0 + q * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + q * p1, q2
        n, d = d, n - q * d
    k = (max_den - q0) // q1
    pk, qk = p0 + k * p1, q0 + k * q1
    # Both bounds are in lowest terms. Compare |p1/q1 - a/b| with
    # |pk/qk - a/b| over integers; p1/q1 wins a tie.
    if abs(p1 * b - a * q1) * qk <= abs(pk * b - a * qk) * q1:
        num, den = p1, q1
    else:
        num, den = pk, qk
    return BestRational(num, den, _gap((a, b), num, den))


class RationalProvenance(NamedTuple):
    j: float
    q_num: int
    q_den: int


@dataclass(frozen=True)
class ControlKnob:
    """Correction-cycle count n and residual mismatch delta.

    All post-control formulas depend on n and delta only through the
    product n*delta. The optional provenance records the (j, Q) pair the
    mismatch was derived from. A numpy n, delta or provenance entry is held as
    the Python number it equals. An ``n`` that is not an integer (bool and 3.0
    included), an ``n`` beyond the float range, an ``n * delta`` whose control
    angle 2 pi n delta overflows, a provenance that is not three values, a NaN or
    infinite ``delta`` or provenance ``j``, and a provenance ``q_num`` or ``q_den``
    that is not an integer are rejected.
    """

    n: int
    delta: float
    provenance: RationalProvenance | None = None
    ndelta: float = field(init=False)

    def __init__(self, n: int, delta: float, provenance: RationalProvenance | None = None) -> None:
        # dataclass keeps this __init__: the checks, then one __dict__ write of the four fields.
        n, delta = _python_number(n, "n"), _python_number(delta, "delta")
        # The upper bound keeps n * delta a finite float.
        if not _is_integer(n) or not 0 <= n <= _FLOAT_MAX:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if not abs(delta) <= 0.5:
            raise ValueError(f"|delta| <= 1/2 violated: got {delta!r}")
        if provenance is not None:
            try:
                j, num, den = provenance
            except (TypeError, ValueError):  # not iterable, or not three values
                raise ValueError(
                    f"provenance must be (j, q_num, q_den), got {provenance!r}") from None
            j, num, den = map(_python_number, (j, num, den), _PROVENANCE_FIELDS)
            provenance = RationalProvenance(j, num, den)
            _require_finite("provenance j", j)
            if not (_is_integer(num) and _is_integer(den)):
                raise ValueError(f"provenance Q(j) must be integers, got {num!r}/{den!r}")
            if den < 1:
                raise ValueError(f"provenance denominator must be >= 1, got {den}")
            implied = _gap(j.as_integer_ratio(), int(num), int(den))
            if abs(delta - implied) > _PROVENANCE_TOL:
                raise ValueError(
                    f"delta {delta!r} disagrees with provenance j - Q(j) = {implied!r}"
                )
        ndelta = n * delta
        if not math.isfinite(2.0 * math.pi * ndelta):
            raise ValueError(f"2 pi n delta overflows: n * delta = {ndelta!r}")
        self.__dict__.update(n=n, delta=delta, provenance=provenance, ndelta=ndelta)

    @classmethod
    def from_field_params(cls, fp: FieldParams, max_den: int, n: int = 1) -> "ControlKnob":
        """Derive delta from the interaction ratio and its rational approximation."""
        j = j_parameter(fp)
        num, den, delta = rational_approx(j, max_den)
        return cls(n=n, delta=delta, provenance=RationalProvenance(j, num, den))


def _turn(knob: ControlKnob) -> complex:
    """e^{4 pi i n delta} on |11>; n delta mod 1/2 is exact, so the angle's rounding stays small."""
    _require_kind("knob", ControlKnob, knob)
    return cmath.rect(1.0, 4.0 * math.pi * math.fmod(knob.ndelta, 0.5))


def controlled_psi1(knob: ControlKnob) -> PureState:
    """Post-control first species.

    (1 + i e^{ix} sin x) b00 - i e^{ix} sin x b10 with x = 2 pi n delta,
    which is r (|00> + e^{2ix} |11>), so the norm is exactly 1.
    """
    return PureState(_species(1.0, 0.0, 0.0, _turn(knob)))


def controlled_psi2(theta: float, knob: ControlKnob) -> PureState:
    """Post-control second species at angle theta.

    sin(theta) b01 - e^{ix} cos x cos(theta) b10 + i e^{ix} sin x cos(theta) b00,
    which is r (-cos theta, sin theta, sin theta, e^{2ix} cos theta);
    unit norm, orthogonal to controlled_psi1 at the same knob.
    """
    _require_finite("theta", theta)
    return PureState(_species(0.0, math.cos(theta), math.sin(theta), _turn(knob)))


def controlled_emission(spec: SourceSpec, knob: ControlKnob) -> tuple[PureState, float]:
    """Post-control source output and the raw squared norm of its superposition.

    The control map is unitary on the species span, so the raw squared
    norm equals the undistorted value 1 + sin(gamma)^2 * 2 p1 p2 * sin(2 theta1)
    for every knob.
    """
    return _emission(spec, _turn(knob))
