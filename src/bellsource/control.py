"""Population steering and parameter inference from measured populations.

Steering inverts the closed-form populations for the control value: given a
mixing angle gamma and target populations (f00, f11), it returns the
sin^2(2 pi n delta) that realizes them together with the species moments the
source must have. Inference goes the other way, recovering (sin^2 gamma,
C^2, S^2) from measured frequencies at a known control value.

Infeasibility of a steering target is a value, not an error, for region
scanning; it is still raised as a typed exception from solve_ndelta so the
violated bound can be named.

Note on the gamma = pi/2 slice: the feasible set there satisfies
S^2 = 1 - f00 - f11, so the third population f01 = 1 - f00 - f11 vanishes
only on the boundary line f00 + f11 = 1, even though that slice otherwise
offers the largest target region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .statevec import _is_integer, _python_number, _require_finite

__all__ = [
    "ControlError",
    "DegenerateSteeringError",
    "EmissionEstimate",
    "InfeasibleError",
    "RegionArrays",
    "RegionPoint",
    "SingularSystemError",
    "SteeringSolution",
    "UnidentifiableSourceError",
    "solve_ndelta",
    "feasible",
    "region_arrays",
    "infer_parameters",
]

_SINGULAR_TOL = 1e-9
_FREQ_SUM_TOL = 1e-6
# Targets this close to a feasibility bound count as on the boundary; without
# the slack, exact boundary points flip on 1-ulp rounding (e.g. sin^2(pi/4)).
_BOUND_TOL = 1e-12
# Cells per slab of the region scan, the grid rows solved and handed on at once (at least
# one row): bounds the arrays and Python objects alive at once.
_REGION_CHUNK = 8192
# The region command holds one slab, region_arrays the whole grid (17 bytes per cell, about
# 285 MB at 4096^2 cells), and the scan solves each cell; checked before any grid exists.
_MAX_RESOLUTION = 4096


class ControlError(ValueError):
    """Base for typed steering/inference failures."""


class InfeasibleError(ControlError):
    """A steering target violates a population or moment bound."""

    def __init__(self, bound: str, detail: str):
        super().__init__(f"infeasible target: {bound} violated ({detail})")
        self.bound = bound


class DegenerateSteeringError(ControlError):
    """The steering denominator vanishes; the control value is undetermined."""


class SingularSystemError(ControlError):
    """The inference system is singular (control value at 1/8 mod 1/4)."""


class UnidentifiableSourceError(ControlError):
    """The mixing-weight estimate leaves the physical range or pins gamma ~ 0."""


@dataclass(frozen=True)
class SteeringSolution:
    """Control value and source moments realizing a steering target.

    ndelta_principal is the principal branch in [0, 1/4]; all other
    branches are k/2 +- ndelta_principal for integer k.
    """

    s_squared: float
    ndelta_principal: float
    required_C_squared: float
    required_S_squared: float


@dataclass(frozen=True)
class EmissionEstimate:
    """The equivalent source with C^2 + S^2 = 1 that has the measured populations.

    Populations fix a source only through c^2/N, s^2 C^2/N and s^2 S^2/N, with
    c = cos gamma, s = sin gamma and N = c^2 + s^2 (C^2 + S^2); the estimate is
    the true source only where N = 1 (p1 p2 sin(2 theta1) = 0). residual is its
    |C^2 + S^2 - 1|: the input's |f00 + f01 + f11 - 1| / sin^2 gamma, up to rounding.
    """

    sin2_gamma: float
    C_squared: float
    S_squared: float
    residual: float


@dataclass(frozen=True)
class RegionPoint:
    """One steering target with its solution, None where it is infeasible."""

    f00_target: float
    f11_target: float
    solution: SteeringSolution | None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _steering_terms(gamma, f00, f11):
    """(required S^2, denominator, numerator) of the steering closed form.

    The one place the formula lives: solve_ndelta passes Python floats and
    _region_slabs broadcasts arrays, both in this operation order, so the two
    paths round identically. sin^2(2 pi n delta) = numerator / denominator.
    """
    s_req = (1.0 - f00 - f11) / math.sin(gamma) ** 2
    denom = math.cos(2.0 * gamma) + 1.0 - f00 - f11
    return s_req, denom, math.cos(gamma) ** 2 - f00


def _within01(value):
    """``value`` in [0, 1] up to the slack, for a float or elementwise for an array; NaN is not."""
    return (-_BOUND_TOL <= value) & (value <= 1.0 + _BOUND_TOL)


def _clamp01(value: float, bound: str) -> float:
    """``value`` clamped to [0, 1]; InfeasibleError(bound) if it misses by more than the slack."""
    if not _within01(value):
        raise InfeasibleError(bound, f"got {value!r}")
    return min(max(value, 0.0), 1.0)


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= math.pi / 2:
        raise ValueError(f"gamma must lie in (0, pi/2], got {_python_number(gamma)!r}")


def solve_ndelta(gamma: float, f00: float, f11: float) -> SteeringSolution:
    """Control value realizing target populations (f00, f11) at mixing angle gamma.

    sin^2(2 pi n delta) = (cos^2 g - f00) / (cos 2g + 1 - f00 - f11) and the
    source moments must satisfy S^2 = (1 - f00 - f11) / sin^2 g. Raises
    ValueError for gamma outside (0, pi/2] or a negative or non-finite
    target, InfeasibleError when a bound fails by more than 1e-12 (closer
    counts as on the boundary), DegenerateSteeringError when the denominator
    or sin^2 gamma vanishes. It designs a source with C^2 + S^2 = 1 (raw norm
    N = 1); a given source with N != 1 it steers wrong (README, "Notes on the math").
    """
    gamma, f00, f11 = map(_python_number, (gamma, f00, f11))  # numpy arithmetic would warn
    _check_gamma(gamma)
    _require_finite("target populations", f00, f11)
    if f00 < 0.0 or f11 < 0.0:
        raise ValueError(f"target populations must be non-negative, got ({f00!r}, {f11!r})")
    if f00 + f11 > 1.0 + _BOUND_TOL:
        raise InfeasibleError("f00 + f11 <= 1", f"got {f00 + f11!r}")
    try:
        s_req, denom, numer = _steering_terms(gamma, f00, f11)
    except ZeroDivisionError:
        raise DegenerateSteeringError(
            f"sin^2 gamma underflows to 0 at gamma={gamma!r}; the required S^2 is undetermined"
        ) from None
    s_req = _clamp01(s_req, "required_S_squared in [0, 1]")

    if denom == 0.0:
        raise DegenerateSteeringError(
            f"cos(2 gamma) + 1 - f00 - f11 = 0 at gamma={gamma!r}, f00={f00!r}, f11={f11!r}"
        )
    s_squared = _clamp01(numer / denom, "sin^2(2 pi n delta) in [0, 1]")

    return SteeringSolution(
        s_squared=s_squared,
        ndelta_principal=math.asin(math.sqrt(s_squared)) / (2.0 * math.pi),
        required_C_squared=1.0 - s_req,
        required_S_squared=s_req,
    )


def feasible(gamma: float, f00: float, f11: float) -> RegionPoint:
    """Feasibility of a steering target as a value; never raises for targets."""
    f00, f11 = _python_number(f00), _python_number(f11)
    try:
        return RegionPoint(f00, f11, solve_ndelta(gamma, f00, f11))
    except ControlError:
        return RegionPoint(f00, f11, None)


class RegionArrays(NamedTuple):
    """The steering region on a uniform grid, as arrays indexed [i, j].

    Entry [i, j] is the target (f00, f11) = (axis[i], axis[j]). Where
    ``feasible`` is set, ``s_squared`` and ``ndelta`` hold exactly the
    s_squared and ndelta_principal that solve_ndelta returns for that
    target; elsewhere they hold NaN.
    """

    axis: np.ndarray
    feasible: np.ndarray
    s_squared: np.ndarray
    ndelta: np.ndarray


def _region_axis(gamma: float, resolution: int) -> np.ndarray:
    """The grid axis arange(resolution) / (resolution - 1); checks resolution, then gamma."""
    if not _is_integer(resolution):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if resolution > _MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {_MAX_RESOLUTION}, got {resolution}")
    _check_gamma(gamma)
    return np.arange(resolution) / (resolution - 1)


def _region_slabs(gamma: float, axis: np.ndarray):
    """Yield (first row, feasible, s_squared, ndelta) per slab of whole grid rows, f00 down.

    A slab holds at most _REGION_CHUNK cells, or one row. _steering_terms is masked with
    solve_ndelta's bounds and slack (a zero denominator is infeasible, as in feasible());
    the clamp, sqrt, math.asin and division by 2 pi then give, bit for bit and -0.0
    included, what solve_ndelta returns: s_squared and ndelta hold the feasible cells only.
    """
    rows = max(1, _REGION_CHUNK // axis.size)
    for top in range(0, axis.size, rows):
        f00 = axis[top : top + rows, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s_req, denom, numer = _steering_terms(gamma, f00, axis)
            quotient = numer / denom
        ok = f00 + axis <= 1.0 + _BOUND_TOL
        ok &= _within01(s_req)
        ok &= denom != 0.0
        ok &= _within01(quotient)
        picked = quotient[ok]
        # _clamp01 as array ops: -0.0 passes both tests and stays -0.0, as in min/max.
        picked[picked < 0.0] = 0.0
        picked[picked > 1.0] = 1.0
        # np.sqrt and the division round like math.sqrt and the float division;
        # np.arcsin can differ from math.asin by 2 ulp, so asin runs on Python floats.
        angles = np.fromiter(map(math.asin, np.sqrt(picked).tolist()), float, picked.size)
        yield top, ok, picked, angles / (2.0 * math.pi)


def region_arrays(gamma: float, resolution: int) -> RegionArrays:
    """Steering solutions over the uniform resolution x resolution grid on [0,1]^2.

    The grid axis is arange(resolution) / (resolution - 1); the arrays are filled in place
    from the row slabs the region command writes, bit for bit solve_ndelta's values.
    Raises ValueError for a resolution that is not an integer in [2, 4096] (bool
    excluded) or gamma outside (0, pi/2].
    """
    axis = _region_axis(gamma, resolution)
    shape = (axis.size, axis.size)
    grid = RegionArrays(axis, np.zeros(shape, bool), np.full(shape, np.nan), np.full(shape, np.nan))
    for top, ok, s_squared, ndelta in _region_slabs(gamma, axis):
        grid.feasible[top : top + len(ok)] = ok
        grid.s_squared[top : top + len(ok)][ok] = s_squared
        grid.ndelta[top : top + len(ok)][ok] = ndelta
    return grid


def infer_parameters(f00: float, f01: float, f11: float, ndelta: float) -> EmissionEstimate:
    """Recover (sin^2 gamma, C^2, S^2) from normalized frequencies at a known knob.

    The estimate is the equivalent source with C^2 + S^2 = 1 (``EmissionEstimate``).
    Solves f00 = a c^2 + b s^2, f11 = a s^2 + b c^2 for a = cos^2 gamma and
    b = sin^2 gamma C^2, where c^2, s^2 are cos^2/sin^2 of 2 pi n delta.
    The system determinant is cos(4 pi n delta). Raises ValueError for a
    non-finite argument, a negative frequency, an ndelta whose 4 pi ndelta
    overflows, or frequencies that do not sum to 1.
    """
    f00, f01, f11, ndelta = map(_python_number, (f00, f01, f11, ndelta))
    _require_finite("frequencies and ndelta", f00, f01, f11, ndelta)
    if min(f00, f01, f11) < 0.0:
        raise ValueError(f"frequencies must be non-negative, got ({f00!r}, {f01!r}, {f11!r})")
    if abs(f00 + f01 + f11 - 1.0) > _FREQ_SUM_TOL:
        raise ValueError(
            f"frequencies must be normalized: f00 + f01 + f11 = {f00 + f01 + f11!r}"
        )
    x = 2.0 * math.pi * ndelta
    if not math.isfinite(2.0 * x):
        raise ValueError(f"ndelta={ndelta!r} is too large: 4 pi ndelta overflows")
    det = math.cos(2.0 * x)
    if abs(det) <= _SINGULAR_TOL:
        raise SingularSystemError(
            f"cos(4 pi n delta) = {det!r} at ndelta={ndelta!r}; populations cannot "
            "separate the two mixing weights"
        )
    c2 = math.cos(x) ** 2
    s2 = math.sin(x) ** 2
    a = (f00 * c2 - f11 * s2) / det
    b = (f11 * c2 - f00 * s2) / det
    if not 0.0 <= a <= 1.0:
        raise UnidentifiableSourceError(f"cos^2 gamma estimate {a!r} outside [0, 1]")
    if 1.0 - a < _SINGULAR_TOL:
        raise UnidentifiableSourceError(
            f"sin^2 gamma estimate {1.0 - a!r} ~ 0; species moments are unidentifiable"
        )
    c_squared = b / (1.0 - a)
    s_squared = f01 / (1.0 - a)
    return EmissionEstimate(
        sin2_gamma=1.0 - a,
        C_squared=c_squared,
        S_squared=s_squared,
        residual=abs(c_squared + s_squared - 1.0),
    )
