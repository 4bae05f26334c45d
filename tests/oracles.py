"""Independent reference computations the tests check the package against.

Everything here is built from first principles (hand-frozen Bell vectors,
Pauli tensor products, brute-force searches, truncated series) and never
calls into the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# Hand-frozen Bell vectors in the computational basis |00>,|01>,|10>,|11>.
BELL_VECTORS = {
    (0, 0): np.array([1, 0, 0, 1], dtype=complex) / SQRT2,
    (0, 1): np.array([0, 1, 1, 0], dtype=complex) / SQRT2,
    (1, 0): np.array([1, 0, 0, -1], dtype=complex) / SQRT2,
    (1, 1): np.array([0, 1, -1, 0], dtype=complex) / SQRT2,
}

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def pauli_hamiltonian(J: float, B1: float, B2: float) -> np.ndarray:
    """-J(XX+YY+ZZ) + B1 Z1 + B2 Z2 assembled from explicit Kronecker products."""
    exchange = (
        np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y) + np.kron(PAULI_Z, PAULI_Z)
    )
    return -J * exchange + B1 * np.kron(PAULI_Z, EYE2) + B2 * np.kron(EYE2, PAULI_Z)


def expm_eigh(hermitian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian H from its eigendecomposition (``numpy.linalg.eigh``)."""
    energies, vectors = np.linalg.eigh(hermitian)
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def expm_taylor(matrix: np.ndarray, terms: int = 40) -> np.ndarray:
    """exp(matrix) by scaled-and-squared truncated Taylor series."""
    norm = float(np.linalg.norm(matrix, 2))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    scaled = matrix / 2**squarings
    total = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ scaled / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def best_rational_bruteforce(x: float, max_den: int) -> tuple[int, int, float]:
    """Exhaustive best rational approximation: min |x - p/q| over q <= max_den."""
    best: tuple[int, int, float] | None = None
    for q in range(1, max_den + 1):
        for p in (math.floor(x * q), math.ceil(x * q)):
            err = abs(x - p / q)
            if best is None or err < best[2]:
                best = (p, q, err)
    assert best is not None
    return best


def bruteforce_error_by_denominator(x: float, max_den: int) -> list[float]:
    """errs[q] = best achievable |x - p/q| for each denominator q (errs[0] unused)."""
    errs = [math.inf] * (max_den + 1)
    for q in range(1, max_den + 1):
        errs[q] = min(abs(x - math.floor(x * q) / q), abs(x - math.ceil(x * q) / q))
    return errs


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def binomial_4sigma(count: int, shots: int, prob: float) -> bool:
    """|count - N p| within four binomial standard deviations (exact when p is 0/1)."""
    sigma = math.sqrt(shots * prob * (1.0 - prob))
    return abs(count - shots * prob) <= 4.0 * sigma


def controlled_emission_reference(
    gamma: float, p1: float, p2: float, theta1: float, theta2: float, ndelta: float, dps: int = 50
):
    """``controlled_emission`` to ``dps`` digits at the exact binary value of each input.

    Built from the definitions, not from the package's closed form: each
    species from its single-qubit generators, projected on the Bell vectors;
    the control as the map b00 -> t b00 - m b10, b10 -> t b10 - m b00 with
    m = i e^{ix} sin x, t = e^{ix} cos x and x = 2 pi n delta; the raw squared
    norm as the sum of |amplitude|^2. Returns the four normalized amplitudes
    (mpmath ``mpc``) and the raw squared norm (``mpf``).
    """
    import mpmath

    # x = 2 pi n delta keeps dps digits after the point only with one more digit for
    # every 3 bits of n delta before it.
    with mpmath.workdps(dps + max(0, math.frexp(ndelta)[1]) // 3):
        mp, r = mpmath.mpf, 1 / mpmath.sqrt(2)
        cos_x, sin_x = mpmath.cos_sin(2 * mpmath.pi * mp(ndelta))
        phase = mpmath.mpc(cos_x, sin_x)  # e^{ix}
        m, t = 1j * phase * sin_x, phase * cos_x

        def controlled(theta, sign):
            # (u u + sign v v)/sqrt2 for the generators u = (c, s), v = (s, -c) of psi1
            # (sign +1), or u = (s, c), v = (c, -s) of psi2 (sign -1), at half the angle.
            c, s = mpmath.cos_sin(mp(theta) / 2)
            u, v = ((c, s), (s, -c)) if sign > 0 else ((s, c), (c, -s))
            a00, a01, a10, a11 = (
                r * (u[i] * u[j] + sign * v[i] * v[j]) for i in (0, 1) for j in (0, 1)
            )
            # Bell coefficients on b00 = r(1, 0, 0, 1), b01 = r(0, 1, 1, 0), b10 = r(1, 0, 0, -1).
            c00, c01, c10 = r * (a00 + a11), r * (a01 + a10), r * (a00 - a11)
            c00, c10 = t * c00 - m * c10, t * c10 - m * c00
            return (r * (c00 + c10), r * c01, r * c01, r * (c00 - c10))

        cos_g, sin_g = mpmath.cos_sin(mp(gamma))
        weights = (cos_g, sin_g * mp(p1), sin_g * mp(p2))
        species = (controlled(0, 1), controlled(theta1, -1), controlled(theta2, -1))
        raw = [sum(w * state[i] for w, state in zip(weights, species)) for i in range(4)]
        raw_norm = sum(a.real**2 + a.imag**2 for a in raw)
        return [a / mpmath.sqrt(raw_norm) for a in raw], raw_norm
