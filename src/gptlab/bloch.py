"""Qubit state space in Bloch coordinates.

The ball is handled in floating point (its boundary is irrational); the
exact-rational machinery never touches these routines.  The density-matrix
parametrization places the first Bloch component on the diagonal:

    rho = 1/2 [[1 + a1, a2 - i*a3],
               [a2 + i*a3, 1 - a1]]

so the basis dual to (a1, a2, a3) is (sigma_z, sigma_x, sigma_y).  All
rotation conversions below are expressed in that same basis.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Basis paired with (a1, a2, a3) in the density parametrization.
BLOCH_BASIS = (SIGMA_Z, SIGMA_X, SIGMA_Y)


def as_bloch(a) -> np.ndarray:
    """Validate and return a Bloch vector as a float array of shape (3,)."""
    v = np.asarray(a, dtype=float)
    if v.shape != (3,):
        raise InputError("a Bloch vector has exactly 3 real components")
    # Compared before the norm is taken, which NaN would poison and huge
    # components would overflow.
    if not np.all(np.abs(v) <= 1 + NORM_TOL):
        raise InputError(
            "Bloch components must be numbers in [-1, 1], got %s" % v.tolist()
        )
    if np.linalg.norm(v) > 1 + NORM_TOL:
        raise InputError(
            "|a| = %.12f > 1: not a quantum state" % np.linalg.norm(v)
        )
    return v


def bloch_density(a) -> np.ndarray:
    """2x2 density matrix of the Bloch vector a."""
    a1, a2, a3 = as_bloch(a)
    return 0.5 * np.array(
        [[1 + a1, a2 - 1j * a3], [a2 + 1j * a3, 1 - a1]], dtype=complex
    )


def bloch_eigenvalues(a) -> tuple[float, float]:
    """Eigenvalue pair (larger, smaller) of bloch_density(a): (1 +- |a|)/2."""
    r = float(np.linalg.norm(as_bloch(a)))
    return 0.5 * (1 + r), 0.5 * (1 - r)


def is_unitary(u) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    # A unitary's entries have modulus at most 1.  Compared before the
    # product, which NaN would poison and huge entries would overflow.
    if not np.all(np.abs(u) <= 1 + UNITARY_TOL):
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(2))) <= UNITARY_TOL)


def unitary_to_rotation(u) -> np.ndarray:
    """3x3 rotation acting on Bloch vectors as conjugation by u acts on states.

    Satisfies bloch_density(R @ a) == u @ bloch_density(a) @ u^dagger for
    every Bloch vector a, with det(R) = +1.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise InputError("input is not unitary within tolerance %g" % UNITARY_TOL)
    r = np.empty((3, 3), dtype=float)
    for k, tau_k in enumerate(BLOCH_BASIS):
        conj = u @ tau_k @ u.conj().T
        for j, tau_j in enumerate(BLOCH_BASIS):
            r[j, k] = 0.5 * np.real(np.trace(tau_j @ conj))
    return r

