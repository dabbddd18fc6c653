"""Bloch-ball checks: density matrices, eigenvalues, rotations."""

import numpy as np
import pytest

from gptlab.bloch import (
    BLOCH_BASIS,
    as_bloch,
    bloch_density,
    bloch_eigenvalues,
    unitary_to_rotation,
)
from gptlab.errors import InputError
from gptlab.spaces import ball_rotation, ball_rotation_path

RNG = np.random.default_rng(20260810)


def random_bloch(radius=None):
    v = RNG.normal(size=3)
    v = v / np.linalg.norm(v)
    r = RNG.uniform(0, 1) if radius is None else radius
    return r * v


def random_unitary():
    z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotation_about(axis, angle: float) -> np.ndarray:
    """``spaces.ball_rotation`` by ``angle`` about ``axis``, as an array."""
    n = np.asarray(axis, dtype=float)
    if np.linalg.norm(n) == 0:
        raise InputError("rotation axis must be nonzero")
    return np.array(ball_rotation(n.tolist(), angle))


def rotation_path(a, b):
    """Continuous rotation family G(t) with G(0) = 1 and G(1) a = b.

    ``a`` and ``b`` must be pure states (unit Bloch vectors); the path is
    ``spaces.ball_rotation_path`` as arrays.
    """
    a = as_bloch(a)
    b = as_bloch(b)
    if abs(np.linalg.norm(a) - 1) > 1e-9 or abs(np.linalg.norm(b) - 1) > 1e-9:
        raise InputError("rotation paths connect pure states (unit vectors)")
    rows = ball_rotation_path(a.tolist(), b.tolist())

    def path(t: float) -> np.ndarray:
        return np.array(rows(t))

    return path


def test_maximally_mixed():
    rho = bloch_density((0, 0, 0))
    assert np.allclose(rho, 0.5 * np.eye(2))


def test_diagonal_axis_state():
    # The first Bloch component sits on the diagonal of the density matrix.
    assert np.allclose(bloch_density((1, 0, 0)), np.diag([1.0, 0.0]))
    rho = bloch_density((0, 0, 1))
    assert np.allclose(rho, 0.5 * np.array([[1, -1j], [1j, 1]]))


def test_density_is_hermitian_unit_trace():
    for _ in range(50):
        rho = bloch_density(random_bloch())
        assert np.allclose(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1) < 1e-14


def test_eigenvalue_formula_radius_08():
    a = random_bloch(radius=0.8)
    hi, lo = bloch_eigenvalues(a)
    assert abs(hi - 0.9) < 1e-12 and abs(lo - 0.1) < 1e-12


def test_eigenvalue_formula_on_1000_random_vectors():
    for _ in range(1000):
        a = random_bloch()
        hi, lo = bloch_eigenvalues(a)
        eigs = sorted(np.linalg.eigvalsh(bloch_density(a)), reverse=True)
        assert abs(eigs[0] - hi) < 1e-10
        assert abs(eigs[1] - lo) < 1e-10


def test_states_outside_ball_rejected():
    with pytest.raises(InputError):
        bloch_density((1, 1, 1))


def test_identity_unitary_gives_identity_rotation():
    assert np.allclose(unitary_to_rotation(np.eye(2)), np.eye(3))


def test_pauli_x_rotation():
    # sigma_x conjugation fixes the sigma_x component (second coordinate here)
    # and flips the other two.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(unitary_to_rotation(x), np.diag([-1.0, 1.0, -1.0]))


def test_phase_gate_rotation():
    # diag(1, i) fixes the diagonal component and rotates the equatorial
    # plane by 90 degrees: sigma_x -> sigma_y -> -sigma_x.
    s = np.diag([1.0, 1j])
    r = unitary_to_rotation(s)
    expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.allclose(r, expected, atol=1e-12)


def test_non_unitary_rejected():
    with pytest.raises(InputError):
        unitary_to_rotation(np.array([[1, 0], [0, 2]], dtype=complex))


def conjugation_oracle(u):
    """Decompose u tau_k u^dagger in the Bloch basis by solving on entries."""
    basis_flat = np.stack([tau.reshape(-1) for tau in BLOCH_BASIS], axis=1)
    r = np.empty((3, 3))
    for k, tau in enumerate(BLOCH_BASIS):
        conj = (u @ tau @ u.conj().T).reshape(-1)
        coeffs, *_ = np.linalg.lstsq(basis_flat, conj, rcond=None)
        assert np.max(np.abs(coeffs.imag)) < 1e-10
        r[:, k] = coeffs.real
    return r


def test_rotation_matches_conjugation_oracle_and_round_trips():
    for _ in range(100):
        u = random_unitary()
        r = unitary_to_rotation(u)
        assert np.max(np.abs(r - conjugation_oracle(u))) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        for _ in range(20):
            a = random_bloch()
            lhs = bloch_density(r @ a)
            rhs = u @ bloch_density(a) @ u.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_rotation_path_quarter_turn():
    a, b = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    path = rotation_path(a, b)
    assert np.allclose(path(0.0), np.eye(3))
    assert np.linalg.norm(path(1.0) @ a - b) < 1e-12
    # Sampled continuity: small parameter steps give small matrix steps.
    samples = [path(t / 100) for t in range(101)]
    steps = [np.max(np.abs(s2 - s1)) for s1, s2 in zip(samples, samples[1:])]
    assert max(steps) < 0.05


def test_rotation_path_identical_endpoints():
    a = np.array([0.0, 1.0, 0.0])
    path = rotation_path(a, a)
    for t in (0.0, 0.5, 1.0):
        assert np.allclose(path(t), np.eye(3))


def test_rotation_path_antipodal_endpoints():
    a = np.array([0.0, 1.0, 0.0])
    path = rotation_path(a, -a)
    assert np.linalg.norm(path(1.0) @ a + a) < 1e-12
    assert np.allclose(path(0.0), np.eye(3))


def test_rotation_path_random_pure_pairs():
    for _ in range(50):
        a = random_bloch(radius=1.0)
        b = random_bloch(radius=1.0)
        path = rotation_path(a, b)
        assert np.linalg.norm(path(1.0) @ a - b) < 1e-9


def test_rotation_path_rejects_mixed_states():
    with pytest.raises(InputError):
        rotation_path((0.5, 0, 0), (0, 0, 1))


def test_rotation_about_orthogonality():
    r = rotation_about((0, 0, 1), 0.3)
    assert np.allclose(r.T @ r, np.eye(3))
