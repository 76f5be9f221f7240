"""Dense reference forms the tests check the package against.

Superoperators act on row-major flattened density matrices, as in
``uscspec.gme``: ``vec(X rho Y) = kron(X, Y.T) vec(rho)``. Everything here is
built by Kronecker products, in O(d^4) memory, which is why none of it lives
in the package.
"""
import numpy as np

from uscspec.gme import Commutator, thermal_occupation
from uscspec.model import fock_op

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def spre(x: np.ndarray) -> np.ndarray:
    d = x.shape[0]
    return np.kron(x, np.eye(d, dtype=complex))


def spost(y: np.ndarray) -> np.ndarray:
    d = y.shape[0]
    return np.kron(np.eye(d, dtype=complex), y.T)


def sandwich(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The superoperator of rho -> X rho Y."""
    return np.kron(x, y.T)


def dissipator(op: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[L] rho = L rho L^dag - {L^dag L, rho} / 2."""
    ldl = op.conj().T @ op
    return sandwich(op, op.conj().T) - 0.5 * spre(ldl) - 0.5 * spost(ldl)


def commutator_matrix(c: Commutator) -> np.ndarray:
    """The dense d^2 x d^2 array of rho -> coefficient [x, rho]."""
    return c.coefficient * (spre(c.x) - spost(c.x))


def fock_phase_rotation(n_fock: int) -> np.ndarray:
    """Unitary implementing a -> i a (diag((-i)^n) on the Fock register)."""
    return fock_op(np.diag((-1j) ** np.arange(n_fock)))


def pairwise_lindblad(energies: np.ndarray, x: np.ndarray, gamma: float,
                      temperature: float, ref_frequency: float) -> np.ndarray:
    """The secular dressed Lindblad generator of one channel, built one
    transition at a time: each entry x[i, j] with w = E_j - E_i > 1e-9 is a
    jump |i><j| at rate gamma w / ref_frequency, weighted by n_th + 1, and
    its adjoint is weighted by n_th."""
    d = energies.size
    ref = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            w = energies[j] - energies[i]
            if w <= 1e-9:
                continue
            jump = np.zeros((d, d), dtype=complex)
            jump[i, j] = x[i, j]
            rate = gamma * w / ref_frequency
            n_th = thermal_occupation(w, temperature)
            ref += rate * (n_th + 1) * dissipator(jump)
            ref += rate * n_th * dissipator(jump.conj().T)
    return ref
