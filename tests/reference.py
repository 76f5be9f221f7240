"""Dense reference forms the tests check the package against.

Superoperators act on row-major flattened density matrices, as in
``uscspec.gme``: ``vec(X rho Y) = kron(X, Y.T) vec(rho)``. They are built by
Kronecker products, in O(d^4) memory, which is why none of them lives in the
package. The bare-basis Heisenberg derivative is the oracle of the package's
dressed-basis one, and ``write_csv`` of the CLI's.
"""
import numpy as np

from uscspec.errors import DimensionMismatch
from uscspec.gme import Commutator, thermal_occupation
from uscspec.model import assert_hermitian, fock_op

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


def heisenberg_derivative(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Heisenberg-picture time derivative i [H, X], taken in the bare basis."""
    if x.shape != h.shape:
        raise DimensionMismatch(f"operator shapes differ: {x.shape} vs {h.shape}")
    assert_hermitian(h, name="Hamiltonian")
    return 1j * (h @ x - x @ h)


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


def write_csv(path, header: list[str], rows) -> None:
    """The CSV rows of ``uscspec.cli.write_csv``, each value formatted on its own."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n")
