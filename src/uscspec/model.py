"""Truncated-Fock-space model of a flux qubit galvanically coupled to an LC resonator.

Conventions
-----------
- Energies and rates are expressed in units of the resonator frequency
  omega_r, which is therefore 1, with hbar = k_B = 1.
- Tensor ordering is qubit (x) Fock; the qubit basis is ordered (|e>, |g>),
  so ``sigma_z = diag(1, -1)`` and the composite state |q, n> sits at linear
  index q * n_fock + n.
- All operators are dense complex numpy arrays of dimension 2 * n_fock.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CutoffTooSmall,
    DegenerateQubit,
    KindMismatch,
    NotHermitian,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-12


class ModelKind(str, Enum):
    CIRCUIT = "circuit"
    CAVITY_QED = "cavity_qed"


class OutputKind(str, Enum):
    """Which system operator couples to the output port."""

    INDUCTIVE_M = "X_M"
    CAPACITIVE_C = "X_C"
    CAVITY_D = "X_D"
    QUADRATURE = "a_plus_adag"


def qubit_frequency(delta: float, epsilon: float) -> float:
    """Qubit splitting sqrt(delta^2 + epsilon^2); both zero is rejected."""
    if delta == 0.0 and epsilon == 0.0:
        raise DegenerateQubit("delta = epsilon = 0: qubit frequency and mixing angle undefined")
    return math.hypot(delta, epsilon)


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the qubit-LC model (all in units of omega_r)."""

    delta: float
    epsilon: float
    eta: float
    n_fock: int = 20
    model_kind: ModelKind = ModelKind.CIRCUIT

    def __post_init__(self):
        object.__setattr__(self, "model_kind", ModelKind(self.model_kind))
        # chained comparisons, so that NaN and inf fail them too
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if not 0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if isinstance(self.n_fock, bool) or not isinstance(self.n_fock, numbers.Integral):
            raise ValueError(f"n_fock must be an integer, got {self.n_fock!r}")
        if self.n_fock < 2:
            raise CutoffTooSmall(f"n_fock must be >= 2, got {self.n_fock}")
        qubit_frequency(self.delta, self.epsilon)

    @property
    def dim(self) -> int:
        return 2 * self.n_fock

    @property
    def omega0(self) -> float:
        return qubit_frequency(self.delta, self.epsilon)


@dataclass(frozen=True)
class QubitFrame:
    """Mixing-angle frame of the flux qubit: cos(theta) = eps/omega0, sin(theta) = delta/omega0."""

    omega0: float
    cos_theta: float
    sin_theta: float

    @classmethod
    def from_bias(cls, delta: float, epsilon: float) -> "QubitFrame":
        omega0 = qubit_frequency(delta, epsilon)
        # cos and sin come from the biases scaled by a power of two to order
        # one. The scaling is exact, so wherever epsilon / omega0 and
        # delta / omega0 are normal numbers the bits are the same as theirs;
        # subnormal biases no longer lose their ratio when hypot rounds.
        _, exponent = math.frexp(max(abs(delta), abs(epsilon)))
        d, e = math.ldexp(delta, -exponent), math.ldexp(epsilon, -exponent)
        norm = math.hypot(d, e)
        return cls(omega0=omega0, cos_theta=e / norm, sin_theta=d / norm)

    @classmethod
    def from_params(cls, params: SystemParams) -> "QubitFrame":
        return cls.from_bias(params.delta, params.epsilon)


def destroy(n_fock: int) -> np.ndarray:
    """Fock-space annihilation operator truncated at n_fock levels."""
    if n_fock < 2:
        raise CutoffTooSmall(f"n_fock must be >= 2, got {n_fock}")
    return np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), k=1).astype(complex)


def qubit_op(op2: np.ndarray, n_fock: int) -> np.ndarray:
    """Embed a 2x2 qubit operator into the composite space."""
    return np.kron(op2, np.eye(n_fock, dtype=complex))


def fock_op(opn: np.ndarray) -> np.ndarray:
    """Embed a Fock-space operator into the composite space."""
    return np.kron(np.eye(2, dtype=complex), opn)


def annihilation(params: SystemParams) -> np.ndarray:
    return fock_op(destroy(params.n_fock))


def sigma_tilde_x_2x2(frame: QubitFrame) -> np.ndarray:
    """cos(theta) sigma_z - sin(theta) sigma_x on the bare qubit space."""
    return frame.cos_theta * SIGMA_Z - frame.sin_theta * SIGMA_X


def sigma_tilde_x(frame: QubitFrame, n_fock: int) -> np.ndarray:
    """Flux-quadrature qubit operator embedded in the composite space."""
    return qubit_op(sigma_tilde_x_2x2(frame), n_fock)


def assert_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> None:
    scale = max(np.abs(m).max(), 1.0)
    dev = np.abs(m - m.conj().T).max()
    if dev > tol * scale:
        raise NotHermitian(f"{name} deviates from Hermiticity by {dev:.3e} (scale {scale:.3e})")


def build_static_hamiltonian(params: SystemParams) -> np.ndarray:
    """Qubit-LC Hamiltonian on the truncated composite space.

    The circuit form couples the flux quadrature (a + a^dag) to the rotated
    qubit operator. The cavity-QED form is the unique Hamiltonian that the
    phase rotation a -> i a maps onto the circuit form; the coupling there is
    through the orthogonal quadrature i(a^dag - a).
    """
    frame = QubitFrame.from_params(params)
    a = annihilation(params)
    number = a.conj().T @ a
    stx = sigma_tilde_x(frame, params.n_fock)
    h = 0.5 * frame.omega0 * qubit_op(SIGMA_Z, params.n_fock) + number
    if params.model_kind == ModelKind.CIRCUIT:
        h = h + params.eta * (a + a.conj().T) @ stx
    else:
        h = h + params.eta * (1j * (a.conj().T - a)) @ stx
    assert_hermitian(h, name="static Hamiltonian")
    return h


# the output operator each model kind does not define
UNDEFINED_OUTPUT = {ModelKind.CIRCUIT: OutputKind.CAVITY_D,
                    ModelKind.CAVITY_QED: OutputKind.INDUCTIVE_M}


def build_output_operator(kind: OutputKind, params: SystemParams) -> np.ndarray:
    """System operator seen by the output port.

    - X_M = a + a^dag - 2 eta sigma~_x   (mutual inductive coupling)
    - X_C = i (a^dag - a)                (capacitive coupling)
    - X_D = i (a - a^dag) - 2 eta sigma~_x  (cavity-QED photodetection; the
      qubit quadrature convention is fixed so that the phase rotation a -> i a
      maps X_D onto the operator proportional to the capacitive output voltage
      derivative)
    - a_plus_adag = a + a^dag            (bare quadrature probe)
    """
    if kind == UNDEFINED_OUTPUT[params.model_kind]:
        raise KindMismatch(f"{kind.value} is not defined for the {params.model_kind.value} model")
    frame = QubitFrame.from_params(params)
    a = annihilation(params)
    stx = sigma_tilde_x(frame, params.n_fock)
    if kind == OutputKind.CAPACITIVE_C:
        return 1j * (a.conj().T - a)
    if kind == OutputKind.QUADRATURE:
        return a + a.conj().T
    if kind == OutputKind.INDUCTIVE_M:
        return a + a.conj().T - 2.0 * params.eta * stx
    if kind == OutputKind.CAVITY_D:
        return 1j * (a - a.conj().T) - 2.0 * params.eta * stx
    raise KindMismatch(f"unknown output kind {kind!r}")


def parity_operator(n_fock: int) -> np.ndarray:
    """Conserved parity sigma_z exp(i pi a^dag a) of the zero-offset model."""
    return qubit_op(SIGMA_Z, n_fock) @ fock_op(np.diag((-1.0 + 0j) ** np.arange(n_fock)))
