"""Dressed (eigen)basis of the static Hamiltonian: ordering, labeling, and
positive/negative/zero frequency splitting of system operators."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousContinuation, DimensionMismatch, UnknownLabel
from .model import (
    SystemParams,
    SIGMA_Z,
    annihilation,
    assert_hermitian,
    build_static_hamiltonian,
    qubit_op,
)

DEGENERACY_TOL = 1e-10
# the secular rule: a level gap above OMEGA_MIN is a transition, and two Bohr
# frequencies within OMEGA_MIN of each other count as equal
OMEGA_MIN = 1e-9
MIN_CONTINUATION_OVERLAP = 0.5


@dataclass(frozen=True)
class DressedBasis:
    """Eigen-decomposition of the static Hamiltonian, sorted by ascending energy.

    ``vectors[:, i]`` is the i-th eigenstate expressed in the bare qubit (x) Fock
    basis. ``labels`` are optional continuation labels ("0", "1-", "1+", ...).
    """

    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple[str, ...] | None = None

    @property
    def dim(self) -> int:
        return self.energies.size

    def to_dressed(self, op: np.ndarray) -> np.ndarray:
        """Transform a bare-basis operator into the dressed basis."""
        if op.shape != self.vectors.shape:
            raise DimensionMismatch(f"operator shape {op.shape} vs basis dim {self.vectors.shape}")
        return self.vectors.conj().T @ op @ self.vectors

    def with_labels(self, labels) -> "DressedBasis":
        labels = tuple(labels)
        if len(labels) != self.dim:
            raise UnknownLabel(f"expected {self.dim} labels, got {len(labels)}")
        return replace(self, labels=labels)

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise UnknownLabel("basis carries no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not present in basis") from None


def diagonalize(h: np.ndarray, symmetry_op: np.ndarray | None = None) -> DressedBasis:
    """Hermitian eigendecomposition with deterministic handling of degeneracies.

    Within clusters of numerically degenerate eigenvalues, eigenvectors are
    re-mixed to diagonalize ``symmetry_op`` (ordered by descending symmetry
    eigenvalue, +1 first). Without it, LAPACK output is kept as is.
    """
    assert_hermitian(h, name="Hamiltonian")
    energies, vectors = np.linalg.eigh(h)
    scale = max(abs(energies[0]), abs(energies[-1]), 1.0)
    for lo, hi in _degenerate_clusters(energies, DEGENERACY_TOL * scale):
        block = vectors[:, lo:hi]
        if symmetry_op is not None:
            sym = block.conj().T @ symmetry_op @ block
            vals, mix = np.linalg.eigh((sym + sym.conj().T) / 2.0)
            order = np.argsort(-vals)
            vectors[:, lo:hi] = block @ mix[:, order]
    return DressedBasis(energies=energies, vectors=vectors)


def _degenerate_clusters(energies: np.ndarray, tol: float):
    start = 0
    for i in range(1, energies.size + 1):
        if i == energies.size or energies[i] - energies[i - 1] > tol:
            if i - start > 1:
                yield start, i
            start = i


def frequency_components(x_dressed: np.ndarray, which: str) -> np.ndarray:
    """Triangular split of a dressed-basis operator.

    "plus" keeps the strictly upper-triangular part (couplings that lower the
    energy, j > i), "minus" its adjoint, "zero" the diagonal. For Hermitian X
    the three parts sum back to X exactly.
    """
    if which == "plus":
        return np.triu(x_dressed, k=1)
    if which == "minus":
        return np.triu(x_dressed, k=1).conj().T
    if which == "zero":
        return np.diag(np.diag(x_dressed))
    raise ValueError(f"which must be 'plus', 'minus' or 'zero', got {which!r}")


def build_transition_table(basis: DressedBasis) -> list[tuple]:
    """(i, j, label_i, label_j, omega_ji) of each transition of the labeled
    ``basis``: every j > i with omega_ji = E_j - E_i above OMEGA_MIN."""
    e = basis.energies
    ii, jj = np.triu_indices(e.size, k=1)
    om = e[jj] - e[ii]
    keep = om > OMEGA_MIN
    return [(i, j, basis.labels[i], basis.labels[j], omega)
            for i, j, omega in zip(ii[keep].tolist(), jj[keep].tolist(), om[keep].tolist())]


def _carry_labels(labels, from_vectors: np.ndarray,
                  to_vectors: np.ndarray) -> tuple[tuple[str, ...], float]:
    """The labels of the columns of ``to_vectors``, paired greedily with the
    columns of ``from_vectors`` by largest remaining overlap (first maximum in
    row-major order on a tie), and the weakest overlap of that pairing."""
    ov = np.abs(to_vectors.conj().T @ from_vectors) ** 2
    out, worst = [""] * ov.shape[0], np.inf
    for _ in range(len(out)):
        r, c = np.unravel_index(ov.argmax(), ov.shape)
        out[r], worst = labels[c], min(worst, ov[r, c])
        ov[r, :] = ov[:, c] = -1.0  # retire the pair
    return tuple(out), float(worst)


def jc_initial_labels(params: SystemParams, basis: DressedBasis) -> tuple[str, ...]:
    """Labels of ``basis``, the dressed basis of ``params`` at zero offset with
    its parity tie-break, seeded from the JC doublets.

    Diagonalizes the rotating-wave (Jaynes-Cummings) counterpart of the model
    at the same coupling and matches its eigenstates to the vectors of
    ``basis`` by greedy maximal overlap, warning AmbiguousContinuation when
    the weakest overlap is below MIN_CONTINUATION_OVERLAP. Ground state is
    "0"; the doublet of excitation sector n is labeled "n-", "n+" by
    ascending energy.
    """
    n_fock = params.n_fock
    a = annihilation(params)
    sigma_p = qubit_op(np.array([[0, 1], [0, 0]], dtype=complex), n_fock)
    # rotating-wave part of eta (a + a^dag) sigma_tilde_x: the
    # transition component of sigma_tilde_x is -sin(theta) sigma_x, so the
    # JC coupling inherits that sign (it fixes which doublet member is "n-")
    g = -params.eta * params.sin_theta
    hjc = (
        0.5 * params.omega0 * qubit_op(SIGMA_Z, n_fock)
        + a.conj().T @ a
        + g * (a @ sigma_p + a.conj().T @ sigma_p.conj().T)
    )
    e_jc, v_jc = np.linalg.eigh(hjc)
    n_exc_op = a.conj().T @ a + sigma_p @ sigma_p.conj().T
    n_exc = np.rint(np.real(np.einsum("ij,jk,ki->i", v_jc.conj().T, n_exc_op, v_jc))).astype(int)
    labels = [""] * e_jc.size
    for sector in np.unique(n_exc):
        idx = np.flatnonzero(n_exc == sector)
        idx = idx[np.argsort(e_jc[idx], kind="stable")]
        names = ["0"] if sector == 0 else [f"{sector}-", f"{sector}+"] + [
            f"{sector}+{k}" for k in range(2, idx.size)]
        for q, name in zip(idx, names):
            labels[q] = name
    labels, worst = _carry_labels(labels, v_jc, basis.vectors)
    if worst < MIN_CONTINUATION_OVERLAP:
        warnings.warn(f"JC seed: weakest overlap {worst:.3f} < {MIN_CONTINUATION_OVERLAP}",
                      AmbiguousContinuation)
    return labels


def plain_labels(dim: int) -> tuple[str, ...]:
    """Energy-ordered labels "0", "1", ... for broken-symmetry sweeps."""
    return tuple(str(i) for i in range(dim))


def label_states(bases: list[DressedBasis], initial_labels) -> list[DressedBasis]:
    """Assign continuation labels along an ordered parameter sweep.

    The first basis receives ``initial_labels``; each subsequent basis
    inherits labels by greedy maximal overlap with the previous point.
    Overlaps below MIN_CONTINUATION_OVERLAP trigger an AmbiguousContinuation
    warning but labeling proceeds.
    """
    out = [bases[0].with_labels(initial_labels)]
    for step, basis in enumerate(bases[1:], start=1):
        labels, worst = _carry_labels(out[-1].labels, out[-1].vectors, basis.vectors)
        if worst < MIN_CONTINUATION_OVERLAP:
            warnings.warn(
                f"sweep step {step}: weakest continuation overlap {worst:.3f} "
                f"< {MIN_CONTINUATION_OVERLAP}",
                AmbiguousContinuation,
            )
        out.append(basis.with_labels(labels))
    return out


def dressed_basis(params: SystemParams) -> DressedBasis:
    """Diagonalize the static Hamiltonian of ``params``.

    Degenerate doublets are tie-broken by parity at zero flux offset, where
    parity is conserved.
    """
    from .model import parity_operator

    h = build_static_hamiltonian(params)
    sym = parity_operator(params.n_fock) if params.epsilon == 0.0 else None
    return diagonalize(h, symmetry_op=sym)
