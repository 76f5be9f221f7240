"""Stationary steady states and Floquet harmonic components of the driven
generalized master equation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .errors import (
    DegenerateSteadyState,
    NoConvergence,
    SingularHarmonicSolve,
)
from .gme import Superoperator

STEADY_RESIDUAL_TOL = 1e-10
HARMONIC_RESIDUAL_TOL = 1e-9
NULLSPACE_GAP_TOL = 1e-10


def _as_matrix(l) -> np.ndarray:
    return l.matrix if isinstance(l, Superoperator) else np.asarray(l)


def liouvillian_blocks(l) -> list[np.ndarray]:
    """Index sets of the blocks of a generator, from its exact zero pattern.

    The blocks are the connected components of the graph with an edge
    wherever L[i, j] != 0 or L[j, i] != 0, so no entry of L couples two
    blocks and every linear solve with L splits into one solve per block.
    Each block is an ascending array of flattened indices. In the secular
    (``filter_b = 0``) generator a coherence rho_ab only couples to
    coherences of the same Bohr frequency, which makes the blocks small; a
    dense generator is one block.
    """
    lm = _as_matrix(l)
    rows, cols = np.nonzero(lm)
    graph = scipy.sparse.coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=lm.shape
    )
    _, labels = scipy.sparse.csgraph.connected_components(graph, connection="weak")
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _trace_one_solve(lm: np.ndarray, populations: np.ndarray) -> np.ndarray | None:
    """Solve L vec = 0 with its last row replaced by the trace row.

    The last row must be a population row: trace preservation makes the
    population rows of L sum to zero, so dropping one of them loses nothing.
    Returns None when that matrix is singular.
    """
    n = lm.shape[0]
    m = lm.copy()
    m[-1, :] = 0.0
    m[-1, populations] = 1.0
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None


def _population_block_solve(lm: np.ndarray, d: int, blocks) -> np.ndarray | None:
    """``_trace_one_solve`` on the block holding the populations, scattered
    into the full vector; None when the populations span several blocks."""
    block = next(b for b in blocks if b[0] == 0)  # index 0 is rho_00
    populations = block % (d + 1) == 0
    if np.count_nonzero(populations) != d:
        return None
    sub = _trace_one_solve(lm[np.ix_(block, block)], populations)
    if sub is None:
        return None
    vec = np.zeros(lm.shape[0], dtype=complex)
    vec[block] = sub
    return vec


def steady_state(
    l,
    check_uniqueness: bool = False,
    residual_tol: float = STEADY_RESIDUAL_TOL,
    blocks: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Unique trace-one steady state of a trace-preserving Liouvillian.

    The flattened linear system L vec(rho) = 0 is closed by replacing its last
    row with the trace-normalization row and solved directly; if that solve is
    ill-conditioned the smallest right singular vector is used instead. With
    ``check_uniqueness`` the second-smallest singular value of L is verified to
    exceed the null-space gap tolerance (expensive: full SVD).

    ``blocks`` is the partition from ``liouvillian_blocks(l)``. When it has
    more than one block and all populations lie in one of them, that block
    alone is solved and the result is checked against the full L. If the
    populations span several blocks, or that solve or its check fails, the
    dense path above runs instead, so degenerate and non-convergent
    generators raise as they do without ``blocks``.
    """
    lm = _as_matrix(l)
    n = lm.shape[0]
    d = int(round(n**0.5))

    def converged(v):
        return v is not None and np.isfinite(v).all() and np.linalg.norm(lm @ v) <= residual_tol

    vec = None
    if blocks is not None and len(blocks) > 1:
        vec = _population_block_solve(lm, d, blocks)
    if not converged(vec):
        vec = _trace_one_solve(lm, np.arange(0, n, d + 1))
    if not converged(vec):
        # fall back to the null vector from an SVD of L itself
        _, s, vh = np.linalg.svd(lm)
        vec = vh[-1].conj()
        tr = vec[:: d + 1].sum()
        if abs(tr) < 1e-14:
            raise DegenerateSteadyState("null vector is traceless; degenerate sectors suspected")
        vec = vec / tr
        if s[-2] < NULLSPACE_GAP_TOL:
            raise DegenerateSteadyState(
                f"Liouvillian null space not unique (sigma_2 = {s[-2]:.3e}); "
                "at zero offset the parity sectors each carry a stationary state"
            )
    if check_uniqueness:
        s = np.linalg.svd(lm, compute_uv=False)
        if s[-2] < NULLSPACE_GAP_TOL:
            raise DegenerateSteadyState(
                f"Liouvillian null space not unique (sigma_2 = {s[-2]:.3e})"
            )
    residual = np.linalg.norm(lm @ vec)
    if residual > residual_tol:
        raise NoConvergence(f"steady-state residual {residual:.3e} > {residual_tol:.1e}")
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@dataclass(frozen=True)
class FloquetHarmonics:
    """Fourier components rho^k of the time-periodic steady state."""

    order: int
    omega_d: float
    components: dict = field(default_factory=dict)

    def __getitem__(self, k: int) -> np.ndarray:
        d = self.components[0].shape[0]
        return self.components.get(k, np.zeros((d, d), dtype=complex))

    @property
    def rho0(self) -> np.ndarray:
        return self.components[0]


def floquet_harmonics(
    l,
    l_plus,
    l_minus,
    omega_d: float,
    order: int = 2,
    residual_tol: float = HARMONIC_RESIDUAL_TOL,
) -> FloquetHarmonics:
    """Solve the harmonic recursion (L - i k w_d) rho^k + L+ rho^{k-1} + L- rho^{k+1} = 0.

    ``l`` is the full Liouvillian (coherent part included). The chain is
    truncated at |k| = order with rho^{+/-(order+1)} = 0 and folded into the
    k = 0 row by sequential elimination on the tridiagonal-in-k structure:
    rho^k = S_k rho^{k-1} for k > 0 and rho^{-k} = T_k rho^{-(k-1)} for k > 0.
    The k = 0 row is then solved with the trace constraint.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if omega_d <= 0:
        raise ValueError(f"omega_d must be > 0, got {omega_d}")
    lm = _as_matrix(l)
    lp = _as_matrix(l_plus)
    lmn = _as_matrix(l_minus)
    n = lm.shape[0]
    d = int(round(n**0.5))
    eye = np.eye(n, dtype=complex)

    s_prop = {}  # rho^k = s_prop[k] rho^{k-1}, k = order .. 1
    block = None
    for k in range(order, 0, -1):
        shifted = lm - 1j * k * omega_d * eye
        if block is not None:
            shifted = shifted + lmn @ block
        try:
            block = -scipy.linalg.solve(shifted, lp)
        except scipy.linalg.LinAlgError as exc:
            raise SingularHarmonicSolve(f"harmonic block k={k} singular: {exc}") from exc
        s_prop[k] = block

    t_prop = {}  # rho^{-k} = t_prop[k] rho^{-(k-1)}
    block = None
    for k in range(order, 0, -1):
        shifted = lm + 1j * k * omega_d * eye
        if block is not None:
            shifted = shifted + lp @ block
        try:
            block = -scipy.linalg.solve(shifted, lmn)
        except scipy.linalg.LinAlgError as exc:
            raise SingularHarmonicSolve(f"harmonic block k=-{k} singular: {exc}") from exc
        t_prop[k] = block

    folded = lm + lmn @ s_prop[1] + lp @ t_prop[1]
    rho0 = steady_state(folded)

    comps = {0: rho0}
    vec = rho0.reshape(-1)
    up = vec
    for k in range(1, order + 1):
        up = s_prop[k] @ up
        comps[k] = up.reshape(d, d)
    down = vec
    for k in range(1, order + 1):
        down = t_prop[k] @ down
        comps[-k] = down.reshape(d, d)

    for k in range(-order, order + 1):
        above = comps.get(k + 1, np.zeros((d, d), dtype=complex))
        below = comps.get(k - 1, np.zeros((d, d), dtype=complex))
        row = (lm - 1j * k * omega_d * eye) @ comps[k].reshape(-1)
        row = row + lp @ below.reshape(-1) + lmn @ above.reshape(-1)
        resid = np.linalg.norm(row)
        if resid > residual_tol:
            raise NoConvergence(f"harmonic row k={k} residual {resid:.3e} > {residual_tol:.1e}")
    return FloquetHarmonics(order=order, omega_d=omega_d, components=comps)


def harmonic_convergence(
    make_harmonics,
    observable,
    order: int = 2,
    step: int = 2,
    tol: float = 1e-8,
    max_order: int = 8,
) -> FloquetHarmonics:
    """Increase the truncation order until ``observable(harmonics)`` is stable.

    ``make_harmonics(order)`` builds the chain at a given order; the scalar
    ``observable`` (e.g. the reflectivity trace) is compared across order and
    order + step.
    """
    current = make_harmonics(order)
    val = observable(current)
    while order + step <= max_order:
        nxt = make_harmonics(order + step)
        nval = observable(nxt)
        if abs(nval - val) <= tol * max(1.0, abs(nval)):
            return nxt
        current, val, order = nxt, nval, order + step
    raise NoConvergence(f"Floquet truncation did not converge by order {max_order}")
