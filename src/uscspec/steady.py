"""Stationary steady states and Floquet harmonic components of the driven
generalized master equation."""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateSteadyState,
    NoConvergence,
    NonPositiveFrequency,
    SingularHarmonicSolve,
)
from .gme import Commutator, SecularGenerator

STEADY_RESIDUAL_TOL = 1e-10
HARMONIC_RESIDUAL_TOL = 1e-9
HARMONIC_GMRES_MAX_ITER = 200
HARMONIC_GMRES_TOL = 1e-15
HARMONIC_DRIVE_TOL = 1e-6
NULLSPACE_GAP_TOL = 1e-10


def _gth_stationary(w: np.ndarray) -> np.ndarray | None:
    """Stationary distribution of a rate matrix, W[f, i] the rate of i -> f,
    by GTH elimination (Grassmann, Taksar and Heyman, Oper. Res. 33, 1107
    (1985)).

    States are censored from the last one down. Only the off-diagonal rates
    are read and nothing is subtracted, so with non-negative rates every
    population comes out non-negative, to small relative error. Returns None
    when a pivot sum (the rate out of a state into the states still kept) is
    not > 0.
    """
    q = w.T.copy()  # q[i, f]: rate of i -> f
    n = q.shape[0]
    pivots = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = q[k, :k].sum()
        if not s > 0:
            return None
        pivots[k] = s
        q[:k, :k] += np.outer(q[:k, k], q[k, :k] / s)
    p = np.empty(n)
    p[0] = 1.0
    for k in range(1, n):
        p[k] = p[:k] @ q[:k, k] / pivots[k]
    return p / p.sum()


def _bordered_null_vector(m: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """The v with m v = 0 and trace @ v = 1, for m a trace-preserving
    generator: m with its last row, a population row (the population rows
    sum to zero, so it is redundant), replaced by the trace row, solved
    directly; if that is singular or leaves |m v| above STEADY_RESIDUAL_TOL,
    the smallest right singular vector of m, scaled to trace one."""
    bordered = m.copy()
    bordered[-1] = trace
    rhs = np.zeros(m.shape[0], dtype=m.dtype)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(bordered, rhs)
        if np.linalg.norm(m @ v) <= STEADY_RESIDUAL_TOL:  # False if v is not finite
            return v
    except np.linalg.LinAlgError:
        pass
    try:
        _, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"steady-state SVD failed: {exc}") from exc
    v = vh[-1].conj()
    tr = trace @ v
    if abs(tr) < 1e-14:
        raise DegenerateSteadyState("null vector is traceless; degenerate sectors suspected")
    v = v / tr
    if s[-2] < NULLSPACE_GAP_TOL:
        raise DegenerateSteadyState(
            f"Liouvillian null space not unique (sigma_2 = {s[-2]:.3e}): more than one "
            "stationary state, e.g. decoupled parity sectors at epsilon = 0 "
            "or an undamped level"
        )
    residual = np.linalg.norm(m @ v)
    if not residual <= STEADY_RESIDUAL_TOL:
        raise NoConvergence(f"steady-state residual {residual:.3e} > {STEADY_RESIDUAL_TOL:.1e}")
    return v


def steady_state(l: np.ndarray | SecularGenerator) -> np.ndarray:
    """Unique trace-one steady state of a trace-preserving Liouvillian.

    The steady state of a ``SecularGenerator`` lies wholly in its
    populations: GTH elimination of its rate matrix W, checked by |W p| (the
    coherence rows of L vec(diag p) are exactly zero), or if GTH stops or
    fails that check, the bordered solve of W with the trace row of ones. A
    dense L takes the bordered solve of L with the trace row vec(I). Either
    falls back to the SVD of the same matrix, whose null space must be one
    dimensional (DegenerateSteadyState).
    """
    if isinstance(l, SecularGenerator):
        p = _gth_stationary(l.rates)
        if p is None or not np.linalg.norm(l.rates @ p) <= STEADY_RESIDUAL_TOL:
            p = _bordered_null_vector(l.rates, np.ones(l.rates.shape[0]))
        rho = np.diag(p).astype(complex)
        return rho / np.trace(rho).real
    d = int(round(l.shape[0] ** 0.5))
    rho = _bordered_null_vector(l, np.eye(d).reshape(-1)).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def floquet_harmonics(
    l: np.ndarray | SecularGenerator,
    drive: Commutator,
    omega_d: float,
    order: int = 2,
) -> dict[int, np.ndarray]:
    """Solve the harmonic recursion (L - i k w_d) rho^k + L+ rho^{k-1} + L- rho^{k+1} = 0.

    ``l`` is the full Liouvillian (coherent part included) and ``drive`` is
    L+ = c [X, .]; its partner L- = -conj(c) [X, .] is formed here, so row k
    gains c [X, rho^{k-1}] - conj(c) [X, rho^{k+1}] from one [X, rho^k] per
    harmonic. The chain is truncated at |k| = order with rho^{+/-(order+1)}
    = 0, and rho^0 has trace one. The stacked rho^k are found by one GMRES,
    right-preconditioned with the undriven blocks A_k = L - i k w_d
    (``_undriven_inverse``), with the last population row of A_0 replaced by
    the trace row; the drive skips that row, as [X, rho] is traceless. GMRES
    does not impose rho^{-k} = (rho^k)^dagger, and a non-Hermitian X breaks
    it, so that pairing and the residual of every row are then checked
    (NoConvergence), and each pair is returned as the mean of rho^k and
    (rho^{-k})^dagger, in a dict {k: rho^k}.

    The row checks are absolute, so a drive too weak for GMRES to resolve
    would pass them with rho^{-1} = 0. The k = -1 row is therefore also held
    to HARMONIC_DRIVE_TOL of its drive term L- rho^0, entry by entry: a
    2-norm squares the entries and underflows below about 1e-154.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if omega_d <= 0:
        raise NonPositiveFrequency(f"omega_d must be > 0, got {omega_d}")
    ks = np.arange(-order, order + 1)
    size = ks.size
    x, c_plus = drive.x, drive.coefficient
    c_minus = -np.conj(c_plus)

    def add_drive(rows, v):  # rows[k] += L+ v[k - 1] + L- v[k + 1]; returns [X, v[k]]
        r = v.reshape(size, *x.shape)
        comm = (x @ r - r @ x).reshape(size, -1)
        rows[1:] += c_plus * comm[:-1]
        rows[:-1] += c_minus * comm[1:]
        return comm

    def driven(v):  # the stacked system applied to the preconditioned v
        v = v.reshape(size, -1)
        y = v.copy()
        add_drive(y, undriven(v))
        y[order, -1] = v[order, -1]
        return y.reshape(-1)

    try:
        d, undriven = _undriven_inverse(l, -1j * omega_d * ks, order)
        rhs = np.zeros((size, d * d), dtype=complex)
        rhs[order, -1] = 1.0
        rho = undriven(_gmres(driven, rhs.reshape(-1)).reshape(size, -1))
    except np.linalg.LinAlgError as exc:
        raise SingularHarmonicSolve(f"stacked harmonic system singular: {exc}") from exc
    rho = rho.reshape(size, d, d)
    mirror = rho[::-1].conj().transpose(0, 2, 1)
    pairing = np.abs(rho - mirror).max()
    if not pairing <= HARMONIC_RESIDUAL_TOL:
        raise NoConvergence(
            f"harmonic pairing deviation {pairing:.3e} > {HARMONIC_RESIDUAL_TOL:.1e}"
        )
    rho = 0.5 * (rho + mirror)
    v = rho.reshape(size, -1)
    rows = (l @ v.T).T - 1j * omega_d * ks[:, None] * v
    comm = add_drive(rows, v)
    for k, resid in zip(ks, np.linalg.norm(rows, axis=1)):
        if not resid <= HARMONIC_RESIDUAL_TOL:
            raise NoConvergence(
                f"harmonic row k={k} residual {resid:.3e} > {HARMONIC_RESIDUAL_TOL:.1e}"
            )
    drive_term = np.abs(c_minus * comm[order]).max()
    resid = np.abs(rows[order - 1]).max()
    if not resid <= HARMONIC_DRIVE_TOL * drive_term:
        raise NoConvergence(
            f"harmonic row k=-1 residual {resid:.3e} > {HARMONIC_DRIVE_TOL:.0e} of its "
            f"drive term {drive_term:.3e}: the drive is too weak to resolve"
        )
    return dict(zip(ks.tolist(), rho))


def _undriven_inverse(l: np.ndarray | SecularGenerator, shift: np.ndarray, order: int):
    """d and the map v -> A^{-1} v on stacked rows v[k + order] = vec, for the
    undriven blocks A_k = L + shift[k + order], the last population row of
    A_0 replaced by the trace row. A ``SecularGenerator`` inverts each
    coherence rate c_ab + shift and each d x d population block W + shift; a
    dense L factors each shifted d^2 x d^2 block once by LU. Raises
    LinAlgError on a singular block."""
    if isinstance(l, SecularGenerator):
        d = l.rates.shape[0]
        pops = slice(None, None, d + 1)
        diag = l.coherence.reshape(-1) + shift[:, None]
        diag[:, pops] = 1.0  # the populations go through their blocks
        scale = 1.0 / diag
        blocks = l.rates + shift[:, None, None] * np.eye(d)
        blocks[order, -1] = 1.0
        inverse = np.linalg.inv(blocks)

        def apply(v):
            x = scale * v
            x[:, pops] = (inverse @ v[:, pops, None])[..., 0]
            return x
        return d, apply
    n = l.shape[0]
    d = int(round(n**0.5))
    blocks = l + shift[:, None, None] * np.eye(n)
    blocks[order, -1] = np.eye(d).reshape(-1)
    from scipy.linalg import get_lapack_funcs  # here, so that importing the CLI loads no scipy

    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (blocks,))
    factors = []
    for block in blocks:
        lu, piv, info = getrf(block)
        if info > 0:  # U[info - 1, info - 1] is exactly zero
            raise np.linalg.LinAlgError("singular undriven block")
        factors.append((lu, piv))
    return d, lambda v: np.array([getrs(lu, piv, row)[0]
                                  for (lu, piv), row in zip(factors, v)])


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """apply(x) = b by GMRES from x = 0 (Saad and Schultz, SIAM J. Sci. Stat.
    Comput. 7, 856 (1986)), with classical Gram-Schmidt run twice; raises
    NoConvergence above HARMONIC_GMRES_TOL |b| at HARMONIC_GMRES_MAX_ITER."""
    m, beta = HARMONIC_GMRES_MAX_ITER, np.linalg.norm(b)
    q = np.empty((m + 1, b.size), dtype=complex)
    q[0] = b / beta
    h = np.zeros((m + 1, m), dtype=complex)
    for j in range(m):
        w = apply(q[j])
        for _ in range(2):
            c = (q[:j + 1] @ w.conj()).conj()
            w -= c @ q[:j + 1]
            h[:j + 1, j] += c
        h[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(h[j + 1, j]):
            break
        # least squares by QR: unlike lstsq, its triangular solve keeps small terms accurate
        qh, rh = np.linalg.qr(h[:j + 2, :j + 1], mode="complete")
        g = beta * qh[0].conj()  # Q^dagger (beta e_1)
        if abs(g[-1]) <= HARMONIC_GMRES_TOL * beta:
            return np.linalg.solve(rh[:j + 1], g[:j + 1]) @ q[:j + 1]
        q[j + 1] = w / h[j + 1, j]
    raise NoConvergence(f"harmonic GMRES above {HARMONIC_GMRES_TOL:.0e} after {j + 1} iterations")
