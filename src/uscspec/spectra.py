"""Incoherent emission spectra (quantum regression + resolvent solves) and
coherent reflectivity."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .dressed import DressedBasis, dressed_basis, frequency_components
from .errors import ResolventSingular, ZeroDrive
from .gme import (
    BathChannel,
    GmeConfig,
    SecularGenerator,
    build_drive_superoperators,
    build_gme,
    resonator_channel,
    total_liouvillian,
)
from .model import OutputKind, SystemParams, build_output_operator
from .steady import floquet_harmonics


class Normalization(str, Enum):
    RAW_ARBITRARY = "raw"
    MAX_OF_SET = "max_of_set"
    PER_SPECTRUM = "per_spectrum"


def emission_spectrum(
    l: np.ndarray | SecularGenerator,
    rho_ss: np.ndarray,
    x_dot: np.ndarray,
    grid: np.ndarray,
    method: str = "solve",
) -> np.ndarray:
    """Steady-state power spectrum via the quantum regression theorem.

    Evaluates S(w) = Re Tr[Xdot^(-) (i w - L)^{-1} (Xdot^(+) rho_ss)] on the strictly
    increasing ``grid``, in arbitrary units (noise-floor values may be negative).
    ``x_dot`` must already be expressed in the dressed basis of ``l`` so the
    triangular frequency split applies.

    For a ``SecularGenerator`` each coherence decays on its own, and the probe
    vector vec(Xdot^(-)^T) is zero on every population (Xdot^(-) is strictly
    triangular). S is then a sum of poles c_ab over the coherences, with
    weights probe_ab b_ab, and ``method`` plays no part. On a dense L,
    ``method="solve"`` performs one shifted dense solve per grid point and
    ``method="eig"`` diagonalizes L once and evaluates the resolvent as a
    pole sum, which wins for long grids. Every path raises ResolventSingular
    where S is not finite: a pole on the grid, or a NaN or infinite L or rho.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    if method not in ("eig", "solve"):
        raise ValueError(f"unknown method {method!r}")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite rho raises below
        b = (frequency_components(x_dot, "plus") @ rho_ss).reshape(-1)
    probe = frequency_components(x_dot, "minus").T.reshape(-1)  # Tr[X- M] = vec(X-^T) . vec(M)
    if method == "solve" and not isinstance(l, SecularGenerator):
        eye = np.eye(l.shape[0], dtype=complex)
        values = np.empty(grid.size)
        for idx, omega in enumerate(grid):
            try:
                values[idx] = np.real(probe @ np.linalg.solve(1j * omega * eye - l, b))
            except np.linalg.LinAlgError as exc:
                raise ResolventSingular(f"resolvent singular at omega={omega}: {exc}") from exc
    else:
        if isinstance(l, SecularGenerator):
            live = np.flatnonzero((b != 0) & (probe != 0))
            evals, weights = l.coherence.reshape(-1)[live], probe[live] * b[live]
        else:
            try:
                evals, evecs = np.linalg.eig(l)
                weights = (probe @ evecs) * np.linalg.solve(evecs, b)
            except np.linalg.LinAlgError as exc:
                raise ResolventSingular(f"Liouvillian eigenbasis failed: {exc}") from exc
        with np.errstate(divide="ignore", invalid="ignore"):  # a pole on the grid raises below
            values = np.array([
                float((weights / (1j * omega - evals)).sum().real) for omega in grid
            ])
    if not np.isfinite(values).all():
        omega = grid[~np.isfinite(values)][0]
        raise ResolventSingular(f"resolvent singular at omega={omega}: the spectrum is not finite")
    return values


def emission_probe(params: SystemParams, kind: OutputKind, basis: DressedBasis) -> np.ndarray:
    """Dressed-basis time derivative i[H, X] of the output operator of ``kind``.

    H is diagonal in ``basis``, the dressed basis of ``params``, so the
    commutator is i (E_a - E_b) X_ab entry by entry. The exact level gaps keep
    the small Bohr frequency of a near-degenerate doublet, which HX - XH loses
    to round-off of size eps |H| |X|."""
    e = basis.energies
    return 1j * (e[:, None] - e[None, :]) * basis.to_dressed(build_output_operator(kind, params))


def _s11(rho_minus1, x_probe_plus, gamma_port, b_in, omega_d):
    """|S11| = |1 + (sqrt(2 pi) / |b_in|) sqrt(w_d gamma) Tr[X+ rho^{-1}]|; under
    the steady-state approximation Xdot+ ~ -i w_d X+ the probe needs no
    derivative. A b_in so small that 1/|b_in| overflows is a zero drive."""
    tr = np.trace(x_probe_plus @ rho_minus1)
    amp = math.sqrt(2.0 * math.pi) / abs(b_in) * math.sqrt(omega_d * gamma_port)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite |S11| raises below
        s11 = float(abs(1.0 + amp * tr))
    if not math.isfinite(s11):
        raise ZeroDrive(f"|S11| is not finite at b_in = {b_in:.3e}: the drive underflows")
    return s11


# The port operator each probe couples through. An overall sign on it would
# cancel from |S11|: X -> -X maps every harmonic rho^k to (-1)^k rho^k.
PROBE_COUPLING = {
    OutputKind.INDUCTIVE_M: OutputKind.INDUCTIVE_M,
    OutputKind.QUADRATURE: OutputKind.INDUCTIVE_M,
    OutputKind.CAPACITIVE_C: OutputKind.CAPACITIVE_C,
}


def reflectivity_spectrum(
    params: SystemParams,
    probe: OutputKind,
    omega_d_grid: np.ndarray,
    qubit_bath: BathChannel,
    gamma_port: float,
    port_temperature: float,
    b_in: float,
    phase: float = 0.0,
    config: GmeConfig | None = None,
    order: int = 2,
    solved: dict | None = None,
) -> np.ndarray:
    """S11(w_d) for one parameter point; the port couples through the operator
    implied by the probe (X_C for the capacitive probe, X_M otherwise).

    The drive enters the k = -1 harmonic through L_-, whose coefficient
    carries e^{-i phi}. S11 is referred to that input tone, so rho^{-1} is
    rotated by e^{i phi} here and ``_s11`` divides by |b_in|.

    ``solved`` is an optional dict, created by the caller, that keeps the
    dressed basis and the rotated rho^{-1} of each drive frequency (the one
    Floquet harmonic S11 reads) under everything they depend on, which is
    every argument but the probe. Probes that share a port coupling (X_M and
    a + a^dag) then share one GME assembly and one Floquet solve per drive
    frequency.
    """
    if b_in == 0:
        raise ZeroDrive("reflectivity undefined at zero drive amplitude")
    coupling = PROBE_COUPLING[probe]
    config = config or GmeConfig()
    omega_d_grid = np.asarray(omega_d_grid, dtype=float)
    key = (params, coupling, tuple(omega_d_grid), qubit_bath, gamma_port,
           port_temperature, b_in, phase, config, order)
    solved = {} if solved is None else solved
    if key not in solved:
        channels = [resonator_channel(gamma_port, port_temperature, coupling), qubit_bath]
        basis = dressed_basis(params)
        lg = build_gme(basis, channels, config, params)
        l_total = total_liouvillian(basis, lg)
        x_drive = basis.to_dressed(build_output_operator(coupling, params))
        rho_minus1 = []
        for omega_d in omega_d_grid:
            drive = build_drive_superoperators(x_drive, gamma_port, b_in, phase, omega_d)
            harmonics = floquet_harmonics(l_total, drive, omega_d, order=order)
            rho_minus1.append(np.exp(1j * phase) * harmonics[-1])
        solved[key] = basis, rho_minus1
    basis, rho_minus1 = solved[key]
    x_probe = basis.to_dressed(build_output_operator(probe, params))
    x_probe_plus = frequency_components(x_probe, "plus")
    return np.array([
        _s11(rho, x_probe_plus, gamma_port, b_in, omega_d)
        for rho, omega_d in zip(rho_minus1, omega_d_grid)
    ])
