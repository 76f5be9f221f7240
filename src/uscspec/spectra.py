"""Incoherent emission spectra (quantum regression + resolvent solves) and
coherent reflectivity, plus matrix-element reports backing the figure sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .dressed import DressedBasis, dressed_basis, frequency_components
from .errors import ResolventSingular, UnknownLabel, ZeroDrive
from .gme import (
    BathChannel,
    GmeConfig,
    Superoperator,
    build_drive_superoperators,
    build_gme,
    total_liouvillian,
)
from .model import (
    OutputKind,
    SystemParams,
    build_output_operator,
    build_static_hamiltonian,
    heisenberg_derivative,
)
from .steady import floquet_harmonics, steady_state, FloquetHarmonics


class Normalization(str, Enum):
    RAW_ARBITRARY = "raw"
    MAX_OF_SET = "max_of_set"
    PER_SPECTRUM = "per_spectrum"


@dataclass(frozen=True)
class SpectrumSeries:
    """A sampled power spectrum in arbitrary units.

    ``values`` are Re[...] of the regression integral; small negative values at
    the numerical noise floor are tolerated and clipped only for display.
    """

    grid: np.ndarray
    values: np.ndarray
    normalization: Normalization = Normalization.RAW_ARBITRARY
    log_floor: float = 1e-6

    def __post_init__(self):
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("frequency grid must be strictly increasing")

    def normalized(self, reference: float | None = None) -> np.ndarray:
        ref = reference if reference is not None else float(self.values.max())
        return self.values / ref if ref > 0 else self.values

    def log10(self, reference: float | None = None) -> np.ndarray:
        norm = self.normalized(reference)
        return np.log10(np.clip(norm, self.log_floor, None))


def emission_spectrum(
    l,
    rho_ss: np.ndarray,
    x_dot: np.ndarray,
    grid: np.ndarray,
    log_floor: float = 1e-6,
    method: str = "solve",
    blocks: list[np.ndarray] | None = None,
) -> SpectrumSeries:
    """Steady-state power spectrum via the quantum regression theorem.

    Evaluates S(w) = Re Tr[Xdot^(-) (i w - L)^{-1} (Xdot^(+) rho_ss)].
    ``method="solve"`` performs one shifted dense solve per grid point;
    ``method="eig"`` diagonalizes the Liouvillian once and evaluates the
    resolvent as a pole sum, which wins for long grids. ``x_dot`` must
    already be expressed in the dressed basis of ``l`` so the triangular
    frequency split applies.

    ``blocks`` is the partition from ``steady.liouvillian_blocks(l)``; the
    resolvent is then taken block by block, and without it L is one block.
    A block on which Xdot^(+) rho_ss or the probe vector vanishes adds
    nothing and is skipped. A 1x1 block is a pole at L_kk in closed form; the
    larger ones are diagonalized (``eig``) or solved per grid point
    (``solve``) on their own.
    """
    lm = l.matrix if isinstance(l, Superoperator) else np.asarray(l)
    grid = np.asarray(grid, dtype=float)
    if method not in ("eig", "solve"):
        raise ValueError(f"unknown method {method!r}")
    x_plus = frequency_components(x_dot, "plus")
    x_minus = frequency_components(x_dot, "minus")
    b = (x_plus @ rho_ss).reshape(-1)
    probe = x_minus.T.reshape(-1)  # Tr[X- M] = vec(X-^T) . vec(M)
    if blocks is None or len(blocks) == 1:
        single, multi = np.zeros(0, dtype=int), [(lm, b, probe)]
    else:
        live = [blk for blk in blocks if b[blk].any() and probe[blk].any()]
        single = np.array([blk[0] for blk in live if blk.size == 1], dtype=int)
        multi = [(lm[np.ix_(blk, blk)], b[blk], probe[blk]) for blk in live if blk.size > 1]

    evals = [lm[single, single]]
    weights = [probe[single] * b[single]]
    if method == "eig":
        for sub, rhs, lhs in multi:
            try:
                block_evals, evecs = scipy.linalg.eig(sub)
                block_weights = (lhs @ evecs) * scipy.linalg.solve(evecs, rhs)
            except scipy.linalg.LinAlgError as exc:
                raise ResolventSingular(f"Liouvillian eigenbasis failed: {exc}") from exc
            evals.append(block_evals)
            weights.append(block_weights)
    evals = np.concatenate(evals)
    weights = np.concatenate(weights)
    values = np.array([
        float(np.real(np.sum(weights / (1j * omega - evals)))) for omega in grid
    ])
    if method == "solve":
        for sub, rhs, lhs in multi:
            eye = np.eye(sub.shape[0], dtype=complex)
            for idx, omega in enumerate(grid):
                try:
                    sol = scipy.linalg.solve(1j * omega * eye - sub, rhs)
                except scipy.linalg.LinAlgError as exc:
                    raise ResolventSingular(f"resolvent singular at omega={omega}: {exc}") from exc
                values[idx] += np.real(lhs @ sol)
    return SpectrumSeries(grid=grid, values=values, log_floor=log_floor)


def emission_probe(params: SystemParams, kind: OutputKind, basis: DressedBasis) -> np.ndarray:
    """Dressed-basis time derivative of the output operator of ``kind``."""
    h = build_static_hamiltonian(params)
    x = build_output_operator(kind, params)
    return basis.to_dressed(heisenberg_derivative(x, h))


def reflectivity_point(
    harmonics: FloquetHarmonics,
    x_probe_plus: np.ndarray,
    gamma_port: float,
    b_in: float,
    omega_d: float,
    coupling_sign: int,
    omega_r: float = 1.0,
) -> float:
    """|1 -/+ (sqrt(2 pi) / |b_in|) sqrt(w_d gamma / w_r) Tr[X+ rho^{-1}]|.

    The minus sign applies to the mutual inductive coupling
    (``coupling_sign = -1``), the plus sign to the capacitive one. Uses the
    steady-state approximation Xdot+ ~ -i w_d X+, so the probe enters without
    a derivative factor.
    """
    if b_in == 0:
        raise ZeroDrive("reflectivity undefined at zero drive amplitude")
    tr = np.trace(x_probe_plus @ harmonics[-1])
    amp = math.sqrt(2.0 * math.pi) / abs(b_in) * math.sqrt(omega_d * gamma_port / omega_r)
    return float(abs(1.0 + coupling_sign * amp * tr))


PROBE_COUPLING = {
    OutputKind.INDUCTIVE_M: (OutputKind.INDUCTIVE_M, -1),
    OutputKind.QUADRATURE: (OutputKind.INDUCTIVE_M, -1),
    OutputKind.CAPACITIVE_C: (OutputKind.CAPACITIVE_C, +1),
}


@dataclass(frozen=True)
class ReflectivityMap:
    """S11 over a (drive frequency x flux offset) grid for one probe."""

    drive_grid: np.ndarray
    offset_grid: np.ndarray
    values: np.ndarray  # shape (len(offset_grid), len(drive_grid))
    probe: OutputKind
    coupling: OutputKind
    failed_points: tuple = ()


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

    ``solved`` is an optional dict, created by the caller, that keeps the
    dressed basis and Floquet harmonics of each call under everything they
    depend on, which is every argument but the probe. Probes that share a port
    coupling (X_M and a + a^dag) then share one GME assembly and one Floquet
    solve per drive frequency.
    """
    from .gme import resonator_channel

    coupling, sign = PROBE_COUPLING[probe]
    config = config or GmeConfig()
    omega_d_grid = np.asarray(omega_d_grid, dtype=float)
    key = (params, coupling, tuple(omega_d_grid), qubit_bath, gamma_port,
           port_temperature, b_in, phase, config, order)
    solved = {} if solved is None else solved
    if key not in solved:
        channels = [
            resonator_channel(gamma_port, port_temperature, coupling, params.omega_r),
            qubit_bath,
        ]
        basis = dressed_basis(params)
        lg = build_gme(basis, channels, config, params)
        l_total = total_liouvillian(basis, lg)
        x_drive = basis.to_dressed(build_output_operator(coupling, params))
        harmonics = []
        for omega_d in omega_d_grid:
            lp, lmn = build_drive_superoperators(
                x_drive, gamma_port, b_in, phase, omega_d, sign, params.omega_r
            )
            harmonics.append(floquet_harmonics(l_total, lp, lmn, omega_d, order=order))
        solved[key] = basis, harmonics
    basis, harmonics = solved[key]
    x_probe = basis.to_dressed(build_output_operator(probe, params))
    x_probe_plus = frequency_components(x_probe, "plus")
    return np.array([
        reflectivity_point(harm, x_probe_plus, gamma_port, b_in, omega_d, sign, params.omega_r)
        for harm, omega_d in zip(harmonics, omega_d_grid)
    ])


def reflectivity_sweep(
    base_params: SystemParams,
    probe: OutputKind,
    omega_d_grid: np.ndarray,
    epsilon_grid: np.ndarray,
    qubit_gamma: float,
    qubit_temperature: float,
    gamma_port: float,
    port_temperature: float,
    b_in: float,
    phase: float = 0.0,
    config: GmeConfig | None = None,
    order: int = 2,
) -> ReflectivityMap:
    """Reflectivity map over flux offset: everything (Hamiltonian, dressed
    basis, GME, harmonics) is rebuilt at each epsilon. Failed points are
    recorded and left as NaN rather than aborting the sweep."""
    from dataclasses import replace

    from .gme import qubit_channel

    coupling, _ = PROBE_COUPLING[probe]
    omega_d_grid = np.asarray(omega_d_grid, dtype=float)
    epsilon_grid = np.asarray(epsilon_grid, dtype=float)
    values = np.full((epsilon_grid.size, omega_d_grid.size), np.nan)
    failed = []
    for row, eps in enumerate(epsilon_grid):
        params = replace(base_params, epsilon=float(eps))
        qb = qubit_channel(qubit_gamma, qubit_temperature, params.delta)
        try:
            values[row] = reflectivity_spectrum(
                params, probe, omega_d_grid, qb, gamma_port, port_temperature,
                b_in, phase, config, order,
            )
        except Exception as exc:  # noqa: BLE001 - flagged, not fatal
            failed.append((float(eps), repr(exc)))
    return ReflectivityMap(
        drive_grid=omega_d_grid,
        offset_grid=epsilon_grid,
        values=values,
        probe=probe,
        coupling=coupling,
        failed_points=tuple(failed),
    )


@dataclass(frozen=True)
class MatrixElementRow:
    sweep_value: float
    i_label: str
    j_label: str
    operator: str
    abs_sq: float


def matrix_element_report(
    sweep_values,
    labeled_bases: list[DressedBasis],
    operators: dict,
    transitions: list[tuple[str, str]],
) -> list[MatrixElementRow]:
    """|<i|O|j>|^2 along a sweep for the requested labeled transitions.

    ``operators`` maps a name to the per-point list of dressed-basis matrices
    (same length as the sweep).
    """
    rows: list[MatrixElementRow] = []
    for name, mats in operators.items():
        if len(mats) != len(labeled_bases):
            raise UnknownLabel(f"operator {name!r}: {len(mats)} matrices for "
                               f"{len(labeled_bases)} sweep points")
        for value, basis, mat in zip(sweep_values, labeled_bases, mats):
            for li, lj in transitions:
                i = basis.index_of(li)
                j = basis.index_of(lj)
                rows.append(MatrixElementRow(
                    sweep_value=float(value),
                    i_label=li,
                    j_label=lj,
                    operator=name,
                    abs_sq=float(abs(mat[i, j]) ** 2),
                ))
    return rows
