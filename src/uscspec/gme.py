"""Generalized master equation: frequency-dependent thermal Liouvillian with a
Gaussian secular filter, pure dephasing, and coherent-drive superoperators.

All superoperators are dense complex arrays acting on row-major flattened
density matrices:
``vec(rho)[a * d + b] = rho[a, b]``, so ``vec(X rho Y) = kron(X, Y.T) vec(rho)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dressed import DressedBasis, DEFAULT_OMEGA_MIN
from .errors import EmptyChannels, InconsistentBasis, NonPositiveFrequency
from .model import (
    ModelKind,
    OutputKind,
    QubitFrame,
    SystemParams,
    SIGMA_X,
    build_output_operator,
    qubit_op,
    sigma_tilde_x,
)

FILTER_FLOOR = 1e-12


class ChannelKind(str, Enum):
    RESONATOR = "resonator"
    QUBIT = "qubit"


@dataclass(frozen=True)
class BathChannel:
    """One dissipation channel: base rate, effective temperature, reference
    frequency, and the system operator the bath couples to.

    ``ref_frequency`` is the frequency the rate scaling gamma * omega / omega_i
    is normalized to: the resonance frequency for the resonator channel, the
    tunnel splitting for the qubit channel. ``jump_kind`` selects the resonator
    coupling operator (X_M, X_C or X_D); the qubit channel couples through the
    rotated quadrature (circuit) or the bare sigma_x (cavity QED).
    """

    which: ChannelKind
    gamma: float
    temperature: float
    ref_frequency: float
    jump_kind: OutputKind | None = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.ref_frequency <= 0:
            raise ValueError(f"ref_frequency must be > 0, got {self.ref_frequency}")
        if self.which == ChannelKind.RESONATOR and self.jump_kind is None:
            raise ValueError("resonator channel needs a jump_kind")


def resonator_channel(
    gamma: float,
    temperature: float,
    jump_kind: OutputKind,
    omega_r: float = 1.0,
) -> BathChannel:
    return BathChannel(ChannelKind.RESONATOR, gamma, temperature, omega_r, jump_kind)


def qubit_channel(gamma: float, temperature: float, delta: float) -> BathChannel:
    return BathChannel(ChannelKind.QUBIT, gamma, temperature, delta)


@dataclass(frozen=True)
class GmeConfig:
    """Assembly controls: Gaussian filter width (0 selects the secular
    generator), positive-transition threshold, and the dephasing-weight
    convention.

    ``dephasing_weight`` selects the pure-dephasing rate attached to the qubit
    channel: "printed" uses (gamma_q / delta) * (2 T_q + 1) exactly as stated;
    "bose" replaces T_q by the thermal occupation at the tunnel splitting.
    """

    filter_b: float = 0.0
    omega_min: float = DEFAULT_OMEGA_MIN
    dephasing_weight: str = "printed"

    def __post_init__(self):
        if self.filter_b < 0:
            raise ValueError(f"filter_b must be >= 0, got {self.filter_b}")
        if self.dephasing_weight not in ("printed", "bose"):
            raise ValueError(f"unknown dephasing_weight {self.dephasing_weight!r}")


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


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Coherent part -i [H, rho] as a superoperator."""
    return -1j * (spre(h) - spost(h))


def thermal_occupation(omega, temperature: float):
    """Bose-Einstein occupation 1 / (exp(omega / T) - 1); zero at T = 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise NonPositiveFrequency("thermal occupation requires omega > 0")
    if temperature == 0.0:
        out = np.zeros_like(omega)
    else:
        with np.errstate(over="ignore"):
            out = 1.0 / np.expm1(omega / temperature)
    return out if out.ndim else float(out)


def _omega_nth(omega: np.ndarray, temperature: float) -> np.ndarray:
    """omega * n_th(omega, T), computed as omega / expm1(omega / T) on positive
    entries (stable for omega << T, where the limit is T)."""
    out = np.zeros_like(omega)
    if temperature == 0.0:
        return out
    pos = omega > 0
    with np.errstate(over="ignore"):
        out[pos] = omega[pos] / np.expm1(omega[pos] / temperature)
    return out


def gaussian_filter(omega, omega_prime, b: float):
    """Secular filter exp(-|omega - omega'|^2 / (2 b^2)); indicator of
    omega == omega' in the b = 0 limit."""
    diff = np.asarray(omega, dtype=float) - np.asarray(omega_prime, dtype=float)
    if b == 0.0:
        out = (np.abs(diff) == 0.0).astype(float)
    else:
        out = np.exp(-(diff**2) / (2.0 * b * b))
    return out if out.ndim else float(out)


def channel_operator(channel: BathChannel, params: SystemParams) -> np.ndarray:
    """Bare-basis system operator the channel's bath couples to."""
    if channel.which == ChannelKind.RESONATOR:
        return build_output_operator(channel.jump_kind, params)
    if params.model_kind == ModelKind.CAVITY_QED:
        return qubit_op(SIGMA_X, params.n_fock)
    return sigma_tilde_x(QubitFrame.from_params(params), params.n_fock)


def _secular_indicator(wp, wm, tol: float) -> np.ndarray:
    return (np.abs(wp - wm) <= tol).astype(float)


def build_gme(
    basis: DressedBasis,
    channels: list[BathChannel],
    config: GmeConfig,
    params: SystemParams,
) -> np.ndarray:
    """Assemble the dissipative generalized Liouvillian in the dressed basis.

    For every channel and every ordered pair of positive transition frequencies
    (omega from the lowering component, omega' from the raising one) the four
    thermal term groups are added with rate scaling gamma * omega / omega_i,
    thermal weights n_th and n_th + 1, and the Gaussian filter on the frequency
    mismatch. The qubit channel additionally carries the pure-dephasing
    dissipators of the zero-frequency component of its coupling operator.

    The assembly is vectorized over matrix entries: an entry of the dressed
    operator at (row, col) with E_col - E_row > omega_min belongs to the
    lowering component at omega = E_col - E_row, and its transpose entry to the
    raising one, so per-pair weights become broadcast arrays over entries.
    """
    if not channels:
        raise EmptyChannels("at least one bath channel is required")
    if basis.dim != params.dim:
        raise InconsistentBasis(f"basis dim {basis.dim} vs params dim {params.dim}")
    d = basis.dim
    e = basis.energies
    # omega_gap[r, c] = E_c - E_r: transition frequency carried by entry (r, c)
    omega_gap = e[None, :] - e[:, None]
    plus_mask = omega_gap > config.omega_min

    if config.filter_b == 0.0:
        def filt(wp, wm):
            return _secular_indicator(wp, wm, config.omega_min)
    else:
        def filt(wp, wm):
            return gaussian_filter(wp, wm, config.filter_b)

    lg = np.zeros((d * d, d * d), dtype=complex)
    for ch in channels:
        x = basis.to_dressed(channel_operator(ch, params))
        a_plus = np.where(plus_mask, x, 0.0)
        a_minus = a_plus.conj().T
        wplus = np.where(plus_mask, omega_gap, 0.0)  # frequency of a_plus entries
        wminus = wplus.T  # frequency of a_minus entries
        scale = ch.gamma / ch.ref_frequency
        w_n = _omega_nth(wplus, ch.temperature)  # omega * n_th(omega)
        w_n1 = w_n + wplus  # omega * (n_th(omega) + 1)

        # -- sandwich terms ------------------------------------------------
        # A-(w') rho A+(w) with weight [w' n(w') + w n(w)] and
        # A+(w) rho A-(w') with weight [w (n(w)+1) + w' (n(w')+1)], both
        # filtered on |w - w'| and carrying the overall 1/2. The 4-index
        # arrays are laid out as (a, b, c, d2) for entry ((a, b), (c, d2)) of
        # the flattened superoperator rho_cd -> (X rho Y)_ab = X_ac rho_cd Y_db.
        wn_m = _omega_nth(wminus, ch.temperature)
        wm_ac = wminus[:, None, :, None]  # w' carried by A-[a, c]
        wp_db = wplus.T[None, :, None, :]  # w carried by A+[d2, b]
        f4 = np.where(
            (wm_ac > 0) & (wp_db > 0), filt(wp_db, wm_ac), 0.0
        )
        w_sand_th = wn_m[:, None, :, None] + w_n.T[None, :, None, :]
        amin_ac = a_minus[:, None, :, None]
        aplu_db = a_plus.T[None, :, None, :]
        lg += (0.5 * scale) * (amin_ac * aplu_db * f4 * w_sand_th).reshape(d * d, d * d)
        # A+(w) rho A-(w'): X = a_plus (freq w at [a, c]), Y = a_minus (w' at [d2, b])
        wp_ac = wplus[:, None, :, None]
        wm_db = wminus.T[None, :, None, :]
        f4b = np.where(
            (wp_ac > 0) & (wm_db > 0), filt(wp_ac, wm_db), 0.0
        )
        w_sand_em = w_n1[:, None, :, None] + (wn_m + wminus).T[None, :, None, :]
        aplu_ac = a_plus[:, None, :, None]
        amin_db = a_minus.T[None, :, None, :]
        lg += (0.5 * scale) * (aplu_ac * amin_db * f4b * w_sand_em).reshape(d * d, d * d)

        # -- left/right products -------------------------------------------
        # K1 = sum w' n(w') F A+(w) A-(w')   -> -1/2 {spre}
        # K2 = sum w  n(w)  F A+(w) A-(w')   -> -1/2 {spost}
        # K3 = sum w (n(w)+1) F A-(w') A+(w) -> -1/2 {spre}
        # K4 = sum w'(n(w')+1) F A-(w') A+(w)-> -1/2 {spost}
        wp_3 = wplus[:, :, None]  # (a, c, b) -> w of A+[a, c]
        wm_3 = wminus[None, :, :]  # -> w' of A-[c, b]
        f3 = filt(wp_3, wm_3)
        f3 = np.where((wp_3 > 0) & (wm_3 > 0), f3, 0.0)
        k1 = np.einsum("ac,cb,acb->ab", a_plus, a_minus, f3 * wn_m[None, :, :])
        k2 = np.einsum("ac,cb,acb->ab", a_plus, a_minus, f3 * w_n[:, :, None])
        wmp_3 = wminus[:, :, None]  # (a, c, b) -> w' of A-[a, c]
        wpp_3 = wplus[None, :, :]  # -> w of A+[c, b]
        f3b = filt(wpp_3, wmp_3)
        f3b = np.where((wmp_3 > 0) & (wpp_3 > 0), f3b, 0.0)
        w_em_plus = w_n + wplus  # omega (n+1) indexed like a_plus
        k3 = np.einsum("ac,cb,acb->ab", a_minus, a_plus, f3b * w_em_plus[None, :, :])
        w_em_minus = wn_m + wminus
        k4 = np.einsum("ac,cb,acb->ab", a_minus, a_plus, f3b * w_em_minus[:, :, None])
        lg -= (0.5 * scale) * (spre(k1) + spost(k2) + spre(k3) + spost(k4))

        if ch.which == ChannelKind.QUBIT:
            lg += _dephasing(x, ch, config)

    return lg


def _dephasing(x_dressed: np.ndarray, channel: BathChannel, config: GmeConfig) -> np.ndarray:
    """Pure-dephasing dissipator of a qubit channel: the zero-frequency
    (diagonal) part of its dressed coupling operator at rate
    (gamma / omega_i) (2 T + 1), or (2 n_th + 1) for the "bose" weight."""
    if config.dephasing_weight == "printed":
        weight = 2.0 * channel.temperature + 1.0
    else:
        nth = 0.0 if channel.temperature == 0.0 else thermal_occupation(
            channel.ref_frequency, channel.temperature
        )
        weight = 2.0 * nth + 1.0
    scale = channel.gamma / channel.ref_frequency
    return scale * weight * dissipator(np.diag(np.diag(x_dressed)))


def dephasing_superoperator(
    basis: DressedBasis,
    channel: BathChannel,
    params: SystemParams,
    config: GmeConfig | None = None,
) -> np.ndarray:
    """Just the pure-dephasing part of a qubit channel (diagnostics and tests)."""
    x = basis.to_dressed(channel_operator(channel, params))
    return _dephasing(x, channel, config or GmeConfig())


def total_liouvillian(basis: DressedBasis, lg: np.ndarray) -> np.ndarray:
    """Full generator -i [H0, rho] + L_g rho in the dressed basis."""
    h = np.diag(basis.energies.astype(complex))
    return hamiltonian_superoperator(h) + lg


def build_drive_superoperators(
    x: np.ndarray,
    rate_gamma: float,
    b_in: float,
    phase: float,
    omega_d: float,
    coupling_sign: int,
    omega_r: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Coherent-drive superoperators L_{+/-} rho = +/- s |b_in| e^{+/- i phi}
    sqrt(gamma omega_d / omega_r) [X, rho].

    These are -i[h_{+/-}, rho] with h_- = h_+^dagger, so the sideband pair
    keeps the time-periodic density matrix Hermitian: (L_+ rho)^dagger
    = L_- rho^dagger. ``coupling_sign`` is +1 for capacitive coupling and -1
    for the mutual inductive one (the interaction Hamiltonians differ by an
    overall sign).
    """
    if omega_d <= 0:
        raise NonPositiveFrequency("drive frequency must be positive")
    if rate_gamma < 0:
        raise ValueError("rate_gamma must be >= 0")
    comm = spre(x) - spost(x)
    amp = abs(b_in) * np.sqrt(rate_gamma * omega_d / omega_r)
    lp = coupling_sign * amp * np.exp(1j * phase) * comm
    lm = -coupling_sign * amp * np.exp(-1j * phase) * comm
    return lp, lm
