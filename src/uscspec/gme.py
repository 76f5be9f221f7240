"""Generalized master equation: frequency-dependent thermal Liouvillian with a
Gaussian secular filter, pure dephasing, and coherent-drive superoperators.

Superoperators act on row-major flattened density matrices:
``vec(rho)[a * d + b] = rho[a, b]``, so ``vec(X rho Y) = kron(X, Y.T) vec(rho)``.
They are dense complex arrays, except the secular generator
(``SecularGenerator``), which keeps only its rates and coherence decays, and
the drive (``Commutator``), which keeps only its d x d operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dressed import OMEGA_MIN, DressedBasis
from .errors import EmptyChannels, InconsistentBasis, NonPositiveFrequency
from .model import (
    ModelKind,
    OutputKind,
    SystemParams,
    SIGMA_X,
    build_output_operator,
    qubit_op,
    sigma_tilde_x,
)


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
        object.__setattr__(self, "which", ChannelKind(self.which))
        # chained comparisons, so that NaN and inf fail them too
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.ref_frequency < math.inf:
            raise ValueError(f"ref_frequency must be finite and > 0, got {self.ref_frequency}")
        if self.which == ChannelKind.RESONATOR and self.jump_kind is None:
            raise ValueError("resonator channel needs a jump_kind")


def resonator_channel(gamma: float, temperature: float, jump_kind: OutputKind) -> BathChannel:
    return BathChannel(ChannelKind.RESONATOR, gamma, temperature, 1.0, jump_kind)  # omega_r = 1


def qubit_channel(gamma: float, temperature: float, delta: float) -> BathChannel:
    return BathChannel(ChannelKind.QUBIT, gamma, temperature, delta)


@dataclass(frozen=True)
class GmeConfig:
    """Assembly controls: Gaussian filter width (0 selects the secular
    generator) and the dephasing-weight convention.

    ``dephasing_weight`` selects the pure-dephasing rate attached to the qubit
    channel: "printed" uses (gamma_q / delta) * (2 T_q + 1) exactly as stated;
    "bose" replaces T_q by the thermal occupation at the tunnel splitting.
    """

    filter_b: float = 0.0
    dephasing_weight: str = "printed"

    def __post_init__(self):
        if not 0 <= self.filter_b < math.inf:
            raise ValueError(f"filter_b must be finite and >= 0, got {self.filter_b}")
        if self.dephasing_weight not in ("printed", "bose"):
            raise ValueError(f"unknown dephasing_weight {self.dephasing_weight!r}")


@dataclass(frozen=True, eq=False)
class SecularGenerator:
    """The secular layout of a generator: populations follow the rate matrix
    ``rates`` (rates[f, i] the rate of i -> f, columns summing to 0), and
    rho_ab, a != b, decays alone at ``coherence[a, b]`` (its diagonal is not
    read). It has no arithmetic and no ``__array__``: ``@`` applies L to
    vec(rho), or to a stack of such columns, in O(d^2), and ``matrix`` builds
    the dense d^2 x d^2 array, which no solver reads: tests and the
    benchmark's self-check compare against it."""

    rates: np.ndarray
    coherence: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        d = self.rates.shape[0]
        l = np.diag(self.coherence.reshape(-1))
        l[:: d + 1, :: d + 1] = self.rates  # the population rows and columns
        return l

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        d = self.rates.shape[0]
        x = v.reshape(d * d, -1)
        out = self.coherence.reshape(-1, 1) * x
        out[:: d + 1] = self.rates @ x[:: d + 1]
        return out.reshape(v.shape)


@dataclass(frozen=True, eq=False)
class Commutator:
    """rho -> coefficient [x, rho], kept as its d x d operator and coefficient;
    ``steady.floquet_harmonics`` applies it to each harmonic, in O(d^3)."""

    x: np.ndarray
    coefficient: complex


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
    """Secular filter exp(-|omega - omega'|^2 / (2 b^2)); at b = 0 the
    indicator of |omega - omega'| <= OMEGA_MIN, the secular rule. Equal
    frequencies weigh exactly 1 at every b > 0, also where 2 b^2 underflows
    to 0 and the quotient would be 0/0."""
    diff = np.asarray(omega, dtype=float) - np.asarray(omega_prime, dtype=float)
    if b == 0.0:
        out = (np.abs(diff) <= OMEGA_MIN).astype(float)
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(diff == 0, 1.0, np.exp(-(diff**2) / (2.0 * b * b)))
    return out if out.ndim else float(out)


def channel_operator(channel: BathChannel, params: SystemParams) -> np.ndarray:
    """Bare-basis system operator the channel's bath couples to."""
    if channel.which == ChannelKind.RESONATOR:
        return build_output_operator(channel.jump_kind, params)
    if params.model_kind == ModelKind.CAVITY_QED:
        return qubit_op(SIGMA_X, params.n_fock)
    return sigma_tilde_x(params)


def build_gme(
    basis: DressedBasis,
    channels: list[BathChannel],
    config: GmeConfig,
    params: SystemParams,
) -> np.ndarray | SecularGenerator:
    """Assemble the dissipative generalized Liouvillian in the dressed basis.

    Every channel contributes two filtered dissipators (``_filtered_dissipator``)
    of its dressed coupling operator, with rate scaling gamma / omega_i:
    emission through the lowering part A+ with weight omega (n_th + 1), and
    absorption through the raising part A- = (A+)^dagger with weight
    omega n_th. The qubit channel additionally carries the pure-dephasing
    dissipator of the zero-frequency component of its coupling operator, which
    only adds a rate to each rho_ab (``_dephasing_rates``).

    An entry of the dressed operator at (row, col) with E_col - E_row >
    OMEGA_MIN belongs to the lowering component at omega = E_col - E_row, and
    its transpose entry to the raising one.

    At ``filter_b = 0``, when no two Bohr frequencies (nor one and 0) lie
    within OMEGA_MIN, that sum is a Pauli rate matrix on the populations plus
    one decay rate per coherence, returned as a ``SecularGenerator``
    (``_secular_generator``); otherwise the filtered dissipators are summed
    into a dense array.
    """
    if not channels:
        raise EmptyChannels("at least one bath channel is required")
    if basis.dim != params.dim:
        raise InconsistentBasis(f"basis dim {basis.dim} vs params dim {params.dim}")
    d = basis.dim
    e = basis.energies
    # omega_gap[r, c] = E_c - E_r: transition frequency carried by entry (r, c)
    omega_gap = e[None, :] - e[:, None]
    plus_mask = omega_gap > OMEGA_MIN
    wplus = np.where(plus_mask, omega_gap, 0.0)  # frequency of A+ entries

    # per channel: channel, dressed X, A+, s omega n_th and s omega (n_th + 1), s = gamma / omega_i
    terms = []
    for ch in channels:
        x = basis.to_dressed(channel_operator(ch, params))
        scale = ch.gamma / ch.ref_frequency
        w_n = scale * _omega_nth(wplus, ch.temperature)
        terms.append((ch, x, np.where(plus_mask, x, 0.0), w_n, w_n + scale * wplus))

    if config.filter_b == 0.0 and _bohr_frequencies_separated(e):
        return _secular_generator(terms, config, d)
    lg = np.zeros((d * d, d * d), dtype=complex)
    for ch, x, a_plus, w_n, w_n1 in terms:
        _filtered_dissipator(lg, a_plus, wplus, w_n1, config.filter_b)
        _filtered_dissipator(lg, a_plus.conj().T, wplus.T, w_n.T, config.filter_b)
        if ch.which == ChannelKind.QUBIT:
            lg[np.diag_indices_from(lg)] += _dephasing_rates(x, ch, config).reshape(-1)
    return lg


def _bohr_frequencies_separated(e: np.ndarray) -> bool:
    """True when no two Bohr frequencies E_a - E_b (a != b), nor one of them
    and 0, lie within OMEGA_MIN (widened by the rounding of differences of
    differences). Only then does the b = 0 filter leave every coherence
    uncoupled from the other coherences and from the populations."""
    bohr = np.sort((e[:, None] - e[None, :])[~np.eye(e.size, dtype=bool)])
    tol = OMEGA_MIN + 16 * np.finfo(float).eps * np.abs(e).max()
    return bool(np.abs(bohr).min() > tol and np.diff(bohr).min() > tol)


def _secular_generator(terms, config: GmeConfig, d: int) -> SecularGenerator:
    """The b = 0 generator at separated Bohr frequencies, in O(d^2) per channel.

    A transition i -> f at omega = E_i - E_f > OMEGA_MIN relaxes at
    R[f, i] = s |X_fi|^2 omega (n_th + 1) and is excited back at
    R[i, f] = s |X_fi|^2 omega n_th. The populations obey W = R - diag(Gamma),
    Gamma the column sums of R; coherence (a, b) decays at
    -(Gamma_a + Gamma_b) / 2 plus the qubit channel's ``_dephasing_rates``.
    These are the only nonzero entries of the filtered dissipators there.
    """
    rates = np.zeros((d, d))  # rates[f, i]: rate of i -> f
    coherence = np.zeros((d, d), dtype=complex)
    for ch, x, a_plus, w_n, w_n1 in terms:
        strength = np.abs(a_plus) ** 2
        rates += strength * w_n1 + (strength * w_n).T
        if ch.which == ChannelKind.QUBIT:
            coherence += _dephasing_rates(x, ch, config)
    escape = rates.sum(axis=0)
    coherence -= 0.5 * (escape[:, None] + escape[None, :])
    return SecularGenerator(rates - np.diag(escape), coherence)


def _filtered_dissipator(lg: np.ndarray, j: np.ndarray, w: np.ndarray, g: np.ndarray,
                         b: float) -> None:
    """Add to ``lg`` the filtered dissipator of one jump operator J whose
    entry J[r, c] is a transition at frequency w[r, c] with weight g[r, c]:

        1/2 sum F(w1, w2) [(g1 + g2) J(w2) rho J(w1)^dag
                           - g2 J(w1)^dag J(w2) rho - g1 rho J(w1)^dag J(w2)]

    summed over pairs of entries: the filtered Lindblad form (Breuer and
    Petruccione, The Theory of Open Quantum Systems, sec. 3.3), with F the
    ``gaussian_filter`` of bandwidth b. F is symmetric, so the
    rho-on-the-left operator K = sum F g2 J(w1)^dag J(w2) gives the right
    one as K^dag. It is added one row block of the superoperator at a time,
    so no temporary is larger than d^3.
    """
    d = j.shape[0]
    g = 0.5 * g
    jc = j.conj()
    # (J^dag J)_ab = conj(J[c, a]) J[c, b], filtered on (w[c, a], w[c, b])
    f3 = gaussian_filter(w[:, :, None], w[:, None, :], b)
    k = np.einsum("ca,cb,cab->ab", jc, j, f3 * g[:, None, :])
    lg4 = lg.reshape(d, d, d, d)
    for a in range(d):
        # rho_ce -> (J rho J^dag)_ab = J[a, c] rho[c, e] conj(J[b, e]), laid
        # out as (b, c, e) for entry ((a, b), (c, e)) of the superoperator
        weight = gaussian_filter(w[a][None, :, None], w[:, None, :], b)
        weight *= g[a][None, :, None] + g[:, None, :]
        row = j[a][None, :, None] * jc[:, None, :]
        row *= weight
        # minus K rho, the entries (b, c, b), and rho K^dag, the entries (b, a, e)
        np.einsum("bcb->bc", row)[...] -= k[a][None, :]
        row[:, a, :] -= k.conj()
        lg4[a] += row


def _dephasing_rates(
    x_dressed: np.ndarray, channel: BathChannel, config: GmeConfig
) -> np.ndarray:
    """Pure dephasing of a qubit channel, the dissipator of the zero-frequency
    (diagonal) part lam of its dressed coupling operator. It acts on rho_ab
    alone, at the rate returned in entry (a, b):
    kappa (lam_a conj(lam_b) - |lam_a|^2 / 2 - |lam_b|^2 / 2), with
    kappa = (gamma / omega_i) (2 T + 1), or (2 n_th + 1) in place of (2 T + 1)
    for the "bose" weight."""
    nth = (channel.temperature if config.dephasing_weight == "printed"
           else thermal_occupation(channel.ref_frequency, channel.temperature))
    kappa = channel.gamma / channel.ref_frequency * (2.0 * nth + 1.0)
    lam = np.diag(x_dressed)
    half = 0.5 * (lam.conj() * lam).real
    return kappa * (np.outer(lam, lam.conj()) - half[:, None] - half[None, :])


def total_liouvillian(
    basis: DressedBasis, lg: np.ndarray | SecularGenerator
) -> np.ndarray | SecularGenerator:
    """Full generator -i [H0, rho] + L_g rho in the dressed basis: H0 is
    diagonal there, so -i [H0, .] only adds -i (E_a - E_b) to the rate of
    rho_ab, which a ``SecularGenerator`` takes in its coherence decays."""
    e = basis.energies
    bohr = e[:, None] - e[None, :]
    if isinstance(lg, SecularGenerator):
        return replace(lg, coherence=lg.coherence - 1j * bohr)
    l = lg.astype(complex)
    l[np.diag_indices_from(l)] += -1j * bohr.reshape(-1)
    return l


def build_drive_superoperators(
    x: np.ndarray,
    rate_gamma: float,
    b_in: float,
    phase: float,
    omega_d: float,
) -> Commutator:
    """The coherent drive's raising sideband L_+ rho = c [X, rho], with
    c = |b_in| e^{i phi} sqrt(gamma omega_d) (omega_d in units of omega_r),
    as one ``Commutator`` on X.

    L_+ = -i[h_+, .] pairs with L_- = -conj(c) [X, .] = -i[h_+^dagger, .],
    which ``steady.floquet_harmonics`` forms from it; for Hermitian X the pair
    keeps the time-periodic density matrix Hermitian.
    """
    if omega_d <= 0:
        raise NonPositiveFrequency("drive frequency must be positive")
    if rate_gamma < 0:
        raise ValueError("rate_gamma must be >= 0")
    amp = abs(b_in) * np.sqrt(rate_gamma * omega_d)
    return Commutator(x, amp * np.exp(1j * phase))
