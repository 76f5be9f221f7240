"""Reference physics for the benchmark, written from the definitions in the
project README and module docstrings, with numpy and scipy only.

Nothing here imports ``uscspec``. Conventions follow the README: qubit (x)
Fock ordering with sigma_z = diag(1, -1); H = omega0/2 sigma_z + omega_r a^dag a
+ omega_r eta (a + a^dag) sigma~_x with sigma~_x = cos(theta) sigma_z
- sin(theta) sigma_x, cos(theta) = epsilon / omega0, sin(theta) = delta /
omega0. Superoperators act on row-major vec(rho), so vec(A rho B) =
kron(A, B.T) vec(rho).

The dissipator is the secular dressed Lindblad form: transitions of one
channel operator are grouped into clusters of equal frequency, and each
cluster k gets gamma omega_k / omega_ref [(n_k + 1) D[A_k] + n_k D[A_k^dag]].
The qubit channel adds pure dephasing (gamma_q / delta)(2 T_q + 1) D[diag(X)]
("printed" weight), which vanishes at epsilon = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

OMEGA_MIN = 1e-9  # smallest transition frequency kept, and the cluster width

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class Point:
    """One sweep point of the qubit-LC circuit (units of omega_r)."""

    delta: float
    epsilon: float
    eta: float
    n_fock: int
    omega_r: float = 1.0


@dataclass(frozen=True)
class Bath:
    gamma: float
    temperature: float


class Model:
    """Hamiltonian, output operators and dressed basis at one point."""

    def __init__(self, p: Point):
        self.p = p
        n = p.n_fock
        omega0 = math.hypot(p.delta, p.epsilon)
        cos_t, sin_t = p.epsilon / omega0, p.delta / omega0
        a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, n)), 1)).astype(complex)
        ad = a.conj().T
        self.stx = np.kron(cos_t * SZ - sin_t * SX, np.eye(n))
        self.h = (0.5 * omega0 * np.kron(SZ, np.eye(n)) + p.omega_r * ad @ a
                  + p.omega_r * p.eta * (a + ad) @ self.stx)
        self.ops = {
            "X_M": a + ad - 2.0 * p.eta * self.stx,
            "X_C": 1j * (ad - a),
            "a_plus_adag": a + ad,
        }
        self.energies, self.vectors = np.linalg.eigh(self.h)

    def dressed(self, op: np.ndarray) -> np.ndarray:
        return self.vectors.conj().T @ op @ self.vectors

    def probe_rate(self, name: str) -> np.ndarray:
        """Dressed i[H, X]: the detected quantity of an emission probe."""
        x = self.ops[name]
        return self.dressed(1j * (self.h @ x - x @ self.h))


def port_of(probe: str) -> tuple[str, int]:
    """Port coupling operator and sign implied by a probe: the capacitive
    probe couples through X_C (+1), every other probe through X_M (-1)."""
    return ("X_C", +1) if probe == "X_C" else ("X_M", -1)


def _omega_n(omega: float, temperature: float) -> float:
    """omega n_th(omega) = omega / (exp(omega / T) - 1); zero at T = 0."""
    if temperature == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(omega / np.expm1(omega / temperature))


def _add_lindblad(lv: np.ndarray, ada: np.ndarray, r, c, x, rate: float) -> None:
    """Add rate * D[A] for A = sum_i x[i] |r[i]><c[i]|: the sandwich
    A rho A^dag goes into ``lv`` at once, A^dag A is summed into ``ada`` for
    the anticommutator, which ``dissipator`` applies once per call."""
    if rate == 0.0:
        return
    d = ada.shape[0]
    # A rho A^dag: entry ((r_i, r_j), (c_i, c_j)) gets x_i conj(x_j)
    lv[np.add.outer(r * d, r).ravel(), np.add.outer(c * d, c).ravel()] += (
        rate * np.outer(x, x.conj())).ravel()
    # A^dag A: entry (c_i, c_j) gets conj(x_i) x_j where r_i == r_j
    i, j = np.nonzero(np.equal.outer(r, r))
    np.add.at(ada, (c[i], c[j]), rate * x[i].conj() * x[j])


def dissipator(e: np.ndarray, channels: list[tuple[np.ndarray, float, float, float]],
               dephasing: tuple[np.ndarray, float]) -> np.ndarray:
    """Secular dressed Lindblad dissipator for sorted dressed energies ``e``.

    ``channels`` holds (dressed operator, gamma, temperature, omega_ref);
    ``dephasing`` is (dressed operator, rate).
    """
    d = e.size
    lv = np.zeros((d * d, d * d), dtype=complex)
    ada = np.zeros((d, d), dtype=complex)
    rr, cc = np.nonzero(e[None, :] - e[:, None] > OMEGA_MIN)
    w = e[cc] - e[rr]
    order = np.argsort(w, kind="stable")
    rr, cc, w = rr[order], cc[order], w[order]
    starts = np.flatnonzero(np.r_[True, np.diff(w) > OMEGA_MIN])
    clusters = list(zip(starts, np.r_[starts[1:], w.size]))
    for x, gamma, temp, ref in channels:
        for lo, hi in clusters:
            r, c, vals = rr[lo:hi], cc[lo:hi], x[rr[lo:hi], cc[lo:hi]]
            if not np.any(vals):
                continue
            wk = w[lo:hi].mean()
            wn = _omega_n(wk, temp)
            _add_lindblad(lv, ada, r, c, vals, gamma / ref * (wk + wn))
            _add_lindblad(lv, ada, c, r, vals.conj(), gamma / ref * wn)
    x, rate = dephasing
    idx = np.arange(d)
    _add_lindblad(lv, ada, idx, idx, np.diag(x).astype(complex), rate)
    eye = np.eye(d)
    lv -= 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T))
    return lv


def generator(m: Model, probe: str, port: Bath, qubit: Bath) -> np.ndarray:
    """-i[H, .] plus the dissipator of the port and qubit baths; the port
    couples through the operator ``port_of(probe)`` names."""
    x_port = m.dressed(m.ops[port_of(probe)[0]])
    x_q = m.dressed(m.stx)
    lv = dissipator(
        m.energies,
        [(x_port, port.gamma, port.temperature, m.p.omega_r),
         (x_q, qubit.gamma, qubit.temperature, m.p.delta)],
        (x_q, qubit.gamma / m.p.delta * (2.0 * qubit.temperature + 1.0)),
    )
    e = m.energies
    coherent = -1j * np.subtract.outer(e, e).ravel()
    lv[np.diag_indices_from(lv)] += coherent
    return lv


def steady_state(lv: np.ndarray) -> np.ndarray:
    """Null vector of L with unit trace, from the bordered system
    [[L, t], [t^T, 0]] [x; mu] = [0; 1] with t = vec(identity)."""
    n = lv.shape[0]
    d = math.isqrt(n)
    t = np.eye(d).ravel().astype(complex)
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = lv
    bordered[:n, n] = t
    bordered[n, :n] = t
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[n] = 1.0
    x = scipy.linalg.solve(bordered, rhs)[:n]
    return x.reshape(d, d)


def emission(lv: np.ndarray, rho: np.ndarray, x_dot: np.ndarray, omegas) -> np.ndarray:
    """S(w) = Re Tr[X-(i w - L)^-1 (X+ rho)], one direct solve per w; X+ is the
    strictly upper (energy-lowering) triangle of the dressed probe."""
    d = rho.shape[0]
    xp = np.triu(x_dot, 1)
    xm = xp.conj().T
    b = (xp @ rho).ravel()
    eye = np.eye(lv.shape[0])
    out = []
    for w in omegas:
        sol = scipy.linalg.solve(1j * w * eye - lv, b).reshape(d, d)
        out.append(float(np.real(np.trace(xm @ sol))))
    return np.array(out)


def s11_linear(m: Model, lv: np.ndarray, rho: np.ndarray, probe: str,
               gamma_port: float, omega_d, phase: float = 0.0) -> np.ndarray:
    """|S11| of a weakly driven port to first order in the drive:
    rho^-1 = -(L + i w_d)^-1 L- rho_ss, L- rho = -s e^{-i phi}
    sqrt(gamma w_d / w_r) [X_port, rho] per unit b_in, and
    S11 = |1 + s sqrt(2 pi) sqrt(w_d gamma / w_r) Tr[X_probe+ rho^-1]| per
    unit b_in (the b_in of the drive cancels)."""
    name, sign = port_of(probe)
    x_port = m.dressed(m.ops[name])
    xp_probe = np.triu(m.dressed(m.ops[probe]), 1)
    comm = (x_port @ rho - rho @ x_port).ravel()
    d = rho.shape[0]
    eye = np.eye(lv.shape[0])
    out = []
    for wd in omega_d:
        amp = math.sqrt(gamma_port * wd / m.p.omega_r)
        l_minus_rho = -sign * np.exp(-1j * phase) * amp * comm
        rho_m1 = -scipy.linalg.solve(lv + 1j * wd * eye, l_minus_rho).reshape(d, d)
        tr = np.trace(xp_probe @ rho_m1)
        out.append(abs(1.0 + sign * math.sqrt(2.0 * math.pi) * amp * tr))
    return np.array(out)
