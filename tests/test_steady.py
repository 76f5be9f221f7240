from dataclasses import replace

import numpy as np
import pytest

from uscspec import steady
from uscspec.dressed import dressed_basis
from uscspec.errors import NoConvergence, NonPositiveFrequency, SingularHarmonicSolve
from uscspec.gme import (
    Commutator,
    GmeConfig,
    SecularGenerator,
    build_drive_superoperators,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from uscspec.model import OutputKind, SystemParams, build_output_operator
from uscspec.steady import (
    NULLSPACE_GAP_TOL,
    floquet_harmonics,
    steady_state,
)

from reference import commutator_matrix


def _liouvillian(eta=0.6, epsilon=0.0, n_fock=6, t_r=0.0, t_q=0.1):
    params = SystemParams(delta=1.0, epsilon=epsilon, eta=eta, n_fock=n_fock)
    basis = dressed_basis(params)
    channels = [
        resonator_channel(gamma=1e-3, temperature=t_r,
                          jump_kind=OutputKind.CAPACITIVE_C),
        qubit_channel(gamma=1e-2, temperature=t_q, delta=params.delta),
    ]
    lg = build_gme(basis, channels, GmeConfig(), params)
    return params, basis, total_liouvillian(basis, lg)


class TestSteadyState:
    def test_decoupled_zero_temperature_ground_state(self):
        params, basis, lm = _liouvillian(eta=0.0, t_r=0.0, t_q=0.0)
        rho = steady_state(lm)
        expected = np.zeros_like(rho)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-10)

    def test_properties(self):
        params, basis, lm = _liouvillian(eta=0.9, t_r=0.3, t_q=0.3)
        rho = steady_state(lm)
        assert np.linalg.svd(lm.matrix, compute_uv=False)[-2] >= NULLSPACE_GAP_TOL
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-10
        assert np.abs(lm @ rho.reshape(-1)).max() < 1e-10

    def test_residual_check_rejects_driven_generator(self):
        # a generator with no null vector (e.g. L - c*I) has no steady state
        _, _, lm = _liouvillian()
        with pytest.raises(NoConvergence):
            steady_state(lm.matrix - 0.05 * np.eye(lm.matrix.shape[0]))


def _driven_system(b_in=0.03, omega_d=1.0, phase=0.0, eta=0.6,
                   n_fock=5, order=2, filter_b=0.0):
    params = SystemParams(delta=1.0, epsilon=0.0, eta=eta, n_fock=n_fock)
    basis = dressed_basis(params)
    channels = [
        resonator_channel(gamma=1e-3, temperature=0.1,
                          jump_kind=OutputKind.CAPACITIVE_C),
        qubit_channel(gamma=5e-3, temperature=0.1, delta=params.delta),
    ]
    lg = build_gme(basis, channels, GmeConfig(filter_b=filter_b), params)
    lm = total_liouvillian(basis, lg)
    x = basis.to_dressed(build_output_operator(OutputKind.CAPACITIVE_C, params))
    lp = build_drive_superoperators(x, rate_gamma=1e-3, b_in=b_in,
                                    phase=phase, omega_d=omega_d)
    # the oracles' L-, from its physical coefficient -|b_in| sqrt(gamma w_d)
    # e^{-i phi} rather than from L+
    lmn = Commutator(x, -abs(b_in) * np.sqrt(1e-3 * omega_d) * np.exp(-1j * phase))
    return params, lm, lp, lmn, x


class TestFloquetHarmonics:
    def test_zero_drive_reduces_to_steady_state(self):
        params, lm, lp, _, _ = _driven_system(b_in=0.0)
        h = floquet_harmonics(lm, lp, omega_d=1.0, order=2)
        np.testing.assert_allclose(h[0], steady_state(lm), atol=1e-10)
        for k in (-2, -1, 1, 2):
            assert np.abs(h[k]).max() < 1e-12

    def test_invariants(self):
        params, lm, lp, _, _ = _driven_system()
        h = floquet_harmonics(lm, lp, omega_d=1.0, order=2)
        assert np.trace(h[0]) == pytest.approx(1.0, abs=1e-10)
        for k in (-2, -1, 1, 2):
            assert abs(np.trace(h[k])) < 1e-10
        np.testing.assert_allclose(h[0], h[0].conj().T, atol=1e-10)

    def test_harmonic_hermiticity_pairing(self):
        params, lm, lp, _, _ = _driven_system()
        h = floquet_harmonics(lm, lp, omega_d=1.0, order=2)
        np.testing.assert_allclose(h[-1], h[1].conj().T, atol=1e-12)
        np.testing.assert_allclose(h[-2], h[2].conj().T, atol=1e-12)

    def test_weak_drive_matches_linear_response(self):
        params, lm, lp, lmn, _ = _driven_system(b_in=1e-4, omega_d=0.9)
        h = floquet_harmonics(lm, lp, omega_d=0.9, order=2)
        rho_ss = steady_state(lm)
        d = params.dim
        ident = np.eye(d * d)
        rho_m1 = -np.linalg.solve(lm.matrix + 1j * 0.9 * ident,
                                  commutator_matrix(lmn) @ rho_ss.reshape(-1)).reshape(d, d)
        rel = np.abs(h[-1] - rho_m1).max() / np.abs(rho_m1).max()
        assert rel < 1e-6

    @pytest.mark.parametrize("filter_b", [0.0, 0.02])
    def test_negated_drive_alternates_the_harmonics_sign(self, filter_b):
        # X -> -X maps rho^k to (-1)^k rho^k exactly, so a port's sign
        # cancels from S11 = |1 + amp Tr[X+ rho^{-1}]|
        _, lm, lp, _, _ = _driven_system(b_in=0.3, omega_d=0.9, phase=0.7,
                                         n_fock=6, filter_b=filter_b)
        assert isinstance(lm, SecularGenerator) == (filter_b == 0)
        h_pos = floquet_harmonics(lm, lp, omega_d=0.9, order=3)
        h_neg = floquet_harmonics(lm, replace(lp, coefficient=-lp.coefficient),
                                  omega_d=0.9, order=3)
        for k in range(-3, 4):
            np.testing.assert_array_equal(h_neg[k], (-1) ** k * h_pos[k])

    def test_order_below_one_rejected(self):
        _, lm, lp, _, _ = _driven_system()
        with pytest.raises(ValueError, match="order"):
            floquet_harmonics(lm, lp, omega_d=1.0, order=0)

    @pytest.mark.parametrize("omega_d", [0.0, -1.0])
    def test_non_positive_drive_frequency_rejected(self, omega_d):
        _, lm, lp, _, _ = _driven_system()
        with pytest.raises(NonPositiveFrequency, match="omega_d"):
            floquet_harmonics(lm, lp, omega_d=omega_d, order=2)

    def test_order_convergence_at_weak_drive(self):
        params, lm, lp, _, x = _driven_system(b_in=0.03, omega_d=1.0)
        h2 = floquet_harmonics(lm, lp, omega_d=1.0, order=2)
        h4 = floquet_harmonics(lm, lp, omega_d=1.0, order=4)
        obs2 = np.trace(x @ h2[-1])
        obs4 = np.trace(x @ h4[-1])
        assert abs(obs2 - obs4) < 1e-8 * max(abs(obs4), 1.0)


def _stacked_harmonics(lm, lp, lmn, omega_d, order, d):
    """Independent oracle: the truncated chain k = -order .. order as one
    block-tridiagonal system, with the last population row of the k = 0 block
    replaced by the trace of rho^0."""
    n = d * d
    size = (2 * order + 1) * n
    lm = getattr(lm, "matrix", lm)
    lp = commutator_matrix(lp)
    lmn = commutator_matrix(lmn)
    big = np.zeros((size, size), dtype=complex)
    for i, k in enumerate(range(-order, order + 1)):
        rows = slice(i * n, (i + 1) * n)
        big[rows, rows] = lm - 1j * k * omega_d * np.eye(n)
        if i > 0:
            big[rows, (i - 1) * n:i * n] = lp
        if i < 2 * order:
            big[rows, (i + 1) * n:(i + 2) * n] = lmn
    trace_row = order * n + n - 1
    big[trace_row, :] = 0.0
    big[trace_row, order * n:(order + 1) * n] = np.eye(d).reshape(-1)
    rhs = np.zeros(size, dtype=complex)
    rhs[trace_row] = 1.0
    sol = np.linalg.solve(big, rhs).reshape(2 * order + 1, d, d)
    return {k: sol[k + order] for k in range(-order, order + 1)}


class TestFloquetOracle:
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("b_in,omega_d,phase", [(0.03, 1.0, 0.0),
                                                    (0.3, 0.9, 0.7)])
    def test_matches_stacked_solve(self, order, b_in, omega_d, phase):
        params, lm, lp, lmn, _ = _driven_system(b_in=b_in, omega_d=omega_d,
                                                phase=phase, n_fock=4)
        h = floquet_harmonics(lm, lp, omega_d=omega_d, order=order)
        ref = _stacked_harmonics(lm, lp, lmn, omega_d, order, params.dim)
        for k in range(-order, order + 1):
            np.testing.assert_allclose(h[k], ref[k], rtol=0, atol=1e-12)

    def test_non_hermitian_drive_operator_raises(self):
        # -conj(c) [X, .] is the Hermitian partner of c [X, .] only for a
        # Hermitian X; otherwise rho^{-k} = (rho^k)^dagger breaks, which the
        # pairing check catches
        _, lm, lp, _, x = _driven_system(b_in=0.3, n_fock=4)
        skewed = replace(lp, x=x + 0.3 * np.triu(np.ones_like(x), 1))
        with pytest.raises(NoConvergence, match="pairing"):
            floquet_harmonics(lm, skewed, omega_d=1.0, order=2)


class TestFloquetPaths:
    """One GMRES solves the secular layout and any other generator (here a
    finite filter bandwidth); both against the stacked oracle."""

    @pytest.mark.parametrize("filter_b", [0.0, 0.02])
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("b_in,omega_d,phase", [(0.03, 1.0, 0.0),
                                                    (0.3, 0.9, 0.7)])
    def test_path_matches_stacked_solve(self, filter_b, order, b_in, omega_d, phase):
        params, lm, lp, lmn, _ = _driven_system(b_in=b_in, omega_d=omega_d, phase=phase,
                                                n_fock=4, filter_b=filter_b)
        assert isinstance(lm, SecularGenerator) == (filter_b == 0)
        h = floquet_harmonics(lm, lp, omega_d=omega_d, order=order)
        ref = _stacked_harmonics(lm, lp, lmn, omega_d, order, params.dim)
        for k in range(-order, order + 1):
            np.testing.assert_allclose(h[k], ref[k], rtol=0, atol=1e-12)

    def test_gmres_iteration_cap_raises_without_fold(self, monkeypatch):
        monkeypatch.setattr(steady, "HARMONIC_GMRES_MAX_ITER", 1)
        for filter_b in (0.0, 0.02):
            _, lm, lp, _, _ = _driven_system(b_in=0.3, n_fock=4, filter_b=filter_b)
            with pytest.raises(NoConvergence, match="GMRES"):
                floquet_harmonics(lm, lp, omega_d=1.0, order=2)

    def test_split_populations_raise_typed_error(self):
        # nothing enters or leaves state 0, so the undriven k = 0 block of the
        # preconditioner is singular
        params, lm, lp, _, _ = _driven_system(n_fock=4)
        with pytest.raises(SingularHarmonicSolve):
            floquet_harmonics(_split_populations(lm), lp, omega_d=1.0, order=2)

    def test_split_populations_raise_typed_error_on_the_dense_layout(self):
        params, lm, lp, _, _ = _driven_system(n_fock=4)
        with pytest.raises(SingularHarmonicSolve):
            floquet_harmonics(_split_populations(lm).matrix, lp, omega_d=1.0, order=2)


def _split_populations(lm):
    """``lm`` with every rate into and out of state 0 removed."""
    w = lm.rates.copy()
    w[0, :] = w[:, 0] = 0.0
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, -w.sum(axis=0))
    return replace(lm, rates=w)
