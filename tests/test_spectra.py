import numpy as np
import pytest

from uscspec import spectra
from uscspec.cli import load_config
from uscspec.dressed import dressed_basis, frequency_components
from uscspec.errors import NoConvergence, ResolventSingular, ZeroDrive
from uscspec.gme import (
    GmeConfig,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from uscspec.model import (
    OutputKind,
    SystemParams,
    build_output_operator,
    build_static_hamiltonian,
)
from uscspec.spectra import (
    PROBE_COUPLING,
    Normalization,
    _s11,
    emission_probe,
    emission_spectrum,
    reflectivity_spectrum,
)
from uscspec.steady import steady_state

from reference import heisenberg_derivative


def _emission_setup(eta=0.6, epsilon=0.0, n_fock=6, gamma_r=1e-3,
                    gamma_q=1e-2, t_r=0.0, t_q=0.1,
                    jump_kind=OutputKind.CAPACITIVE_C, delta=1.0):
    params = SystemParams(delta=delta, epsilon=epsilon, eta=eta, n_fock=n_fock)
    basis = dressed_basis(params)
    channels = [
        resonator_channel(gamma=gamma_r, temperature=t_r, jump_kind=jump_kind),
        qubit_channel(gamma=gamma_q, temperature=t_q, delta=params.delta),
    ]
    lm = total_liouvillian(
        basis, build_gme(basis, channels, GmeConfig(), params))
    return params, basis, lm


class TestEmissionSpectrum:
    def test_positivity(self):
        params, basis, lm = _emission_setup(eta=0.9, t_r=0.1)
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        spec = emission_spectrum(lm, rho, xd, np.linspace(0.05, 3.0, 120))
        assert spec.min() > -1e-12 * max(spec.max(), 1.0)

    def test_lines_sit_on_transitions(self):
        # every local maximum lies within twice the total rate of a dressed
        # transition frequency
        from uscspec.dressed import build_transition_table, plain_labels

        params, basis, lm = _emission_setup(eta=0.8)
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        grid = np.linspace(0.05, 3.0, 1200)
        s = emission_spectrum(lm, rho, xd, grid)
        omegas = np.array([omega for *_, omega in build_transition_table(
            basis.with_labels(plain_labels(basis.dim)))])
        peaks = grid[1:-1][(s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])]
        significant = peaks[
            s[np.searchsorted(grid, peaks)] > 1e-4 * s.max()]
        width = 2 * (1e-3 + 1e-2)
        for w in significant:
            assert np.abs(omegas - w).min() < width + (grid[1] - grid[0])

    def test_probe_sign_invariance(self):
        params, basis, lm = _emission_setup(eta=0.7)
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.INDUCTIVE_M, basis)
        grid = np.linspace(0.1, 2.5, 60)
        a = emission_spectrum(lm, rho, xd, grid)
        b = emission_spectrum(lm, rho, -xd, grid)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_eig_matches_solve(self):
        params, basis, lm = _emission_setup(eta=0.9, epsilon=0.2, t_r=0.2)
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        grid = np.linspace(0.05, 3.0, 80)
        a = emission_spectrum(lm, rho, xd, grid, method="solve")
        b = emission_spectrum(lm, rho, xd, grid, method="eig")
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-14 * abs(a).max())

    def test_decoupled_qubit_line_is_lorentzian(self):
        # eta = 0: the qubit emits a single line at its splitting whose shape
        # matches a Lorentzian of half-width set by the emission rate
        params, basis, lm = _emission_setup(eta=0.0, gamma_q=1e-2, t_q=0.0,
                                            delta=0.8, n_fock=2)
        rho = steady_state(lm)
        # seed population in the excited qubit state is zero at T=0, so drive
        # the correlation from a thermally populated steady state instead
        params, basis, lm = _emission_setup(eta=0.0, gamma_q=1e-2, t_q=0.2,
                                            delta=0.8, n_fock=2)
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        # the capacitive output at eta=0 only sees the resonator line at w_r;
        # use the qubit channel operator instead to isolate the qubit line
        from uscspec.gme import channel_operator

        stx = basis.to_dressed(channel_operator(
            qubit_channel(1e-2, 0.2, params.delta), params))
        stx_dot = 1j * (np.diag(basis.energies) @ stx
                        - stx @ np.diag(basis.energies))
        grid = np.linspace(0.70, 0.90, 801)
        s = emission_spectrum(lm, rho, stx_dot, grid)
        peak = grid[np.argmax(s)]
        assert abs(peak - 0.8) < 1e-3
        half = s.max() / 2
        above = grid[s > half]
        fwhm = above[-1] - above[0]
        # compare against the T-dependent total dephasing-free linewidth by a
        # Lorentzian fit: S ~ A / ((w - w0)^2 + (fwhm/2)^2)
        # the anti-resonant pole and the distant resonator line add a few
        # percent of background, so the shape check is loose
        lor = s.max() * (fwhm / 2) ** 2 / ((grid - peak) ** 2 + (fwhm / 2) ** 2)
        rel = np.abs(s - lor).max() / s.max()
        assert rel < 5e-2

    def test_regression_matches_time_domain_oracle(self):
        # independent check: propagate the two-time correlation explicitly and
        # Fourier-transform it
        import scipy.linalg

        params, basis, lm = _emission_setup(eta=0.4, n_fock=3, gamma_r=5e-3,
                                            gamma_q=5e-2, t_q=0.2, t_r=0.1)
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        x_plus = frequency_components(xd, "plus")
        x_minus = frequency_components(xd, "minus")
        dt, n_steps = 0.05, 24000
        step = scipy.linalg.expm(lm.matrix * dt)
        v = (x_plus @ rho).reshape(-1)
        probe = x_minus.T.reshape(-1)
        taus = np.arange(n_steps + 1) * dt
        corr = np.empty(n_steps + 1, dtype=complex)
        for k in range(n_steps + 1):
            corr[k] = probe @ v
            v = step @ v
        grid = np.array([0.6, 0.95, 1.0, 1.05, 1.6])
        ref = np.array([
            np.real(np.trapezoid(corr * np.exp(-1j * w * taus), taus))
            for w in grid
        ])
        got = emission_spectrum(lm, rho, xd, grid)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        # finite integration window and trapezoid discretization limit the
        # agreement to a few 1e-6
        assert rel < 1e-5


class TestEmissionProbe:
    @pytest.mark.parametrize("epsilon", [0.0, 0.4])
    @pytest.mark.parametrize("model_kind,kind", [
        ("circuit", OutputKind.INDUCTIVE_M),
        ("circuit", OutputKind.CAPACITIVE_C),
        ("circuit", OutputKind.QUADRATURE),
        ("cavity_qed", OutputKind.CAPACITIVE_C),
        ("cavity_qed", OutputKind.CAVITY_D),
        ("cavity_qed", OutputKind.QUADRATURE),
    ])
    def test_matches_the_bare_basis_commutator(self, model_kind, kind, epsilon):
        params = SystemParams(delta=1.0, epsilon=epsilon, eta=0.8, n_fock=10,
                              model_kind=model_kind)
        basis = dressed_basis(params)
        oracle = basis.to_dressed(heisenberg_derivative(
            build_output_operator(kind, params), build_static_hamiltonian(params)))
        probe = emission_probe(params, kind, basis)
        assert np.abs(probe - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_keeps_the_bohr_frequency_of_a_near_degenerate_doublet(self):
        # deep-strong coupling: E_1 - E_0 ~ 1.6e-8, below the round-off
        # eps |H| |X| of HX - XH, so only the exact gap resolves this element
        params = SystemParams(delta=1.0, epsilon=0.0, eta=3.0, n_fock=40)
        basis = dressed_basis(params)
        x = basis.to_dressed(build_output_operator(OutputKind.CAPACITIVE_C, params))
        expected = 1j * (basis.energies[0] - basis.energies[1]) * x[0, 1]
        probe = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        assert abs(probe[0, 1] - expected) <= 1e-6 * abs(expected)


class TestSpectrumSeries:
    @pytest.mark.parametrize("method", ["eig", "solve"])
    def test_pole_on_the_grid_raises_on_either_path(self, method):
        # an undamped dense L = -i[H, .]: the coherence (0, 1) has its pole at
        # E_1 - E_0, which the grid holds exactly
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.3, n_fock=3)
        basis = dressed_basis(params)
        lm = total_liouvillian(basis, np.zeros((params.dim ** 2,) * 2))
        rho = np.zeros((params.dim, params.dim), dtype=complex)
        rho[0, 0] = 1.0
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        gap = basis.energies[1] - basis.energies[0]
        with pytest.raises(ResolventSingular, match="omega="):
            emission_spectrum(lm, rho, xd, np.array([gap - 0.1, gap, gap + 0.1]),
                              method=method)

    def test_grid_must_increase(self):
        params, basis, lm = _emission_setup(n_fock=3)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        with pytest.raises(ValueError):
            emission_spectrum(lm, steady_state(lm), xd, np.array([1.0, 0.5]))

    def test_normalization_modes(self):
        assert Normalization("max_of_set") is Normalization.MAX_OF_SET


class TestReflectivity:
    def test_zero_drive_rejected(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a zero drive reached the GME or a Floquet solve")

        monkeypatch.setattr(spectra, "build_gme", no_solve)
        monkeypatch.setattr(spectra, "floquet_harmonics", no_solve)
        params = SystemParams(delta=0.69, epsilon=0.6, eta=1.01, n_fock=4)
        qb = qubit_channel(gamma=5e-3, temperature=0.55, delta=params.delta)
        with pytest.raises(ZeroDrive):
            reflectivity_spectrum(params, OutputKind.INDUCTIVE_M, np.array([0.9, 1.0]),
                                  qb, gamma_port=1e-3, port_temperature=0.55, b_in=0.0)

    def test_unresolvably_weak_drive_rejected(self):
        # |S11| is steady down to b_in = 1e-13 here; below, GMRES stops
        # before it resolves rho^{-1}, which would read |S11| = 1
        params = SystemParams(delta=0.69, epsilon=0.6, eta=1.01, n_fock=8)
        qb = qubit_channel(gamma=5e-3, temperature=0.55, delta=params.delta)
        with pytest.raises(NoConvergence, match="too weak to resolve"):
            reflectivity_spectrum(params, OutputKind.INDUCTIVE_M, np.linspace(0.8, 1.2, 9),
                                  qb, gamma_port=1e-3, port_temperature=0.55, b_in=1e-14)

    def _sweep(self, probe, eps_grid, omega_grid):
        """S11 rows, one reflectivity_spectrum call per flux offset."""
        rows = []
        for eps in eps_grid:
            params = SystemParams(delta=0.69, epsilon=float(eps), eta=1.01, n_fock=10)
            qb = qubit_channel(gamma=5e-3, temperature=0.55, delta=params.delta)
            rows.append(reflectivity_spectrum(
                params, probe, omega_grid, qb, gamma_port=1e-3,
                port_temperature=0.55, b_in=0.03, phase=0.0, order=2))
        return np.array(rows)

    def test_bounded_and_off_resonant_near_unity(self):
        omega_grid = np.array([0.02, 0.55, 0.9278, 2.9])
        m = self._sweep(OutputKind.INDUCTIVE_M, np.array([0.0]), omega_grid)
        vals = m[0]
        assert np.isfinite(vals).all()
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.05)
        # far from any transition the port just reflects
        assert abs(vals[0] - 1.0) < 1e-3
        assert abs(vals[-1] - 1.0) < 1e-3
        # on the lowest bright transition there is a dip
        assert vals[2] < 0.999

    def test_dip_sits_on_transition(self):
        # at zero offset the lowest parity-allowed line from the ground state
        # connects to the third excited state
        base = SystemParams(delta=0.69, epsilon=0.0, eta=1.01, n_fock=10)
        basis = dressed_basis(base)
        w30 = basis.energies[3] - basis.energies[0]
        omega_grid = np.linspace(w30 - 0.05, w30 + 0.05, 41)
        m = self._sweep(OutputKind.INDUCTIVE_M, np.array([0.0]), omega_grid)
        dip = omega_grid[np.argmin(m[0])]
        assert abs(dip - w30) < 2 * (1e-3 + 5e-3)

    def test_capacitive_and_inductive_probes_differ(self):
        omega_grid = np.linspace(0.8, 1.05, 21)
        a = self._sweep(OutputKind.INDUCTIVE_M, np.array([0.3]), omega_grid)
        b = self._sweep(OutputKind.CAPACITIVE_C, np.array([0.3]), omega_grid)
        assert np.abs(a - b).max() > 1e-6

    @pytest.mark.parametrize("probe", [OutputKind.CAPACITIVE_C, OutputKind.INDUCTIVE_M])
    def test_independent_of_drive_phase(self, probe):
        # on the eps = 0.6 dip: the drive phase rotates rho^-1 but not the ratio |S11|
        params = SystemParams(delta=0.69, epsilon=0.6, eta=1.01, n_fock=8)
        qb = qubit_channel(gamma=5e-3, temperature=0.55, delta=params.delta)
        s11 = [reflectivity_spectrum(params, probe, [1.0], qb, gamma_port=1e-3,
                                     port_temperature=0.55, b_in=0.03, phase=phi, order=2)
               for phi in (0.0, 0.7, 2.0)]
        np.testing.assert_allclose(s11[1:], [s11[0], s11[0]], rtol=0, atol=1e-12)


class TestLinearResponse:
    """S11 to first order in the drive, in closed form on the secular
    generator, against Floquet over the bundled fig6 drive grid. At first
    order rho^-1_ab = -alpha X_ab (p_b - p_a) / (c_ab + i w_d), alpha the
    amplitude of l_minus, p the steady populations and c the diagonal of L;
    the rest of Floquet's S11 is drive saturation, of order b_in^2."""

    EPSILONS = (0.0, 0.6, 1.2)

    def _gaps(self, b_values):
        config = load_config("fig6")
        port = next(b for b in config.baths if b.which == "resonator")
        qubit = next(b for b in config.baths if b.which == "qubit")
        grid = config.grid.values()
        gaps = {b_in: [] for b_in in b_values}
        for eps in self.EPSILONS:
            params = SystemParams(delta=config.system.delta, epsilon=eps,
                                  eta=config.system.eta, n_fock=8)
            basis = dressed_basis(params)
            qubit_bath = qubit_channel(qubit.gamma, qubit.temperature, params.delta)
            solved = {b_in: {} for b_in in b_values}
            for probe in config.probes:
                coupling = PROBE_COUPLING[probe]
                channels = [resonator_channel(port.gamma, port.temperature, coupling),
                            qubit_bath]
                lm = total_liouvillian(basis, build_gme(basis, channels, config.gme, params))
                rho = steady_state(lm)
                p, c = np.diag(rho).real, np.diagonal(lm.matrix).reshape(params.dim, params.dim)
                x = basis.to_dressed(build_output_operator(coupling, params))
                x_plus = frequency_components(
                    basis.to_dressed(build_output_operator(probe, params)), "plus")
                linear = []
                for wd in grid:
                    alpha = -np.exp(-1j * config.drive.phase) * np.sqrt(port.gamma * wd)
                    rho_m1 = -alpha * x * (p[None, :] - p[:, None]) / (c + 1j * wd)
                    linear.append(_s11(rho_m1, x_plus, port.gamma, 1.0, wd))
                for b_in in b_values:
                    floquet = reflectivity_spectrum(
                        params, probe, grid, qubit_bath, port.gamma, port.temperature,
                        b_in, config.drive.phase, config.gme,
                        config.drive.floquet_order, solved=solved[b_in])
                    gaps[b_in].append(np.abs(floquet - np.array(linear)))
        return {b_in: np.array(rows) for b_in, rows in gaps.items()}

    def test_linear_response_matches_floquet_on_fig6_grid(self):
        gaps = self._gaps((1e-4, 1e-5))
        assert gaps[1e-5].max() <= 1e-6, gaps[1e-5].max()
        # the remaining gap is saturation: it falls as b_in^2
        worst = np.unravel_index(np.argmax(gaps[1e-4]), gaps[1e-4].shape)
        ratio = gaps[1e-4][worst] / gaps[1e-5][worst]
        assert 90 <= ratio <= 110, (worst, gaps[1e-4][worst], ratio)


class TestTimeDomainOracle:
    """|S11| against the periodic steady state of the time-dependent GME
    d rho / dt = (L + (c e^{i w_d t} - conj(c) e^{-i w_d t}) [X, .]) rho, with
    c = |b_in| sqrt(gamma w_d) e^{i phi}, found without the harmonic ansatz:
    rho(0) is the null vector of P - I, P the one-period propagator (DOP853,
    rtol 1e-12), and rho^{-1} is the mean of rho(t) e^{i w_d t} over 256
    samples of one period. Across the eps = 0.6 dip at n_fock 4, Floquet at
    order 6 came within 5.4e-14 of it on both layouts, hence the bound of
    1e-12. Order 2 was up to 9.0e-9 off at b_in 0.03, and order 2 and order 4
    up to 6.0e-7 and 5.9e-12 off at the saturating b_in 0.3."""

    PARAMS = SystemParams(delta=0.69, epsilon=0.6, eta=1.01, n_fock=4)
    GAMMA, TEMPERATURE, PHASE = 1e-3, 0.55, 0.7
    OMEGA_D = (1.2765, 1.2815, 1.2865)  # the dip is deepest near 1.2815

    def _time_domain_s11(self, omega_d, b_in, config):
        from scipy.integrate import solve_ivp

        from reference import spost, spre

        params, d = self.PARAMS, self.PARAMS.dim
        basis = dressed_basis(params)
        channels = [resonator_channel(self.GAMMA, self.TEMPERATURE, OutputKind.INDUCTIVE_M),
                    qubit_channel(5e-3, self.TEMPERATURE, params.delta)]
        lm = total_liouvillian(basis, build_gme(basis, channels, config, params))
        lm = getattr(lm, "matrix", lm)
        x = basis.to_dressed(build_output_operator(OutputKind.INDUCTIVE_M, params))
        comm = spre(x) - spost(x)
        c = abs(b_in) * np.sqrt(self.GAMMA * omega_d) * np.exp(1j * self.PHASE)

        def rhs(t, y):
            drive = c * np.exp(1j * omega_d * t) - np.conj(c) * np.exp(-1j * omega_d * t)
            return ((lm + drive * comm) @ y.reshape(d * d, d * d)).reshape(-1)

        times = np.linspace(0.0, 2 * np.pi / omega_d, 257)
        sol = solve_ivp(rhs, times[[0, -1]], np.eye(d * d, dtype=complex).reshape(-1),
                        method="DOP853", t_eval=times, rtol=1e-12, atol=1e-15)
        props = sol.y.T.reshape(times.size, d * d, d * d)
        vals, vecs = np.linalg.eig(props[-1])
        rho0 = vecs[:, np.argmin(np.abs(vals - 1.0))]
        rho0 /= np.trace(rho0.reshape(d, d))
        phases = np.exp(1j * omega_d * times[:-1])
        rho_m1 = np.mean(phases[:, None] * (props[:-1] @ rho0), axis=0).reshape(d, d)
        x_plus = frequency_components(x, "plus")
        amp = np.sqrt(2 * np.pi * omega_d * self.GAMMA) / abs(b_in)
        return abs(1 + amp * np.exp(1j * self.PHASE) * np.trace(x_plus @ rho_m1))

    @pytest.mark.parametrize("filter_b", [0.0, 0.02])
    @pytest.mark.parametrize("b_in", [0.03, 0.3])
    def test_floquet_matches_time_domain(self, filter_b, b_in):
        config = GmeConfig(filter_b=filter_b)
        floquet = reflectivity_spectrum(
            self.PARAMS, OutputKind.INDUCTIVE_M, self.OMEGA_D,
            qubit_channel(5e-3, self.TEMPERATURE, self.PARAMS.delta), self.GAMMA,
            self.TEMPERATURE, b_in, self.PHASE, config, 6)
        oracle = [self._time_domain_s11(wd, b_in, config) for wd in self.OMEGA_D]
        np.testing.assert_allclose(floquet, oracle, rtol=0, atol=1e-12)
