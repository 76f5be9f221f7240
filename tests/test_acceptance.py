"""Acceptance suite: one test per acceptance criterion.

Each test prints exactly one ``criterion NN - <name>: PASS/FAIL`` line on the
live terminal (pytest capture is bypassed), so a ``pytest -v`` run doubles as
an acceptance report. Criteria that need an independent reference compute it
here from first principles (explicit Lindblad assembly, time-domain
propagation of two-time correlations) rather than trusting the library path
under test.
"""

import warnings
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import scipy.linalg

from uscspec.dressed import (
    dressed_basis,
    frequency_components,
    jc_initial_labels,
    label_states,
)
from uscspec.gme import (
    GmeConfig,
    _dephasing_rates,
    build_drive_superoperators,
    build_gme,
    channel_operator,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from uscspec.model import (
    ModelKind,
    OutputKind,
    SystemParams,
    build_output_operator,
    build_static_hamiltonian,
)
from uscspec.spectra import (
    _s11,
    emission_probe,
    emission_spectrum,
    reflectivity_spectrum,
)
from uscspec.steady import floquet_harmonics, steady_state

from reference import fock_phase_rotation, pairwise_lindblad


@contextmanager
def _criterion(capsys, num, name):
    """Print one PASS/FAIL line per criterion, whatever happens inside."""
    try:
        yield
    except Exception as exc:
        with capsys.disabled():
            print(f"criterion {num:2d} - {name}: FAIL ({exc})")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} - {name}: PASS")


# ---------------------------------------------------------------------------
# shared fixtures (cached: several criteria reuse the same sweeps)

FIG2_GAMMA_Q, FIG2_T_Q = 1e-2, 0.1
FIG2_GAMMA_R, FIG2_T_R = 1e-3, 0.0

FIG6_BASE = dict(delta=0.69, eta=1.01, n_fock=12)
FIG6_GAMMA_PORT, FIG6_GAMMA_Q, FIG6_TEMP, FIG6_B_IN = 1e-3, 5e-3, 0.55, 0.03


@lru_cache(maxsize=1)
def _symmetric_label_sweep():
    """Labeled dressed bases along a fine coupling sweep at zero flux offset."""
    etas = np.linspace(0.02, 1.5, 149)
    ps = [SystemParams(delta=1.0, epsilon=0.0, eta=float(e), n_fock=16)
          for e in etas]
    bases = [dressed_basis(p) for p in ps]
    bases = label_states(bases, jc_initial_labels(ps[0], bases[0]))
    return etas, ps, bases


def _emission_liouvillian(params, basis, jump_kind):
    channels = [
        resonator_channel(FIG2_GAMMA_R, FIG2_T_R, jump_kind),
        qubit_channel(FIG2_GAMMA_Q, FIG2_T_Q, params.delta),
    ]
    lg = build_gme(basis, channels, GmeConfig(), params)
    return total_liouvillian(basis, lg)


def _dip_depth(epsilon, probe, i, j):
    """Reflectivity dip depth below the linear baseline around transition j->i."""
    params = SystemParams(delta=FIG6_BASE["delta"], epsilon=epsilon,
                          eta=FIG6_BASE["eta"], n_fock=FIG6_BASE["n_fock"])
    basis = dressed_basis(params)
    w0 = basis.energies[i] - basis.energies[j]
    grid = np.linspace(w0 - 0.03, w0 + 0.03, 13)
    qb = qubit_channel(FIG6_GAMMA_Q, FIG6_TEMP, params.delta)
    s11 = reflectivity_spectrum(params, probe, grid, qb, FIG6_GAMMA_PORT,
                                FIG6_TEMP, FIG6_B_IN, phase=0.0)
    baseline = np.interp(grid, [grid[0], grid[-1]], [s11[0], s11[-1]])
    return float(np.max(baseline - s11))


# ---------------------------------------------------------------------------


def test_criterion_01_weak_coupling_splitting(capsys):
    with _criterion(capsys, 1, "weak-coupling vacuum Rabi splitting 2 eta w_r"):
        eta = 1e-3
        basis = dressed_basis(SystemParams(delta=1.0, epsilon=0.0, eta=eta,
                                           n_fock=20))
        split = basis.energies[2] - basis.energies[1]
        assert abs(split - 2.0 * eta) / (2.0 * eta) < 1e-4, (
            f"splitting {split:.6e} vs 2 eta = {2 * eta:.6e}")


def test_criterion_02_trace_and_hermiticity_preservation(capsys):
    with _criterion(capsys, 2, "generator preserves trace and hermiticity"):
        cases = []
        for kind in (OutputKind.CAPACITIVE_C, OutputKind.INDUCTIVE_M):
            cases.append((ModelKind.CIRCUIT, kind))
        cases.append((ModelKind.CAVITY_QED, OutputKind.CAVITY_D))
        for model_kind, jump_kind in cases:
            params = SystemParams(delta=1.0, epsilon=0.3, eta=0.8, n_fock=20,
                                  model_kind=model_kind)
            basis = dressed_basis(params)
            for temp in (0.0, 0.1, 0.55):
                channels = [
                    resonator_channel(1e-3, temp, jump_kind),
                    qubit_channel(1e-2, temp, params.delta),
                ]
                lm = total_liouvillian(
                    basis, build_gme(basis, channels, GmeConfig(), params)
                )
                d = params.dim
                trace_row = np.eye(d).reshape(-1) @ lm.matrix
                assert np.abs(trace_row).max() < 1e-12, (
                    f"trace leak {np.abs(trace_row).max():.2e} "
                    f"({jump_kind.value}, T={temp})")
                # hermiticity preservation: (L rho)^dag = L rho^dag for all
                # rho, i.e. L[(ij),(kl)] = conj(L[(ji),(lk)])
                t = lm.matrix.reshape(d, d, d, d)
                herm_dev = np.abs(t - t.conj().transpose(1, 0, 3, 2)).max()
                assert herm_dev < 1e-12, (
                    f"hermiticity leak {herm_dev:.2e} "
                    f"({jump_kind.value}, T={temp})")


def test_criterion_03_secular_limit_matches_lindblad_oracle(capsys):
    with _criterion(capsys, 3, "zero-bandwidth generator equals dressed Lindblad"):
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.4, n_fock=4)
        basis = dressed_basis(params)
        specs = [
            (OutputKind.CAPACITIVE_C, 1e-3, 0.3, 1.0),  # omega_r = 1
            (None, 1e-2, 0.1, params.delta),  # qubit channel
        ]
        channels = [
            resonator_channel(specs[0][1], specs[0][2], specs[0][0]),
            qubit_channel(specs[1][1], specs[1][2], specs[1][3]),
        ]
        lm = build_gme(basis, channels, GmeConfig(filter_b=0.0), params)

        ref = sum(pairwise_lindblad(basis.energies,
                                    basis.to_dressed(channel_operator(ch, params)),
                                    gamma, temp, ref_freq)
                  for ch, (_, gamma, temp, ref_freq) in zip(channels, specs))
        # the zero-bias qubit channel carries no dephasing term, so the full
        # generator is the pairwise Lindblad sum
        dev = np.abs(lm.matrix - ref).max()
        assert dev < 1e-12, f"element deviation {dev:.2e}"


def test_criterion_04_regression_spectrum_matches_time_domain(capsys):
    with _criterion(capsys, 4, "emission spectrum equals time-domain correlation"):
        params = SystemParams(delta=1.0, epsilon=0.3, eta=0.4, n_fock=4)
        basis = dressed_basis(params)
        channels = [
            resonator_channel(5e-3, 0.1, OutputKind.CAPACITIVE_C),
            qubit_channel(5e-2, 0.2, params.delta),
        ]
        lm = total_liouvillian(
            basis, build_gme(basis, channels, GmeConfig(), params))
        rho = steady_state(lm)
        xd = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
        x_plus = frequency_components(xd, "plus")
        x_minus = frequency_components(xd, "minus")
        dt, n_steps = 0.05, 160_000
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
        assert rel < 1e-6, f"relative deviation {rel:.2e}"


def test_criterion_05_dominant_line_and_inductive_quench(capsys):
    with _criterion(capsys, 5, "dominant 1- -> 0 line; inductive 1+ quench"):
        etas, ps, bases = _symmetric_label_sweep()
        grid = np.unique(np.concatenate([
            np.geomspace(0.004, 0.25, 150), np.linspace(0.25, 3.0, 400)]))
        failures = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            for eta_probe in np.arange(0.1, 1.51, 0.2):
                k = int(np.argmin(np.abs(etas - eta_probe)))
                params, basis = ps[k], bases[k]
                w10 = (basis.energies[basis.index_of("1-")]
                       - basis.energies[basis.index_of("0")])
                for probe in (OutputKind.INDUCTIVE_M, OutputKind.CAPACITIVE_C):
                    lm = _emission_liouvillian(params, basis, probe)
                    rho = steady_state(lm)
                    xd = emission_probe(params, probe, basis)
                    s = emission_spectrum(lm, rho, xd, grid, method="eig")
                    imax = int(np.argmax(s))
                    spacing = grid[min(imax + 1, len(grid) - 1)] - grid[max(imax - 1, 0)]
                    tol = 2.0 * (FIG2_GAMMA_Q + FIG2_GAMMA_R) + spacing
                    if abs(grid[imax] - w10) > tol:
                        failures.append(
                            f"{probe.value} at eta={etas[k]:.2f}: global max at "
                            f"w={grid[imax]:.4f}, line 1- -> 0 at w={w10:.4f}")
        # quench of the upper-polariton inductive emission element inside the
        # crossover window, with the capacitive one staying finite
        vm, vc = [], []
        for params, basis in zip(ps, bases):
            h = np.diag(basis.energies)
            i0, iq = basis.index_of("0"), basis.index_of("1+")
            for kind, out in ((OutputKind.INDUCTIVE_M, vm),
                              (OutputKind.CAPACITIVE_C, vc)):
                xd = emission_probe(params, kind, basis)
                out.append(abs(xd[iq, i0]) ** 2)
        vm, vc = np.array(vm), np.array(vc)
        kmin = int(np.argmin(vm))
        if not (0.4 < etas[kmin] < 1.0 and vm[kmin] < 1e-3 * vm.max()):
            failures.append(
                f"inductive 1+ -> 0 minimum {vm[kmin]:.2e} at eta={etas[kmin]:.2f}")
        if vc.min() < 0.1:
            failures.append(f"capacitive 1+ -> 0 element dips to {vc.min():.2e}")
        assert not failures, "; ".join(failures)


def test_criterion_06_cavity_circuit_equivalence(capsys):
    with _criterion(capsys, 6, "phase rotation maps cavity model onto circuit"):
        # exact unitary equivalence of the two Hamiltonian forms
        params_c = SystemParams(delta=1.0, epsilon=0.3, eta=0.8, n_fock=12)
        params_d = SystemParams(delta=1.0, epsilon=0.3, eta=0.8, n_fock=12,
                                model_kind=ModelKind.CAVITY_QED)
        r = fock_phase_rotation(params_c.n_fock)
        h_circ = build_static_hamiltonian(params_c)
        h_cav = build_static_hamiltonian(params_d)
        dev = np.abs(r @ h_cav @ r.conj().T - h_circ).max()
        assert dev < 1e-12, f"Hamiltonian rotation deviation {dev:.2e}"

        # spectral coincidence: capacitive circuit emission (voltage
        # derivative probe) vs cavity photodetection (undotted X_D probe),
        # which agree exactly when the photon baths become equivalent. The
        # comparison sits at zero flux offset: the cavity-QED qubit bath
        # couples through the bare sigma_x, which matches the circuit's
        # rotated quadrature only there.
        grid = np.linspace(0.05, 3.0, 150)

        def _normalized(params, jump_kind, probe_op, gamma_r):
            basis = dressed_basis(params)
            channels = [
                resonator_channel(gamma_r, 0.0, jump_kind),
                qubit_channel(1e-2, 0.1, params.delta),
            ]
            lm = total_liouvillian(
                basis, build_gme(basis, channels, GmeConfig(), params))
            rho = steady_state(lm)
            if probe_op == "dotted":
                xd = emission_probe(params, jump_kind, basis)
            else:
                xd = basis.to_dressed(build_output_operator(jump_kind, params))
            s = emission_spectrum(lm, rho, xd, grid)
            return s / s.max()

        pc = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=12)
        pd = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=12,
                          model_kind=ModelKind.CAVITY_QED)
        devs = {}
        for gamma_r in (1e-9, 1e-3):
            s_circ = _normalized(pc, OutputKind.CAPACITIVE_C, "dotted", gamma_r)
            s_cav = _normalized(pd, OutputKind.CAVITY_D, "plain", gamma_r)
            devs[gamma_r] = np.abs(s_circ - s_cav).max()
        with capsys.disabled():
            print(f"    cavity/circuit spectra: max deviation "
                  f"{devs[1e-9]:.2e} at gamma_r=1e-9 (gate), "
                  f"{devs[1e-3]:.2e} at gamma_r=1e-3 (photon-bath residual, "
                  f"informational)")
        assert devs[1e-9] < 1e-6, f"normalized deviation {devs[1e-9]:.2e}"


def test_criterion_07_parity_forbidden_transitions(capsys):
    with _criterion(capsys, 7, "parity-forbidden lines at zero flux offset"):
        for eps, forbidden in ((0.0, True), (0.3, False)):
            params = SystemParams(delta=1.0, epsilon=eps, eta=0.6, n_fock=16)
            basis = dressed_basis(params)
            for kind in (OutputKind.INDUCTIVE_M, OutputKind.CAPACITIVE_C):
                xd = emission_probe(params, kind, basis)
                for i, j in ((2, 0), (3, 1)):
                    el = abs(xd[i, j])
                    if forbidden:
                        assert el < 1e-12, (
                            f"{kind.value} ({i},{j}) = {el:.2e} at eps=0")
                    else:
                        assert el > 1e-6, (
                            f"{kind.value} ({i},{j}) = {el:.2e} at eps=0.3")


def test_criterion_08_floquet_harmonics_sanity(capsys):
    with _criterion(capsys, 8, "Floquet harmonics: zero drive, pairing, truncation"):
        params = SystemParams(delta=FIG6_BASE["delta"], epsilon=0.5,
                              eta=FIG6_BASE["eta"], n_fock=8)
        basis = dressed_basis(params)
        channels = [
            resonator_channel(FIG6_GAMMA_PORT, FIG6_TEMP, OutputKind.INDUCTIVE_M),
            qubit_channel(FIG6_GAMMA_Q, FIG6_TEMP, params.delta),
        ]
        l_total = total_liouvillian(
            basis, build_gme(basis, channels, GmeConfig(), params))
        x = basis.to_dressed(build_output_operator(OutputKind.INDUCTIVE_M,
                                                   params))
        omega_d = 1.0

        drive0 = build_drive_superoperators(
            x, FIG6_GAMMA_PORT, 0.0, 0.0, omega_d)
        h0 = floquet_harmonics(l_total, drive0, omega_d)
        for k in (-2, -1, 1, 2):
            assert np.abs(h0[k]).max() < 1e-12, (
                f"zero drive left harmonic k={k} at {np.abs(h0[k]).max():.2e}")

        drive = build_drive_superoperators(
            x, FIG6_GAMMA_PORT, FIG6_B_IN, 0.0, omega_d)
        h2 = floquet_harmonics(l_total, drive, omega_d, order=2)
        pair_dev = np.abs(h2[-1] - h2[1].conj().T).max()
        assert pair_dev < 1e-12, f"sideband pairing deviation {pair_dev:.2e}"

        h4 = floquet_harmonics(l_total, drive, omega_d, order=4)
        x_plus = frequency_components(x, "plus")
        s4 = _s11(h4[-1], x_plus, FIG6_GAMMA_PORT, FIG6_B_IN, omega_d)
        h6 = floquet_harmonics(l_total, drive, omega_d, order=6)
        s6 = _s11(h6[-1], x_plus, FIG6_GAMMA_PORT, FIG6_B_IN, omega_d)
        # on the dip the order-2 tail still carries ~2e-8; by order 4 the
        # chain is converged to machine level
        assert abs(s4 - s6) < 1e-8, f"truncation drift {abs(s4 - s6):.2e}"
        omega_off = 1.2
        drive = build_drive_superoperators(
            x, FIG6_GAMMA_PORT, FIG6_B_IN, 0.0, omega_off)
        t2 = _s11(
            floquet_harmonics(l_total, drive, omega_off, order=2)[-1],
            x_plus, FIG6_GAMMA_PORT, FIG6_B_IN, omega_off)
        t4 = _s11(
            floquet_harmonics(l_total, drive, omega_off, order=4)[-1],
            x_plus, FIG6_GAMMA_PORT, FIG6_B_IN, omega_off)
        assert abs(t2 - t4) < 1e-8, f"truncation drift {abs(t2 - t4):.2e}"


def test_criterion_09_probe_dependent_reflectivity_dips(capsys):
    with _criterion(capsys, 9, "probe-dependent visibility of reflectivity dips"):
        xm, quad, xc = (OutputKind.INDUCTIVE_M, OutputKind.QUADRATURE,
                        OutputKind.CAPACITIVE_C)
        # the 2 <- 0 line is visible in every probe at moderate flux offset
        d_all = {p: _dip_depth(0.5, p, 2, 0) for p in (xm, quad, xc)}
        for p, depth in d_all.items():
            assert depth > 0.05, f"2<-0 at eps=0.5, {p.value}: depth {depth:.3f}"
        # ... and quenched in the inductive probe deep in the offset sweep
        d_m = _dip_depth(1.3, xm, 2, 0)
        d_q = _dip_depth(1.3, quad, 2, 0)
        d_c = _dip_depth(1.3, xc, 2, 0)
        assert d_m < 3e-4, f"2<-0 at eps=1.3, X_M depth {d_m:.2e}"
        assert d_m < d_q < d_c, (
            f"2<-0 at eps=1.3 ordering: {d_m:.2e}, {d_q:.2e}, {d_c:.2e}")
        assert d_c > 1e-3, f"2<-0 at eps=1.3, X_C depth {d_c:.2e}"
        # the 4 <- 1 line disappears from the inductive probe near eps=0.7
        d_m = _dip_depth(0.7, xm, 4, 1)
        d_q = _dip_depth(0.7, quad, 4, 1)
        d_c = _dip_depth(0.7, xc, 4, 1)
        assert d_m < 1e-5, f"4<-1 at eps=0.7, X_M depth {d_m:.2e}"
        assert d_q > 3e-5, f"4<-1 at eps=0.7, quadrature depth {d_q:.2e}"
        assert d_c > 1e-3, f"4<-1 at eps=0.7, X_C depth {d_c:.2e}"
        # near zero offset the 3 <- 0 line is deepest for the capacitive probe
        d_m = _dip_depth(0.1, xm, 3, 0)
        d_q = _dip_depth(0.1, quad, 3, 0)
        d_c = _dip_depth(0.1, xc, 3, 0)
        assert d_c > d_q > d_m, (
            f"3<-0 at eps=0.1 ordering: {d_m:.2e}, {d_q:.2e}, {d_c:.2e}")
        assert d_c > 3 * d_m, f"3<-0 at eps=0.1: X_C/X_M = {d_c / d_m:.1f}"

        # matrix elements behind the visibility pattern
        def _elems(eps, i, j):
            params = SystemParams(delta=FIG6_BASE["delta"], epsilon=eps,
                                  eta=FIG6_BASE["eta"],
                                  n_fock=FIG6_BASE["n_fock"])
            basis = dressed_basis(params)
            out = {}
            for kind in (xm, quad, xc):
                op = basis.to_dressed(build_output_operator(kind, params))
                out[kind] = abs(op[i, j]) ** 2
            return out
        e = _elems(1.4, 2, 0)
        assert e[xm] < 0.01 * e[xc], f"|X_M(2,0)|^2 = {e[xm]:.2e} at eps=1.4"
        e = _elems(0.8, 4, 1)
        assert e[xm] < 0.1 * e[quad] and e[xm] < 0.05 * e[xc], (
            f"(4,1) elements at eps=0.8: {e[xm]:.2e}, {e[quad]:.2e}, {e[xc]:.2e}")
        e = _elems(0.1, 3, 0)
        assert e[xc] > e[quad] > e[xm], (
            f"(3,0) elements at eps=0.1: {e[xm]:.2e}, {e[quad]:.2e}, {e[xc]:.2e}")


def test_criterion_10_dephasing_switches_with_flux_offset(capsys):
    with _criterion(capsys, 10, "pure dephasing vanishes at the symmetry point"):
        for eps, expect_zero in ((0.0, True), (0.3, False)):
            params = SystemParams(delta=1.0, epsilon=eps, eta=0.6, n_fock=8)
            basis = dressed_basis(params)
            ch = qubit_channel(1e-2, 0.1, params.delta)
            x = basis.to_dressed(channel_operator(ch, params))
            rates = _dephasing_rates(x, ch, GmeConfig())
            norm = np.abs(rates).max()
            if expect_zero:
                assert norm < 1e-14, f"dephasing norm {norm:.2e} at eps=0"
            else:
                assert norm > 1e-6, f"dephasing norm {norm:.2e} at eps=0.3"
