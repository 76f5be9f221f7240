import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uscspec import gme
from uscspec.dressed import dressed_basis, frequency_components
from uscspec.errors import EmptyChannels, InconsistentBasis, NonPositiveFrequency
from uscspec.gme import (
    BathChannel,
    ChannelKind,
    GmeConfig,
    _dephasing_rates,
    build_drive_superoperators,
    build_gme,
    channel_operator,
    gaussian_filter,
    qubit_channel,
    resonator_channel,
    thermal_occupation,
    total_liouvillian,
)
from uscspec.model import (
    OutputKind,
    SystemParams,
    build_output_operator,
    qubit_op,
    sigma_tilde_x,
    SIGMA_X,
)
from uscspec.steady import steady_state

from reference import commutator_matrix, dissipator, pairwise_lindblad, spost, spre


def _vec(rho):
    return rho.reshape(-1)


def _unvec(v, d):
    return v.reshape(d, d)


def _random_density_matrix(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(1.0, 0.0) == 0.0
        assert thermal_occupation(0.3, 0.0) == 0.0

    def test_ln2_ratio_gives_unity(self):
        assert thermal_occupation(np.log(2.0), 1.0) == pytest.approx(1.0)

    def test_low_temperature_value(self):
        assert thermal_occupation(1.0, 0.1) == pytest.approx(4.5402e-5, rel=1e-4)

    def test_high_temperature_classical_limit(self):
        # n_th -> T/omega for T >> omega
        assert thermal_occupation(0.01, 10.0) == pytest.approx(1000.0, rel=1e-3)


class TestGaussianFilter:
    def test_zero_bandwidth_is_secular_indicator(self):
        assert gaussian_filter(1.0, 1.0, 0.0) == 1.0
        assert gaussian_filter(1.0, 1.2, 0.0) == 0.0

    def test_zero_bandwidth_window_is_omega_min(self):
        assert gaussian_filter(1.0, 1.0 + 5e-10, 0.0) == 1.0
        assert gaussian_filter(1.0, 1.0 + 2e-9, 0.0) == 0.0

    def test_underflowing_bandwidth_is_the_indicator_of_equal_frequencies(self):
        with np.errstate(all="raise"):
            assert gaussian_filter(1.0, 1.0, 5e-324) == 1.0
            assert gaussian_filter(1.0, 1.0 + 1e-15, 5e-324) == 0.0

    def test_finite_bandwidth(self):
        assert gaussian_filter(1.0, 1.0, 0.1) == 1.0
        assert gaussian_filter(1.0, 1.1, 0.1) == pytest.approx(np.exp(-0.5))
        assert gaussian_filter(1.0, 1.2, 0.05) == pytest.approx(
            gaussian_filter(1.2, 1.0, 0.05)
        )


@pytest.mark.parametrize("build", [
    lambda: qubit_channel(np.nan, 0.1, 1.0),
    lambda: resonator_channel(1e-3, np.inf, OutputKind.CAPACITIVE_C),
    lambda: GmeConfig(filter_b=np.nan),
], ids=["qubit-gamma-nan", "resonator-temperature-inf", "filter-b-nan"])
def test_non_finite_settings_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_build_gme_raises_its_typed_errors():
    params = SystemParams(delta=1.0, epsilon=0.0, eta=0.3, n_fock=3)
    channels = [qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)]
    with pytest.raises(EmptyChannels):
        build_gme(dressed_basis(params), [], GmeConfig(), params)
    wide = dressed_basis(SystemParams(delta=1.0, epsilon=0.0, eta=0.3, n_fock=4))
    with pytest.raises(InconsistentBasis):
        build_gme(wide, channels, GmeConfig(), params)


class TestDissipatorPrimitives:
    def test_dissipator_matches_definition(self):
        rng = np.random.default_rng(0)
        d = 4
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = _random_density_matrix(rng, d)
        expected = (
            c @ rho @ c.conj().T
            - 0.5 * (c.conj().T @ c @ rho + rho @ c.conj().T @ c)
        )
        got = _unvec(dissipator(c) @ _vec(rho), d)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_spre_spost(self):
        rng = np.random.default_rng(1)
        d = 3
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = _random_density_matrix(rng, d)
        np.testing.assert_allclose(_unvec(spre(a) @ _vec(rho), d), a @ rho)
        np.testing.assert_allclose(_unvec(spost(a) @ _vec(rho), d), rho @ a)


def _standard_setup(eta=0.6, epsilon=0.0, n_fock=6, t_r=0.0, t_q=0.1,
                    jump_kind=OutputKind.CAPACITIVE_C, **cfg):
    params = SystemParams(delta=1.0, epsilon=epsilon, eta=eta, n_fock=n_fock)
    basis = dressed_basis(params)
    channels = [
        resonator_channel(gamma=1e-3, temperature=t_r, jump_kind=jump_kind),
        qubit_channel(gamma=1e-2, temperature=t_q, delta=params.delta),
    ]
    lg = build_gme(basis, channels, GmeConfig(**cfg), params)
    return params, basis, lg


class TestLiouvillianStructure:
    @pytest.mark.parametrize("jump_kind", [OutputKind.CAPACITIVE_C,
                                           OutputKind.INDUCTIVE_M])
    @pytest.mark.parametrize("temp", [0.0, 0.55])
    def test_trace_preservation(self, jump_kind, temp):
        params, basis, lg = _standard_setup(jump_kind=jump_kind, t_r=temp,
                                            t_q=temp)
        lm = total_liouvillian(basis, lg)
        d = params.dim
        trace_row = np.eye(d).reshape(-1) @ lm.matrix
        assert np.abs(trace_row).max() < 1e-12

    def test_hermiticity_preservation(self):
        params, basis, lg = _standard_setup(epsilon=0.3, filter_b=0.05)
        lm = total_liouvillian(basis, lg)
        d = params.dim
        rng = np.random.default_rng(2)
        rho = _random_density_matrix(rng, d)
        out = _unvec(lm @ _vec(rho), d)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_rates_linear_in_gamma(self):
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=5)
        basis = dressed_basis(params)

        def build(gamma):
            ch = [resonator_channel(gamma=gamma, temperature=0.1,
                                    jump_kind=OutputKind.CAPACITIVE_C)]
            return build_gme(basis, ch, GmeConfig(), params)

        np.testing.assert_allclose(build(2e-3).matrix, 2.0 * build(1e-3).matrix, atol=1e-15)

    def test_zero_temperature_relaxes_to_ground_state(self):
        params, basis, lg = _standard_setup(t_r=0.0, t_q=0.0)
        lm = total_liouvillian(basis, lg)
        rho = steady_state(lm)
        expected = np.zeros_like(rho)
        expected[0, 0] = 1.0  # dressed ground state, basis ordering
        np.testing.assert_allclose(rho, expected, atol=1e-8)

    def test_detailed_balance_thermal_state(self):
        # single bath at finite T: steady state is Gibbsian in dressed energies
        temp = 0.55
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.8, n_fock=8)
        basis = dressed_basis(params)
        ch = [resonator_channel(gamma=1e-3, temperature=temp,
                                jump_kind=OutputKind.CAPACITIVE_C)]
        lm = build_gme(basis, ch, GmeConfig(), params)
        rho = steady_state(lm)
        pops = np.real(np.diag(rho))
        boltz = np.exp(-(basis.energies - basis.energies[0]) / temp)
        boltz /= boltz.sum()
        # truncation leaks population near the Fock ceiling; compare low states
        np.testing.assert_allclose(pops[:6], boltz[:6], rtol=1e-6, atol=1e-10)


class TestSecularOracle:
    def test_matches_independent_lindblad_construction(self):
        # Secular limit: the generator must equal a plain Lindblad equation
        # built transition-by-transition with thermally weighted rates.
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.4, n_fock=4)
        basis = dressed_basis(params)
        gamma, temp = 1e-3, 0.3
        ch = [resonator_channel(gamma=gamma, temperature=temp,
                                jump_kind=OutputKind.CAPACITIVE_C)]
        lm = build_gme(basis, ch, GmeConfig(filter_b=0.0), params)

        x = basis.to_dressed(build_output_operator(OutputKind.CAPACITIVE_C,
                                                   params))
        ref = pairwise_lindblad(basis.energies, x, gamma, temp, 1.0)  # omega_r = 1
        np.testing.assert_allclose(lm.matrix, ref, atol=1e-12)


def _count_filtered_dissipators(monkeypatch):
    calls = []
    dense = gme._filtered_dissipator

    def counted(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(gme, "_filtered_dissipator", counted)
    return calls


class TestSecularClosedForm:
    @pytest.mark.parametrize("jump_kind", [OutputKind.CAPACITIVE_C,
                                           OutputKind.INDUCTIVE_M])
    @pytest.mark.parametrize("weight", ["printed", "bose"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.35])
    @pytest.mark.parametrize("temp", [0.0, 0.45])
    def test_matches_the_filtered_sum(self, monkeypatch, temp, epsilon, weight,
                                      jump_kind):
        # filter_b = 1e-150 runs the Gaussian sum, whose filter is an exact
        # indicator when no two Bohr frequencies coincide
        setup = dict(eta=0.9, epsilon=epsilon, n_fock=14, t_r=temp, t_q=temp,
                     jump_kind=jump_kind, dephasing_weight=weight)
        calls = _count_filtered_dissipators(monkeypatch)
        _, _, closed = _standard_setup(**setup)
        assert not calls
        _, _, dense = _standard_setup(filter_b=1e-150, **setup)
        assert len(calls) == 4
        assert np.abs(closed.matrix - dense).max() <= 1e-15 * np.abs(dense).max()

    @pytest.mark.parametrize("filter_b", [1e-200, 5e-324])
    def test_underflowing_width_matches_the_filtered_sum(self, filter_b):
        # 2 b^2 underflows to 0, where equal frequencies would give 0/0
        setup = dict(eta=0.9, epsilon=0.35, n_fock=14, t_r=0.45, t_q=0.45)
        _, _, closed = _standard_setup(**setup)
        _, _, dense = _standard_setup(filter_b=filter_b, **setup)
        assert np.abs(closed.matrix - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_equal_bohr_frequencies_take_the_filtered_sum(self, monkeypatch):
        calls = _count_filtered_dissipators(monkeypatch)
        _standard_setup(eta=0.6, epsilon=0.3)
        assert not calls
        # uncoupled and resonant: an evenly spaced ladder with degenerate rungs
        params, basis, lg = _standard_setup(eta=0.0, epsilon=0.0)
        assert len(calls) == 4  # emission and absorption of both channels
        d = params.dim
        e = basis.energies
        bohr = (e[:, None] - e[None, :]).reshape(-1)
        coherence = np.ones(d * d, dtype=bool)
        coherence[:: d + 1] = False
        rows, cols = np.nonzero(lg)
        coupled = (rows != cols) & coherence[rows] & coherence[cols]
        assert coupled.any()
        np.testing.assert_allclose(bohr[rows[coupled]], bohr[cols[coupled]],
                                   rtol=0, atol=1e-9)


def _filtered_gme_oracle(basis, channel, x, filter_b, params):
    """The filtered GME of one channel, term by term over ordered pairs of
    positive transitions (omega from the lowering component, omega' from the
    raising one), applied to each basis matrix |c><d| to give the columns of
    the superoperator. The qubit channel adds the printed-weight dephasing of
    the diagonal of x."""
    d = params.dim
    e = basis.energies
    trans = [(r, c, e[c] - e[r]) for r in range(d) for c in range(d)
             if e[c] - e[r] > 1e-9]
    scale = channel.gamma / channel.ref_frequency
    temp = channel.temperature

    def n_th(w):
        return thermal_occupation(w, temp)

    eye = np.eye(d)
    terms = []  # (superoperator coefficient, left, right) for rho -> L rho R
    for r1, c1, w in trans:
        a_plus = np.zeros((d, d), dtype=complex)
        a_plus[r1, c1] = x[r1, c1]
        for r2, c2, wp in trans:
            a_lower = np.zeros((d, d), dtype=complex)
            a_lower[r2, c2] = x[r2, c2]
            a_minus = a_lower.conj().T
            f = 0.5 * scale * np.exp(-((w - wp) ** 2) / (2.0 * filter_b**2))
            # absorption
            terms += [
                (f * (wp * n_th(wp) + w * n_th(w)), a_minus, a_plus),
                (-f * wp * n_th(wp), a_plus @ a_minus, eye),
                (-f * w * n_th(w), eye, a_plus @ a_minus),
            ]
            # emission
            terms += [
                (f * (w * (n_th(w) + 1) + wp * (n_th(wp) + 1)), a_plus, a_minus),
                (-f * w * (n_th(w) + 1), a_minus @ a_plus, eye),
                (-f * wp * (n_th(wp) + 1), eye, a_minus @ a_plus),
            ]
    if channel.which == ChannelKind.QUBIT:
        z = np.diag(np.diag(x))
        rate = scale * (2.0 * temp + 1.0)
        terms += [(rate, z, z.conj().T),
                  (-0.5 * rate, z.conj().T @ z, eye),
                  (-0.5 * rate, eye, z.conj().T @ z)]
    ref = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        basis_matrix = np.zeros((d, d), dtype=complex)
        basis_matrix.flat[col] = 1.0
        out = sum(coef * left @ basis_matrix @ right for coef, left, right in terms)
        ref[:, col] = out.reshape(-1)
    return ref


class TestFilteredOracle:
    @pytest.mark.parametrize("temp", [0.0, 0.4])
    @pytest.mark.parametrize("which", ["resonator", "qubit"])
    def test_matches_pairwise_construction(self, which, temp):
        params = SystemParams(delta=1.0, epsilon=0.4, eta=0.7, n_fock=3)
        basis = dressed_basis(params)
        if which == "resonator":
            ch = resonator_channel(gamma=1e-3, temperature=temp,
                                   jump_kind=OutputKind.CAPACITIVE_C)
        else:
            ch = qubit_channel(gamma=1e-2, temperature=temp,
                               delta=params.delta)
        filter_b = 0.3
        lm = build_gme(basis, [ch], GmeConfig(filter_b=filter_b), params)
        x = basis.to_dressed(channel_operator(ch, params))
        ref = _filtered_gme_oracle(basis, ch, x, filter_b, params)
        np.testing.assert_allclose(lm, ref, rtol=0, atol=1e-15)



class TestDenseBuildMemory:
    @pytest.mark.parametrize("eta, epsilon, n_fock, filter_b", [
        (0.6, 0.3, 8, 0.05),
        (0.0, 0.0, 10, 0.0),  # the evenly spaced ladder, dense at b = 0
    ], ids=["filtered", "eta-0-ladder"])
    def test_peak_stays_near_the_result(self, eta, epsilon, n_fock, filter_b):
        # each filtered dissipator is added one superoperator row block at a
        # time, so no d^4 temporary sits beside the d^2 x d^2 result
        params = SystemParams(delta=1.0, epsilon=epsilon, eta=eta, n_fock=n_fock)
        basis = dressed_basis(params)
        channels = [resonator_channel(gamma=1e-3, temperature=0.2,
                                      jump_kind=OutputKind.CAPACITIVE_C),
                    qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)]
        tracemalloc.start()
        try:
            lg = build_gme(basis, channels, GmeConfig(filter_b=filter_b), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(lg, np.ndarray)
        assert peak < 1.5 * lg.nbytes, peak / lg.nbytes

class TestDephasing:
    def test_vanishes_at_zero_bias(self):
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=5)
        basis = dressed_basis(params)
        ch = qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)
        rates = _dephasing_rates(basis.to_dressed(channel_operator(ch, params)), ch, GmeConfig())
        assert np.abs(rates).max() < 1e-14

    def test_nonzero_at_finite_bias(self):
        params = SystemParams(delta=1.0, epsilon=0.3, eta=0.6, n_fock=5)
        basis = dressed_basis(params)
        ch = qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)
        rates = _dephasing_rates(basis.to_dressed(channel_operator(ch, params)), ch, GmeConfig())
        assert np.abs(rates).max() > 1e-6

    def test_weight_conventions_differ(self):
        params = SystemParams(delta=1.0, epsilon=0.3, eta=0.6, n_fock=5)
        basis = dressed_basis(params)
        ch = qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)
        x = basis.to_dressed(channel_operator(ch, params))
        printed = _dephasing_rates(x, ch, GmeConfig(dephasing_weight="printed"))
        bose = _dephasing_rates(x, ch, GmeConfig(dephasing_weight="bose"))
        assert np.abs(printed - bose).max() > 1e-8


class TestDriveSuperoperators:
    def _x(self):
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=5)
        basis = dressed_basis(params)
        return params, basis.to_dressed(
            build_output_operator(OutputKind.CAPACITIVE_C, params))

    def test_zero_amplitude_is_zero(self):
        _, x = self._x()
        drive = build_drive_superoperators(x, rate_gamma=1e-3, b_in=0.0,
                                           phase=0.0, omega_d=1.0)
        assert np.abs(commutator_matrix(drive)).max() == 0.0

    def test_trace_annihilation(self):
        # commutator drives never generate trace
        params, x = self._x()
        drive = build_drive_superoperators(x, rate_gamma=1e-3, b_in=0.05,
                                           phase=0.3, omega_d=0.9)
        d = params.dim
        ident = np.eye(d).reshape(-1)
        assert np.abs(ident @ commutator_matrix(drive)).max() < 1e-14

    def test_linear_in_amplitude(self):
        _, x = self._x()
        kw = dict(rate_gamma=1e-3, phase=0.2, omega_d=1.1)
        lp1 = build_drive_superoperators(x, b_in=0.01, **kw)
        lp3 = build_drive_superoperators(x, b_in=0.03, **kw)
        np.testing.assert_allclose(commutator_matrix(lp3), 3.0 * commutator_matrix(lp1),
                                   atol=1e-15)

    def test_commutator_matrix_is_the_kron_form(self):
        _, x = self._x()
        d = x.shape[0]
        eye = np.eye(d, dtype=complex)
        for phase in (0.0, 0.7):
            drive = build_drive_superoperators(x, rate_gamma=1e-3, b_in=0.05,
                                               phase=phase, omega_d=0.9)
            amp = 0.05 * np.sqrt(1e-3 * 0.9 / 1.0)
            comm = np.kron(x, eye) - np.kron(eye, x.T)
            np.testing.assert_array_equal(commutator_matrix(drive),
                                          amp * np.exp(1j * phase) * comm)

    @pytest.mark.parametrize("omega_d", [0.0, -0.5])
    def test_non_positive_drive_frequency_rejected(self, omega_d):
        _, x = self._x()
        with pytest.raises(NonPositiveFrequency, match="drive frequency"):
            build_drive_superoperators(x, rate_gamma=1e-3, b_in=0.05, phase=0.0,
                                       omega_d=omega_d)

    def test_negative_rate_rejected(self):
        _, x = self._x()
        with pytest.raises(ValueError, match="rate_gamma"):
            build_drive_superoperators(x, rate_gamma=-1e-3, b_in=0.05, phase=0.0,
                                       omega_d=1.0)


class TestChannelOperator:
    def test_unknown_kind_rejected_and_known_kind_converted(self):
        with pytest.raises(ValueError):
            BathChannel("resonatr", 1e-3, 0.0, 1.0, OutputKind.CAPACITIVE_C)
        assert BathChannel("qubit", 1e-2, 0.1, 1.0).which is ChannelKind.QUBIT

    def test_resonator_channel_operator_matches_jump_kind(self):
        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=5)
        ch = resonator_channel(gamma=1e-3, temperature=0.0,
                               jump_kind=OutputKind.INDUCTIVE_M)
        x = channel_operator(ch, params)
        np.testing.assert_allclose(
            x, build_output_operator(OutputKind.INDUCTIVE_M, params))

    def test_qubit_channel_operator_is_rotated_sigma_x(self):
        params = SystemParams(delta=1.0, epsilon=0.4, eta=0.6, n_fock=5)
        ch = qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)
        x = channel_operator(ch, params)
        np.testing.assert_allclose(x, sigma_tilde_x(params))

    def test_qubit_channel_cavity_model_is_plain_sigma_x(self):
        from uscspec.model import ModelKind

        params = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=5,
                              model_kind=ModelKind.CAVITY_QED)
        ch = qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta)
        x = channel_operator(ch, params)
        np.testing.assert_allclose(x, qubit_op(SIGMA_X, params.n_fock))


@given(temp=st.floats(0.01, 2.0), omega=st.floats(0.05, 3.0))
@settings(max_examples=30, deadline=None)
def test_thermal_occupation_detailed_balance_property(temp, omega):
    n = thermal_occupation(omega, temp)
    assert (n + 1.0) / n == pytest.approx(np.exp(omega / temp), rel=1e-9)
