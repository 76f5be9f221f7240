"""The secular-layout steady state and emission resolvent against solves on
the whole matrix, the ``SecularGenerator`` that carries that layout from
``build_gme`` to the solvers, and the typed errors of the solvers on
non-finite generators."""
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uscspec import cli, gme, steady
from uscspec.dressed import dressed_basis, frequency_components
from uscspec.errors import DegenerateSteadyState, NoConvergence, UscSpecError
from uscspec.gme import (
    GmeConfig,
    SecularGenerator,
    build_drive_superoperators,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from uscspec.model import OutputKind, SystemParams, build_output_operator
from uscspec.spectra import emission_probe, emission_spectrum
from uscspec.steady import (
    _gth_stationary,
    floquet_harmonics,
    steady_state,
)

from test_trace_hooks import CONFIGS  # tiny runs of every mode

GRID = np.linspace(0.05, 3.0, 60)
SECULAR_CASES = [(eps, port) for eps in (0.0, 0.3)
                 for port in (OutputKind.CAPACITIVE_C, OutputKind.INDUCTIVE_M)]


def _generator(epsilon, port, filter_b=0.0, eta=0.8, n_fock=7):
    """fig2-like baths, with the port bath on the probed operator."""
    params = SystemParams(delta=1.0, epsilon=epsilon, eta=eta, n_fock=n_fock)
    basis = dressed_basis(params)
    channels = [
        resonator_channel(gamma=1e-3, temperature=0.0, jump_kind=port),
        qubit_channel(gamma=1e-2, temperature=0.1, delta=params.delta),
    ]
    lg = build_gme(basis, channels, GmeConfig(filter_b=filter_b), params)
    return params, basis, total_liouvillian(basis, lg)


def _dense_steady_state(lm):
    """The whole-matrix solve: last row replaced by the trace row."""
    n = lm.shape[0]
    d = int(round(n**0.5))
    m = lm.copy()
    m[-1, :] = 0.0
    m[-1, :: d + 1] = 1.0
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = 1.0
    rho = np.linalg.solve(m, rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _dense_emission(lm, rho, x_dot, grid, method):
    """Resolvent of the whole matrix: an eig pole sum or one solve per point."""
    b = (frequency_components(x_dot, "plus") @ rho).reshape(-1)
    probe = frequency_components(x_dot, "minus").T.reshape(-1)
    if method == "eig":
        evals, evecs = np.linalg.eig(lm)
        weights = (probe @ evecs) * np.linalg.solve(evecs, b)
        return np.array([float(np.real(np.sum(weights / (1j * w - evals)))) for w in grid])
    eye = np.eye(lm.shape[0], dtype=complex)
    return np.array([float(np.real(probe @ np.linalg.solve(1j * w * eye - lm, b)))
                     for w in grid])


@pytest.mark.parametrize("epsilon, port", SECULAR_CASES)
class TestSecularBlocks:
    def test_steady_state_matches_dense(self, epsilon, port):
        _, _, lm = _generator(epsilon, port)
        assert isinstance(lm, SecularGenerator)
        np.testing.assert_allclose(steady_state(lm), _dense_steady_state(lm.matrix),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("method", ["eig", "solve"])
    def test_emission_matches_dense_solve(self, epsilon, port, method):
        params, basis, lm = _generator(epsilon, port)
        rho = steady_state(lm)
        x_dot = emission_probe(params, port, basis)
        dense = _dense_emission(lm.matrix, rho, x_dot, GRID, "solve")
        got = emission_spectrum(lm, rho, x_dot, GRID, method=method)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("method", ["eig", "solve"])
    def test_secular_emission_calls_neither_eig_nor_solve(self, epsilon, port, method,
                                                          monkeypatch):
        params, basis, lm = _generator(epsilon, port)
        rho = steady_state(lm)
        x_dot = emission_probe(params, port, basis)

        def refuse(*args, **kwargs):
            raise AssertionError("the secular pole sum needs no eig and no solve")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        got = emission_spectrum(lm, rho, x_dot, GRID, method=method)
        assert np.isfinite(got).all() and got.max() > 0

    def test_emission_with_coherences_in_rho_matches_dense_solve(self, epsilon, port):
        # the probe reads no population, so the coherence poles stay exact
        # for any rho, not only for the diagonal steady state
        params, basis, lm = _generator(epsilon, port)
        rng = np.random.default_rng(5)
        g = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
        coherences = 1e-3 * (g + g.conj().T)
        np.fill_diagonal(coherences, 0.0)
        rho = steady_state(lm) + coherences
        x_dot = emission_probe(params, port, basis)
        dense = _dense_emission(lm.matrix, rho, x_dot, GRID, "solve")
        for method in ("eig", "solve"):
            got = emission_spectrum(lm, rho, x_dot, GRID, method=method)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def test_build_gme_returns_the_secular_type_only_in_the_secular_layout():
    _, _, lm = _generator(0.3, OutputKind.CAPACITIVE_C)
    assert isinstance(lm, SecularGenerator)
    _, _, filtered = _generator(0.3, OutputKind.CAPACITIVE_C, filter_b=0.02)
    assert isinstance(filtered, np.ndarray)
    # eta = 0: the evenly spaced ladder couples coherences of equal Bohr frequency
    _, _, ladder = _generator(0.3, OutputKind.CAPACITIVE_C, eta=0.0)
    assert isinstance(ladder, np.ndarray)


def test_secular_generator_applies_as_its_matrix():
    _, _, lm = _generator(0.3, OutputKind.INDUCTIVE_M)
    rng = np.random.default_rng(7)
    n = lm.rates.shape[0] ** 2
    for shape in [(n,), (n, 3)]:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_allclose(lm @ v, lm.matrix @ v, rtol=1e-13, atol=1e-16)


def test_total_liouvillian_of_the_type_matches_its_matrix():
    params = SystemParams(delta=1.0, epsilon=0.3, eta=0.8, n_fock=7)
    basis = dressed_basis(params)
    channels = [resonator_channel(1e-3, 0.0, OutputKind.CAPACITIVE_C),
                qubit_channel(1e-2, 0.1, params.delta)]
    lg = build_gme(basis, channels, GmeConfig(), params)
    np.testing.assert_array_equal(total_liouvillian(basis, lg).matrix,
                                  total_liouvillian(basis, lg.matrix))


@pytest.mark.parametrize("mode", cli.SPECTRUM_MODES)
def test_cli_spectra_never_build_the_dense_secular_generator(tmp_path, monkeypatch, mode):
    built = []
    secular = gme._secular_generator

    def counted(*args):
        built.append(secular(*args))
        return built[-1]

    def refuse(self):
        raise AssertionError("a secular-layout point built a d^2 x d^2 superoperator")

    monkeypatch.setattr(gme, "_secular_generator", counted)
    monkeypatch.setattr(SecularGenerator, "matrix", property(refuse))
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[mode]))
    argv = [mode, "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "1"]
    assert cli.main(argv) == 0
    assert built


def test_filtered_generator_is_one_block_and_takes_the_dense_path():
    # a finite filter bandwidth couples all Bohr frequencies once parity is broken
    params, basis, lm = _generator(0.3, OutputKind.CAPACITIVE_C, filter_b=0.02)
    assert isinstance(lm, np.ndarray)
    rho = steady_state(lm)
    np.testing.assert_array_equal(rho, _dense_steady_state(lm))
    x_dot = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
    for method in ("eig", "solve"):
        got = emission_spectrum(lm, rho, x_dot, GRID, method=method)
        np.testing.assert_array_equal(got, _dense_emission(lm, rho, x_dot, GRID, method))


def test_split_populations_raise_as_without_blocks():
    # uncoupled qubit, port bath only: the |e, n> and |g, n> ladders each
    # relax to their own stationary state
    params = SystemParams(delta=1.3, epsilon=0.0, eta=0.0, n_fock=5)
    basis = dressed_basis(params)
    channels = [resonator_channel(gamma=1e-3, temperature=0.0,
                                  jump_kind=OutputKind.CAPACITIVE_C)]
    lm = total_liouvillian(basis, build_gme(basis, channels, GmeConfig(), params))
    with pytest.raises(DegenerateSteadyState):
        steady_state(lm)


def test_population_block_is_nonnegative_and_matches_dense():
    # fig2 at eta = 1.5, X_C port: populations fall to ~1e-138 up the ladder,
    # and the elimination of the population block keeps every one >= 0
    _, _, lm = _generator(0.0, OutputKind.CAPACITIVE_C, eta=1.5, n_fock=20)
    assert isinstance(lm, SecularGenerator)
    pops = np.diag(steady_state(lm)).real
    dense = np.diag(_dense_steady_state(lm.matrix)).real
    assert (pops >= 0).all()
    large = dense > 1e-8
    np.testing.assert_allclose(pops[large], dense[large], rtol=1e-9, atol=0)


def _refuse_dense(self):
    raise AssertionError("the steady state built the d^2 x d^2 generator")


def test_population_fallback_solves_w_alone(monkeypatch):
    # fig2 at eta = 1.5, X_C port, with GTH made to stop: the bordered solve
    # of the population block W must agree with GTH
    _, _, lm = _generator(0.0, OutputKind.CAPACITIVE_C, eta=1.5, n_fock=20)
    gth = np.diag(steady_state(lm)).real
    monkeypatch.setattr(steady, "_gth_stationary", lambda w: None)
    monkeypatch.setattr(SecularGenerator, "matrix", property(_refuse_dense))
    rho = steady_state(lm)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(rho - np.diag(np.diag(rho)), 0.0)
    large = gth > 1e-8
    np.testing.assert_allclose(np.diag(rho).real[large], gth[large], rtol=1e-9, atol=0)


def test_undamped_levels_raise_without_building_the_dense_generator(monkeypatch):
    # no bath damps anything at offset 0.2, so every level is stationary
    params = SystemParams(delta=1.0, epsilon=0.2, eta=0.8, n_fock=20)
    basis = dressed_basis(params)
    channels = [
        resonator_channel(gamma=0.0, temperature=0.0, jump_kind=OutputKind.CAPACITIVE_C),
        qubit_channel(gamma=0.0, temperature=0.1, delta=params.delta),
    ]
    lm = total_liouvillian(basis, build_gme(basis, channels, GmeConfig(), params))
    assert isinstance(lm, SecularGenerator)
    monkeypatch.setattr(SecularGenerator, "matrix", property(_refuse_dense))
    with pytest.raises(DegenerateSteadyState, match="sigma_2"):
        steady_state(lm)


def test_gth_stationary_birth_death_chain_and_reducible_chain():
    down, up = np.array([3.0, 2.0, 5.0]), np.array([1.0, 0.5, 1e-30])
    w = np.diag(down, 1) + np.diag(up, -1)  # w[f, i]: rate of i -> f
    w -= np.diag(w.sum(axis=0))
    p = _gth_stationary(w)
    expected = np.cumprod(np.r_[1.0, up / down])
    np.testing.assert_allclose(p, expected / expected.sum(), rtol=1e-14)
    w[:, 3] = 0.0  # state 3 no longer leaves, state 0 is absorbing too
    assert _gth_stationary(w) is None


def test_non_finite_generators_raise_typed_errors():
    params, basis, lm = _generator(0.3, OutputKind.CAPACITIVE_C, n_fock=4)
    with pytest.raises(NoConvergence):
        steady_state(lm.matrix * np.nan)
    with pytest.raises(UscSpecError):
        steady_state(replace(lm, rates=lm.rates * np.nan))
    x = basis.to_dressed(build_output_operator(OutputKind.CAPACITIVE_C, params))
    drive = build_drive_superoperators(x, 1e-3, 1e-2, 0.0, 1.0)
    with pytest.raises(UscSpecError):
        floquet_harmonics(lm, replace(drive, coefficient=np.nan), 1.0)
