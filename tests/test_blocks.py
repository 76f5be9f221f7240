"""The block-by-block steady state and emission resolvent of a secular
Liouvillian against solves on the whole matrix."""
import numpy as np
import pytest
import scipy.linalg

from uscspec.dressed import dressed_basis, frequency_components
from uscspec.errors import DegenerateSteadyState
from uscspec.gme import (
    GmeConfig,
    build_gme,
    qubit_channel,
    resonator_channel,
    total_liouvillian,
)
from uscspec.model import OutputKind, SystemParams
from uscspec.spectra import emission_probe, emission_spectrum
from uscspec.steady import liouvillian_blocks, steady_state

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
    return params, basis, total_liouvillian(basis, lg).matrix


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
        evals, evecs = scipy.linalg.eig(lm)
        weights = (probe @ evecs) * scipy.linalg.solve(evecs, b)
        return np.array([float(np.real(np.sum(weights / (1j * w - evals)))) for w in grid])
    eye = np.eye(lm.shape[0], dtype=complex)
    return np.array([float(np.real(probe @ scipy.linalg.solve(1j * w * eye - lm, b)))
                     for w in grid])


@pytest.mark.parametrize("epsilon, port", SECULAR_CASES)
class TestSecularBlocks:
    def test_partition_is_exact(self, epsilon, port):
        _, _, lm = _generator(epsilon, port)
        blocks = liouvillian_blocks(lm)
        assert 1 < len(blocks) < lm.shape[0]
        label = np.full(lm.shape[0], -1)
        for k, blk in enumerate(blocks):
            assert (label[blk] == -1).all()
            label[blk] = k
        assert (label >= 0).all()
        rows, cols = np.nonzero(lm)
        assert (label[rows] == label[cols]).all()

    def test_steady_state_matches_dense(self, epsilon, port):
        _, _, lm = _generator(epsilon, port)
        rho = steady_state(lm, blocks=liouvillian_blocks(lm))
        np.testing.assert_allclose(rho, steady_state(lm), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("method", ["eig", "solve"])
    def test_emission_matches_dense_solve(self, epsilon, port, method):
        params, basis, lm = _generator(epsilon, port)
        blocks = liouvillian_blocks(lm)
        rho = steady_state(lm, blocks=blocks)
        x_dot = emission_probe(params, port, basis)
        dense = _dense_emission(lm, rho, x_dot, GRID, "solve")
        got = emission_spectrum(lm, rho, x_dot, GRID, method=method, blocks=blocks).values
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()


def test_filtered_generator_is_one_block_and_takes_the_dense_path():
    # a finite filter bandwidth couples all Bohr frequencies once parity is broken
    params, basis, lm = _generator(0.3, OutputKind.CAPACITIVE_C, filter_b=0.02)
    blocks = liouvillian_blocks(lm)
    assert len(blocks) == 1
    rho = steady_state(lm, blocks=blocks)
    np.testing.assert_array_equal(rho, _dense_steady_state(lm))
    x_dot = emission_probe(params, OutputKind.CAPACITIVE_C, basis)
    for method in ("eig", "solve"):
        got = emission_spectrum(lm, rho, x_dot, GRID, method=method, blocks=blocks).values
        np.testing.assert_array_equal(got, _dense_emission(lm, rho, x_dot, GRID, method))


def test_split_populations_raise_as_without_blocks():
    # uncoupled qubit, port bath only: the |e, n> and |g, n> ladders each
    # relax to their own stationary state, so the populations form two blocks
    params = SystemParams(delta=1.3, epsilon=0.0, eta=0.0, n_fock=5)
    basis = dressed_basis(params)
    channels = [resonator_channel(gamma=1e-3, temperature=0.0,
                                  jump_kind=OutputKind.CAPACITIVE_C)]
    lm = total_liouvillian(basis, build_gme(basis, channels, GmeConfig(), params)).matrix
    blocks = liouvillian_blocks(lm)
    populations = np.arange(0, lm.shape[0], params.dim + 1)
    assert sum(np.isin(populations, blk).any() for blk in blocks) == 2
    with pytest.raises(DegenerateSteadyState) as dense:
        steady_state(lm)
    with pytest.raises(DegenerateSteadyState) as blocked:
        steady_state(lm, blocks=blocks)
    assert str(blocked.value) == str(dense.value)
