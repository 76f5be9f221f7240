import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uscspec.errors import (
    CutoffTooSmall,
    DegenerateQubit,
    DimensionMismatch,
    KindMismatch,
    NotHermitian,
)
from uscspec.model import (
    SIGMA_X,
    SIGMA_Z,
    ModelKind,
    OutputKind,
    SystemParams,
    annihilation,
    assert_hermitian,
    build_output_operator,
    build_static_hamiltonian,
    parity_operator,
    qubit_frequency,
    qubit_op,
    sigma_tilde_x,
    sigma_tilde_x_2x2,
)

from reference import SIGMA_Y, fock_phase_rotation, heisenberg_derivative


def interior_mask(dim: int, n_fock: int) -> np.ndarray:
    """Select states below the last Fock level, where the truncated ladder
    operators still satisfy the canonical commutator."""
    keep = np.array([(i % n_fock) < n_fock - 1 for i in range(dim)])
    return np.ix_(keep, keep)


class TestQubitFrequency:
    def test_zero_offset(self):
        assert qubit_frequency(1.0, 0.0) == 1.0

    def test_circuit_iii_splitting(self):
        assert qubit_frequency(0.69, 0.0) == pytest.approx(0.69)

    def test_pythagorean(self):
        assert qubit_frequency(3.0, 4.0) == pytest.approx(5.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateQubit):
            qubit_frequency(0.0, 0.0)


@pytest.mark.parametrize("field, value", [
    ("delta", float("nan")), ("epsilon", float("nan")), ("eta", float("inf")),
])
def test_non_finite_system_params_rejected(field, value):
    kwargs = {"delta": 1.0, "epsilon": 0.0, "eta": 0.5, field: value}
    with pytest.raises(ValueError, match="finite"):
        SystemParams(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("model_kind", "cavity"), ("n_fock", 4.5), ("n_fock", 6.0), ("n_fock", True),
])
def test_unknown_kind_and_non_integer_cutoff_rejected(field, value):
    with pytest.raises(ValueError):
        SystemParams(delta=1.0, epsilon=0.0, eta=0.5, **{field: value})


def test_kind_is_stored_converted_and_numpy_cutoff_accepted():
    p = SystemParams(delta=1.0, epsilon=0.0, eta=0.5, n_fock=np.int64(6),
                     model_kind="cavity_qed")
    assert p.model_kind is ModelKind.CAVITY_QED
    assert build_static_hamiltonian(p).shape == (12, 12)


class TestSigmaTildeX:
    def test_zero_offset_is_minus_sigma_x(self):
        p = SystemParams(1.0, 0.0, 0.0)  # theta = pi/2
        np.testing.assert_allclose(sigma_tilde_x_2x2(p), -SIGMA_X, atol=1e-15)

    def test_zero_tunneling_is_sigma_z(self):
        p = SystemParams(0.0, 1.0, 0.0)  # theta = 0
        np.testing.assert_allclose(sigma_tilde_x_2x2(p), SIGMA_Z, atol=1e-15)

    def test_diagonal_bias(self):
        p = SystemParams(1.0, 1.0, 0.0)
        expected = (SIGMA_Z - SIGMA_X) / np.sqrt(2.0)
        s = sigma_tilde_x_2x2(p)
        np.testing.assert_allclose(s, expected, atol=1e-15)
        np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-14)

    @given(delta=st.floats(0.0, 5.0), epsilon=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_squares_to_identity(self, delta, epsilon):
        if delta == 0.0 and epsilon == 0.0:
            return
        p = SystemParams(delta, epsilon, 0.0)
        s = sigma_tilde_x_2x2(p)
        np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("delta, epsilon", [
        (5e-324, 5e-324), (5e-324, -1e-320), (2.5e-310, 0.0), (0.0, -5e-324),
    ])
    def test_subnormal_bias_squares_to_identity(self, delta, epsilon):
        # hypot rounds a subnormal pair to the nearest subnormal, which once
        # made cos and sin both 1
        p = SystemParams(delta, epsilon, 0.0)
        assert p.cos_theta**2 + p.sin_theta**2 == pytest.approx(1.0, abs=1e-15)
        s = sigma_tilde_x_2x2(p)
        np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-12)


class TestStaticHamiltonian:
    def test_decoupled_spectrum(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.0, n_fock=3)
        evals = np.linalg.eigvalsh(build_static_hamiltonian(p))
        np.testing.assert_allclose(
            np.sort(evals), [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5], atol=1e-12
        )

    def test_hermitian(self):
        p = SystemParams(delta=1.0, epsilon=0.7, eta=0.9, n_fock=12)
        assert_hermitian(build_static_hamiltonian(p), name="H0")

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmall):
            SystemParams(delta=1.0, epsilon=0.0, eta=0.1, n_fock=1)

    def test_ground_energy_cutoff_converged(self):
        lo = SystemParams(delta=1.0, epsilon=0.0, eta=1.0, n_fock=20)
        hi = SystemParams(delta=1.0, epsilon=0.0, eta=1.0, n_fock=60)
        e_lo = np.linalg.eigvalsh(build_static_hamiltonian(lo))[0]
        e_hi = np.linalg.eigvalsh(build_static_hamiltonian(hi))[0]
        assert abs(e_lo - e_hi) < 1e-10

    @given(
        eta1=st.floats(0.0, 2.0),
        eta2=st.floats(0.0, 2.0),
        epsilon=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_eta_linearity(self, eta1, eta2, epsilon):
        base = dict(delta=1.0, epsilon=epsilon, n_fock=6)
        h1 = build_static_hamiltonian(SystemParams(eta=eta1, **base))
        h2 = build_static_hamiltonian(SystemParams(eta=eta2, **base))
        p = SystemParams(eta=eta1, **base)
        a = annihilation(p)
        stx = sigma_tilde_x(p)
        expected = (eta2 - eta1) * (a + a.conj().T) @ stx
        np.testing.assert_allclose(h2 - h1, expected, atol=1e-12)

    def test_parity_commutes_at_zero_offset(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.8, n_fock=10)
        h = build_static_hamiltonian(p)
        pi = parity_operator(p.n_fock)
        assert np.abs(h @ pi - pi @ h).max() < 1e-12

    def test_parity_broken_at_nonzero_offset(self):
        p = SystemParams(delta=1.0, epsilon=0.3, eta=0.8, n_fock=10)
        h = build_static_hamiltonian(p)
        pi = parity_operator(p.n_fock)
        assert np.abs(h @ pi - pi @ h).max() > 1e-3


class TestOutputOperators:
    def test_capacitive_independent_of_eta(self):
        p1 = SystemParams(delta=1.0, epsilon=0.0, eta=0.1, n_fock=6)
        p2 = SystemParams(delta=1.0, epsilon=0.0, eta=1.4, n_fock=6)
        x1 = build_output_operator(OutputKind.CAPACITIVE_C, p1)
        x2 = build_output_operator(OutputKind.CAPACITIVE_C, p2)
        np.testing.assert_array_equal(x1, x2)
        a = annihilation(p1)
        np.testing.assert_allclose(x1, 1j * (a.conj().T - a), atol=1e-15)

    def test_inductive_zero_offset(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=6)
        x = build_output_operator(OutputKind.INDUCTIVE_M, p)
        a = annihilation(p)
        expected = a + a.conj().T + 1.2 * qubit_op(SIGMA_X, p.n_fock)
        np.testing.assert_allclose(x, expected, atol=1e-14)

    def test_inductive_diagonal_bias(self):
        p = SystemParams(delta=1.0, epsilon=1.0, eta=0.5, n_fock=6)
        x = build_output_operator(OutputKind.INDUCTIVE_M, p)
        a = annihilation(p)
        expected = a + a.conj().T - qubit_op((SIGMA_Z - SIGMA_X) / np.sqrt(2.0), p.n_fock)
        np.testing.assert_allclose(x, expected, atol=1e-14)
        assert_hermitian(x, name="X_M")

    def test_kind_model_mismatch(self):
        circuit = SystemParams(delta=1.0, epsilon=0.0, eta=0.5, n_fock=6)
        cavity = SystemParams(
            delta=1.0, epsilon=0.0, eta=0.5, n_fock=6, model_kind=ModelKind.CAVITY_QED
        )
        with pytest.raises(KindMismatch):
            build_output_operator(OutputKind.CAVITY_D, circuit)
        with pytest.raises(KindMismatch):
            build_output_operator(OutputKind.INDUCTIVE_M, cavity)

    def test_all_kinds_hermitian(self):
        circuit = SystemParams(delta=1.0, epsilon=0.4, eta=0.8, n_fock=8)
        cavity = SystemParams(
            delta=1.0, epsilon=0.4, eta=0.8, n_fock=8, model_kind=ModelKind.CAVITY_QED
        )
        for kind, p in [
            (OutputKind.INDUCTIVE_M, circuit),
            (OutputKind.CAPACITIVE_C, circuit),
            (OutputKind.QUADRATURE, circuit),
            (OutputKind.CAVITY_D, cavity),
        ]:
            assert_hermitian(build_output_operator(kind, p), name=kind.value)


class TestHeisenbergDerivative:
    def test_harmonic_oscillator(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.0, n_fock=8)
        a = annihilation(p)
        h = a.conj().T @ a
        np.testing.assert_allclose(heisenberg_derivative(a, h), -1j * a, atol=1e-14)

    def test_capacitive_derivative_closed_form(self):
        # the closed form relies on [a, a+] = 1, which fails on the last
        # truncated Fock level; compare away from the cutoff boundary
        p = SystemParams(delta=1.0, epsilon=0.7, eta=0.6, n_fock=8)
        h = build_static_hamiltonian(p)
        xc = build_output_operator(OutputKind.CAPACITIVE_C, p)
        a = annihilation(p)
        stx = sigma_tilde_x(p)
        expected = -(a + a.conj().T + 2 * p.eta * stx)
        dev = heisenberg_derivative(xc, h) - expected
        assert np.abs(dev[interior_mask(p.dim, p.n_fock)]).max() < 1e-12

    def test_inductive_derivative_closed_form(self):
        p = SystemParams(delta=1.0, epsilon=0.7, eta=0.6, n_fock=8)
        h = build_static_hamiltonian(p)
        xm = build_output_operator(OutputKind.INDUCTIVE_M, p)
        a = annihilation(p)
        expected = (
            1j * (a.conj().T - a)
            - 2 * p.eta * p.omega0 * p.sin_theta * qubit_op(SIGMA_Y, p.n_fock)
        )
        # exact under truncation: no boundary exclusion needed
        np.testing.assert_allclose(heisenberg_derivative(xm, h), expected, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            heisenberg_derivative(np.eye(4), np.eye(6))

    def test_dressed_matrix_elements(self):
        p = SystemParams(delta=1.0, epsilon=0.3, eta=0.7, n_fock=8)
        h = build_static_hamiltonian(p)
        energies, vectors = np.linalg.eigh(h)
        x = build_output_operator(OutputKind.INDUCTIVE_M, p)
        xd = vectors.conj().T @ heisenberg_derivative(x, h) @ vectors
        x_dressed = vectors.conj().T @ x @ vectors
        expected = 1j * (energies[:, None] - energies[None, :]) * x_dressed
        np.testing.assert_allclose(xd, expected, atol=1e-10)


class TestCavityRotation:
    def test_hamiltonian_rotation_identity(self):
        for eps in (0.0, 0.4):
            circuit = SystemParams(delta=1.0, epsilon=eps, eta=0.8, n_fock=10)
            cavity = SystemParams(
                delta=1.0, epsilon=eps, eta=0.8, n_fock=10,
                model_kind=ModelKind.CAVITY_QED,
            )
            r = fock_phase_rotation(circuit.n_fock)
            h_rot = r @ build_static_hamiltonian(cavity) @ r.conj().T
            np.testing.assert_allclose(h_rot, build_static_hamiltonian(circuit),
                                       atol=1e-13)

    def test_rotation_maps_annihilation(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.5, n_fock=8)
        r = fock_phase_rotation(p.n_fock)
        a = annihilation(p)
        np.testing.assert_allclose(r @ a @ r.conj().T, 1j * a, atol=1e-14)

    def test_field_operator_maps_to_charge_derivative(self):
        circuit = SystemParams(delta=1.0, epsilon=0.0, eta=0.8, n_fock=10)
        cavity = SystemParams(
            delta=1.0, epsilon=0.0, eta=0.8, n_fock=10,
            model_kind=ModelKind.CAVITY_QED,
        )
        r = fock_phase_rotation(circuit.n_fock)
        xd = build_output_operator(OutputKind.CAVITY_D, cavity)
        xc_dot = heisenberg_derivative(
            build_output_operator(OutputKind.CAPACITIVE_C, circuit),
            build_static_hamiltonian(circuit),
        )
        dev = r @ xd @ r.conj().T - xc_dot
        assert np.abs(dev[interior_mask(circuit.dim, circuit.n_fock)]).max() < 1e-12


def test_assert_hermitian_raises():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        assert_hermitian(bad, name="probe")
