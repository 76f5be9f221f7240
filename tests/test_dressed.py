import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uscspec.dressed import (
    _carry_labels,
    build_transition_table,
    diagonalize,
    dressed_basis,
    frequency_components,
    jc_initial_labels,
    label_states,
    plain_labels,
)
from uscspec.errors import AmbiguousContinuation, NotHermitian, UnknownLabel
from uscspec.model import (
    OutputKind,
    SystemParams,
    annihilation,
    build_output_operator,
    build_static_hamiltonian,
    sigma_tilde_x,
)


def _basis(**kw):
    return dressed_basis(SystemParams(**kw))


class TestDiagonalize:
    def test_decoupled_energies(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.0, n_fock=4)
        basis = dressed_basis(p)
        expected = sorted(s * 0.5 + m for s in (-1, 1) for m in range(4))
        np.testing.assert_allclose(basis.energies, expected, atol=1e-12)

    def test_invariants(self):
        p = SystemParams(delta=1.0, epsilon=0.3, eta=0.9, n_fock=10)
        h = build_static_hamiltonian(p)
        basis = diagonalize(h)
        assert np.all(np.diff(basis.energies) >= -1e-12)
        v = basis.vectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(p.dim), atol=1e-10)
        residual = h @ v - v @ np.diag(basis.energies)
        assert np.abs(residual).max() < 1e-10

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_jc_vacuum_rabi_splitting(self):
        # resonant weak coupling: first excited doublet split by 2 eta
        p = SystemParams(delta=1.0, epsilon=0.0, eta=1e-3, n_fock=8)
        basis = dressed_basis(p)
        splitting = basis.energies[2] - basis.energies[1]
        assert abs(splitting - 2e-3) / 2e-3 < 1e-4


class TestFrequencyComponents:
    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        x = x + x.conj().T
        total = (
            frequency_components(x, "plus")
            + frequency_components(x, "minus")
            + frequency_components(x, "zero")
        )
        np.testing.assert_array_equal(total, x)

    def test_minus_is_adjoint_of_plus(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        plus = frequency_components(x, "plus")
        np.testing.assert_array_equal(frequency_components(x, "minus"), plus.conj().T)

    def test_annihilation_is_purely_lowering_when_decoupled(self):
        p = SystemParams(delta=0.4, epsilon=0.0, eta=0.0, n_fock=5)
        basis = dressed_basis(p)
        a_dressed = basis.to_dressed(annihilation(p))
        np.testing.assert_allclose(
            frequency_components(a_dressed, "plus"), a_dressed, atol=1e-12
        )
        np.testing.assert_allclose(
            frequency_components(a_dressed, "minus"), a_dressed.conj().T, atol=1e-12
        )
        assert np.abs(frequency_components(a_dressed, "zero")).max() < 1e-12

    def test_qubit_coupling_has_no_zero_component_at_zero_offset(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.6, n_fock=10)
        basis = dressed_basis(p)
        stx = basis.to_dressed(sigma_tilde_x(p))
        assert np.abs(frequency_components(stx, "zero")).max() < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = x + x.conj().T
        total = sum(frequency_components(x, w) for w in ("plus", "minus", "zero"))
        np.testing.assert_array_equal(total, x)


class TestTransitionTable:
    def test_all_positive(self):
        basis = _basis(delta=1.0, epsilon=0.2, eta=0.9, n_fock=8)
        rows = build_transition_table(basis.with_labels(plain_labels(basis.dim)))
        assert np.all(np.array([omega for *_, omega in rows]) > 0)
        assert len(rows) == sum(
            1
            for i in range(basis.dim)
            for j in range(i + 1, basis.dim)
            if basis.energies[j] - basis.energies[i] > 1e-9
        )

    def test_rows_with_labels(self):
        basis = _basis(delta=1.0, epsilon=0.0, eta=0.2, n_fock=3).with_labels(
            plain_labels(6)
        )
        rows = build_transition_table(basis)
        assert rows[0][:2] == (0, 1)
        assert rows[0][2:4] == ("0", "1")


class TestLabeling:
    def test_jc_seed_labels(self):
        p = SystemParams(delta=1.0, epsilon=0.0, eta=1e-3, n_fock=6)
        labels = jc_initial_labels(p, dressed_basis(p))
        assert labels[0] == "0"
        assert set(labels[1:3]) == {"1-", "1+"}
        assert set(labels[3:5]) == {"2-", "2+"}

    def test_continuation_through_usc(self):
        # fine eta sweep from the JC regime into deep-strong coupling keeps
        # every continuation overlap above threshold
        etas = np.linspace(1e-3, 1.5, 300)
        params = [SystemParams(delta=1.0, epsilon=0.0, eta=float(e), n_fock=12)
                  for e in etas]
        bases = [dressed_basis(p) for p in params]
        with warnings.catch_warnings():
            warnings.simplefilter("error", AmbiguousContinuation)
            labeled = label_states(bases, jc_initial_labels(params[0], bases[0]))
        assert labeled[-1].labels is not None
        assert set(labeled[-1].labels) == set(labeled[0].labels)

    def test_epsilon_sweep_plain_labels(self):
        eps = np.linspace(0.0, 1.0, 60)
        bases = [dressed_basis(SystemParams(delta=1.0, epsilon=float(e), eta=0.6,
                                            n_fock=8)) for e in eps]
        labeled = label_states(bases, plain_labels(bases[0].dim))
        assert labeled[0].labels[:3] == ("0", "1", "2")

    def test_low_overlap_warns(self):
        # jumping straight from weak to deep-strong coupling cannot be tracked
        b0 = _basis(delta=1.0, epsilon=0.0, eta=1e-3, n_fock=10)
        b1 = _basis(delta=1.0, epsilon=0.0, eta=2.5, n_fock=10)
        with pytest.warns(AmbiguousContinuation):
            label_states([b0, b1], plain_labels(b0.dim))

    def test_deep_strong_jc_seed_warns(self):
        # at eta 3.5 the JC sectors describe none of the dressed states: the
        # seed's weakest overlap is about 0.002
        p = SystemParams(delta=1.0, epsilon=0.0, eta=3.5, n_fock=60)
        with pytest.warns(AmbiguousContinuation, match="JC seed"):
            jc_initial_labels(p, dressed_basis(p))

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(6, 40))
    @settings(max_examples=60, deadline=None)
    def test_greedy_pairing_is_the_optimal_assignment(self, seed, dim):
        # every row's largest overlap above 1/2 makes the greedy pairing the
        # unique optimum, so it must equal an assignment solver's, bit for bit
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(seed)

        def unitary(scale):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            return np.linalg.qr(np.eye(dim) + scale * g)[0]

        from_vectors = unitary(1.0)
        to_vectors = from_vectors @ unitary(0.4 / np.sqrt(dim))[:, rng.permutation(dim)]
        ov = np.abs(to_vectors.conj().T @ from_vectors) ** 2
        assume(ov.max(axis=1).min() > 0.5)
        labels = [f"s{k}" for k in range(dim)]
        row, col = linear_sum_assignment(-ov)
        assert _carry_labels(labels, from_vectors, to_vectors) == (
            tuple(labels[c] for c in col[np.argsort(row)]), ov[row, col].min())

    def test_greedy_tie_takes_the_first_maximum_in_row_major_order(self):
        # overlaps [[0, 1/2, 1/2], [1/2, 1/4, 1/4], [1/2, 1/4, 1/4]]: the first
        # 1/2 gives state 0 label "y", then state 1 takes "x" before state 2
        h, q = np.sqrt(0.5), 0.5
        to_vectors = np.array([[0.0, h, h], [h, q, -q], [h, -q, q]])
        labels, worst = _carry_labels("xyz", np.eye(3), to_vectors)
        assert labels == ("y", "x", "z")
        assert worst == q**2

    def test_greedy_pairing_below_one_half_can_miss_the_optimum(self):
        # three real rotations: greedy keeps the identity pairing (total
        # overlap 1.269, weakest 0.214) where the optimum reaches 1.397
        def rotation(i, j, angle):
            m = np.eye(3)
            m[[i, j], [i, j]] = np.cos(angle)
            m[i, j], m[j, i] = -np.sin(angle), np.sin(angle)
            return m

        to_vectors = (rotation(0, 1, np.pi / 12) @ rotation(1, 2, np.pi / 4)
                      @ rotation(0, 1, np.pi / 6))
        labels, worst = _carry_labels("abc", np.eye(3), to_vectors)
        assert labels == ("a", "b", "c")
        ov = (to_vectors ** 2).T
        assert worst == ov[1, 1]
        assert np.trace(ov) == pytest.approx(1.2686, abs=1e-4)
        assert ov[0, 0] + ov[2, 1] + ov[1, 2] == pytest.approx(1.3965, abs=1e-4)

    def test_index_of_unknown_label(self):
        basis = _basis(delta=1.0, epsilon=0.0, eta=0.1, n_fock=4)
        with pytest.raises(UnknownLabel):
            basis.index_of("0")  # no labels assigned
        with pytest.raises(UnknownLabel):
            basis.with_labels(plain_labels(8)).index_of("nope")


class TestParitySelection:
    def test_parity_odd_operators_block_off_diagonal(self):
        from uscspec.model import parity_operator

        p = SystemParams(delta=1.0, epsilon=0.0, eta=0.8, n_fock=10)
        basis = dressed_basis(p)
        pi = basis.to_dressed(parity_operator(p.n_fock))
        parities = np.real(np.diag(pi))
        same = np.abs(parities[:, None] - parities[None, :]) < 1e-6
        for kind in (OutputKind.CAPACITIVE_C, OutputKind.INDUCTIVE_M):
            x = basis.to_dressed(build_output_operator(kind, p))
            assert np.abs(x[same]).max() < 1e-12
