import numpy as np
import pytest

from qmonogamy import kernel, measures, states

I2 = np.eye(2, dtype=complex)
YY = kernel.YY


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def example_state():
    p = states.AcinParams((np.sqrt(5.0) / 3.0, 0.0, np.sqrt(3.0) / 3.0, 1.0 / 3.0, 0.0))
    return states.acin_state(p)


def random_density(n_qubits, rng, rank=None):
    dim = 2**n_qubits
    rank = rank or dim
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for w in weights:
        v = states.haar_state_vector(dim, rng)
        rho += w * np.outer(v, v.conj())
    return rho


class TestKron:
    def test_spin_flip_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            twice = YY @ (YY @ m @ YY) @ YY
            assert np.max(np.abs(twice - m)) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        reduced = kernel.partial_trace(rho, 2, {0})
        assert np.allclose(reduced, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        v = bell_state()
        reduced = kernel.partial_trace(np.outer(v, v.conj()), 2, {0})
        assert np.allclose(reduced, I2 / 2.0, atol=1e-14)

    def test_example_state_pair_concurrences(self):
        # The |101> amplitude pairs qubit 0 with qubit 2, the |110> amplitude
        # pairs it with qubit 1.
        rho = states.density(example_state())
        c_02 = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 2}))
        c_01 = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 1}))
        assert c_02 == pytest.approx(2.0 * np.sqrt(15.0) / 9.0, abs=1e-12)
        assert c_01 == pytest.approx(2.0 * np.sqrt(5.0) / 9.0, abs=1e-12)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(10):
                rho = random_density(n, rng)
                keep = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
                reduced = kernel.partial_trace(rho, n, keep)
                assert abs(np.trace(reduced).real - np.trace(rho).real) < 1e-12
                assert abs(np.trace(reduced).imag) < 1e-12
                assert np.min(np.linalg.eigvalsh(reduced)) > -1e-12

    def test_keep_everything_is_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        assert np.allclose(kernel.partial_trace(rho, 2, {0, 1}), rho)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel.partial_trace(np.eye(3, dtype=complex), 2, {0})

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            kernel.partial_trace(np.eye(4, dtype=complex) / 4.0, 2, set())

    def test_bad_index(self):
        with pytest.raises(ValueError):
            kernel.partial_trace(np.eye(4, dtype=complex) / 4.0, 2, {2})


class TestHermitianEigenvalues:
    def test_diagonal(self):
        vals = kernel.hermitian_eigenvalues(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(vals, [0.7, 0.3])

    def test_maximally_mixed(self):
        vals = kernel.hermitian_eigenvalues(I2 / 2.0)
        assert np.allclose(vals, [0.5, 0.5])

    def test_example_marginal_closed_form(self):
        # Pivot marginal of the canonical example state: (1 +- 1/9) / 2.
        rho = states.density(example_state())
        rho_a = kernel.partial_trace(rho, 3, {0})
        vals = kernel.hermitian_eigenvalues(rho_a)
        assert vals == pytest.approx([(1 + 1 / 9) / 2, (1 - 1 / 9) / 2], abs=1e-12)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_density(2, rng)
            vals = kernel.hermitian_eigenvalues(rho)
            assert abs(vals.sum() - np.trace(rho).real) < 1e-10

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (g + g.conj().T) / 2.0
            w, v = np.linalg.eigh(h)
            for i in range(8):
                assert np.linalg.norm(h @ v[:, i] - w[i] * v[:, i]) < 1e-10
            assert np.allclose(
                kernel.hermitian_eigenvalues(h), np.sort(w)[::-1], atol=1e-12
            )

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            kernel.hermitian_eigenvalues(m)


class TestGeneralEigenvalues:
    def test_agrees_with_hermitian_path(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2.0
            general = np.sort(np.linalg.eigvals(h).real)[::-1]
            hermitian = kernel.hermitian_eigenvalues(h)
            assert np.max(np.abs(general - hermitian)) < 1e-9

    def test_spin_flip_product_of_pure_states(self):
        # Largest eigenvalue of rho rho~ equals the squared concurrence.
        for seed in range(1000):
            st = states.random_pure_state(2, seed)
            rho = states.density(st)
            prod = rho @ (YY @ rho.conj() @ YY)
            vals = np.linalg.eigvals(prod)
            assert np.max(np.abs(vals.imag)) < 1e-10
            assert np.min(vals.real) > -1e-10
            c = measures.concurrence_pure(st, {0})
            assert abs(np.max(vals.real) - c * c) < 1e-9

    def test_bell_spin_flip_product(self):
        v = bell_state()
        rho = np.outer(v, v.conj())
        prod = rho @ (YY @ rho.conj() @ YY)
        vals = np.linalg.eigvals(prod)
        assert np.allclose(sorted(vals.real, reverse=True), [1.0, 0.0, 0.0, 0.0], atol=1e-9)


class TestTracePower:
    def test_maximally_mixed(self):
        assert kernel.trace_power(I2 / 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_pure_projector_any_power(self):
        st = states.random_pure_state(2, 3)
        rho = states.density(st)
        for p in (0.5, 2.0, 2.7, 5.0):
            assert kernel.trace_power(rho, p) == pytest.approx(1.0, abs=1e-10)

    def test_example_marginal_purity(self):
        rho = states.density(example_state())
        rho_a = kernel.partial_trace(rho, 3, {0})
        assert kernel.trace_power(rho_a, 2.0) == pytest.approx(1.0 - 40.0 / 81.0, abs=1e-12)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            kernel.trace_power(np.diag([1.1, -0.1]).astype(complex), 2.0)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            kernel.trace_power(I2 / 2.0, 0.0)
