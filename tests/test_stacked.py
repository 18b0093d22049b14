"""Stacked inputs to the kernel and the spin-flip measures.

A stack of matrices must give, member by member, exactly what one call per
matrix gives, and its validation must name the first bad member.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonogamy import kernel, measures, states

SETTINGS = settings(max_examples=40, deadline=None)


def random_densities(n_qubits, count, rank, seed):
    """``count`` random ``n_qubits`` densities of the given rank."""
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    out = np.zeros((count, dim, dim), dtype=complex)
    for rho in out:
        weights = rng.random(rank)
        weights /= weights.sum()
        for w in weights:
            v = states.haar_state_vector(dim, rng)
            rho += w * np.outer(v, v.conj())
    return out


@st.composite
def density_stacks(draw):
    n_qubits = draw(st.sampled_from([3, 4]))
    count = draw(st.integers(1, 6))
    rank = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_qubits, random_densities(n_qubits, count, rank, seed)


class TestStackEqualsPerMatrix:
    @SETTINGS
    @given(density_stacks(), st.data())
    def test_partial_trace(self, stack, data):
        n_qubits, rhos = stack
        keep = data.draw(
            st.sets(st.integers(0, n_qubits - 1), min_size=1, max_size=n_qubits)
        )
        stacked = kernel.partial_trace(rhos, n_qubits, keep)
        assert stacked.shape[0] == len(rhos)
        for rho, reduced in zip(rhos, stacked):
            assert np.array_equal(reduced, kernel.partial_trace(rho, n_qubits, keep))

    @SETTINGS
    @given(density_stacks())
    def test_hermitian_eigenvalues(self, stack):
        n_qubits, rhos = stack
        for keep in [set(range(n_qubits)), {0}, {0, n_qubits - 1}]:
            reduced = kernel.partial_trace(rhos, n_qubits, keep)
            stacked = kernel.hermitian_eigenvalues(reduced)
            for matrix, values in zip(reduced, stacked):
                assert np.array_equal(values, kernel.hermitian_eigenvalues(matrix))

    @SETTINGS
    @given(density_stacks())
    def test_concurrence_two_qubit(self, stack):
        n_qubits, rhos = stack
        for pair in itertools.combinations(range(n_qubits), 2):
            reduced = kernel.partial_trace(rhos, n_qubits, pair)
            stacked = measures.concurrence_two_qubit(reduced)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(rhos),)
            singles = [measures.concurrence_two_qubit(matrix) for matrix in reduced]
            assert np.array_equal(stacked, singles)
            spectra = measures.spin_flip_spectrum(reduced)
            for matrix, spectrum in zip(reduced, spectra):
                assert np.array_equal(spectrum, measures.spin_flip_spectrum(matrix))


def spoil(member, kind):
    """A copy of a valid density matrix that fails one validation check."""
    if kind == "non-hermitian":
        bad = member.copy()
        bad[0, 1] += 1e-6j
        return bad
    if kind == "trace-2":
        return 2.0 * member
    bad = np.zeros_like(member)  # unit trace, Hermitian, eigenvalue -0.1
    bad[0, 0], bad[1, 1] = 1.1, -0.1
    return bad


class TestStackValidation:
    @SETTINGS
    @given(
        st.integers(2, 8),
        st.data(),
        st.sampled_from(["non-hermitian", "trace-2", "negative"]),
        st.integers(0, 2**32 - 1),
    )
    def test_error_names_the_first_bad_member(self, count, data, kind, seed):
        rhos = random_densities(2, count, 2, seed)
        bad = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3))
        for index in bad:
            rhos[index] = spoil(rhos[index], kind)
        first = min(bad)
        with pytest.raises(ValueError, match=f"^stack member {first}: "):
            kernel.require_density(rhos)
        with pytest.raises(ValueError, match=f"^stack member {first}: "):
            measures.concurrence_two_qubit(rhos)
        if kind == "non-hermitian":
            with pytest.raises(ValueError, match=f"^stack member {first}: .*not Hermitian"):
                kernel.hermitian_eigenvalues(rhos)

    @pytest.mark.parametrize("kind", ["non-hermitian", "trace-2", "negative"])
    def test_single_matrix_message_names_no_member(self, kind):
        rho = spoil(random_densities(2, 1, 2, 3)[0], kind)
        with pytest.raises(ValueError) as info:
            measures.concurrence_two_qubit(rho)
        assert "stack member" not in str(info.value)

    def test_rejects_deeper_stacks(self):
        with pytest.raises(ValueError, match="2-D matrix or a stack"):
            kernel.partial_trace(random_densities(2, 4, 1, 0).reshape(2, 2, 4, 4), 2, {0})


class TestSingleMatrixTypes:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_two_dimensional_inputs_keep_their_return_types(self, seed):
        rho = random_densities(3, 1, 2, seed)[0]
        pair = kernel.partial_trace(rho, 3, {0, 1})
        assert isinstance(pair, np.ndarray) and pair.shape == (4, 4)
        assert kernel.hermitian_eigenvalues(pair).shape == (4,)
        assert measures.spin_flip_spectrum(pair).shape == (4,)
        assert type(measures.concurrence_two_qubit(pair)) is float
