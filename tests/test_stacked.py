"""Stacked inputs to the kernel, the spin-flip measures and the pure-cut layer.

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

    @SETTINGS
    @given(density_stacks())
    def test_two_qubit_entropies(self, stack):
        n_qubits, rhos = stack
        reduced = kernel.partial_trace(rhos, n_qubits, {0, 1})
        for fn, index in [(measures.tsallis_two_qubit, 2.5), (measures.renyi_two_qubit, 2.0)]:
            stacked = fn(reduced, index)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(rhos),)
            singles = [fn(matrix, index) for matrix in reduced]
            assert all(type(value) is float for value in singles)
            assert np.array_equal(stacked, singles)


@st.composite
def pure_stacks(draw):
    """A stack of seeded Haar pure-state densities on 2 to 4 qubits."""
    n_qubits = draw(st.sampled_from([2, 3, 4]))
    count = draw(st.integers(1, 5))
    amps = states.random_pure_states(n_qubits, count, draw(st.integers(0, 2**32 - 1)))
    return n_qubits, amps, amps[:, :, None] * amps[:, None, :].conj()


def proper_sides(n_qubits):
    qubits = range(n_qubits)
    return [set(s) for k in range(1, n_qubits) for s in itertools.combinations(qubits, k)]


class TestPureCutLayer:
    @SETTINGS
    @given(pure_stacks())
    def test_stack_equals_single_calls(self, stack):
        n_qubits, _, rhos = stack
        for side in proper_sides(n_qubits):
            stacked = measures.cut_spectrum(rhos, n_qubits, side)
            assert stacked.shape == (len(rhos), 2 ** len(side))
            for rho, spectrum in zip(rhos, stacked):
                assert spectrum.tobytes() == measures.cut_spectrum(rho, n_qubits, side).tobytes()

    @SETTINGS
    @given(pure_stacks(), st.sampled_from([0.8, 2.0, 2.5, 3.0]))
    def test_wrappers_equal_the_layer(self, stack, index):
        n_qubits, amps, rhos = stack
        for side in proper_sides(n_qubits):
            spectra = measures.cut_spectrum(rhos, n_qubits, side)
            layer = {
                measures.tsallis_pure: measures.tsallis_of_spectrum(spectra, index),
                measures.renyi_pure: measures.renyi_of_spectrum(spectra, index),
                measures.concurrence_pure: np.sqrt(
                    measures.squared_concurrence_of_spectrum(spectra)
                ),
            }
            for i, row in enumerate(amps):
                state = states.PureState(n_qubits, row)
                for wrapper, values in layer.items():
                    args = () if wrapper is measures.concurrence_pure else (index,)
                    value = wrapper(state, side, *args)
                    assert np.float64(value).tobytes() == values[i].tobytes(), wrapper


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
        with pytest.raises(ValueError, match=f"^stack member {first}: "):
            measures.spin_flip_spectrum(rhos)
        if kind == "non-hermitian":
            with pytest.raises(ValueError, match=f"^stack member {first}: .*not Hermitian"):
                kernel.hermitian_eigenvalues(rhos)

    @pytest.mark.parametrize("kind", ["non-hermitian", "trace-2", "negative"])
    def test_single_matrix_message_names_no_member(self, kind):
        rho = spoil(random_densities(2, 1, 2, 3)[0], kind)
        for fn in (measures.concurrence_two_qubit, measures.spin_flip_spectrum):
            with pytest.raises(ValueError) as info:
                fn(rho)
            assert "stack member" not in str(info.value)

    @pytest.mark.parametrize(
        "spoils,first",
        [
            (("nan", "non-hermitian", "trace-2"), "NaN or infinite"),
            (("non-square", "non-hermitian"), "not square"),
            (("non-hermitian", "2x2", "trace-2"), "not Hermitian"),
            (("non-hermitian", "trace-2", "negative"), "not Hermitian"),
            (("2x2", "trace-2", "negative"), "expected a 4x4"),
            (("trace-2", "negative"), "trace"),
            (("negative",), "negative eigenvalue"),
        ],
    )
    def test_first_failure_same_as_require_density(self, spoils, first):
        """A matrix that fails several checks gets the message of the first
        one, in require_density's order: finite, square, Hermitian, 4x4,
        unit trace, eigenvalues."""
        if "negative" in spoils:
            rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        else:
            rho = random_densities(2, 1, 2, 3)[0]
        if "trace-2" in spoils:
            rho = 2.0 * rho
        if "non-hermitian" in spoils:
            rho[0, 1] += 1e-6j
        if "nan" in spoils:
            rho[3, 3] = np.nan
        if "2x2" in spoils:
            rho = rho[:2, :2]
        if "non-square" in spoils:
            rho = rho[:, :3]
        with pytest.raises(ValueError, match=first) as expected:
            kernel.require_density(rho, dim=4)
        for fn in (measures.concurrence_two_qubit, measures.spin_flip_spectrum):
            with pytest.raises(ValueError) as info:
                fn(rho)
            assert str(info.value) == str(expected.value)

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


def partial_trace_reference(rho, n_qubits, keep):
    """Partial trace by ``np.trace`` on the ``2 * n_qubits``-axis tensor,
    contracting each traced qubit's bra and ket axes, highest first."""
    arr = np.asarray(rho, dtype=complex)
    lead = arr.shape[:-2]
    tens = arr.reshape(lead + (2,) * (2 * n_qubits))
    first, offset = len(lead), n_qubits
    for q in reversed([q for q in range(n_qubits) if q not in keep]):
        tens = np.trace(tens, axis1=first + q, axis2=first + q + offset)
        offset -= 1
    k = len(keep)
    return tens.reshape(lead + (2**k, 2**k))


def spin_flip_reference(rho):
    """``require_density``, then ``eigh``, ``root @ YY`` and ``svd``."""
    arr = kernel.require_density(rho, dim=4)
    w, v = np.linalg.eigh(arr)
    w = np.where(w < kernel.ROUNDOFF_ZERO, 0.0, w)
    root = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    k = root @ kernel.YY @ root.swapaxes(-1, -2)
    return np.linalg.svd(k, compute_uv=False)


def concurrence_reference(rho):
    s0, s1, s2, s3 = spin_flip_reference(rho).T
    gap = s0 - s1 - s2 - s3
    return np.where(gap > 0.0, gap, 0.0)


def structured_marginals():
    """The three pair marginals of 3-qubit product, Bell (x) |0>, GHZ, W
    and |000> states, stacked, with their names."""
    basis = np.eye(8, dtype=complex)
    product = np.kron(np.kron([1.0, 0.0], [1.0, 1.0] / np.sqrt(2.0)), [0.6, 0.8j])
    vectors = {
        "product": product,
        "bell": (basis[0] + basis[6]) / np.sqrt(2.0),
        "ghz": (basis[0] + basis[7]) / np.sqrt(2.0),
        "w": (basis[1] + basis[2] + basis[4]) / np.sqrt(3.0),
        "zero": basis[0],
    }
    names, pairs = [], []
    for name, v in vectors.items():
        rho = np.outer(v, v.conj())
        for pair in itertools.combinations(range(3), 2):
            names.append(f"{name}{pair}")
            pairs.append(kernel.partial_trace(rho, 3, pair))
    return names, np.stack(pairs)


class TestSameBitsAsReferenceRoutes:
    @SETTINGS
    @given(
        st.integers(1, 4),
        st.integers(0, 5),
        st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_partial_trace_equals_np_trace(self, n_qubits, count, zero_share, seed):
        """Every keep set, on a 2-D matrix (count 0) or a stack, with a share
        of the real and imaginary parts set to 0.0 or -0.0."""
        rng = np.random.default_rng(seed)
        dim = 2**n_qubits
        shape = (dim, dim) if count == 0 else (count, dim, dim)
        parts = rng.standard_normal((2,) + shape)
        zeros = rng.random(parts.shape) < zero_share
        parts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        rho = np.empty(shape, dtype=complex)
        rho.real, rho.imag = parts
        for size in range(1, n_qubits + 1):
            for keep in itertools.combinations(range(n_qubits), size):
                got = kernel.partial_trace(rho, n_qubits, keep)
                want = partial_trace_reference(rho, n_qubits, keep)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), keep

    @SETTINGS
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_spin_flip_and_concurrence_of_random_ranks(self, count, rank, seed):
        rhos = random_densities(2, count, rank, seed)
        assert measures.spin_flip_spectrum(rhos).tobytes() == spin_flip_reference(rhos).tobytes()
        assert (measures.concurrence_two_qubit(rhos).tobytes()
                == concurrence_reference(rhos).tobytes())
        for rho in rhos:
            assert (measures.spin_flip_spectrum(rho).tobytes()
                    == spin_flip_reference(rho).tobytes())
            c = measures.concurrence_two_qubit(rho)
            assert type(c) is float and np.float64(c).tobytes() == concurrence_reference(rho).tobytes()

    def test_spin_flip_and_concurrence_of_structured_marginals(self):
        names, pairs = structured_marginals()
        assert measures.spin_flip_spectrum(pairs).tobytes() == spin_flip_reference(pairs).tobytes()
        assert (measures.concurrence_two_qubit(pairs).tobytes()
                == concurrence_reference(pairs).tobytes())
        for name, rho in zip(names, pairs):
            assert (measures.spin_flip_spectrum(rho).tobytes()
                    == spin_flip_reference(rho).tobytes()), name
            c = measures.concurrence_two_qubit(rho)
            assert np.float64(c).tobytes() == concurrence_reference(rho).tobytes(), name

    def test_one_eigh_and_no_eigvalsh_per_concurrence_call(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rhos = random_densities(2, 5, 2, 7)
        for rho in (rhos, rhos[0]):
            calls.clear()
            measures.concurrence_two_qubit(rho)
            assert calls == ["eigh"]
