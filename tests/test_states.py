import json
import re

import numpy as np
import pytest

from qmonogamy import kernel, measures, states, verify

EXAMPLE_PARAMS = states.AcinParams(
    (np.sqrt(5.0) / 3.0, 0.0, np.sqrt(3.0) / 3.0, 1.0 / 3.0, 0.0)
)


class TestAcinParams:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            states.AcinParams((1.0, 1.0, 0.0, 0.0, 0.0))

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            states.AcinParams((-1.0, 0.0, 0.0, 0.0, 0.0))

    def test_rejects_phase_outside_range(self):
        with pytest.raises(ValueError):
            states.AcinParams((1.0, 0.0, 0.0, 0.0, 0.0), phi=4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match="finite"):
            states.AcinParams((bad, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            states.AcinParams((1.0, 0.0, bad, 0.0, 0.0))

    def test_integer_beyond_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            states.AcinParams((10**400, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="phase must be finite"):
            states.AcinParams((1.0, 0.0, 0.0, 0.0, 0.0), 10**400)

    def test_json_round_trip(self):
        text = EXAMPLE_PARAMS.to_json()
        back = states.AcinParams.from_json(text)
        assert back == EXAMPLE_PARAMS
        data = json.loads(text)
        assert set(data) == {"lambda", "phi"}
        assert len(data["lambda"]) == 5


class TestAcinState:
    def test_product_state(self):
        st = states.acin_state(states.AcinParams((1.0, 0.0, 0.0, 0.0, 0.0)))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(st.amplitudes, expected)

    def test_amplitude_placement_and_phase(self):
        lams = (0.5, 0.5, 0.5, 0.3, 0.4)
        # not normalized; rescale
        norm = np.sqrt(sum(v * v for v in lams))
        lams = tuple(v / norm for v in lams)
        phi = 1.25
        st = states.acin_state(states.AcinParams(lams, phi))
        amps = st.amplitudes
        assert amps[0] == pytest.approx(lams[0])
        assert amps[4] == pytest.approx(lams[1] * np.exp(1j * phi))
        assert amps[5] == pytest.approx(lams[2])
        assert amps[6] == pytest.approx(lams[3])
        assert amps[7] == pytest.approx(lams[4])
        assert np.all(amps[[1, 2, 3]] == 0)

    def test_example_full_cut_concurrence(self):
        st = states.acin_state(EXAMPLE_PARAMS)
        c = measures.concurrence_pure(st, {0})
        assert c * c == pytest.approx(80.0 / 81.0, abs=1e-12)

    def test_bell_like_reduction(self):
        # lambda0 = lambda2 = 1/sqrt(2): tracing the middle qubit leaves a
        # maximally entangled pair on the outer two.
        st = states.acin_state(
            states.AcinParams((1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0, 0.0))
        )
        rho = states.density(st)
        pair = kernel.partial_trace(rho, 3, {0, 2})
        assert measures.concurrence_two_qubit(pair) == pytest.approx(1.0, abs=1e-10)

    def test_marginal_identity_when_lambda1_zero(self):
        # 2 (1 - tr rho_A^2) = 4 l0^2 (l2^2 + l3^2 + l4^2) when l1 = 0.
        rng = np.random.default_rng(8)
        for _ in range(25):
            raw = rng.random(5)
            raw[1] = 0.0
            lams = tuple(raw / np.linalg.norm(raw))
            st = states.acin_state(states.AcinParams(lams))
            rho_a = kernel.partial_trace(states.density(st), 3, {0})
            lhs = 2.0 * (1.0 - np.trace(rho_a @ rho_a).real)
            rhs = 4.0 * lams[0] ** 2 * (lams[2] ** 2 + lams[3] ** 2 + lams[4] ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDensity:
    def test_basis_state(self):
        st = states.PureState(1, np.array([1.0, 0.0]))
        assert np.array_equal(states.density(st), np.diag([1.0, 0.0]))

    def test_bell(self):
        v = np.zeros(4)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = states.density(states.PureState(2, v))
        assert np.count_nonzero(np.abs(rho) > 1e-12) == 4
        assert np.allclose(rho[np.abs(rho) > 1e-12], 0.5)

    def test_projector_idempotent(self):
        for seed in range(10):
            st = states.random_pure_state(3, seed)
            rho = states.density(st)
            assert np.max(np.abs(rho @ rho - rho)) < 1e-10
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


class TestRandomPureState:
    def test_deterministic(self):
        a = states.random_pure_state(3, 123)
        b = states.random_pure_state(3, 123)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_distinct_seeds_differ(self):
        a = states.random_pure_state(3, 1)
        b = states.random_pure_state(3, 2)
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        for seed in range(50):
            st = states.random_pure_state(4, seed)
            assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) < 1e-12

    def test_qubit_count_gate(self):
        with pytest.raises(ValueError):
            states.random_pure_state(5, 0)
        with pytest.raises(ValueError):
            states.random_pure_state(0, 0)

    @pytest.mark.parametrize("sampler", [
        lambda n: states.random_pure_state(n, 1).amplitudes,
        lambda n: states.random_pure_states(n, 3, 1),
    ], ids=["random_pure_state", "random_pure_states"])
    def test_non_integral_qubit_count_is_a_value_error(self, sampler):
        # 2.5 passed the range check and then failed with a TypeError.
        with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.5"):
            sampler(2.5)
        assert np.array_equal(sampler(3.0), sampler(3))

    @pytest.mark.parametrize("sampler", [
        lambda seed: states.random_pure_state(3, seed).amplitudes,
        lambda seed: states.random_pure_states(3, 2, seed),
    ], ids=["random_pure_state", "random_pure_states"])
    def test_seed_is_a_nonnegative_integer(self, sampler):
        # numpy refuses 1.5 with a TypeError and draws seed 1's stream for True.
        for seed in (1.5, True):
            with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
                sampler(seed)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sampler(-1)
        assert np.array_equal(sampler(3.0), sampler(3))
        assert np.array_equal(sampler(np.int64(3)), sampler(3))

    def test_marginal_purity_haar_average(self):
        # Two-qubit Haar states have E[tr rho_A^2] = 4/5.
        rng = np.random.default_rng(2024)
        total = 0.0
        n = 10_000
        for _ in range(n):
            vec = states.haar_state_vector(4, rng)
            m = vec.reshape(2, 2)
            rho_a = m @ m.conj().T
            total += float(np.vdot(rho_a, rho_a).real)
        mean = total / n
        assert abs(mean - 0.8) < 0.05 * 0.8

    def test_batch_prefix_property(self):
        long = states.random_pure_states(3, 10, seed=77)
        short = states.random_pure_states(3, 4, seed=77)
        assert np.array_equal(short, long[:4])


def per_state_haar_vectors(n_qubits, count, seed):
    """Reference sampler: one draw, Box-Muller transform and norm per state."""
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    out = []
    for _ in range(count):
        u1 = 1.0 - rng.random(dim)
        u2 = rng.random(dim)
        radius = np.sqrt(-2.0 * np.log(u1))
        vec = radius * np.cos(2.0 * np.pi * u2) + 1j * radius * np.sin(2.0 * np.pi * u2)
        out.append(vec / np.linalg.norm(vec))
    return out


class TestBatchedSampler:
    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("count", [1, 400, 515, verify._STATE_BLOCK + 3])
    def test_batch_equals_per_state_draws(self, seed, count):
        batch = states.random_pure_states(3, count, seed)
        reference = per_state_haar_vectors(3, count, seed)
        assert batch.shape == (count, 8)
        for row, vec in zip(batch, reference):
            assert np.array_equal(row, vec)

    @pytest.mark.parametrize("n_qubits", [1, 2, 4])
    def test_other_sizes_and_single_vectors(self, n_qubits):
        reference = per_state_haar_vectors(n_qubits, 5, 11)
        batch = states.random_pure_states(n_qubits, 5, 11)
        rng = np.random.default_rng(11)
        assert batch.shape == (5, 2**n_qubits)
        for row, vec in zip(batch, reference):
            assert np.array_equal(row, vec)
            assert np.array_equal(states.haar_state_vector(2**n_qubits, rng), vec)

    @pytest.mark.parametrize(
        "count,message",
        [(2.5, "count must be an integer, got 2.5"), (True, "count must be an integer, got True"),
         (-1, "count must be >= 0, got -1")],
    )
    def test_bad_count_is_a_value_error(self, count, message):
        # Refused by name before any draw; a boolean is not a count.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            states.random_pure_states(3, count, 0)

    def test_integral_float_count(self):
        assert np.array_equal(states.random_pure_states(2, 3.0, 5), states.random_pure_states(2, 3, 5))

    def test_amplitudes_are_read_only(self):
        batch = states.random_pure_states(2, 3, 0)
        with pytest.raises(ValueError):
            batch[1, 0] = 1.0
        with pytest.raises(ValueError):
            batch[1][0] = 1.0


class TestStreamStart:
    # Offsets on both sides of a _STATE_BLOCK boundary, and counts that
    # cross it.
    BLOCK = verify._STATE_BLOCK

    @pytest.mark.parametrize("seed", [3, 7919])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "start,count",
        [(0, 1), (5, 0), (5, 1), (BLOCK - 1, 1), (BLOCK - 3, 7), (BLOCK, 1), (BLOCK + 2, 0),
         (2 * BLOCK - 5, BLOCK + 9)],
    )
    def test_rows_of_a_longer_batch(self, n_qubits, start, count, seed):
        longer = states.random_pure_states(n_qubits, 3 * self.BLOCK + 5, seed)
        rows = states.random_pure_states(n_qubits, count, seed, start=start)
        assert rows.shape == (count, 2**n_qubits)
        assert np.array_equal(rows, longer[start : start + count])
        assert not rows.flags.writeable

    def test_integral_float_start(self):
        assert np.array_equal(
            states.random_pure_states(2, 3, 5, start=4.0), states.random_pure_states(2, 3, 5, start=4)
        )

    @pytest.mark.parametrize(
        "start,message",
        [(-1, "start must be >= 0, got -1"), (2.5, "start must be an integer, got 2.5"),
         (True, "start must be an integer, got True"), (float("nan"), "start must be an integer"),
         ("3", "start must be an integer")],
    )
    def test_bad_start_is_a_value_error(self, start, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            states.random_pure_states(3, 2, 0, start=start)

    @pytest.mark.parametrize(
        "n_qubits,count,start",
        [(3, 2**60, 0), (3, 1, 2**56), (3, 0, 2**60), (1, 1, 2**59), (4, 1, 2**55), (3, 1, 2**200)],
    )
    def test_offset_past_the_largest_array_is_refused_before_any_draw(
        self, n_qubits, count, start, monkeypatch
    ):
        def no_generator(*args, **kwargs):
            raise AssertionError("generator made")

        if start:
            monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(MemoryError, match="its float64 draw would exceed the largest array size"):
            states.random_pure_states(n_qubits, count, 0, start=start)

    def test_largest_offset_below_the_bound_is_drawn(self):
        # 2**56 rows of 16 float64 uniforms put the offset at 2**63 bytes,
        # one past the largest array size; one row less is drawn.
        [row] = states.random_pure_states(3, 1, 0, start=2**56 - 1)
        assert abs(np.vdot(row, row).real - 1.0) < 1e-12


class TestPureStateJson:
    def test_round_trip(self):
        st = states.random_pure_state(2, 5)
        back = states.PureState.from_json(st.to_json())
        assert back.n_qubits == 2
        assert np.allclose(back.amplitudes, st.amplitudes)

    def test_wire_format(self):
        st = states.random_pure_state(1, 0)
        data = json.loads(st.to_json())
        assert set(data) == {"n_qubits", "amplitudes"}
        assert all(len(pair) == 2 for pair in data["amplitudes"])

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            states.PureState.from_json('{"n_qubits": 2}')

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            states.PureState.from_json(
                '{"n_qubits": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}'
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            states.PureState(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.6, np.nan)])
    def test_rejects_non_finite_amplitude(self, bad):
        amps = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
        amps[0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            states.PureState(2, amps)

    @pytest.mark.parametrize("amps", [[10**400, 0], [0.6, -(10**400)]])
    def test_integer_beyond_float_range_is_a_value_error(self, amps):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            states.PureState(1, amps)

    @pytest.mark.parametrize("amps", [[0.0, 1.35e154j], [1e200, 1e200], [1e308 + 1e308j, 0.0]])
    def test_amplitude_whose_square_overflows_is_unnormalized(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            states.PureState(1, np.array(amps, dtype=complex))
