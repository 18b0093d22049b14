"""Convex-roof oracle against the closed-form two-qubit concurrence."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonogamy import measures, states


def rank2_density(rng):
    v1 = states.haar_state_vector(4, rng)
    v2 = states.haar_state_vector(4, rng)
    w = rng.random()
    return w * np.outer(v1, v1.conj()) + (1 - w) * np.outer(v2, v2.conj())


def eigendecomposition_average(rho):
    w, v = np.linalg.eigh(rho)
    total = 0.0
    for i in range(w.size):
        if w[i] > 1e-12:
            vec = v[:, i] / np.linalg.norm(v[:, i])
            total += w[i] * measures.concurrence_pure(states.PureState(2, vec), {0})
    return total


def test_pure_input_matches_pure_formula():
    for seed in range(20):
        st = states.random_pure_state(2, seed)
        est = measures.concurrence_roof_oracle(states.density(st), restarts=10, seed=seed)
        assert abs(est - measures.concurrence_pure(st, {0})) < 1e-6


def test_rank2_matches_closed_form():
    rng = np.random.default_rng(99)
    for i in range(30):
        rho = rank2_density(rng)
        closed = measures.concurrence_two_qubit(rho)
        est = measures.concurrence_roof_oracle(rho, restarts=60, seed=1000 + i)
        assert est >= closed - 1e-6
        assert est <= eigendecomposition_average(rho) + 1e-12
        assert abs(est - closed) < 2e-3


def test_werner_mixture():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = 0.5 * np.outer(v, v.conj()) + 0.5 * np.eye(4) / 4.0
    closed = measures.concurrence_two_qubit(rho)
    assert closed == pytest.approx(0.25, abs=1e-12)
    est = measures.concurrence_roof_oracle(rho, restarts=200, seed=3)
    assert abs(est - closed) < 2e-3


def test_deterministic_and_nonincreasing_in_restarts():
    rng = np.random.default_rng(17)
    rho = rank2_density(rng)
    a = measures.concurrence_roof_oracle(rho, restarts=30, seed=5)
    b = measures.concurrence_roof_oracle(rho, restarts=30, seed=5)
    assert a == b
    more = measures.concurrence_roof_oracle(rho, restarts=90, seed=5)
    assert more <= a + 1e-15


def test_restart_gate():
    with pytest.raises(ValueError, match="^restarts must be >= 1, got 0$"):
        measures.concurrence_roof_oracle(np.eye(4, dtype=complex) / 4.0, restarts=0)
    # A bool is an Integral, but not a restart count.
    for restarts in (2.5, "3", True):
        with pytest.raises(ValueError, match="integer"):
            measures.concurrence_roof_oracle(np.eye(4) / 4.0, restarts=restarts)
    assert measures.concurrence_roof_oracle(np.eye(4) / 4.0, restarts=np.int64(3)) == 0.0
    # An integral float is a count, as it is for every other count and seed.
    mixed = rank2_density(np.random.default_rng(5))
    expected = measures.concurrence_roof_oracle(mixed, restarts=3)
    for restarts in (3.0, np.int64(3)):
        assert measures.concurrence_roof_oracle(mixed, restarts=restarts) == expected


def test_seed_gate():
    rho = states.density(states.random_pure_state(2, 44))
    mixed = 0.6 * rho + 0.4 * states.density(states.random_pure_state(2, 45))
    # numpy refuses 1.5 with a TypeError and takes True as seed 1.
    for seed in (1.5, True):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
            measures.concurrence_roof_oracle(mixed, restarts=2, seed=seed)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        measures.concurrence_roof_oracle(mixed, restarts=2, seed=-1)
    expected = measures.concurrence_roof_oracle(mixed, restarts=4, seed=3)
    for seed in (3.0, np.int64(3)):
        assert measures.concurrence_roof_oracle(mixed, restarts=4, seed=seed) == expected


def test_non_finite_input_is_a_value_error():
    # Validation must name the bad input before it reaches LAPACK.
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = rho[3, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        measures.concurrence_two_qubit(rho)
    with pytest.raises(ValueError, match="NaN or infinite"):
        measures.concurrence_roof_oracle(rho, restarts=2)


_MIXED = np.eye(4) / 4.0


@pytest.mark.parametrize(
    "rho",
    [np.stack([_MIXED, _MIXED]), _MIXED[None], _MIXED.ravel(), np.eye(2) / 2.0],
    ids=["stack", "stack-of-one", "vector", "2x2"],
)
def test_anything_but_one_4x4_matrix_is_refused_by_shape(monkeypatch, rho):
    # A stack passes ``kernel.require_density``; it must be refused, by its
    # shape, before any eigensolver runs.
    def no_eigensolver(*args, **kwargs):
        raise AssertionError("eigensolver ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    message = f"expected one 4x4 density matrix, got shape {rho.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        measures.concurrence_roof_oracle(rho, restarts=2)


# Oracle values pinned bit for bit (``float.hex``) at restart counts that
# cover one to three decomposition-size groups and groups of one restart.
# The mixtures span decomposition sizes k = rank..4 against r = rank; the
# pure state takes the rank-1 shortcut.
_PIN_WEIGHTS = {2: (0.6, 0.4), 3: (0.7, 0.2, 0.1), 4: (0.82, 0.08, 0.06, 0.04)}
_PINNED = {
    ("rank2", 1): "0x1.23688cc86a4e1p-3",
    ("rank2", 2): "0x1.23688cc86a4e1p-3",
    ("rank2", 3): "0x1.23688cc86a4e1p-3",
    ("rank2", 7): "0x1.23688cc86a4e1p-3",
    ("rank2", 200): "0x1.23688cc8139dcp-3",
    ("rank3", 1): "0x1.1c639c8a9bac9p-1",
    ("rank3", 2): "0x1.1c639c8a9bac9p-1",
    ("rank3", 3): "0x1.1c639c8a9bac9p-1",
    ("rank3", 7): "0x1.1c639c08464c6p-1",
    ("rank3", 200): "0x1.1c639bfaf4f06p-1",
    ("rank4", 1): "0x1.8268dfda1481bp-2",
    ("rank4", 2): "0x1.7702d8a490a7bp-2",
    ("rank4", 3): "0x1.7702d8a490a7bp-2",
    ("rank4", 7): "0x1.7702d8a490a7bp-2",
    ("rank4", 200): "0x1.76fe1ea4a5c80p-2",
    ("pure", 1): "0x1.ed374b9678e22p-2",
    ("pure", 2): "0x1.ed374b9678e22p-2",
    ("pure", 3): "0x1.ed374b9678e22p-2",
    ("pure", 7): "0x1.ed374b9678e22p-2",
    ("pure", 200): "0x1.ed374b9678e22p-2",
}


def pinned_input(name):
    if name == "pure":
        return states.density(states.random_pure_state(2, 44))
    rank = int(name[-1])
    rng = np.random.default_rng(40 + rank)
    vecs = [states.haar_state_vector(4, rng) for _ in range(rank)]
    return sum(w * np.outer(v, v.conj()) for w, v in zip(_PIN_WEIGHTS[rank], vecs))


def oracle_tau(rho):
    """``tau`` of ``rho`` as the oracle builds it, and its rank."""
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-10
    x = v[:, keep] * np.sqrt(w[keep])
    return x.T @ measures.kernel.YY @ x, int(keep.sum())


@pytest.mark.parametrize("name", ["rank2", "rank3", "rank4", "pure"])
def test_pinned_values(name):
    rho = pinned_input(name)
    for restarts in (1, 2, 3, 7, 200):
        est = measures.concurrence_roof_oracle(rho, restarts=restarts, seed=11)
        assert est.hex() == _PINNED[name, restarts], restarts


@pytest.mark.parametrize(("name", "k"), [("rank2", 2), ("rank3", 4)])
def test_batched_restarts_are_independent(name, k):
    tau, rank = oracle_tau(pinned_input(name))
    children = np.random.SeedSequence(8).spawn(9)

    def start(child):
        rng = np.random.default_rng(child)
        g = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
        return np.linalg.qr(g)[0], rng

    starts = [start(c) for c in children]
    batched = measures._refine_group(
        np.stack([u for u, _ in starts]), tau, [rng for _, rng in starts]
    )
    alone = []
    for child in children:
        u, rng = start(child)
        alone.append(measures._refine_group(u[None], tau, [rng]))
    assert batched == min(alone)


@pytest.mark.parametrize(("name", "rows"), [("rank2", [2, 2, 3, 4, 4, 3, 2, 4, 3]), ("rank3", [3, 4, 4, 3, 3, 4])])
def test_mixed_size_batch_restarts_are_independent(name, rows):
    # One lockstep batch of restarts of several sizes, zero-padded to 4 rows
    # and not all grouped by size, against each restart refined alone and
    # unpadded.
    tau, rank = oracle_tau(pinned_input(name))
    children = np.random.SeedSequence(8).spawn(len(rows))

    def start(child, k):
        rng = np.random.default_rng(child)
        g = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
        return np.linalg.qr(g)[0], rng

    padded = np.zeros((len(rows), 4, rank), dtype=complex)
    rngs = []
    for b, (child, k) in enumerate(zip(children, rows)):
        padded[b, :k], rng = start(child, k)
        rngs.append(rng)
    batched = measures._refine_group(padded, tau, rngs, rows)
    alone = []
    for child, k in zip(children, rows):
        u, rng = start(child, k)
        alone.append(measures._refine_group(u[None], tau, [rng]))
    assert batched == min(alone)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 64, 76, 200, 301])
@pytest.mark.parametrize("name", ["rank2", "rank3", "rank4"])
def test_decomposition_cost_does_not_depend_on_its_stack(name, size):
    # All rows of a stack share one matrix product; each member's cost must
    # still come out bit for bit as it does alone, whatever the stack's size.
    tau, rank = oracle_tau(pinned_input(name))
    rng = np.random.default_rng(size)
    g = rng.standard_normal((size, 4, rank)) + 1j * rng.standard_normal((size, 4, rank))
    u = np.linalg.qr(g)[0]
    stacked = measures._decomposition_cost(u, tau)
    alone = [measures._decomposition_cost(m[None], tau) for m in u]
    assert np.concatenate(alone).tobytes() == stacked.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    batch=st.integers(1, 70),
    rank=st.integers(2, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_cost_matches_einsum(batch, rank, extra, seed):
    # Against the three-operand einsum form of the same cost, on zero-padded
    # isometries of k = rank..4 rows and the tau of a random mixture of
    # ``rank`` pure states.
    k = min(rank + extra, 4)
    rng = np.random.default_rng(seed)
    vecs = [states.haar_state_vector(4, rng) for _ in range(rank)]
    weights = rng.dirichlet(np.ones(rank))
    tau, r = oracle_tau(sum(p * np.outer(v, v.conj()) for p, v in zip(weights, vecs)))
    g = rng.standard_normal((batch, k, r)) + 1j * rng.standard_normal((batch, k, r))
    u = np.zeros((batch, 4, r), dtype=complex)
    u[:, :k] = np.linalg.qr(g)[0]
    got = measures._decomposition_cost(u, tau)
    want = np.sum(np.abs(np.einsum("...ji,ik,...jk->...j", u, tau, u)), axis=-1)
    np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)


@settings(max_examples=80, deadline=None)
@given(batch=st.integers(1, 70), k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_q_two_columns_matches_numpy(batch, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((batch, k, 2)) + 1j * rng.standard_normal((batch, k, 2))
    padded = np.zeros((batch, 4, 2), dtype=complex)
    padded[:, :k] = a
    want_q, want_r = np.linalg.qr(a)
    with measures._qr_errors():
        got = measures._q_two_columns(padded.copy())
        alone = [measures._q_two_columns(padded[i : i + 1].copy()) for i in range(batch)]
    # Two backward-stable factorizations agree to roundoff times the
    # condition number of ``a``, which can be large for a random 2 x 2.
    err = np.abs(got[:, :k] - want_q).max(axis=(1, 2))
    assert np.all(err <= 1e-14 * np.linalg.cond(a)), err.max()
    # LAPACK's column signs: the diagonal of R = Q^H a, signed as numpy's.
    r_diag = np.einsum("nij,nij->nj", got[:, :k].conj(), a).real
    assert np.array_equal(np.sign(r_diag), np.sign(np.diagonal(want_r, axis1=1, axis2=2).real))
    assert not got[:, k:].any()
    assert np.concatenate(alone).tobytes() == got.tobytes()


@pytest.mark.parametrize(
    ("name", "calls", "rows"),
    [("rank2", 665, 35223), ("rank3", 1039, 49707), ("rank4", 1262, 96843)],
)
def test_refinement_work_is_pinned(monkeypatch, name, calls, rows):
    # Same steps, not just the same value: the number of cost evaluations (one
    # for the initial isometries, then one per lockstep step) and the restarts
    # they score (initial isometries plus every proposal).
    seen = []
    cost = measures._decomposition_cost

    def counted(u, tau):
        seen.append(u.shape[0])
        return cost(u, tau)

    monkeypatch.setattr(measures, "_decomposition_cost", counted)
    measures.concurrence_roof_oracle(pinned_input(name), restarts=200, seed=11)
    assert (len(seen), sum(seen)) == (calls, rows)
