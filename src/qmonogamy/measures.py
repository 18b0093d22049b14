"""Entanglement measures for qubit states.

Concurrence (pure-state formula, two-qubit spin-flip closed form, and a
brute-force convex-roof minimization oracle), plus the analytic conversion
functions g_q / f_alpha and the Tsallis-q / Renyi-alpha entanglement
evaluators built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .states import PureState, density

# Index windows for the closed-form two-qubit identities
#   T_q(rho) = g_q(C(rho)^2)   and   E_a(rho) = f_a(C(rho)).
TSALLIS_ANALYTIC_MIN = (5.0 - math.sqrt(13.0)) / 2.0
TSALLIS_ANALYTIC_MAX = (5.0 + math.sqrt(13.0)) / 2.0
RENYI_ANALYTIC_MIN = (math.sqrt(7.0) - 1.0) / 2.0
# Superadditivity of g_q (and hence the Tsallis bound kernels) needs q in [2, 3].
TSALLIS_BOUND_MIN = 2.0
TSALLIS_BOUND_MAX = 3.0

_GATE_SLACK = 1e-12
_DOMAIN_SLACK = 1e-9  # absorbs x = C^2 landing a hair above 1


@dataclass(frozen=True)
class TsallisParam:
    """Tsallis entropy index q > 0, q != 1."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not q > 0 or q == 1.0:
            raise ValueError(f"q must be positive and != 1, got {q}")
        object.__setattr__(self, "q", q)

    @property
    def analytic(self) -> bool:
        return (
            TSALLIS_ANALYTIC_MIN - _GATE_SLACK
            <= self.q
            <= TSALLIS_ANALYTIC_MAX + _GATE_SLACK
        )

    @property
    def in_bound_window(self) -> bool:
        return TSALLIS_BOUND_MIN - _GATE_SLACK <= self.q <= TSALLIS_BOUND_MAX + _GATE_SLACK


@dataclass(frozen=True)
class RenyiParam:
    """Renyi entropy index alpha > 0, alpha != 1."""

    alpha: float

    def __post_init__(self):
        alpha = float(self.alpha)
        if not alpha > 0 or alpha == 1.0:
            raise ValueError(f"alpha must be positive and != 1, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def analytic(self) -> bool:
        return self.alpha >= RENYI_ANALYTIC_MIN - _GATE_SLACK

    @property
    def regime(self) -> str:
        """Bound regime tag: "ge2" for alpha >= 2, "window" below it."""
        if not self.analytic:
            raise ValueError(
                f"alpha {self.alpha} below the analytic threshold {RENYI_ANALYTIC_MIN:.6f}"
            )
        return "ge2" if self.alpha >= 2.0 else "window"


def _q_of(p) -> float:
    return p.q if isinstance(p, TsallisParam) else TsallisParam(p).q


def _alpha_of(p) -> float:
    return p.alpha if isinstance(p, RenyiParam) else RenyiParam(p).alpha


def _checked_unit_interval(x, name: str):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -_DOMAIN_SLACK) or np.any(arr > 1.0 + _DOMAIN_SLACK):
        bad = arr[(arr < -_DOMAIN_SLACK) | (arr > 1.0 + _DOMAIN_SLACK)]
        raise ValueError(f"{name} outside [0, 1]: {np.ravel(bad)[:4]}")
    return np.clip(arr, 0.0, 1.0)


def _like(x, values: np.ndarray):
    return float(values) if np.ndim(x) == 0 else values


def g_q(x, q) -> float | np.ndarray:
    """Tsallis-q entanglement of a two-qubit pure state with squared
    concurrence ``x``.

    Increasing and convex on [0, 1], with g_q(0) = 0.  Valid for q inside
    the analytic window (roughly 0.697 .. 4.303); array inputs broadcast.
    """
    qv = _q_of(q)
    param = q if isinstance(q, TsallisParam) else TsallisParam(qv)
    if not param.analytic:
        raise ValueError(
            f"q {qv} outside the analytic window "
            f"[{TSALLIS_ANALYTIC_MIN:.6f}, {TSALLIS_ANALYTIC_MAX:.6f}]"
        )
    arr = _checked_unit_interval(x, "x")
    root = np.sqrt(np.maximum(0.0, 1.0 - arr))
    hi = (1.0 + root) / 2.0
    lo = (1.0 - root) / 2.0
    vals = (1.0 - hi**qv - lo**qv) / (qv - 1.0)
    return _like(x, vals)


def f_alpha(x, alpha) -> float | np.ndarray:
    """Renyi-alpha entanglement of a two-qubit state with concurrence ``x``.

    Increasing and convex on [0, 1] for alpha >= (sqrt(7)-1)/2, with
    f_alpha(0) = 0 and f_alpha(1) = 1; array inputs broadcast.
    """
    av = _alpha_of(alpha)
    param = alpha if isinstance(alpha, RenyiParam) else RenyiParam(av)
    if not param.analytic:
        raise ValueError(
            f"alpha {av} below the analytic threshold {RENYI_ANALYTIC_MIN:.6f}"
        )
    arr = _checked_unit_interval(x, "x")
    root = np.sqrt(np.maximum(0.0, 1.0 - arr * arr))
    hi = (1.0 + root) / 2.0
    lo = (1.0 - root) / 2.0
    vals = np.log2(hi**av + lo**av) / (1.0 - av)
    return _like(x, vals)


def _reduced_density(state: PureState, side_a) -> np.ndarray:
    n = state.n_qubits
    side = sorted(set(int(i) for i in side_a))
    if not side or len(side) >= n or side[0] < 0 or side[-1] >= n:
        raise ValueError(
            f"side_a must be a nonempty proper subset of 0..{n - 1}, got {side}"
        )
    mat = state.amplitudes.reshape([2] * n)
    rest = [q for q in range(n) if q not in side]
    m = np.transpose(mat, side + rest).reshape(2 ** len(side), 2 ** len(rest))
    return m @ m.conj().T


def concurrence_pure(state: PureState, side_a) -> float:
    """Concurrence sqrt(2 (1 - tr rho_A^2)) across the given bipartition."""
    rho_a = _reduced_density(state, side_a)
    purity = float(np.vdot(rho_a, rho_a).real)  # tr rho^2 for Hermitian rho
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


def spin_flip_spectrum(rho) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho (sy x sy) rho* (sy x sy).

    Evaluated as the singular values of sqrt(rho) Y sqrt(rho)^T with
    Y = sy x sy (real symmetric), which carries the same spectrum: with
    S = sqrt(rho), eig(S S Y rho* Y) = eig(S Y rho* Y S) = eig(K K^dagger)
    for K = S Y S^T.  Unlike the non-normal eigenproblem this keeps the
    near-zero spectrum accurate, so square roots stay at roundoff level.
    """
    arr = kernel.as_matrix(rho)
    w, v = np.linalg.eigh(arr)
    w = np.where(w < kernel.ROUNDOFF_ZERO, 0.0, w)  # keep sqrt off roundoff zeros
    root = (v * np.sqrt(w)) @ v.conj().T
    k = root @ kernel.YY @ root.T
    return np.linalg.svd(k, compute_uv=False)


def concurrence_two_qubit(rho) -> float:
    """Closed-form concurrence of a two-qubit mixed state (spin-flip spectrum)."""
    arr = kernel.require_density(rho, dim=4)
    s = spin_flip_spectrum(arr)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def tsallis_pure(state: PureState, side_a, q) -> float:
    """Tsallis-q entanglement (1 - tr rho_A^q) / (q - 1) of a pure state."""
    qv = _q_of(q)
    rho_a = _reduced_density(state, side_a)
    return (1.0 - kernel.trace_power(rho_a, qv)) / (qv - 1.0)


def tsallis_two_qubit(rho, q) -> float:
    """Tsallis-q entanglement of a two-qubit mixed state, g_q(C^2)."""
    c = concurrence_two_qubit(rho)
    return float(g_q(c * c, q))


def renyi_pure(state: PureState, side_a, alpha) -> float:
    """Renyi-alpha entanglement log2(tr rho_A^alpha) / (1 - alpha)."""
    av = _alpha_of(alpha)
    rho_a = _reduced_density(state, side_a)
    return math.log2(kernel.trace_power(rho_a, av)) / (1.0 - av)


def renyi_two_qubit(rho, alpha) -> float:
    """Renyi-alpha entanglement of a two-qubit mixed state, f_alpha(C)."""
    c = concurrence_two_qubit(rho)
    return float(f_alpha(c, alpha))


# ---------------------------------------------------------------------------
# Convex-roof minimization oracle
# ---------------------------------------------------------------------------

_RANK_CUTOFF = 1e-10


def _haar_isometry(k: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """k x r matrix with orthonormal columns, Haar-distributed."""
    g = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    q_mat, r_mat = np.linalg.qr(g)
    # Fix column phases so the distribution is Haar rather than QR-skewed.
    d = np.diagonal(r_mat)
    return q_mat * (d / np.abs(np.where(d == 0, 1.0, d)))


def _decomposition_cost(u: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Average concurrence of the decompositions mixed by each ``u``.

    Rows of ``u`` define subnormalized members psi_j = sum_i u_ji x_i; the
    weighted concurrence sum collapses to sum_j |(u tau u^T)_jj|.
    """
    return np.sum(np.abs(np.einsum("...ji,ik,...jk->...j", u, tau, u)), axis=-1)


def _refine_group(u, tau, rngs) -> float:
    """Random-direction descent, one private stream per restart.

    Restarts are batched for throughput but each draws proposals from its
    own generator and freezes once its step collapses, so a restart's result
    depends only on its seed, never on its batch companions.
    """
    batch, k, r = u.shape
    val = _decomposition_cost(u, tau)
    step = np.full(batch, 0.3)
    fails = np.zeros(batch, dtype=int)
    active = step > 1e-4
    while np.any(active):
        g = np.stack(
            [
                rngs[b].standard_normal((k, r)) + 1j * rngs[b].standard_normal((k, r))
                if active[b]
                else np.zeros((k, r), dtype=complex)
                for b in range(batch)
            ]
        )
        cand, _ = np.linalg.qr(u + step[:, None, None] * g)
        cand_val = _decomposition_cost(cand, tau)
        improved = active & (cand_val < val - 1e-15)
        u = np.where(improved[:, None, None], cand, u)
        val = np.where(improved, cand_val, val)
        fails = np.where(improved, 0, fails + 1)
        shrink = active & (fails >= 6)
        step = np.where(shrink, step * 0.6, step)
        fails = np.where(shrink, 0, fails)
        active = step > 1e-4
    return float(np.min(val))


def concurrence_roof_oracle(rho, restarts: int = 200, seed: int = 0) -> float:
    """Upper estimate of the convex-roof concurrence of a two-qubit state.

    Minimizes the decomposition-averaged pure-state concurrence over
    column-orthonormal mixings of the eigendecomposition (decomposition
    sizes rank..4), refining Haar-seeded restarts by random-direction
    descent.  Restart ``t`` is driven by the ``t``-th child of the seed, so
    for a fixed seed the estimate is the running minimum over restarts:
    raising ``restarts`` can only lower (never raise) the result.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    arr = kernel.require_density(rho, dim=4)
    w, v = np.linalg.eigh(arr)
    keep = w > _RANK_CUTOFF
    w, v = w[keep], v[:, keep]
    rank = int(w.size)
    x = v * np.sqrt(w)  # subnormalized eigenvectors as columns
    tau = x.T @ kernel.YY @ x  # symmetric rank x rank

    best = float(np.sum(np.abs(np.diagonal(tau))))  # eigendecomposition itself
    if rank == 1:
        return best

    children = np.random.SeedSequence(seed).spawn(restarts)
    sizes = list(range(rank, 5))
    for k in sizes:
        indices = [t for t in range(restarts) if sizes[t % len(sizes)] == k]
        if not indices:
            continue
        rngs = [np.random.default_rng(children[t]) for t in indices]
        u = np.stack([_haar_isometry(k, rank, rng) for rng in rngs])
        best = min(best, _refine_group(u, tau, rngs))
    return best
