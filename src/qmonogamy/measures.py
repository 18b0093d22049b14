"""Entanglement measures for qubit states.

Concurrence (pure-state formula, two-qubit spin-flip closed form, and a
brute-force convex-roof minimization oracle), plus the analytic conversion
functions g_q / f_alpha and the Tsallis-q / Renyi-alpha entanglement
evaluators built on them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    """Tsallis entropy index q > 0, q != 1, finite."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not math.isfinite(q):
            raise ValueError(f"q must be finite, got {q}")
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
    """Renyi entropy index alpha > 0, alpha != 1, finite."""

    alpha: float

    def __post_init__(self):
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
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


def _tsallis(p) -> TsallisParam:
    return p if isinstance(p, TsallisParam) else TsallisParam(p)


def _renyi(p) -> RenyiParam:
    return p if isinstance(p, RenyiParam) else RenyiParam(p)


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
    param = _tsallis(q)
    qv = param.q
    if not param.analytic:
        raise ValueError(
            f"q {qv} outside the analytic window "
            f"[{TSALLIS_ANALYTIC_MIN:.6f}, {TSALLIS_ANALYTIC_MAX:.6f}]"
        )
    arr = _checked_unit_interval(x, "x")
    root = np.sqrt(np.maximum(0.0, 1.0 - arr))
    hi = (1.0 + root) / 2.0
    lo = (1.0 - root) / 2.0
    # A zero numerator over q - 1 < 0 is -0.0; adding 0.0 makes it 0.0.
    vals = (1.0 - hi**qv - lo**qv) / (qv - 1.0) + 0.0
    return _like(x, vals)


def f_alpha(x, alpha) -> float | np.ndarray:
    """Renyi-alpha entanglement of a two-qubit state with concurrence ``x``.

    Increasing and convex on [0, 1] for alpha >= (sqrt(7)-1)/2, with
    f_alpha(0) = 0 and f_alpha(1) = 1; array inputs broadcast.
    """
    param = _renyi(alpha)
    av = param.alpha
    if not param.analytic:
        raise ValueError(
            f"alpha {av} below the analytic threshold {RENYI_ANALYTIC_MIN:.6f}"
        )
    arr = _checked_unit_interval(x, "x")
    root = np.sqrt(np.maximum(0.0, 1.0 - arr * arr))
    hi = (1.0 + root) / 2.0
    lo = (1.0 - root) / 2.0
    # log2(1) / (1 - alpha) is -0.0 for alpha > 1; adding 0.0 makes it 0.0.
    vals = np.log2(hi**av + lo**av) / (1.0 - av) + 0.0
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
    """Descending sqrt-eigenvalues of rho (sy x sy) rho* (sy x sy), of one
    matrix or of each member of a stack (one row per member).

    Evaluated as the singular values of sqrt(rho) Y sqrt(rho)^T with
    Y = sy x sy (real symmetric), which carries the same spectrum: with
    S = sqrt(rho), eig(S S Y rho* Y) = eig(S Y rho* Y S) = eig(K K^dagger)
    for K = S Y S^T.  Unlike the non-normal eigenproblem this keeps the
    near-zero spectrum accurate, so square roots stay at roundoff level.
    """
    arr = kernel.as_matrix(rho)
    w, v = np.linalg.eigh(arr)
    w = np.where(w < kernel.ROUNDOFF_ZERO, 0.0, w)  # keep sqrt off roundoff zeros
    root = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    k = root @ kernel.YY @ root.swapaxes(-1, -2)
    return np.linalg.svd(k, compute_uv=False)


def concurrence_two_qubit(rho) -> float | np.ndarray:
    """Closed-form concurrence of a two-qubit mixed state (spin-flip
    spectrum); a stack of states gives one value per member."""
    arr = kernel.require_density(rho, dim=4)
    s0, s1, s2, s3 = spin_flip_spectrum(arr).T
    gap = s0 - s1 - s2 - s3
    return _like(gap, np.where(gap > 0.0, gap, 0.0))


def tsallis_pure(state: PureState, side_a, q) -> float:
    """Tsallis-q entanglement (1 - tr rho_A^q) / (q - 1) of a pure state."""
    qv = _tsallis(q).q
    rho_a = _reduced_density(state, side_a)
    # + 0.0: a product cut gives 0 / (q - 1), which is -0.0 for q < 1.
    return (1.0 - kernel.trace_power(rho_a, qv)) / (qv - 1.0) + 0.0


def tsallis_two_qubit(rho, q) -> float:
    """Tsallis-q entanglement of a two-qubit mixed state, g_q(C^2)."""
    c = concurrence_two_qubit(rho)
    return float(g_q(c * c, q))


def renyi_pure(state: PureState, side_a, alpha) -> float:
    """Renyi-alpha entanglement log2(tr rho_A^alpha) / (1 - alpha)."""
    av = _renyi(alpha).alpha
    rho_a = _reduced_density(state, side_a)
    # + 0.0: a product cut gives log2(1) / (1 - alpha), -0.0 for alpha > 1.
    return math.log2(kernel.trace_power(rho_a, av)) / (1.0 - av) + 0.0


def renyi_two_qubit(rho, alpha) -> float:
    """Renyi-alpha entanglement of a two-qubit mixed state, f_alpha(C)."""
    c = concurrence_two_qubit(rho)
    return float(f_alpha(c, alpha))


# ---------------------------------------------------------------------------
# Convex-roof minimization oracle
# ---------------------------------------------------------------------------

_RANK_CUTOFF = 1e-10
# Refinement steps whose proposals a restart draws at once.
_PROPOSAL_BLOCK = 32


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError(
        "Incorrect argument found while performing QR factorization"
    )


def _qr_errors():
    """The error state ``np.linalg.qr`` runs its LAPACK gufuncs in: an
    invalid operation raises ``LinAlgError``; overflow, division and
    underflow are ignored."""
    return np.errstate(
        call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


def _q_factor(a: np.ndarray) -> np.ndarray:
    """Q of the reduced QR factorization of a complex ``(..., k, r)`` stack.

    Bit for bit ``np.linalg.qr(a)[0]``: the same two LAPACK gufuncs
    (geqrf, then ungqr) from numpy's private ``_umath_linalg``, but ``a`` is
    factored in place (it is overwritten) and no R is built.  Callers enter
    ``_qr_errors()`` around it.
    """
    tau = _umath_linalg.qr_r_raw(a)
    return _umath_linalg.qr_reduced(a, tau)


def _haar_isometries(k: int, r: int, rngs) -> np.ndarray:
    """One k x r matrix with orthonormal columns per generator, stacked;
    each is Haar-distributed and drawn from its own generator."""
    z = np.stack([rng.standard_normal((2, k, r)) for rng in rngs])
    q_mat, r_mat = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    # Fix column phases so the distribution is Haar rather than QR-skewed.
    d = np.diagonal(r_mat, axis1=-2, axis2=-1)
    return q_mat * (d / np.abs(np.where(d == 0, 1.0, d)))[:, None, :]


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
    depends only on its seed, never on its batch companions.  A restart
    draws its proposals ``_PROPOSAL_BLOCK`` steps at a time, which yields
    exactly the numbers one draw per step would, and only the live
    (unfrozen) restarts are stepped.  Each step re-orthonormalises its
    proposals with ``_q_factor``: Q alone, the same bits as
    ``np.linalg.qr``.  Its error state (``_qr_errors``) is entered once for
    the whole loop, so the cost evaluation and the bookkeeping share it:
    they too ignore overflow, division and underflow, and an invalid
    operation in them raises ``LinAlgError``.
    """
    batch, k, r = u.shape
    val = _decomposition_cost(u, tau)
    # Per live restart: its index into the batch, iterate, step size, failed
    # proposals since the last shrink, and its current block of draws (real
    # and imaginary parts of each step's proposal).
    live = np.arange(batch)
    cur, cur_val = u, val.copy()
    step = np.full(batch, 0.3)
    fails = np.zeros(batch, dtype=int)
    block = np.empty((batch, _PROPOSAL_BLOCK, 2, k, r))
    s = 0
    with _qr_errors():
        while live.size:
            j = s % _PROPOSAL_BLOCK
            if j == 0:
                for i, b in enumerate(live):
                    rngs[b].standard_normal(out=block[i])
            g = block[:, j, 0] + 1j * block[:, j, 1]
            cand = _q_factor(cur + step[:, None, None] * g)
            cand_val = _decomposition_cost(cand, tau)
            improved = cand_val < cur_val - 1e-15
            cur = np.where(improved[:, None, None], cand, cur)
            cur_val = np.where(improved, cand_val, cur_val)
            fails = np.where(improved, 0, fails + 1)
            shrink = fails >= 6
            step = np.where(shrink, step * 0.6, step)
            fails = np.where(shrink, 0, fails)
            s += 1
            keep = step > 1e-4
            if not keep.all():
                val[live] = cur_val
                live, cur, cur_val = live[keep], cur[keep], cur_val[keep]
                step, fails, block = step[keep], fails[keep], block[keep]
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
    if not isinstance(restarts, numbers.Integral) or restarts < 1:
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
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
        u = _haar_isometries(k, rank, rngs)
        best = min(best, _refine_group(u, tau, rngs))
    return best
