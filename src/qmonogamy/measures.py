"""Entanglement measures for qubit states.

Concurrence (pure-state formula, two-qubit spin-flip closed form, and a
brute-force convex-roof minimization oracle), plus the Tsallis-q and
Renyi-alpha entanglement of pure cuts and of two-qubit states.

There is one Tsallis formula, ``tsallis_of_spectrum``, and one Renyi
formula, ``renyi_of_spectrum``; each takes spectra along the last axis.
Every pure-state cut value takes one stacked route, ``cut_spectrum`` and
then one of them (the squared concurrence is ``2 T_2``); the ``*_pure``
functions wrap it.  The analytic conversions ``g_q(C^2)`` and
``f_alpha(C)`` are the same formulas on the two-eigenvalue
``qubit_spectrum`` of a concurrence, after an index-window check; each
measure's index, window and formula are one row of ``MEASURES``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import kernel
from .states import PureState, density

_GATE_SLACK = 1e-12
_DOMAIN_SLACK = 1e-9  # absorbs x = C^2 landing a hair above 1


class Window(NamedTuple):
    """Values ``[lo, hi]``, or ``[lo, hi)`` when ``hi_open``.

    One edge rule for every window and sweep gate: a closed edge admits
    ``_GATE_SLACK`` of roundoff and an open edge excludes it, so windows
    that meet at an edge (the Renyi regimes at alpha = 2) share no value.
    """

    lo: float
    hi: float = math.inf
    hi_open: bool = False

    def contains(self, value):
        """Whether ``value`` lies inside; an array gives one bool per entry."""
        if self.hi_open:
            below_hi = value < self.hi - _GATE_SLACK
        else:
            below_hi = value <= self.hi + _GATE_SLACK
        return (value >= self.lo - _GATE_SLACK) & below_hi


# Index windows for the closed-form two-qubit identities
#   T_q(rho) = g_q(C(rho)^2)   and   E_a(rho) = f_a(C(rho)).
TSALLIS_ANALYTIC_MIN = (5.0 - math.sqrt(13.0)) / 2.0
TSALLIS_ANALYTIC_MAX = (5.0 + math.sqrt(13.0)) / 2.0
RENYI_ANALYTIC_MIN = (math.sqrt(7.0) - 1.0) / 2.0
TSALLIS_ANALYTIC = Window(TSALLIS_ANALYTIC_MIN, TSALLIS_ANALYTIC_MAX)
RENYI_ANALYTIC = Window(RENYI_ANALYTIC_MIN)


class Measure(NamedTuple):
    """One entanglement measure: its entropy ``index``, the ``analytic``
    window of its two-qubit closed form, whether that form takes C^2
    (``squared``) or C, and the name of its formula on spectra, which is
    looked up at call time like every callee."""

    name: str
    index: str  # "q" | "alpha"
    analytic: Window
    squared: bool
    of_spectrum: str

    def check(self, value) -> float:
        """``value`` as a float entropy index: finite, positive and not 1."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{self.index} must be finite, got {value}")
        if not value > 0 or value == 1.0:
            raise ValueError(f"{self.index} must be positive and != 1, got {value}")
        return value


MEASURES = {
    row.name: row
    for row in (
        Measure("tsallis", "q", TSALLIS_ANALYTIC, True, "tsallis_of_spectrum"),
        Measure("renyi", "alpha", RENYI_ANALYTIC, False, "renyi_of_spectrum"),
    )
}


def _checked_unit_interval(x, name: str, out=None):
    arr = np.asarray(x, dtype=float)
    # Written so that NaN, for which every comparison is False, fails.
    inside = (arr >= -_DOMAIN_SLACK) & (arr <= 1.0 + _DOMAIN_SLACK)
    if not inside.all():
        raise ValueError(f"{name} outside [0, 1]: {np.ravel(arr[~inside])[:4]}")
    return np.clip(arr, 0.0, 1.0, out=out)


def _like(x, values: np.ndarray):
    return float(values) if np.ndim(x) == 0 else values


def qubit_spectrum(x, *, squared: bool, out=None) -> np.ndarray:
    """Descending spectrum ``(1 +- sqrt(1 - C^2)) / 2`` of the qubit marginal
    of a two-qubit pure state, one row per entry of ``x``: ``x`` is C^2
    (``squared``, as for ``g_q``) or C (as for ``f_alpha``), in [0, 1] up to
    ``_DOMAIN_SLACK``, which is clipped away.  The rows are a view of a
    ``(2, ...)`` array, ``out`` if given, so each eigenvalue column is
    contiguous.  ``x`` may be a row of ``out``: it is read before the rows
    are written.
    """
    spectrum = np.empty((2, *np.shape(x))) if out is None else out
    # ``[k, ...]`` keeps a view, 0-d for a scalar ``x``, that ``out=`` takes.
    hi, root = spectrum[0, ...], spectrum[1, ...]
    _checked_unit_interval(x, "x", out=root)
    if not squared:
        root *= root
    np.subtract(1.0, root, out=root)
    np.maximum(0.0, root, out=root)
    np.sqrt(root, out=root)
    np.add(1.0, root, out=hi)
    np.subtract(1.0, root, out=root)
    spectrum /= 2.0
    return rows_last(spectrum)


def rows_last(rows: np.ndarray) -> np.ndarray:
    """``rows`` with its first axis moved last (``np.moveaxis(rows, 0,
    -1)``, a view): the layout of ``qubit_spectrum``'s spectra and of the
    powers a spectrum formula writes into ``out``."""
    return rows.transpose(*range(1, rows.ndim), 0)


def _closed_form(measure: str, x, index):
    """The ``MEASURES[measure]`` entropy of the ``qubit_spectrum`` of ``x``
    at ``index``, which must lie in the measure's analytic window."""
    row = MEASURES[measure]
    value = row.check(index)
    lo, hi, _ = window = row.analytic
    if not window.contains(value):
        if hi == math.inf:
            raise ValueError(f"{row.index} {value} below the analytic threshold {lo:.6f}")
        raise ValueError(f"{row.index} {value} outside the analytic window [{lo:.6f}, {hi:.6f}]")
    of_spectrum = globals()[row.of_spectrum]
    return _like(x, of_spectrum(qubit_spectrum(x, squared=row.squared), value))


def g_q(x, q) -> float | np.ndarray:
    """Tsallis-q entanglement of a two-qubit pure state with squared
    concurrence ``x``: the Tsallis-q entropy of its ``qubit_spectrum``.

    Increasing and convex on [0, 1], with g_q(0) = 0.  Valid for q inside
    the analytic window (roughly 0.697 .. 4.303); array inputs broadcast.
    """
    return _closed_form("tsallis", x, q)


def f_alpha(x, alpha) -> float | np.ndarray:
    """Renyi-alpha entanglement of a two-qubit state with concurrence ``x``:
    the Renyi-alpha entropy of its ``qubit_spectrum``.

    Increasing and convex on [0, 1] for alpha >= (sqrt(7)-1)/2, with
    f_alpha(0) = 0 and f_alpha(1) = 1; array inputs broadcast.
    """
    return _closed_form("renyi", x, alpha)


def cut_spectrum(rho, n_qubits: int, side) -> np.ndarray:
    """Descending, clamped spectrum of the reduced density on ``side``, a
    nonempty proper subset of the qubits, of one density or of each member
    of a stack (one row per member).  Every pure-cut entropy starts here."""
    if len(set(side)) >= n_qubits:
        raise ValueError(f"side {set(side)} must be a proper subset of the {n_qubits} qubits")
    reduced = kernel.partial_trace(rho, n_qubits, side)
    return kernel.clamp_spectrum(kernel.hermitian_eigenvalues(reduced))


def tsallis_of_spectrum(lam, q, out=None):
    """Tsallis-q entropy (1 - sum lam^q) / (q - 1) of each spectrum along
    the last axis, clamped at 0.0.  The whole array is raised to the power
    at once, so one spectrum gives the bits it gets as a member of a stack.

    ``out``, an array of ``lam``'s shape, takes the powers, and the
    entropies are then its first column.
    """
    qv = MEASURES["tsallis"].check(q)
    powers = np.power(lam, qv, out=out)
    first = powers[..., 0]
    # The first difference is the array the rest accumulate into: the first
    # column of ``out``, else a fresh array, since a view would keep all the
    # powers alive in the result.  For one spectrum it is 0-d, which
    # ``out=`` takes where a numpy scalar is not.
    rest = np.subtract(1.0, first, out=first if out is not None else np.empty_like(first))
    for k in range(1, powers.shape[-1]):
        rest -= powers[..., k]
    rest /= qv - 1.0
    # A product cut's roundoff-negative value or -0.0 becomes 0.0; with the
    # arguments swapped, np.maximum would keep a -0.0.
    return np.maximum(rest, 0.0, out=rest)[()]


def renyi_of_spectrum(lam, alpha, out=None):
    """Renyi-alpha entropy log2(sum lam^alpha) / (1 - alpha) of each
    spectrum along the last axis, clamped at 0.0; powers and ``out`` as in
    ``tsallis_of_spectrum``."""
    av = MEASURES["renyi"].check(alpha)
    shift = 0.0
    # The top of k eigenvalues is >= 1/k, so only past alpha log2(k) ~ 1022
    # can every power underflow; there the top comes out of the sum first.
    if av * math.log2(np.shape(lam)[-1]) > 1000.0:
        top = np.max(lam, axis=-1, keepdims=True)
        lam, shift = lam / top, av * np.log2(top[..., 0])
    powers = np.power(lam, av, out=out)
    # Summed into the first column, as in ``tsallis_of_spectrum``.
    total = powers[..., 0] if out is not None else powers[..., 0].copy()
    for k in range(1, powers.shape[-1]):
        total += powers[..., k]
    np.log2(total, out=total)
    # shift + log2(total), with the same bits: addition commutes exactly.
    total += shift
    total /= 1.0 - av
    return np.maximum(total, 0.0, out=total)[()]


def squared_concurrence_of_spectrum(lam):
    """Squared concurrence 2 (1 - lam_0^2 - lam_1^2 - ...) = 2 T_2 of a pure
    state's cut, of each spectrum along the last axis, clamped at 0.0."""
    return 2.0 * tsallis_of_spectrum(lam, 2.0)


def concurrence_pure(state: PureState, side_a) -> float:
    """Concurrence sqrt(2 (1 - tr rho_A^2)) across the given bipartition."""
    spectrum = cut_spectrum(density(state), state.n_qubits, side_a)
    return math.sqrt(squared_concurrence_of_spectrum(spectrum))


def spin_flip_spectrum(rho) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho (sy x sy) rho* (sy x sy), of one
    two-qubit density matrix or of each member of a stack (one row per
    member).  Anything else raises the ``ValueError`` of
    ``kernel.require_density(rho, dim=4)``.

    Evaluated as the singular values of sqrt(rho) Y sqrt(rho)^T with
    Y = sy x sy (real symmetric), which carries the same spectrum: with
    S = sqrt(rho), eig(S S Y rho* Y) = eig(S Y rho* Y S) = eig(K K^dagger)
    for K = S Y S^T.  Unlike the non-normal eigenproblem this keeps the
    near-zero spectrum accurate, so square roots stay at roundoff level.
    """
    arr = kernel.require_unit_trace(rho, dim=4)
    w, v = np.linalg.eigh(arr)
    w = kernel.clamp_spectrum(w)
    root = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    # root @ YY: YY = sy x sy reverses the columns and negates the first and
    # the last.  Adding 0.0 gives the matmul's bits, which sums from 0.0.
    flipped = root[..., ::-1] * np.array([-1.0, 1.0, 1.0, -1.0]) + 0.0
    return np.linalg.svd(flipped @ root.swapaxes(-1, -2), compute_uv=False)


def concurrence_two_qubit(rho) -> float | np.ndarray:
    """Closed-form concurrence of a two-qubit density matrix (spin-flip
    spectrum); a stack of states gives one value per member."""
    s0, s1, s2, s3 = spin_flip_spectrum(rho).T
    gap = s0 - s1 - s2 - s3
    return _like(gap, np.where(gap > 0.0, gap, 0.0))


def tsallis_pure(state: PureState, side_a, q) -> float:
    """Tsallis-q entanglement (1 - tr rho_A^q) / (q - 1) of a pure state."""
    spectrum = cut_spectrum(density(state), state.n_qubits, side_a)
    return float(tsallis_of_spectrum(spectrum, q))


def tsallis_two_qubit(rho, q) -> float | np.ndarray:
    """Tsallis-q entanglement of a two-qubit mixed state, g_q(C^2); a stack
    of states gives one value per member."""
    c = concurrence_two_qubit(rho)
    return g_q(c * c, q)


def renyi_pure(state: PureState, side_a, alpha) -> float:
    """Renyi-alpha entanglement log2(tr rho_A^alpha) / (1 - alpha)."""
    spectrum = cut_spectrum(density(state), state.n_qubits, side_a)
    return float(renyi_of_spectrum(spectrum, alpha))


def renyi_two_qubit(rho, alpha) -> float | np.ndarray:
    """Renyi-alpha entanglement of a two-qubit mixed state, f_alpha(C); a
    stack of states gives one value per member."""
    c = concurrence_two_qubit(rho)
    return f_alpha(c, alpha)


# ---------------------------------------------------------------------------
# Convex-roof minimization oracle
# ---------------------------------------------------------------------------

_RANK_CUTOFF = 1e-10
# Refinement steps whose proposals a restart draws at once.  Every restart
# of a call holds its block from the first step, so this sets the oracle's
# peak memory: 8 steps of padded rank-2 proposals take 1 KiB per restart,
# 200 KiB at the default 200 restarts, plus the draws they are copied from.
_PROPOSAL_BLOCK = 8


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


def _q_two_columns(a: np.ndarray) -> np.ndarray:
    """Q of the reduced QR factorization of a C-contiguous complex
    ``(..., k, 2)`` stack, in closed form; ``a`` is overwritten with it.

    Gram-Schmidt with LAPACK's Householder signs.  Column j is the residual
    of ``a``'s column j divided by beta_j = -copysign(||residual||, Re alpha_j),
    where alpha_j is the entry geqrf reflects onto the diagonal: a_00 for the
    first column and, for the second, w_1 - w_0 a_01 / (a_00 - beta_0) with
    w the second residual.  So Q agrees with ``np.linalg.qr(a)[0]`` to
    roundoff (times the condition number of ``a``), with its column signs,
    though not bit for bit.  Zero rows of ``a`` stay zero, and each matrix's
    bits do not depend on the rest of the stack.  A column whose entries
    below the diagonal are exactly zero and whose diagonal is real, which
    LAPACK leaves unreflected, may come back negated.
    """
    col0, col1 = a[..., 0], a[..., 1]
    top = a[..., 0, 0]
    beta = np.sqrt(np.vecdot(col0, col0).real)
    np.copysign(beta, -top.real, out=beta)
    # v_1 of the first reflector, read before column 0 is overwritten.
    v1 = a[..., 1, 0] / (top - beta)
    col0 /= beta[..., None]
    col1 -= col0 * np.vecdot(col0, col1)[..., None]
    alpha = a[..., 1, 1] - a[..., 0, 1] * v1
    beta = np.sqrt(np.vecdot(col1, col1).real)
    np.copysign(beta, -alpha.real, out=beta)
    col1 /= beta[..., None]
    return a


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
    weighted concurrence sum collapses to sum_j |(u tau u^T)_jj|.  All rows
    of a ``(..., k, r)`` stack go through one ``(n, r) @ (r, r)`` product;
    each row's product is then multiplied by the row, its r entries summed
    in order, and the k moduli of each matrix summed in order.  A matrix's
    cost depends only on it and ``tau``, never on the rest of the stack.
    """
    flat = u.reshape(-1, u.shape[-1])
    prod = flat @ tau
    prod *= flat
    # Column by column, left to right: numpy's reduction over a short last
    # axis costs more than r - 1 whole-array adds.
    total = prod[:, 0].copy()
    for column in prod.T[1:]:
        total += column
    return np.add.reduce(np.abs(total).reshape(u.shape[:-1]), axis=-1)


def _refine_group(u, tau, rngs, rows=None) -> float:
    """Random-direction descent, one private stream per restart.

    All restarts step in lockstep, but each draws proposals from its own
    generator and freezes once its step collapses, so a restart's result
    depends only on its seed, never on its batch companions.  Restart ``b``
    fills the first ``rows[b]`` rows of its ``u[b]`` (all of them when
    ``rows`` is None) and of each proposal; the rest stay zero, which
    changes neither its Q nor its cost.  A restart draws its proposals
    ``_PROPOSAL_BLOCK`` steps at a time, which yields exactly the numbers
    one draw per step would, and only the live (unfrozen) restarts are
    stepped.  Each step re-orthonormalises its proposals:
    ``_q_two_columns`` for two columns, else the Q of ``np.linalg.qr``.  Its
    error state (``_qr_errors``) is entered once for the whole loop, so the
    cost evaluation and the bookkeeping share it: they too ignore overflow,
    division and underflow, and an invalid operation in them raises
    ``LinAlgError``.
    """
    batch, k, r = u.shape
    rows = [k] * batch if rows is None else rows
    val = _decomposition_cost(u, tau)
    # Every restart's proposals for the current block, indexed by restart so
    # that dropping frozen restarts moves none of them.  Each generator fills
    # its own row of a real buffer per run of adjacent restarts of one size
    # in place (real and imaginary parts of each step's proposal), which is
    # then copied into the first rows of ``proposals``.
    proposals = np.zeros((batch, _PROPOSAL_BLOCK, k, r), dtype=complex)
    drawn, copies = [], []
    lo = 0
    for size, run in itertools.groupby(rows):
        hi = lo + len(list(run))
        block = np.empty((hi - lo, _PROPOSAL_BLOCK, 2, size, r))
        target = proposals[lo:hi, :, :size]
        drawn.extend(block)
        copies += [(target.real, block[:, :, 0]), (target.imag, block[:, :, 1])]
        lo = hi
    # Per live restart: its index into the batch, iterate, step size and
    # failed proposals since the last shrink.
    live = np.arange(batch)
    cur, cur_val = u.copy(), val.copy()
    step = np.full(batch, 0.3)
    fails = np.zeros(batch, dtype=int)
    s = 0
    with _qr_errors():
        while live.size:
            j = s % _PROPOSAL_BLOCK
            if j == 0:
                for b in live.tolist():
                    rngs[b].standard_normal(out=drawn[b])
                for target, source in copies:
                    np.copyto(target, source)
            cand = cur + step[:, None, None] * proposals[live, j]
            cand = _q_two_columns(cand) if r == 2 else np.linalg.qr(cand)[0]
            cand_val = _decomposition_cost(cand, tau)
            improved = cand_val < cur_val - 1e-15
            np.copyto(cur, cand, where=improved[:, None, None])
            np.copyto(cur_val, cand_val, where=improved)
            fails += 1
            fails[improved] = 0
            s += 1
            shrink = fails >= 6
            if not shrink.any():
                continue
            step[shrink] *= 0.6
            fails[shrink] = 0
            keep = step > 1e-4
            if not keep.all():
                val[live] = cur_val
                live, cur, cur_val = live[keep], cur[keep], cur_val[keep]
                step, fails = step[keep], fails[keep]
    return float(np.min(val))


def concurrence_roof_oracle(rho, restarts: int = 200, seed: int = 0) -> float:
    """Upper estimate of the convex-roof concurrence of a two-qubit state.

    Minimizes the decomposition-averaged pure-state concurrence over
    column-orthonormal mixings of the eigendecomposition (decomposition
    sizes rank..4), refining Haar-seeded restarts by random-direction
    descent.  Restart ``t`` is driven by the ``t``-th child of the seed, so
    for a fixed seed the estimate is the running minimum over restarts:
    raising ``restarts`` can only lower (never raise) the result.  ``rho``
    must be one 4x4 density matrix; a stack is refused.
    """
    restarts = kernel.as_integer(restarts, "restarts", least=1)
    seed = kernel.as_integer(seed, "seed", least=0)
    if np.shape(rho) != (4, 4):
        raise ValueError(f"expected one 4x4 density matrix, got shape {np.shape(rho)}")
    arr = kernel.require_density(rho)
    w, v = np.linalg.eigh(arr)
    keep = w > _RANK_CUTOFF
    w, v = w[keep], v[:, keep]
    rank = int(w.size)
    x = v * np.sqrt(w)  # subnormalized eigenvectors as columns
    tau = x.T @ kernel.YY @ x  # symmetric rank x rank

    best = float(np.sum(np.abs(np.diagonal(tau))))  # eigendecomposition itself
    if rank == 1:
        return best

    # Restart t has size sizes[t % len(sizes)].  The batch holds each size's
    # restarts side by side, zero-padded to 4 rows, so that all of them
    # refine at once.
    children = np.random.SeedSequence(seed).spawn(restarts)
    sizes = range(rank, 5)
    u = np.zeros((restarts, 4, rank), dtype=complex)
    rngs, rows = [], []
    for k in sizes:
        group = [np.random.default_rng(child) for child in children[k - rank :: len(sizes)]]
        if group:
            u[len(rngs) : len(rngs) + len(group), :k] = _haar_isometries(k, rank, group)
        rngs += group
        rows += [k] * len(group)
    return min(best, _refine_group(u, tau, rngs, rows))
