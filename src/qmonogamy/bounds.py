"""Scalar bound kernels for powered monogamy relations.

One pairwise tail formula and one chain skeleton (``chain_bound``) cover
every relation variant: the Tsallis and Renyi linear forms share the
"linear" coupling, the small-alpha Renyi form uses the "squared" coupling
with exponent gamma = 2 mu.  The tightened, prior published and naive tails
differ only in the coefficient of the cross term.  ``ordering_certificate``
checks the concurrence-ordering hypotheses the chain bounds rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, measures
from .states import PureState, density

COUPLINGS = ("linear", "squared")
REGIMES = ("tsallis_q2to3", "renyi_ge2", "renyi_window")

_REGIME_COUPLING = {
    "tsallis_q2to3": "linear",
    "renyi_ge2": "linear",
    "renyi_window": "squared",
}

# Pair tails e1^p + c e1^(p-k) e2^k + (2^mu - c - 1) e2^p by name: the
# cross coefficient c as a function of mu.  The coupling sets (p, k):
# (mu, 1) for the linear one, (gamma, 2) = (2 mu, 2) for the squared one.
_TAILS = {
    "new": lambda mu: mu * mu / (mu + 1.0),
    "prior": lambda mu: mu / 2.0,
    "naive": lambda mu: 0.0,
}

CERTIFIED = "certified"
VIOLATED = "violated"
UNDETERMINED = "undetermined"

_CERT_TOL = 1e-10

# 2**mu as a numpy power: past mu = 1024 it overflows to inf, which a sweep
# counts as a non-finite margin and a bound report rejects, where a Python
# float power would raise OverflowError.
_TWO = np.float64(2.0)


@dataclass(frozen=True)
class PowerParam:
    """Power mu >= 1 of the monogamy relation; the squared coupling uses
    the exponent gamma = 2 mu."""

    mu: float

    def __post_init__(self):
        mu = float(self.mu)
        # A NaN passes the comparison below; name the bad parameter.
        if not math.isfinite(mu):
            raise ValueError(f"power mu must be finite, got {mu}")
        if mu < 1.0:
            raise ValueError(f"power must be >= 1, got {mu}")
        object.__setattr__(self, "mu", mu)

    @classmethod
    def from_gamma(cls, gamma: float) -> "PowerParam":
        """The power mu = gamma / 2; halving and doubling are exact, so the
        squared coupling's exponent 2 mu is ``gamma`` again."""
        gamma = float(gamma)
        if not math.isfinite(gamma):
            raise ValueError(f"power gamma must be finite, got {gamma}")
        return cls(gamma / 2.0)

    @property
    def h(self) -> float:
        """Tail weight 2**mu - 1 of the chain expansion."""
        return _TWO**self.mu - 1.0


@dataclass(frozen=True)
class BoundReport:
    """One bound comparison at a fixed exponent.

    ``lhs`` is the powered entanglement of the full cut; the three margins
    are (lhs - new, new - prior, prior - naive).  Every value must be
    finite: an exponent large enough to overflow 2**mu is a domain error.
    """

    exponent: float
    lhs: float
    new_bound: float
    prior_bound: float
    naive_bound: float

    def __post_init__(self):
        values = (self.lhs, self.new_bound, self.prior_bound, self.naive_bound)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(
                f"exponent {self.exponent} overflows the bound arithmetic "
                f"(lhs, new, prior, naive = {values})"
            )

    @property
    def margins(self) -> tuple[float, float, float]:
        return (
            self.lhs - self.new_bound,
            self.new_bound - self.prior_bound,
            self.prior_bound - self.naive_bound,
        )

    def as_dict(self) -> dict:
        m = self.margins
        return {
            "exponent": self.exponent,
            "lhs": self.lhs,
            "new_bound": self.new_bound,
            "prior_bound": self.prior_bound,
            "naive_bound": self.naive_bound,
            "margins": {
                "lhs_minus_new": m[0],
                "new_minus_prior": m[1],
                "prior_minus_naive": m[2],
            },
        }


def _as_power(p) -> PowerParam:
    return p if isinstance(p, PowerParam) else PowerParam(float(p))


def power_chain(x, p):
    """Four-term comparison chain for (1 + x)**mu on 0 <= x <= 1.

    Returns ``(lhs, tight_mid, loose_mid, naive)`` with
    lhs >= tight_mid >= loose_mid >= naive, all four meeting at x in {0, 1}.
    The three tails are the new, the prior and the naive pair tails at
    e1 = 1, e2 = x.
    """
    if isinstance(p, PowerParam):
        mu = p.mu
    else:
        mu = np.asarray(p, dtype=float)
        # NaN passes the comparison below, and inf turns every tail into NaN.
        finite = np.isfinite(mu)
        if not finite.all():
            raise ValueError(f"power mu must be finite, got {mu[~finite].flat[0]}")
        if np.any(mu < 1.0):
            raise ValueError(f"power must be >= 1, got {np.min(mu)}")
        if np.ndim(p) == 0:
            mu = float(mu)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("x outside [0, 1]")
    lhs = (1.0 + arr) ** mu
    # Every power of e1 = 1 is exactly 1.  A generator keeps one array of
    # coefficients alive at a time.
    coefficients = (_TAILS[name](mu) for name in ("new", "prior", "naive"))
    tight, loose, naive = _tail_values(1.0, 1.0, arr, arr**mu, _TWO**mu, False, coefficients)
    if np.ndim(x) == 0:
        return float(lhs), float(tight), float(loose), float(naive)
    return lhs, tight, loose, naive


def _check_ordered(e1, e2):
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("entanglement values must be nonnegative")
    if np.any(a < b):
        raise ValueError("hypothesis violated: e1 < e2 (caller must order)")
    return a, b


def _coupling_exponent(param: PowerParam, coupling: str) -> float:
    if coupling == "linear":
        return param.mu
    if coupling == "squared":
        return 2.0 * param.mu
    raise ValueError(f"unknown coupling {coupling!r}; expected one of {COUPLINGS}")


def _tail_values(head, lead, e2, last, full, squared: bool, coefficients) -> list:
    """Pair tails e1^p + c e1^(p-k) e2^k + (2^mu - c - 1) e2^p, one per c.

    Takes the powers head = e1^p, lead = e1^(p-k), last = e2^p and
    full = 2^mu, shared by all coefficients; k is 2 for the squared
    coupling and 1 for the linear one.  The cross term is multiplied left
    to right, one factor of e2 at a time, which fixes how it rounds.
    """
    tails = []
    for c in coefficients:
        cross = c * lead * e2
        if squared:
            cross = cross * e2
        tails.append(head + cross + (full - c - 1.0) * last)
    return tails


def _tail(e1, e2, p, name: str, coupling: str = "linear"):
    """Pair tail ``name`` (a key of ``_TAILS``) of the ordered pair e1 >= e2."""
    if name not in _TAILS:
        raise ValueError(f"unknown tail {name!r}; expected one of {tuple(_TAILS)}")
    param = _as_power(p)
    a, b = _check_ordered(e1, e2)
    pow_ = _coupling_exponent(param, coupling)
    squared = coupling == "squared"
    lead = a ** (pow_ - (2.0 if squared else 1.0))
    [vals] = _tail_values(
        a**pow_, lead, b, b**pow_, _TWO**param.mu, squared, [_TAILS[name](param.mu)]
    )
    return float(vals) if np.ndim(e1) == 0 and np.ndim(e2) == 0 else vals


def pair_bound_new(e1, e2, p, coupling: str = "linear"):
    """Tightened two-party tail, coefficient mu^2/(mu+1) on the cross term.

    linear:  e1^mu + mu^2/(mu+1) e1^(mu-1) e2 + (2^mu - mu^2/(mu+1) - 1) e2^mu
    squared: e1^g  + mu^2/(mu+1) e1^(g-2) e2^2 + (2^mu - mu^2/(mu+1) - 1) e2^g
    """
    return _tail(e1, e2, p, "new", coupling)


def pair_bound_prior(e1, e2, p, coupling: str = "linear"):
    """Previously published two-party tail, cross coefficient mu/2.

    linear:  e1^mu + (mu/2) e1^(mu-1) e2 + (2^mu - mu/2 - 1) e2^mu
    squared: e1^g  + (mu/2) e1^(g-2) e2^2 + (2^mu - mu/2 - 1) e2^g

    The paper's Tsallis reference [11] writes the linear tail as
    e1^mu + (2^mu - 1) e2^mu + (mu/2) e2 (e1^(mu-1) - e2^(mu-1)); its Renyi
    reference [12] gives it for alpha >= 2 and, with g = 2 mu, the squared
    tail below.
    """
    return _tail(e1, e2, p, "prior", coupling)


def pair_bound_naive(e1, e2, p, coupling: str = "linear"):
    """Weakest tail e1^pow + (2^mu - 1) e2^pow (no cross term)."""
    return _tail(e1, e2, p, "naive", coupling)


def chain_bound(values, m: int, p, coupling: str = "linear", tail: str = "new"):
    """Multi-party chain lower bound with split index ``m``.

    ``values`` are the per-pair entanglement values (length N-1 >= 2) in the
    partner order of the cut; the caller is responsible for the concurrence
    ordering hypotheses (see ``ordering_certificate``).  With ``m = N-2``
    (fully descending) the tail couples the last two values as
    ``Q(v[N-2], v[N-1])``; smaller ``m`` swaps the tail onto
    ``Q(v[N-1], v[N-2])`` and reweights the middle block.  ``tail`` selects
    the pairwise tail: "new" for the tightened one, "prior" or "naive".
    """
    param = _as_power(p)
    vals = [float(v) for v in values]
    n_minus_1 = len(vals)
    if n_minus_1 < 2:
        raise ValueError(f"need at least two per-pair values, got {n_minus_1}")
    # A NaN passes the sign check, and the chain would then be NaN.
    if not all(math.isfinite(v) and v >= 0.0 for v in vals):
        raise ValueError(f"entanglement values must be finite and nonnegative, got {vals}")
    n = n_minus_1 + 1
    if not 0 <= m <= n - 2:
        raise ValueError(f"split index {m} outside 0..{n - 2}")
    h = param.h
    pow_ = _coupling_exponent(param, coupling)
    if m == n - 2:
        total = sum(h ** (i - 1) * vals[i - 1] ** pow_ for i in range(1, n - 2))
        q = _tail(vals[-2], vals[-1], param, tail, coupling)
        return float(total + h ** (n - 3) * q)
    total = sum(h ** (i - 1) * vals[i - 1] ** pow_ for i in range(1, m + 1))
    total += h ** (m + 1) * sum(vals[j - 1] ** pow_ for j in range(m + 1, n - 2))
    q = _tail(vals[-1], vals[-2], param, tail, coupling)
    return float(total + h**m * q)


def compare_chain(lhs: float, values, m: int, p, regime: str) -> BoundReport:
    """Powered comparison of the full-cut value ``lhs`` (unpowered) against
    the new, prior and naive chain bounds of ``values`` at split ``m``.

    The regime sets the coupling and so the power of ``lhs``, mu or
    gamma = 2 mu; two values at ``m = 1`` give the pair relation.  The
    prior and naive columns reuse the chain skeleton with the matching
    pairwise tail swapped in, so the term-by-term dominance of the tails
    carries over to the chains.
    """
    param = _as_power(p)
    if regime not in _REGIME_COUPLING:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    coupling = _REGIME_COUPLING[regime]
    pow_ = _coupling_exponent(param, coupling)
    # An overflow shows as a non-finite bound, which BoundReport rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        return BoundReport(
            exponent=pow_,
            lhs=float(lhs) ** pow_,
            new_bound=chain_bound(values, m, param, coupling),
            prior_bound=chain_bound(values, m, param, coupling, tail="prior"),
            naive_bound=chain_bound(values, m, param, coupling, tail="naive"),
        )


def _pure_cut_concurrence(vec: np.ndarray, n: int, pivot_pos: int) -> float:
    state = PureState(n, vec)
    return measures.concurrence_pure(state, {pivot_pos})


def ordering_certificate(state: PureState, pivot: int, rest_order, concurrences) -> list[str]:
    """Check the per-position concurrence ordering hypotheses of the chains.

    ``concurrences`` holds the two-qubit closed forms C(pivot, B) of the
    partners in ``rest_order`` order.  For each position i (all but the last
    partner), compares C(pivot, B_i) against C(pivot | remaining partners).
    When the remainder is a single qubit the comparison is exact; otherwise
    it is bracketed from below by the root-sum-square of pairwise
    concurrences and from above by the eigendecomposition average of
    pure-state concurrences.  Returns "certified", "violated" or
    "undetermined" per position.
    """
    n = state.n_qubits
    if n > 4:
        raise ValueError(f"supported up to 4 qubits, got {n}")
    pivot = int(pivot)
    order = [int(b) for b in rest_order]
    expected = sorted(set(range(n)) - {pivot})
    if sorted(order) != expected:
        raise ValueError(
            f"rest_order {order} must be a permutation of the non-pivot qubits {expected}"
        )
    c_pairs = [float(c) for c in concurrences]
    if len(c_pairs) != len(order):
        raise ValueError(
            f"need one concurrence per partner ({len(order)}), got {len(c_pairs)}"
        )
    if not all(math.isfinite(c) and c >= 0.0 for c in c_pairs):
        raise ValueError(f"concurrences must be finite and nonnegative, got {c_pairs}")
    c_of = dict(zip(order, c_pairs))

    results = []
    for i in range(len(order) - 1):
        c_pair = c_of[order[i]]
        rest = order[i + 1 :]
        if len(rest) == 1:
            lower = upper = c_of[rest[0]]
        else:
            lower = float(np.sqrt(sum(c_of[b] ** 2 for b in rest)))
            keep = sorted({pivot, *rest})
            reduced = kernel.partial_trace(density(state), n, keep)
            pivot_pos = keep.index(pivot)
            w, v = np.linalg.eigh(reduced)
            upper = 0.0
            for idx in range(w.size):
                if w[idx] > 1e-12:
                    vec = v[:, idx] / np.linalg.norm(v[:, idx])
                    upper += w[idx] * _pure_cut_concurrence(vec, len(keep), pivot_pos)
        if c_pair >= upper - _CERT_TOL:
            results.append(CERTIFIED)
        elif c_pair < lower - _CERT_TOL:
            results.append(VIOLATED)
        else:
            results.append(UNDETERMINED)
    return results


def certificate_summary(positions: list[str]) -> tuple[str, int]:
    """Collapse per-position certificates into (tag, split index m).

    "certified" when every position holds, "violated" when the pattern is a
    certified prefix followed by violated positions (the swapped-tail chain
    applies with the returned m), otherwise "undetermined" (m is the length
    of the certified prefix, usable as a heuristic split).
    """
    m = 0
    for tag in positions:
        if tag == CERTIFIED:
            m += 1
        else:
            break
    n_minus_2 = len(positions)
    if m == n_minus_2:
        return CERTIFIED, n_minus_2
    if all(tag == VIOLATED for tag in positions[m:]):
        return VIOLATED, m
    return UNDETERMINED, m
