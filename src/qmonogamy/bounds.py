"""Scalar bound kernels for powered monogamy relations.

One pairwise tail formula and one chain skeleton (``chain_bound``) cover
every relation variant: the Tsallis and Renyi linear forms share the
"linear" coupling, the small-alpha Renyi form uses the "squared" coupling
with exponent gamma = 2 mu.  The tightened, prior published and naive tails
differ only in the coefficient of the cross term.  ``REGIMES`` is the one
table of the paper's regimes: each row names its measure, index window and
coupling, and ``regime_of`` finds the row of an index.
``ordering_certificate`` checks the concurrence-ordering hypotheses the
chain bounds rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, measures
from .states import PureState

# The power k that each coupling puts on e2 in a tail's cross term; the
# relation's exponent is k mu.
_DEGREE = {"linear": 1, "squared": 2}
COUPLINGS = tuple(_DEGREE)

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


# Each power's floor, and the message that refuses a power below it.
_POWER_FLOORS = {"mu": (1.0, "power must be >= 1"), "gamma": (2.0, "power gamma must be >= 2")}


def check_power(power, name: str = "mu"):
    """``power``, a number or an array, as a float or a float array, once
    every entry is finite and at least the floor of ``name``: 1 for the
    power mu of the relations, 2 for the exponent gamma = 2 mu of the
    squared coupling.  The floor is exact: below mu = 1, e1^(mu - 1) is
    infinite at e1 = 0."""
    floor, below = _POWER_FLOORS[name]
    # NaN passes the floor's comparison and inf turns every tail into NaN,
    # so both are refused by name.  A number takes plain comparisons, which
    # cost less than numpy's.
    if isinstance(power, (int, float)):
        power = float(power)
        if not math.isfinite(power):
            raise ValueError(f"power {name} must be finite, got {power}")
        if power < floor:
            raise ValueError(f"{below}, got {power}")
        return power
    values = np.asarray(power, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"power {name} must be finite, got {values[~finite].flat[0]}")
    if (values < floor).any():
        raise ValueError(f"{below}, got {np.min(values)}")
    return values if values.ndim else float(values)


@dataclass(frozen=True)
class Regime:
    """One regime of the powered relations: the entropy ``measure``, the
    ``window`` of its index the relation holds on, and the ``coupling``,
    which sets the relation's exponent."""

    name: str
    measure: str  # a key of measures.MEASURES
    window: measures.Window
    coupling: str  # a key of _DEGREE

    @property
    def index(self) -> str:
        """The name of the measure's index, ``q`` or ``alpha``."""
        return measures.MEASURES[self.measure].index

    @property
    def degree(self) -> int:
        """The power k under which the measure is additive in this regime,
        E^k >= E_AB^k + E_AC^k; the relation's exponent is k mu."""
        return _DEGREE[self.coupling]

    def power(self, exponent: float) -> float:
        """The power mu of the relation with ``exponent``: the exponent
        itself for the linear coupling, gamma / 2 for the squared one, whose
        exponent is gamma = 2 mu.  Halving is exact, so 2 mu is ``gamma``
        bit for bit."""
        if self.coupling == "squared":
            return check_power(exponent, "gamma") / 2.0
        return check_power(exponent)


REGIMES = {
    row.name: row
    for row in (
        # g_q is superadditive for 2 <= q <= 3.
        Regime("tsallis_q2to3", "tsallis", measures.Window(2.0, 3.0), "linear"),
        Regime("renyi_ge2", "renyi", measures.Window(2.0), "linear"),
        # Below alpha = 2 only f_alpha^2 is superadditive.  The window holds
        # alpha = 1, the von Neumann limit, which the measure's index check
        # leaves out.
        Regime(
            "renyi_window",
            "renyi",
            measures.Window(measures.RENYI_ANALYTIC_MIN, 2.0, hi_open=True),
            "squared",
        ),
    )
}


def regime_of(measure: str, index: float) -> Regime:
    """The first row of ``REGIMES`` for ``measure`` whose window holds
    ``index``, which is first checked as the measure's entropy index.

    An index outside every window raises a ValueError naming the span of
    the measure's windows.
    """
    if measure not in measures.MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {tuple(measures.MEASURES)}")
    index = measures.MEASURES[measure].check(index)
    rows = [row for row in REGIMES.values() if row.measure == measure]
    for row in rows:
        if row.window.contains(index):
            return row
    # Edges to six decimals: 2.0 shows as 2.0, (sqrt(7) - 1)/2 as 0.822876.
    lo = round(min(row.window.lo for row in rows), 6)
    hi = round(max(row.window.hi for row in rows), 6)
    span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    raise ValueError(f"{measure} bounds need {rows[0].index} {span}, got {index}")


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
        names = ("lhs_minus_new", "new_minus_prior", "prior_minus_naive")
        return {**vars(self), "margins": dict(zip(names, self.margins))}


def power_chain(x, mu, out=None):
    """Four-term comparison chain for (1 + x)**mu on 0 <= x <= 1.

    Returns ``(lhs, tight_mid, loose_mid, naive)`` with
    lhs >= tight_mid >= loose_mid >= naive, all four meeting at x in {0, 1}.
    The three tails are the new, the prior and the naive pair tails at
    e1 = 1, e2 = x.

    ``out``, an array of shape ``(6, *shape)`` for the broadcast shape of x
    and mu, takes the four results in its first rows, then x^mu and the
    tails' weight terms.  2^mu, the cross coefficients and the weights are
    formed at mu's own shape and meet x only when combined with it, so an
    open grid (x a column, mu a row) pays for them once per mu.
    """
    mu = check_power(mu)
    arr = np.asarray(x, dtype=float)
    # The sweep gates' edge rule: a NaN fails, and the roundoff a closed edge
    # admits is clipped away, since x^mu is NaN below 0.
    if not measures.Window(0.0, 1.0).contains(arr).all():
        raise ValueError("x outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    if out is None:
        # Arrays of the result's shape, or, for a scalar x and mu, numpy
        # scalars, whose power (1 + x)**mu is the scalar one.
        shape = np.broadcast(arr, mu).shape
        out = [np.empty(shape) if shape else None for _ in range(6)]
    lhs = 1.0 + arr
    lhs = lhs**mu if out[0] is None else np.power(lhs, mu, out=out[0])
    # Every power of e1 = 1 is exactly 1.  A generator keeps one array of
    # coefficients alive at a time.
    coefficients = (_TAILS[name](mu) for name in ("new", "prior", "naive"))
    last = np.power(arr, mu, out=out[4])
    tight, loose, naive = _tail_values(
        1.0, 1.0, arr, last, _TWO**mu, False, coefficients, out=(*out[1:4], out[5])
    )
    if np.ndim(x) == 0:
        return float(lhs), float(tight), float(loose), float(naive)
    return lhs, tight, loose, naive


def _check_ordered(e1, e2):
    a = np.asarray(e1, dtype=float)
    b = np.asarray(e2, dtype=float)
    # Written so that NaN, for which every comparison is False, fails:
    # 0 <= b <= a < inf holds every value finite and nonnegative.
    if not ((b >= 0.0).all() and (a >= b).all() and (a < math.inf).all()):
        if not all((np.isfinite(v) & (v >= 0.0)).all() for v in (a, b)):
            raise ValueError("entanglement values must be finite and nonnegative")
        raise ValueError("hypothesis violated: e1 < e2 (caller must order)")
    return a, b


def _coupling_exponent(mu: float, coupling: str) -> float:
    """The exponent k mu of a relation in the scalar entries, which take one
    power: ``check_power`` returns an array only for an array mu."""
    if not isinstance(mu, float):
        raise ValueError(f"power mu must be a number, got an array of shape {np.shape(mu)}")
    if coupling not in _DEGREE:
        raise ValueError(f"unknown coupling {coupling!r}; expected one of {COUPLINGS}")
    return _DEGREE[coupling] * mu


def _tail_values(head, lead, e2, last, full, squared: bool, coefficients, out=None) -> list:
    """Pair tails e1^p + c e1^(p-k) e2^k + (2^mu - c - 1) e2^p, one per c.

    Takes the powers head = e1^p, lead = e1^(p-k), last = e2^p and
    full = 2^mu, shared by all coefficients; k is 2 for the squared
    coupling and 1 for the linear one.  The cross term is multiplied left
    to right, one factor of e2 at a time, which fixes how it rounds.

    Each tail is summed into its cross term, and its weight term
    (2^mu - c - 1) e2^p is formed in one array; c e1^(p-k) and the weight
    are formed at their own shape (``power_chain``'s mu row) before they
    meet e2.  ``out`` holds one array per coefficient, for its
    tail, then one for the weight terms; None makes fresh ones.  The inputs
    are never written, unless the caller passes a row of ``out`` as
    ``lead`` (the first tail's) or ``last`` (the weight terms') with one
    coefficient: each is read, elementwise, before its row is written.
    Multiplication and addition commute exactly, so c e1^(p-k) and
    cross + head have the bits of e1^(p-k) c and head + cross.
    """
    tails = []
    for k, c in enumerate(coefficients):
        row = None if out is None else out[k]
        # c e1^(p-k) at its own shape, or in place when ``lead`` is the row.
        scaled = np.multiply(c, lead, out=row) if lead is row else c * lead
        cross = np.multiply(scaled, e2, out=row)
        if squared:
            cross *= e2
        cross += head
        weight = full - c
        weight -= 1.0
        cross += np.multiply(weight, last, out=None if out is None else out[-1])
        tails.append(cross)
    return tails


def _check_tails(names):
    for name in names:
        if name not in _TAILS:
            raise ValueError(f"unknown tail {name!r}; expected one of {tuple(_TAILS)}")


def _tail(e1, e2, mu, name: str, coupling: str = "linear"):
    """Pair tail ``name`` (a key of ``_TAILS``) of the ordered pair e1 >= e2:
    every check, then ``_tail_core``."""
    _check_tails((name,))
    mu = check_power(mu)
    a, b = _check_ordered(e1, e2)
    _coupling_exponent(mu, coupling)  # refuses an array mu and an unknown coupling
    [vals] = _tail_core(a, b, mu, (name,), coupling)
    return float(vals) if np.ndim(e1) == 0 and np.ndim(e2) == 0 else vals


def _tail_core(a, b, mu: float, names: tuple, coupling: str, out=None) -> list:
    """``_tail`` of float arrays a >= b that ``_check_ordered`` has passed, a
    power mu that ``check_power`` has passed and known tails and coupling,
    with no check of its own: the sweeps check a block's pair once and call
    this for every combo.  Returns a list of one tail per name, each an array
    or, for 0-d a and b, a numpy scalar.  ``out``, for one name only, is three
    arrays of their broadcast shape (or one ``(3, *shape)`` array): the tail in
    the first, its temporaries in the others."""
    k = _DEGREE[coupling]
    pow_ = k * mu
    if out is None:
        # Arrays of the tail's shape, or, for scalar e1 and e2, numpy scalars.
        shape = np.broadcast(a, b).shape
        out = [np.empty(shape) if shape else None for _ in range(3)]
    # e1^(p-k) in the tail's row and e2^p in the weight terms' row, each
    # read before ``_tail_values`` overwrites it (one coefficient).
    vals, weighted, head = out
    lead, last = np.power(a, pow_ - k, out=vals), np.power(b, pow_, out=weighted)
    return _tail_values(
        np.power(a, pow_, out=head), lead, b, last, _TWO**mu, k == 2,
        [_TAILS[name](mu) for name in names], (vals, weighted) if len(names) == 1 else None,
    )


def pair_bound_new(e1, e2, mu, coupling: str = "linear"):
    """Tightened two-party tail, coefficient mu^2/(mu+1) on the cross term.

    linear:  e1^mu + mu^2/(mu+1) e1^(mu-1) e2 + (2^mu - mu^2/(mu+1) - 1) e2^mu
    squared: e1^g  + mu^2/(mu+1) e1^(g-2) e2^2 + (2^mu - mu^2/(mu+1) - 1) e2^g
    """
    return _tail(e1, e2, mu, "new", coupling)


def pair_bound_prior(e1, e2, mu, coupling: str = "linear"):
    """Previously published two-party tail, cross coefficient mu/2.

    linear:  e1^mu + (mu/2) e1^(mu-1) e2 + (2^mu - mu/2 - 1) e2^mu
    squared: e1^g  + (mu/2) e1^(g-2) e2^2 + (2^mu - mu/2 - 1) e2^g

    The paper's Tsallis reference [11] writes the linear tail as
    e1^mu + (2^mu - 1) e2^mu + (mu/2) e2 (e1^(mu-1) - e2^(mu-1)); its Renyi
    reference [12] gives it for alpha >= 2 and, with g = 2 mu, the squared
    tail below.
    """
    return _tail(e1, e2, mu, "prior", coupling)


def pair_bound_naive(e1, e2, mu, coupling: str = "linear"):
    """Weakest tail e1^pow + (2^mu - 1) e2^pow (no cross term)."""
    return _tail(e1, e2, mu, "naive", coupling)


def chain_bound(values, m: int, mu: float, coupling: str = "linear", tail="new"):
    """Multi-party chain lower bound with split index ``m``.

    ``values`` are the per-pair entanglement values (length N-1 >= 2) in the
    partner order of the cut; the caller is responsible for the concurrence
    ordering hypotheses (see ``ordering_certificate``).  With ``m = N-2``
    (fully descending) the tail couples the last two values as
    ``Q(v[N-2], v[N-1])``; smaller ``m`` swaps the tail onto
    ``Q(v[N-1], v[N-2])`` and reweights the middle block.  ``tail`` selects
    the pairwise tail: "new" for the tightened one, "prior" or "naive".  A
    tuple of names gives one chain per name from one pass (checks, head sum
    and the tail pair's powers shared), each with its one-name call's bits.
    """
    mu = check_power(mu)
    flat = "entanglement values must be a flat list of numbers, got"
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise ValueError(f"{flat} an array of shape {values.shape}")
    vals = []
    for v in values:
        try:
            vals.append(float(v))
        except TypeError:
            raise ValueError(f"{flat} the entry {v!r}") from None
    n = len(vals) + 1
    if n < 3:
        raise ValueError(f"need at least two per-pair values, got {n - 1}")
    # A NaN passes the sign check, and the chain would then be NaN.
    if not all(math.isfinite(v) and v >= 0.0 for v in vals):
        raise ValueError(f"entanglement values must be finite and nonnegative, got {vals}")
    m = kernel.as_integer(m, "split index")
    if not 0 <= m <= n - 2:
        raise ValueError(f"split index {m} outside 0..{n - 2}")
    # The tail weight 2^mu - 1 of the chain expansion.
    h = _TWO**mu - 1.0
    pow_ = _coupling_exponent(mu, coupling)
    # numpy scalars, whose powers overflow to inf as ``_TWO``'s do.
    vals = np.array(vals)
    if m == n - 2:
        total = sum(h ** (i - 1) * vals[i - 1] ** pow_ for i in range(1, n - 2))
        pair, depth = (vals[-2], vals[-1]), n - 3
    else:
        total = sum(h ** (i - 1) * vals[i - 1] ** pow_ for i in range(1, m + 1))
        total += h ** (m + 1) * sum(vals[j - 1] ** pow_ for j in range(m + 1, n - 2))
        pair, depth = (vals[-1], vals[-2]), m
    names = tail if isinstance(tail, tuple) else (tail,)
    _check_tails(names)
    tails = _tail_core(*_check_ordered(*pair), mu, names, coupling)
    # Not tuple() of a generator: its resized tuple grows the tuple free list.
    chains = [float(total + h**depth * q) for q in tails]
    return tuple(chains) if isinstance(tail, tuple) else chains[0]


def compare_chain(lhs: float, values, m: int, mu: float, regime: str) -> BoundReport:
    """Powered comparison of the full-cut value ``lhs`` (unpowered) against
    the new, prior and naive chain bounds of ``values`` at split ``m``.

    The regime, a key of ``REGIMES``, sets the coupling and so the power of
    ``lhs``, mu or gamma = 2 mu; two values at ``m = 1`` give the pair
    relation.  The three chains come from one ``chain_bound`` pass, the
    chain skeleton with each pairwise tail swapped in, so the term-by-term
    dominance of the tails carries over to the chains.
    """
    mu = check_power(mu)
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {tuple(REGIMES)}")
    lhs = float(lhs)
    # A negative lhs has a complex power; a NaN one would read as an overflow.
    if not (math.isfinite(lhs) and lhs >= 0.0):
        raise ValueError(f"lhs must be finite and nonnegative, got {lhs}")
    coupling = REGIMES[regime].coupling
    pow_ = _coupling_exponent(mu, coupling)
    # An overflow shows as a non-finite bound, which BoundReport rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        chains = chain_bound(values, m, mu, coupling, ("new", "prior", "naive"))
        return BoundReport(pow_, float(np.float64(lhs) ** pow_), *chains)


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
    pivot = kernel.as_integer(pivot, "pivot")
    order = [kernel.as_integer(b, "qubit index") for b in rest_order]
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
            # The marginal is M M^† for the amplitudes M, kept qubits (pivot
            # first) against the traced ones: its eigenvectors are M's left
            # singular vectors, its eigenvalues the squared singular values.
            amps = state.amplitudes.reshape((2,) * n).transpose([pivot, *rest, *order[: i + 1]])
            u, s, _ = np.linalg.svd(amps.reshape(2 ** (len(rest) + 1), -1), full_matrices=False)
            w = s**2
            live = w > 1e-12
            # Each eigenvector as its pivot row against the rest; its squared
            # singular values are its pivot spectrum.
            pivot_rows = u[:, live].T.reshape(-1, 2, 2 ** len(rest))
            spectra = kernel.clamp_spectrum(np.linalg.svd(pivot_rows, compute_uv=False) ** 2)
            c2 = measures.squared_concurrence_of_spectrum(spectra)
            upper = float(np.sum(w[live] * np.sqrt(c2)))
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
