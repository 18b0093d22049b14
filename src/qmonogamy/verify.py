"""Grid and randomized sweep engine for inequality certification.

Each inequality family is registered with its default grid axes, discrete
parameter lists, domain predicate and vectorized margin function
(LHS - RHS, signed, never clamped); a family that checks a regime's
relation states only its kind, relation, regime and defaults, and the rest
follows from them (``_regime_family``).  Sweeps are deterministic for a fixed
spec: points are evaluated in a fixed order, argmin ties resolve to the
lexicographically smallest point, and violations tied at the list's cap
resolve to the earliest in sweep order (combo, then point).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, kernel, measures, states

GRID_TOLERANCE = 1e-12
STATE_TOLERANCE = 1e-9
DEFAULT_RANDOM_SAMPLES = 500
DEFAULT_STATES = 1000
# Violating points a report lists (the worst ones); the rest are only counted.
MAX_VIOLATIONS = 100
# States per stack in ``_state_tables``: large enough that the fixed cost of
# each of the block's few dozen numpy calls is small beside its per-state
# work, small enough that their intermediates (columns of 4 or 8 KB, under
# 0.2 MB in all) stay in cache and add nothing to a sweep's peak memory.
_STATE_BLOCK = 512
# Points per block in ``_sweep``: a block's columns and the temporaries of
# one margin evaluation (a few dozen arrays of 128 KB) stay in cache while
# every combo runs over it.
_SWEEP_BLOCK = 16384

_WINDOW_MIN = measures.RENYI_ANALYTIC_MIN


@dataclass(frozen=True)
class SweepSpec:
    """Grid, parameter lists, sample count, seed and tolerance of one sweep."""

    family: str
    grid: tuple[tuple[str, float, float, int], ...] = ()
    params: tuple[tuple[str, tuple[float, ...]], ...] = ()
    random_samples: int = 0
    seed: int = 0
    tolerance: float = GRID_TOLERANCE

    def __post_init__(self):
        # A NaN or infinite tolerance would let no margin count as a violation.
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(
                f"tolerance must be finite and positive, got {self.tolerance}"
            )
        if self.random_samples < 0:
            raise ValueError(f"random_samples must be >= 0, got {self.random_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, lo, hi, steps in self.grid:
            # Every comparison with NaN is False, so the checks below and the
            # gates would let a NaN bound through.
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {name!r} bounds must be finite, got [{lo}, {hi}]")
            if steps < 2:
                raise ValueError(f"axis {name!r} needs >= 2 steps, got {steps}")
            if hi < lo:
                raise ValueError(f"axis {name!r} has max {hi} < min {lo}")
        for name, values in self.params:
            if not values:
                raise ValueError(f"parameter {name!r} has no values")


@dataclass
class SweepReport:
    """Outcome of one sweep: evaluation count, worst margin and violations.

    ``min_margin`` and ``argmin`` cover the finite margins only and are None
    when no margin is finite.  ``violations`` holds at most
    ``MAX_VIOLATIONS`` of the worst violating points, worst first and
    equal margins in sweep order, and ``violations_total`` counts them all.  ``nonfinite`` counts the NaN or
    infinite margins (overflow in the bound arithmetic); they are neither
    minima nor violations.
    """

    family: str
    points_checked: int
    min_margin: float | None
    argmin: tuple[float, ...] | None
    violations: list[tuple[tuple[float, ...], float]]
    violations_total: int = 0
    nonfinite: int = 0
    spec: SweepSpec = field(repr=False, compare=False, default=None)

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "points": self.points_checked,
                "min_margin": self.min_margin,
                "argmin": None if self.argmin is None else list(self.argmin),
                "violations": [
                    {"point": list(pt), "margin": m} for pt, m in self.violations
                ],
                "violations_total": self.violations_total,
                "nonfinite": self.nonfinite,
            }
        )


# ---------------------------------------------------------------------------
# Margin functions (vectorized over points for one parameter combination)
# ---------------------------------------------------------------------------


def _hypot_clamped(x, y):
    return np.minimum(1.0, np.sqrt(x * x + y * y))


class _Block(dict):
    """Columns of one block of sweep points.

    Keeps the last result of each function ``_shared`` calls on it, so the
    combos of one block build its qubit spectra once for every ``q`` or
    ``alpha``, and the combos that share a ``q`` or ``alpha`` (consecutive
    in ``_combos``) convert the block once.
    """

    def __init__(self, columns):
        super().__init__(columns)
        self.memo = {}


def _shared(pts, fn, *args):
    """``fn(pts, *args)``, reused from the block's memo when it holds
    ``fn``'s result for the same ``args``; a plain dict of columns computes
    it directly."""
    if not isinstance(pts, _Block):
        return fn(pts, *args)
    held = pts.memo.get(fn)
    if held is None or held[0] != args:
        held = pts.memo[fn] = (args, fn(pts, *args))
    return held[1]


# Per index name: whether its qubit spectra take squared concurrences (g_q)
# or concurrences (f_alpha), and the ``measures`` entropy, looked up by name
# at call time like every callee.
_ENTROPIES = {"q": (True, "tsallis_of_spectrum"), "alpha": (False, "renyi_of_spectrum")}


def _grid_spectra(pts, squared):
    """Qubit spectra of the squared concurrences x^2 + y^2, x^2 and y^2
    (``squared``), or of the concurrences min(1, hypot(x, y)), x and y."""
    x, y = pts["x"], pts["y"]
    values = (x * x + y * y, x * x, y * y) if squared else (_hypot_clamped(x, y), x, y)
    return [measures.qubit_spectrum(v, squared=squared) for v in values]


def _grid_triple(pts, index, value):
    """g_q of x^2 + y^2, x^2 and y^2 (``index`` "q"), or f_alpha of
    min(1, hypot(x, y)), x and y (``index`` "alpha"), at ``value``."""
    squared, entropy = _ENTROPIES[index]
    spectra = _shared(pts, _grid_spectra, squared)
    return tuple(getattr(measures, entropy)(s, value) for s in spectra)


def _margin_power_chain(pts, combo):
    lhs, tight, loose, naive = bounds.power_chain(pts["x"], pts["mu"])
    return np.minimum(np.minimum(lhs - tight, tight - loose), loose - naive)


def _pair_spectra(pts, squared):
    """Qubit spectra of C_ab^2 and C_ac^2 (``squared``), or of C_ab and C_ac."""
    pairs = [pts["c_ab"], pts["c_ac"]]
    return [measures.qubit_spectrum(c**2 if squared else c, squared=squared) for c in pairs]


def _pivot_spectrum(pts):
    """The pivot cut spectrum, one row ``(lam_hi, lam_lo)`` per state, each
    column contiguous."""
    return np.array([pts["lam_hi"], pts["lam_lo"]]).T


def _state_triple(pts, index, value):
    """The entropy of the pivot cut, then the larger and the smaller of
    g_q(C_ab^2) and g_q(C_ac^2) (``index`` "q", Tsallis), or of f_alpha(C_ab)
    and f_alpha(C_ac) (``index`` "alpha", Renyi), at ``value``."""
    squared, entropy = _ENTROPIES[index]
    of_spectrum = getattr(measures, entropy)
    full = of_spectrum(_shared(pts, _pivot_spectrum), value)
    ab, ac = (of_spectrum(s, value) for s in _shared(pts, _pair_spectra, squared))
    return full, np.maximum(ab, ac), np.minimum(ab, ac)


def _additive(triple, regime: bounds.Regime):
    """Margin z^k - x^k - y^k of ``triple``'s (z, x, y) at the combo's
    index, with k the regime's degree (the superadditivity lemmas)."""
    index, k = regime.index, regime.degree

    def margin(pts, combo):
        z, x, y = _shared(pts, triple, index, combo[index])
        if k != 1:
            z, x, y = z**k, x**k, y**k
        return z - x - y

    return margin


def _powered(triple, regime: bounds.Regime, power: str):
    """Margin E^p - Q_new(e1, e2) of the regime's powered pair relation,
    with (E, e1 >= e2) from ``triple`` at the combo's index and p the
    combo's ``power``, the relation's exponent."""
    index = regime.index

    def margin(pts, combo):
        full, e1, e2 = _shared(pts, triple, index, combo[index])
        p = combo[power]
        return full**p - bounds.pair_bound_new(e1, e2, regime.power(p), regime.coupling)

    return margin


def _margin_ckw(pts, combo):
    return pts["c2_full"] - pts["c_ab"] ** 2 - pts["c_ac"] ** 2


# ---------------------------------------------------------------------------
# Domain predicates and parameter gates
# ---------------------------------------------------------------------------


def _domain_all(pts):
    return np.ones_like(next(iter(pts.values())), dtype=bool)


def _domain_disc(pts):
    x, y = pts["x"], pts["y"]
    return x * x + y * y <= 1.0 + 1e-12


def _domain_disc_ordered(pts):
    return _domain_disc(pts) & (pts["x"] >= pts["y"])


# Gates (lo, hi, hi_open) by axis or parameter name: values must lie in the
# ``measures.Window``, whose edge rule the index windows share.  A regime's
# index (q or alpha) takes the regime's window instead.
_GATES = {
    "x": measures.Window(0.0, 1.0),
    "y": measures.Window(0.0, 1.0),
    "mu": measures.Window(1.0),
    "eta": measures.Window(1.0),
    "gamma": measures.Window(2.0),
}


@dataclass(frozen=True)
class Family:
    """One inequality family of the registry.

    ``domain`` takes a dict of columns that broadcast together (the open-grid
    axis views of a mesh, or equal-length sample columns) and returns a
    boolean mask of their broadcast shape; a predicate that ignores some
    columns may return a mask that only broadcasts to it, as
    ``_domain_all`` does.  ``margin`` takes a dict of equal-length point
    columns and one parameter combo.  ``regime`` names the
    ``bounds.REGIMES`` row of the relation the family checks, if any.
    """

    name: str
    kind: str  # "grid" | "state"
    axes: tuple[tuple[str, float, float, int], ...]
    params: tuple[tuple[str, tuple[float, ...]], ...]
    margin: callable
    domain: callable = _domain_all
    regime: str | None = None

    @property
    def gates(self) -> tuple[tuple[str, float, float, bool], ...]:
        """``(name, lo, hi, hi_open)`` of each axis and parameter."""
        windows = dict(_GATES)
        if self.regime is not None:
            row = bounds.REGIMES[self.regime]
            windows[row.index] = row.window
        names = [name for name, *_ in self.axes] + [name for name, _ in self.params]
        return tuple((name, *windows[name]) for name in names)


_GRID_AXES = (("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60))
# A kind's default axes and triple builder.
_KINDS = {"grid": (_GRID_AXES, _grid_triple), "state": ((), _state_triple)}
# A relation's grid domain.  A grid point (x, y) is a pair of concurrences
# (C_ab, C_ac), which CKW keeps in the unit disc, and the powered tails need
# e1 >= e2, so x >= y.
_GRID_DOMAINS = {"additive": _domain_disc, "powered": _domain_disc_ordered}


def _regime_family(name, kind, relation, regime, index_values, **exponent):
    """The family that checks ``regime``'s ``relation`` (``"additive"`` or
    ``"powered"``) on the points of its ``kind`` (``"grid"`` or ``"state"``).

    Its parameters are the regime's index, with ``index_values``, then a
    powered relation's exponent, named with its values.
    """
    row = bounds.REGIMES[regime]
    axes, triple = _KINDS[kind]
    domain = _GRID_DOMAINS[relation] if kind == "grid" else _domain_all
    if relation == "additive":
        margin = _additive(triple, row)
    else:
        margin = _powered(triple, row, *exponent)
    params = ((row.index, index_values), *exponent.items())
    return Family(name, kind, axes, params, margin, domain, regime)


_MU = (1.0, 1.5, 2.0, 3.0)
_GAMMA = (2.0, 3.0, 4.0)
_WINDOW_ALPHA = (_WINDOW_MIN, 1.2, 1.5, 1.9)
_Q_SUPER = tuple(round(2.0 + 0.1 * i, 10) for i in range(11))

FAMILIES: dict[str, Family] = {
    fam.name: fam
    for fam in (
        Family(
            "lemma1", "grid", (("x", 0.0, 1.0, 200), ("mu", 1.0, 4.0, 200)), (), _margin_power_chain
        ),
        _regime_family("gqsuper", "grid", "additive", "tsallis_q2to3", _Q_SUPER),
        _regime_family("falphaadd", "grid", "additive", "renyi_ge2", (2.0, 2.5, 3.0, 4.0)),
        _regime_family("falphasqadd", "grid", "additive", "renyi_window", _WINDOW_ALPHA),
        _regime_family("lemma2", "grid", "powered", "tsallis_q2to3", (2.0, 2.5, 3.0), mu=_MU),
        _regime_family("lemma5", "grid", "powered", "renyi_ge2", (2.0, 3.0), mu=_MU),
        _regime_family("lemma6", "grid", "powered", "renyi_window", _WINDOW_ALPHA, gamma=_GAMMA),
        Family("ckw", "state", (), (), _margin_ckw),
        _regime_family("remark1", "state", "powered", "tsallis_q2to3", (2.0, 2.5, 3.0), eta=_MU),
        _regime_family("remark2", "state", "powered", "renyi_ge2", (2.0, 3.0), mu=_MU),
        _regime_family(
            "remark3", "state", "powered", "renyi_window", (_WINDOW_MIN, 1.5), gamma=_GAMMA
        ),
    )
}

FAMILY_NAMES = tuple(FAMILIES)
GRID_FAMILIES = tuple(name for name, f in FAMILIES.items() if f.kind == "grid")
STATE_FAMILIES = tuple(name for name, f in FAMILIES.items() if f.kind == "state")


def family_of(name: str) -> Family:
    key = str(name).lower()
    if key not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    return FAMILIES[key]


def default_spec(family: str, **overrides) -> SweepSpec:
    """Spec with the family's default grid/params; keyword overrides allowed."""
    fam = family_of(family)
    grid = fam.kind == "grid"
    base = dict(
        family=fam.name,
        grid=fam.axes,
        params=fam.params,
        random_samples=DEFAULT_RANDOM_SAMPLES if grid else DEFAULT_STATES,
        seed=0,
        tolerance=GRID_TOLERANCE if grid else STATE_TOLERANCE,
    )
    base.update(overrides)
    return SweepSpec(**base)


def _validate_against_gates(fam: Family, spec: SweepSpec):
    """Raise ValueError unless the spec's axis and parameter names are the
    family's, each once and in any order, and every axis range and
    parameter value lies in its gate."""
    for kind, expected, given in (
        ("axes", fam.axes, spec.grid),
        ("parameters", fam.params, spec.params),
    ):
        expected = tuple(name for name, *_ in expected)
        given = tuple(name for name, *_ in given)
        if sorted(given) != sorted(expected):
            raise ValueError(f"family {fam.name!r} takes {kind} {expected}, got {given}")
    gates = {name: measures.Window(*window) for name, *window in fam.gates}
    ranges = [(name, (lo, hi)) for name, lo, hi, _steps in spec.grid]
    for name, values in ranges + list(spec.params):
        lo, hi, hi_open = window = gates[name]
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} values must be finite, got {values}")
        if not np.all(window.contains(arr)):
            if hi == math.inf:
                raise ValueError(f"{name!r} values must be >= {lo}")
            edge = ")" if hi_open else "]"
            raise ValueError(f"{name!r} values must lie in [{lo}, {hi}{edge}")


def _combos(spec: SweepSpec):
    """One dict per parameter combination; with no parameters, one ``{}``."""
    names = [name for name, _ in spec.params]
    for combo in itertools.product(*(values for _, values in spec.params)):
        yield dict(zip(names, combo))


def _scan(margins: np.ndarray, columns, tail: tuple, tolerance: float):
    """Min finite margin, its lexicographically smallest point, the worst
    violations (at most ``MAX_VIOLATIONS``, worst first), the number of
    violations and the number of non-finite margins.

    Point ``i`` is ``(*(col[i] for col in columns), *tail)``.  With no
    finite margin the minimum is inf and the point None.
    """

    def point_of(i):
        return tuple(float(col[i]) for col in columns) + tail

    finite = np.isfinite(margins)
    nonfinite = margins.size - int(np.count_nonzero(finite))
    if nonfinite:
        margins = np.where(finite, margins, math.inf)
    local_min = float(np.min(margins))
    best_point = None
    if local_min < math.inf:
        idxs = np.flatnonzero(margins == local_min)
        if idxs.size > 1:
            # lexsort's last key is its primary one; it is stable, so equal
            # points keep the first position.
            idxs = idxs[np.lexsort([col[idxs] for col in reversed(columns)])]
        best_point = point_of(int(idxs[0]))
    bad = np.flatnonzero(margins < -tolerance)
    worst = bad
    if bad.size > MAX_VIOLATIONS:
        # Every margin below the cut value, then the earliest of its ties.
        bad_margins = margins[bad]
        cut = np.partition(bad_margins, MAX_VIOLATIONS - 1)[MAX_VIOLATIONS - 1]
        below = bad[bad_margins < cut]
        ties = bad[bad_margins == cut][: MAX_VIOLATIONS - below.size]
        worst = np.concatenate([below, ties])
    worst = worst[np.lexsort((worst, margins[worst]))]  # by margin, then position
    violations = [(point_of(int(i)), float(margins[i])) for i in worst]
    return local_min, best_point, violations, int(bad.size), nonfinite


def _merge(state, local_min, point, violations, n_violations, nonfinite):
    """Fold one scan, or another accumulator, into ``state``.

    The sort is stable, so among equal margins the earlier-merged
    violations come first and survive the cap.
    """
    min_margin, argmin, worst, total, all_nonfinite = state
    worst = sorted(worst + violations, key=lambda v: v[1])[:MAX_VIOLATIONS]
    if point is not None and (
        local_min < min_margin or (local_min == min_margin and point < argmin)
    ):
        min_margin, argmin = local_min, point
    return min_margin, argmin, worst, total + n_violations, all_nonfinite + nonfinite


def _grid_points(fam: Family, spec: SweepSpec) -> dict[str, np.ndarray]:
    """Grid mesh points inside the family's domain, in C order over the
    axes, then the rejection samples.

    Each column is allocated once at its final length and written once: the
    domain runs on the open-grid axis views of ``np.ix_``, the mesh part of
    a column is its broadcast axis view, whole or masked, and the samples
    fill the tail.
    """
    axis_names = [name for name, *_ in spec.grid]
    shape = tuple(steps for *_, steps in spec.grid)
    n_mesh = math.prod(shape)
    # Refused before any allocation: no array can be indexed past this
    # size, and there numpy raises its own IndexError (np.linspace) or
    # ValueError (np.empty, the sample draw).  The bound covers both the
    # columns, at most n_mesh + random_samples long, and the sampler's
    # (random_samples, axes) draw.
    if (n_mesh + spec.random_samples * len(shape)) * 8 > np.iinfo(np.intp).max:
        raise MemoryError("its float64 columns would exceed the largest array size")
    axes = np.ix_(*(np.linspace(lo, hi, steps) for _, lo, hi, steps in spec.grid))
    mask = fam.domain(dict(zip(axis_names, axes)))
    # Tested before broadcasting: a mask that does not span every axis
    # (``_domain_all``'s) would be walked at its zero strides.
    whole = bool(mask.all())
    if not whole:
        mask = np.broadcast_to(mask, shape)
        n_mesh = int(np.count_nonzero(mask))
    n_total = n_mesh + spec.random_samples
    if n_total == 0:
        raise ValueError("sweep domain is empty")

    pts = {name: np.empty(n_total) for name in axis_names}
    for name, axis in zip(axis_names, axes):
        if whole:
            pts[name][:n_mesh].reshape(shape)[...] = axis
        else:
            pts[name][:n_mesh] = np.broadcast_to(axis, shape)[mask]

    if spec.random_samples:
        rng = np.random.default_rng(spec.seed)
        lows = np.array([lo for _, lo, _, _ in spec.grid])
        highs = np.array([hi for _, _, hi, _ in spec.grid])
        filled = n_mesh
        for _ in range(1000):
            remaining = n_total - filled
            if remaining <= 0:
                break
            draw = rng.random((remaining, len(axis_names))) * (highs - lows) + lows
            cand = {name: draw[:, j] for j, name in enumerate(axis_names)}
            ok = fam.domain(cand)
            accepted = int(np.count_nonzero(ok))
            for name in axis_names:
                pts[name][filled : filled + accepted] = cand[name][ok]
            filled += accepted
        if filled < n_total:
            raise ValueError(
                f"rejection sampling failed to reach {spec.random_samples} points"
            )
    return pts


def _pair_concurrence(x: np.ndarray) -> np.ndarray:
    """Concurrence of rho = X X^dagger for each ``(4, 2)`` amplitude block X
    of a stack: the pair's rows against the third qubit's columns.

    The nonzero spin-flip values of rho are the singular values s0 >= s1 of
    the complex symmetric T = X^T (sy x sy) X.  With T T^dagger =
    [[p, q], [conj(q), r]], s0^2 - s1^2 = sqrt((p - r)^2 + 4 |q|^2) and
    s0 + s1 = sqrt(p + r + 2 |det T|), so C = s0 - s1 is their ratio, with
    no eigensolver and no cancellation at small C; C = 0 where T = 0.
    """
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = (x[:, k].T for k in range(4))
    t00 = 2.0 * (a1 * a2 - a0 * a3)
    t11 = 2.0 * (b1 * b2 - b0 * b3)
    t01 = a1 * b2 + a2 * b1 - a0 * b3 - a3 * b0
    t01_sq = np.abs(t01) ** 2
    p = np.abs(t00) ** 2 + t01_sq
    r = t01_sq + np.abs(t11) ** 2
    q = t00 * t01.conj() + t01 * t11.conj()
    gap = np.sqrt((p - r) ** 2 + 4.0 * (q.real**2 + q.imag**2))
    total = np.sqrt(p + r + 2.0 * np.abs(t00 * t11 - t01 * t01))
    return np.divide(gap, total, out=np.zeros_like(gap), where=total > 0.0)


def _state_tables(n_states: int, seed: int) -> dict[str, np.ndarray]:
    """Per-state quantities every state-level family consumes.

    For each sampled 3-qubit pure state: the spectrum and the squared
    concurrence of the pivot cut (pivot = qubit 0), and the concurrences of
    the two pair marginals, all in closed form from the amplitudes, with no
    density matrix and no eigensolver.

    With M the 2 x 4 amplitude matrix of qubit 0 against qubits 1-2 and
    rho_A = M M^dagger, C^2(A|BC) = 4 det rho_A = 4 sum of
    |M_0i M_1j - M_0j M_1i|^2 over i < j (Cauchy-Binet), clipped at 1.  The
    eigenvalue gap sqrt(1 - C^2) is taken as the sum of squares
    sqrt((rho_00 - rho_11)^2 + 4 |rho_01|^2), which keeps its accuracy near
    a maximally entangled cut, where 1 - C^2 cancels.  Then
    lam_lo = C^2 / (2 (1 + gap)) and lam_hi = 1 - lam_lo, both accurate to
    roundoff.  The pairs are ``_pair_concurrence`` of the AB and AC
    amplitude blocks.  All states are drawn in one batch and worked in
    stacks of ``_STATE_BLOCK``.
    """
    amplitudes = states.random_pure_states(3, n_states, seed)
    table = {name: np.empty(n_states) for name in ("lam_hi", "lam_lo", "c_ab", "c_ac", "c2_full")}
    table["index"] = np.arange(n_states, dtype=float)
    upper = np.triu_indices(4, 1)
    for start in range(0, n_states, _STATE_BLOCK):
        block = slice(start, start + _STATE_BLOCK)
        amps = amplitudes[block].reshape(-1, 2, 2, 2)
        pivot = amps.reshape(-1, 2, 4)
        row0, row1 = pivot[:, 0], pivot[:, 1]
        minors = row0[:, upper[0]] * row1[:, upper[1]] - row0[:, upper[1]] * row1[:, upper[0]]
        c2 = np.minimum(4.0 * np.vecdot(minors, minors).real, 1.0)
        off = np.vecdot(row1, row0)
        gap = np.sqrt(
            (np.vecdot(row0, row0).real - np.vecdot(row1, row1).real) ** 2
            + 4.0 * (off.real**2 + off.imag**2)
        )
        lam_lo = c2 / (2.0 * (1.0 + gap))
        spectrum = kernel.clamp_spectrum(np.stack([1.0 - lam_lo, lam_lo], axis=-1))
        table["lam_hi"][block], table["lam_lo"][block] = spectrum.T
        table["c2_full"][block] = measures.squared_concurrence_of_spectrum(spectrum)
        table["c_ab"][block] = _pair_concurrence(amps.reshape(-1, 4, 2))
        table["c_ac"][block] = _pair_concurrence(amps.swapaxes(2, 3).reshape(-1, 4, 2))
    return table


def _sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate the family's margin at every point for every parameter combo.

    Points come from the grid mesh plus rejection samples for grid families
    and from ``_state_tables`` for state-level ones.  A point is reported as
    ``(*coordinates, *param values)``, the coordinates being the axis values
    on a grid and the state index for a state-level family.

    The points are walked in blocks of ``_SWEEP_BLOCK``, every combo over
    one block before the next, into one accumulator per combo.  Blocks come
    in point order and the accumulators are folded in combo order, so the
    report equals that of one pass over all points, combo after combo.
    """
    fam = family_of(spec.family)
    _validate_against_gates(fam, spec)
    if fam.kind == "grid":
        pts = _grid_points(fam, spec)
        coordinates = [name for name, *_ in spec.grid]
    else:
        if spec.random_samples < 1:
            raise ValueError(
                f"family {fam.name!r} needs at least one state, got {spec.random_samples}"
            )
        pts = _state_tables(spec.random_samples, spec.seed)
        coordinates = ["index"]

    combos = list(_combos(spec))
    tails = [tuple(combo[name] for name, _ in spec.params) for combo in combos]
    empty = (math.inf, None, [], 0, 0)
    per_combo = [empty] * len(combos)
    checked = 0
    n_points = pts[coordinates[0]].size
    for start in range(0, n_points, _SWEEP_BLOCK):
        block = _Block(
            (name, column[start : start + _SWEEP_BLOCK]) for name, column in pts.items()
        )
        columns = [block[name] for name in coordinates]
        for k, combo in enumerate(combos):
            # Overflow in the bound arithmetic, or a power that underflows to
            # 0 under a log, surfaces as non-finite margins, which the scan
            # counts and the report carries.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                margins = np.asarray(fam.margin(block, combo), dtype=float)
            checked += margins.size
            per_combo[k] = _merge(per_combo[k], *_scan(margins, columns, tails[k], spec.tolerance))

    state = empty
    for acc in per_combo:
        state = _merge(state, *acc)
    min_margin, argmin, violations, violations_total, nonfinite = state
    return SweepReport(
        family=fam.name,
        points_checked=checked,
        min_margin=None if argmin is None else min_margin,
        argmin=argmin,
        violations=violations,
        violations_total=violations_total,
        nonfinite=nonfinite,
        spec=spec,
    )


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate any family's margin, grid or state-level, over its spec's points.

    Deterministic for a fixed spec; reports the signed minimum margin, its
    location, and the worst of the points whose margin falls below
    -tolerance along with their count.
    """
    return _sweep(spec)


def run_state_check(family: str, n_states: int = DEFAULT_STATES, seed: int = 0) -> SweepReport:
    """Monogamy margins of a state-level family's default spec over
    ``n_states`` seeded random 3-qubit pure states.

    The two pair marginals are ordered by value before the tightened pair
    bound is applied, matching the two branches of the N=3 relations.  Other
    parameters or tolerances need a spec and ``run_sweep``.
    """
    fam = family_of(family)
    if fam.kind != "state":
        raise ValueError(f"family {fam.name!r} is grid-level; use run_sweep")
    # The engine itself, not run_sweep, so that a wrapper around both public
    # names (bench/tracer.py) sees one sweep per call.
    return _sweep(default_spec(fam.name, random_samples=n_states, seed=seed))
