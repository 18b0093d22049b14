"""Grid and randomized sweep engine for inequality certification.

Each inequality family is registered with its default grid axes, discrete
parameter lists, domain predicate and vectorized margin function
(LHS - RHS, signed, never clamped).  Sweeps are deterministic for a fixed
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
# a stacked kernel call is small beside its per-state work, small enough that
# a block's intermediates (about 1 MB) add little to a sweep's peak memory.
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

    Keeps the last conversion triple a margin derived from them, so the
    combos of one block that share a ``q`` or ``alpha`` (consecutive in
    ``_combos``) convert the block once.
    """

    memo_key = None
    memo = None


def _shared(pts, triple, value):
    """``triple(pts, value)``, reused from the block's memo when it holds
    the same triple; a plain dict of columns computes it directly."""
    if not isinstance(pts, _Block):
        return triple(pts, value)
    key = (triple, value)
    if pts.memo_key != key:
        pts.memo_key, pts.memo = key, triple(pts, value)
    return pts.memo


def _g_triple(pts, q):
    """g_q of x^2 + y^2, x^2 and y^2."""
    x, y = pts["x"], pts["y"]
    return measures.g_q(x * x + y * y, q), measures.g_q(x * x, q), measures.g_q(y * y, q)


def _f_triple(pts, a):
    """f_alpha of min(1, hypot(x, y)), x and y."""
    x, y = pts["x"], pts["y"]
    return measures.f_alpha(_hypot_clamped(x, y), a), measures.f_alpha(x, a), measures.f_alpha(y, a)


def _margin_power_chain(pts, combo):
    lhs, tight, loose, naive = bounds.power_chain(pts["x"], pts["mu"])
    return np.minimum(np.minimum(lhs - tight, tight - loose), loose - naive)


def _margin_gq_super(pts, combo):
    gz, gx, gy = _shared(pts, _g_triple, combo["q"])
    return gz - gx - gy


def _margin_f_add(pts, combo):
    fz, fx, fy = _shared(pts, _f_triple, combo["alpha"])
    return fz - fx - fy


def _margin_f_sq_add(pts, combo):
    fz, fx, fy = _shared(pts, _f_triple, combo["alpha"])
    return fz * fz - fx * fx - fy * fy


def _margin_gq_pair(pts, combo):
    gz, gx, gy = _shared(pts, _g_triple, combo["q"])
    mu = combo["mu"]
    return gz**mu - bounds.pair_bound_new(gx, gy, bounds.PowerParam(mu))


def _margin_f_pair(pts, combo):
    fz, fx, fy = _shared(pts, _f_triple, combo["alpha"])
    mu = combo["mu"]
    return fz**mu - bounds.pair_bound_new(fx, fy, bounds.PowerParam(mu))


def _margin_f_sq_pair(pts, combo):
    fz, fx, fy = _shared(pts, _f_triple, combo["alpha"])
    gamma = combo["gamma"]
    p = bounds.PowerParam.from_gamma(gamma)
    return fz**gamma - bounds.pair_bound_new(fx, fy, p, "squared")


def _margin_ckw(pts, combo):
    c2_full = pts["c2_full"]
    return c2_full - pts["c_ab"] ** 2 - pts["c_ac"] ** 2


def _spectral_tsallis(pts, q):
    return (1.0 - (pts["lam_hi"] ** q + pts["lam_lo"] ** q)) / (q - 1.0)


def _spectral_renyi(pts, a):
    return np.log2(pts["lam_hi"] ** a + pts["lam_lo"] ** a) / (1.0 - a)


def _margin_remark1(pts, combo):
    q, eta = combo["q"], combo["eta"]
    lhs = _spectral_tsallis(pts, q) ** eta
    t_ab = measures.g_q(pts["c_ab"] ** 2, q)
    t_ac = measures.g_q(pts["c_ac"] ** 2, q)
    e1 = np.maximum(t_ab, t_ac)
    e2 = np.minimum(t_ab, t_ac)
    return lhs - bounds.pair_bound_new(e1, e2, bounds.PowerParam(eta))


def _margin_remark2(pts, combo):
    a, mu = combo["alpha"], combo["mu"]
    lhs = _spectral_renyi(pts, a) ** mu
    r_ab = measures.f_alpha(pts["c_ab"], a)
    r_ac = measures.f_alpha(pts["c_ac"], a)
    e1 = np.maximum(r_ab, r_ac)
    e2 = np.minimum(r_ab, r_ac)
    return lhs - bounds.pair_bound_new(e1, e2, bounds.PowerParam(mu))


def _margin_remark3(pts, combo):
    a, gamma = combo["alpha"], combo["gamma"]
    p = bounds.PowerParam.from_gamma(gamma)
    lhs = _spectral_renyi(pts, a) ** gamma
    r_ab = measures.f_alpha(pts["c_ab"], a)
    r_ac = measures.f_alpha(pts["c_ac"], a)
    e1 = np.maximum(r_ab, r_ac)
    e2 = np.minimum(r_ab, r_ac)
    return lhs - bounds.pair_bound_new(e1, e2, p, "squared")


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


# Parameter gates (lo, hi, hi_open): values must lie in [lo, hi], or in
# [lo, hi) when hi_open.  Lower edges allow _GATE_SLACK of roundoff.
_GATE_SLACK = 1e-12
_UNIT = (0.0, 1.0, False)
_POWER = (1.0, math.inf, False)
_Q_BOUND = (2.0, 3.0, False)
_ALPHA_GE2 = (2.0, math.inf, False)
_ALPHA_WINDOW = (_WINDOW_MIN, 2.0, True)
_GAMMA = (2.0, math.inf, False)


@dataclass(frozen=True)
class Family:
    name: str
    kind: str  # "grid" | "state"
    axes: tuple[tuple[str, float, float, int], ...]
    params: tuple[tuple[str, tuple[float, ...]], ...]
    margin: callable
    domain: callable = _domain_all
    gates: tuple[tuple[str, float, float, bool], ...] = ()
    tolerance: float = GRID_TOLERANCE


_Q_SUPER_DEFAULT = tuple(round(2.0 + 0.1 * i, 10) for i in range(11))

FAMILIES: dict[str, Family] = {}


def _register(fam: Family):
    FAMILIES[fam.name] = fam


_register(
    Family(
        "lemma1",
        "grid",
        axes=(("x", 0.0, 1.0, 200), ("mu", 1.0, 4.0, 200)),
        params=(),
        margin=_margin_power_chain,
        gates=(("x", *_UNIT), ("mu", *_POWER)),
    )
)
_register(
    Family(
        "gqsuper",
        "grid",
        axes=(("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)),
        params=(("q", _Q_SUPER_DEFAULT),),
        margin=_margin_gq_super,
        domain=_domain_disc,
        gates=(
            ("x", *_UNIT),
            ("y", *_UNIT),
            ("q", *_Q_BOUND),
        ),
    )
)
_register(
    Family(
        "falphaadd",
        "grid",
        axes=(("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)),
        params=(("alpha", (2.0, 2.5, 3.0, 4.0)),),
        margin=_margin_f_add,
        domain=_domain_disc,
        gates=(
            ("x", *_UNIT),
            ("y", *_UNIT),
            ("alpha", *_ALPHA_GE2),
        ),
    )
)
_register(
    Family(
        "falphasqadd",
        "grid",
        axes=(("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)),
        params=(("alpha", (_WINDOW_MIN, 1.2, 1.5, 1.9)),),
        margin=_margin_f_sq_add,
        domain=_domain_disc,
        gates=(
            ("x", *_UNIT),
            ("y", *_UNIT),
            ("alpha", *_ALPHA_WINDOW),
        ),
    )
)
_register(
    Family(
        "lemma2",
        "grid",
        axes=(("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)),
        params=(("q", (2.0, 2.5, 3.0)), ("mu", (1.0, 1.5, 2.0, 3.0))),
        margin=_margin_gq_pair,
        domain=_domain_disc_ordered,
        gates=(
            ("x", *_UNIT),
            ("y", *_UNIT),
            ("q", *_Q_BOUND),
            ("mu", *_POWER),
        ),
    )
)
_register(
    Family(
        "lemma5",
        "grid",
        axes=(("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)),
        params=(("alpha", (2.0, 3.0)), ("mu", (1.0, 1.5, 2.0, 3.0))),
        margin=_margin_f_pair,
        domain=_domain_disc_ordered,
        gates=(
            ("x", *_UNIT),
            ("y", *_UNIT),
            ("alpha", *_ALPHA_GE2),
            ("mu", *_POWER),
        ),
    )
)
_register(
    Family(
        "lemma6",
        "grid",
        axes=(("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)),
        params=(("alpha", (_WINDOW_MIN, 1.2, 1.5, 1.9)), ("gamma", (2.0, 3.0, 4.0))),
        margin=_margin_f_sq_pair,
        domain=_domain_disc_ordered,
        gates=(
            ("x", *_UNIT),
            ("y", *_UNIT),
            ("alpha", *_ALPHA_WINDOW),
            ("gamma", *_GAMMA),
        ),
    )
)
_register(
    Family(
        "ckw",
        "state",
        axes=(),
        params=(),
        margin=_margin_ckw,
        tolerance=STATE_TOLERANCE,
    )
)
_register(
    Family(
        "remark1",
        "state",
        axes=(),
        params=(("q", (2.0, 2.5, 3.0)), ("eta", (1.0, 1.5, 2.0, 3.0))),
        margin=_margin_remark1,
        gates=(("q", *_Q_BOUND), ("eta", *_POWER)),
        tolerance=STATE_TOLERANCE,
    )
)
_register(
    Family(
        "remark2",
        "state",
        axes=(),
        params=(("alpha", (2.0, 3.0)), ("mu", (1.0, 1.5, 2.0, 3.0))),
        margin=_margin_remark2,
        gates=(("alpha", *_ALPHA_GE2), ("mu", *_POWER)),
        tolerance=STATE_TOLERANCE,
    )
)
_register(
    Family(
        "remark3",
        "state",
        axes=(),
        params=(("alpha", (_WINDOW_MIN, 1.5)), ("gamma", (2.0, 3.0, 4.0))),
        margin=_margin_remark3,
        gates=(
            ("alpha", *_ALPHA_WINDOW),
            ("gamma", *_GAMMA),
        ),
        tolerance=STATE_TOLERANCE,
    )
)

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
    base = dict(
        family=fam.name,
        grid=fam.axes,
        params=fam.params,
        random_samples=DEFAULT_RANDOM_SAMPLES if fam.kind == "grid" else DEFAULT_STATES,
        seed=0,
        tolerance=fam.tolerance,
    )
    base.update(overrides)
    return SweepSpec(**base)


def _validate_against_gates(fam: Family, spec: SweepSpec):
    """Raise ValueError if an axis range or a parameter value leaves its gate."""
    gates = {name: (lo, hi, hi_open) for name, lo, hi, hi_open in fam.gates}
    ranges = [(name, (lo, hi)) for name, lo, hi, _steps in spec.grid]
    for name, values in ranges + list(spec.params):
        if name not in gates:
            continue
        lo, hi, hi_open = gates[name]
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name!r} values must be finite, got {values}")
        above = arr >= hi if hi_open else arr > hi
        if np.any(arr < lo - _GATE_SLACK) or np.any(above):
            if hi == math.inf:
                raise ValueError(f"{name!r} values must be >= {lo}")
            edge = ")" if hi_open else "]"
            raise ValueError(f"{name!r} values must lie in [{lo}, {hi}{edge}")


def _combos(spec: SweepSpec):
    names = [name for name, _ in spec.params]
    value_lists = [values for _, values in spec.params]
    if not names:
        yield {}
        return
    for combo in itertools.product(*value_lists):
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
    """Grid mesh points inside the family's domain, then the rejection samples."""
    if not spec.grid:
        raise ValueError(f"family {fam.name!r} needs grid axes")
    axis_names = [name for name, *_ in spec.grid]
    axis_values = [np.linspace(lo, hi, steps) for _, lo, hi, steps in spec.grid]
    mesh = np.meshgrid(*axis_values, indexing="ij")
    pts = {name: grid.ravel() for name, grid in zip(axis_names, mesh)}
    mask = fam.domain(pts)
    if not mask.all():
        pts = {name: vals[mask] for name, vals in pts.items()}

    if spec.random_samples:
        rng = np.random.default_rng(spec.seed)
        lows = np.array([lo for _, lo, _, _ in spec.grid])
        highs = np.array([hi for _, _, hi, _ in spec.grid])
        accepted = {name: [] for name in axis_names}
        remaining = spec.random_samples
        for _ in range(1000):
            if remaining <= 0:
                break
            draw = rng.random((remaining, len(axis_names))) * (highs - lows) + lows
            cand = {name: draw[:, j] for j, name in enumerate(axis_names)}
            ok = fam.domain(cand)
            for name in axis_names:
                accepted[name].append(cand[name][ok])
            remaining -= int(np.count_nonzero(ok))
        if remaining > 0:
            raise ValueError(
                f"rejection sampling failed to reach {spec.random_samples} points"
            )
        pts = {
            name: np.concatenate([pts[name], *accepted[name]]) for name in axis_names
        }

    if next(iter(pts.values())).size == 0:
        raise ValueError("sweep domain is empty")
    return pts


def _state_tables(n_states: int, seed: int) -> dict[str, np.ndarray]:
    """Per-state quantities every state-level family consumes.

    For each sampled 3-qubit pure state: the two eigenvalues of the pivot
    marginal (pivot = qubit 0) and the closed-form concurrences of the two
    pair marginals.  States go through the kernel as stacks of
    ``_STATE_BLOCK``, which keeps memory flat in the state count.
    """
    amplitudes = states.random_pure_states(3, n_states, seed)
    lam_hi = np.empty(n_states)
    lam_lo = np.empty(n_states)
    c_ab = np.empty(n_states)
    c_ac = np.empty(n_states)
    for start in range(0, n_states, _STATE_BLOCK):
        block = slice(start, start + _STATE_BLOCK)
        amps = amplitudes[block]
        rho = amps[:, :, None] * amps[:, None, :].conj()  # |psi><psi| per state
        spectrum = kernel.hermitian_eigenvalues(kernel.partial_trace(rho, 3, {0}))
        lam_hi[block] = np.maximum(spectrum[:, 0], 0.0)
        lam_lo[block] = np.maximum(spectrum[:, 1], 0.0)
        c_ab[block] = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 1}))
        c_ac[block] = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 2}))
    c2_full = 2.0 * (1.0 - lam_hi**2 - lam_lo**2)
    return {
        "index": np.arange(n_states, dtype=float),
        "lam_hi": lam_hi,
        "lam_lo": lam_lo,
        "c_ab": c_ab,
        "c_ac": c_ac,
        "c2_full": np.maximum(c2_full, 0.0),
    }


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
