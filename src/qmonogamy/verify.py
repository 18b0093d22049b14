"""Grid and randomized sweep engine for inequality certification.

Each inequality family is registered with its default grid axes, discrete
parameter lists, domain predicate and vectorized margin function
(LHS - RHS, signed, never clamped).  Sweeps are deterministic for a fixed
spec: points are evaluated in a fixed order and argmin ties resolve to the
lexicographically smallest point.
"""

from __future__ import annotations

import dataclasses
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
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.random_samples < 0:
            raise ValueError(f"random_samples must be >= 0, got {self.random_samples}")
        for name, lo, hi, steps in self.grid:
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
    when no margin is finite.  ``nonfinite`` counts the NaN or infinite
    margins (overflow in the bound arithmetic); they are neither minima nor
    violations.
    """

    family: str
    points_checked: int
    min_margin: float | None
    argmin: tuple[float, ...] | None
    violations: list[tuple[tuple[float, ...], float]]
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
                "nonfinite": self.nonfinite,
            }
        )


# ---------------------------------------------------------------------------
# Margin functions (vectorized over points for one parameter combination)
# ---------------------------------------------------------------------------


def _hypot_clamped(x, y):
    return np.minimum(1.0, np.sqrt(x * x + y * y))


def _margin_power_chain(pts, combo):
    lhs, tight, loose, naive = bounds.power_chain(pts["x"], pts["mu"])
    return np.minimum(np.minimum(lhs - tight, tight - loose), loose - naive)


def _margin_gq_super(pts, combo):
    q = combo["q"]
    x, y = pts["x"], pts["y"]
    return measures.g_q(x * x + y * y, q) - measures.g_q(x * x, q) - measures.g_q(y * y, q)


def _margin_f_add(pts, combo):
    a = combo["alpha"]
    x, y = pts["x"], pts["y"]
    return measures.f_alpha(_hypot_clamped(x, y), a) - measures.f_alpha(x, a) - measures.f_alpha(y, a)


def _margin_f_sq_add(pts, combo):
    a = combo["alpha"]
    x, y = pts["x"], pts["y"]
    fz = measures.f_alpha(_hypot_clamped(x, y), a)
    fx = measures.f_alpha(x, a)
    fy = measures.f_alpha(y, a)
    return fz * fz - fx * fx - fy * fy


def _margin_gq_pair(pts, combo):
    q, mu = combo["q"], combo["mu"]
    x, y = pts["x"], pts["y"]
    lhs = measures.g_q(x * x + y * y, q) ** mu
    rhs = bounds.pair_bound_new(
        measures.g_q(x * x, q), measures.g_q(y * y, q), bounds.PowerParam(mu)
    )
    return lhs - rhs


def _margin_f_pair(pts, combo):
    a, mu = combo["alpha"], combo["mu"]
    x, y = pts["x"], pts["y"]
    lhs = measures.f_alpha(_hypot_clamped(x, y), a) ** mu
    rhs = bounds.pair_bound_new(
        measures.f_alpha(x, a), measures.f_alpha(y, a), bounds.PowerParam(mu)
    )
    return lhs - rhs


def _margin_f_sq_pair(pts, combo):
    a, gamma = combo["alpha"], combo["gamma"]
    x, y = pts["x"], pts["y"]
    p = bounds.PowerParam.from_gamma(gamma)
    lhs = measures.f_alpha(_hypot_clamped(x, y), a) ** gamma
    rhs = bounds.pair_bound_new(
        measures.f_alpha(x, a), measures.f_alpha(y, a), p, "squared"
    )
    return lhs - rhs


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


def _scan(margins: np.ndarray, point_of, tolerance: float):
    """Min finite margin, its lexicographically smallest point, violations
    and the number of non-finite margins.

    With no finite margin the minimum is inf and the point None.
    """
    finite = np.isfinite(margins)
    nonfinite = margins.size - int(np.count_nonzero(finite))
    if nonfinite:
        margins = np.where(finite, margins, math.inf)
    local_min = float(np.min(margins))
    best_point = None
    if local_min < math.inf:
        idxs = np.flatnonzero(margins == local_min)
        best_point = min(point_of(int(i)) for i in idxs)
    violations = [
        (point_of(int(i)), float(margins[i]))
        for i in np.flatnonzero(margins < -tolerance)
    ]
    return local_min, best_point, violations, nonfinite


def _merge(state, local_min, point, violations, nonfinite):
    min_margin, argmin, all_violations, all_nonfinite = state
    all_violations.extend(violations)
    if point is not None and (
        local_min < min_margin or (local_min == min_margin and point < argmin)
    ):
        min_margin, argmin = local_min, point
    return min_margin, argmin, all_violations, all_nonfinite + nonfinite


def _grid_points(fam: Family, spec: SweepSpec) -> dict[str, np.ndarray]:
    """Grid mesh points inside the family's domain, then the rejection samples."""
    if not spec.grid:
        raise ValueError(f"family {fam.name!r} needs grid axes")
    axis_names = [name for name, *_ in spec.grid]
    axis_values = [np.linspace(lo, hi, steps) for _, lo, hi, steps in spec.grid]
    mesh = np.meshgrid(*axis_values, indexing="ij")
    pts = {name: grid.ravel() for name, grid in zip(axis_names, mesh)}
    mask = fam.domain(pts)
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
    pair marginals.
    """
    lam_hi = np.empty(n_states)
    lam_lo = np.empty(n_states)
    c_ab = np.empty(n_states)
    c_ac = np.empty(n_states)
    for i, state in enumerate(states.random_pure_states(3, n_states, seed)):
        rho = states.density(state)
        rho_a = kernel.partial_trace(rho, 3, {0})
        spectrum = kernel.hermitian_eigenvalues(rho_a)
        lam_hi[i] = max(spectrum[0], 0.0)
        lam_lo[i] = max(spectrum[1], 0.0)
        c_ab[i] = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 1}))
        c_ac[i] = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 2}))
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
    """
    fam = family_of(spec.family)
    _validate_against_gates(fam, spec)
    if fam.kind == "grid":
        pts = _grid_points(fam, spec)
        coordinates = [name for name, *_ in spec.grid]
    else:
        pts = _state_tables(spec.random_samples, spec.seed)
        coordinates = ["index"]

    state = (math.inf, None, [], 0)
    checked = 0
    for combo in _combos(spec):
        # Overflow in the bound arithmetic surfaces as non-finite margins,
        # which the scan counts and the report carries.
        with np.errstate(over="ignore", invalid="ignore"):
            margins = np.asarray(fam.margin(pts, combo), dtype=float)
        checked += margins.size
        combo_tail = tuple(combo[name] for name, _ in spec.params)

        def point_of(i, tail=combo_tail):
            return tuple(float(pts[name][i]) for name in coordinates) + tail

        state = _merge(state, *_scan(margins, point_of, spec.tolerance))

    min_margin, argmin, violations, nonfinite = state
    return SweepReport(
        family=fam.name,
        points_checked=checked,
        min_margin=None if argmin is None else min_margin,
        argmin=argmin,
        violations=violations,
        nonfinite=nonfinite,
        spec=spec,
    )


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate a grid family's margin at every grid point and random sample.

    Deterministic for a fixed spec; reports the signed minimum margin, its
    location, and every point whose margin falls below -tolerance.
    """
    fam = family_of(spec.family)
    if fam.kind != "grid":
        raise ValueError(
            f"family {fam.name!r} is state-level; use run_state_check"
        )
    return _sweep(spec)


def run_state_check(
    family: str,
    n_states: int = DEFAULT_STATES,
    seed: int = 0,
    params=None,
    tolerance: float = STATE_TOLERANCE,
) -> SweepReport:
    """Monogamy margins over seeded random 3-qubit pure states.

    The two pair marginals are ordered by value before the tightened pair
    bound is applied, matching the two branches of the N=3 relations.
    """
    fam = family_of(family)
    if fam.kind != "state":
        raise ValueError(f"family {fam.name!r} is grid-level; use run_sweep")
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if params is None:
        param_spec = fam.params
    elif isinstance(params, dict):
        param_spec = tuple(
            (name, tuple(float(v) for v in params.get(name, dict(fam.params)[name])))
            for name, _ in fam.params
        )
    else:
        param_spec = tuple((name, tuple(values)) for name, values in params)
    spec = SweepSpec(
        family=fam.name,
        grid=(),
        params=param_spec,
        random_samples=n_states,
        seed=seed,
        tolerance=tolerance,
    )
    return _sweep(spec)


def refine_near_equality(report: SweepReport, factor: int) -> SweepReport:
    """Re-sweep a factor-times finer grid around the argmin.

    Parameters are pinned at the argmin combination.  For state-level
    reports the state count is multiplied instead (the sample stream is
    shared, so the original argmin state is always re-examined).
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    spec = report.spec
    if spec is None:
        raise ValueError("report does not carry its spec; cannot refine")
    if report.argmin is None:
        raise ValueError("report has no finite margin; cannot refine")
    fam = family_of(spec.family)
    offset = len(report.argmin) - len(spec.params)
    pinned = tuple(
        (name, (float(report.argmin[offset + j]),))
        for j, (name, _) in enumerate(spec.params)
    )
    new_grid = []
    for j, (name, lo, hi, steps) in enumerate(spec.grid):
        center = float(report.argmin[j])
        width = (hi - lo) / (steps - 1)
        new_grid.append(
            (name, max(lo, center - width), min(hi, center + width), 2 * factor + 1)
        )
    samples = spec.random_samples * factor if fam.kind == "state" else 0
    refined = dataclasses.replace(
        spec, grid=tuple(new_grid), params=pinned, random_samples=samples
    )
    return _sweep(refined)
