"""Grid and randomized sweep engine for inequality certification.

Each inequality family is registered with its default grid axes, discrete
parameter lists, domain predicate and vectorized margin (LHS - RHS, signed,
never clamped).  Sweeps are deterministic for a fixed spec: points are
evaluated in a fixed order, argmin ties resolve to the lexicographically
smallest point, and violations tied at the list's cap resolve to the
earliest in sweep order (combo, then point).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, kernel, measures, states

GRID_TOLERANCE = 1e-12
_DISC_SLACK = 1e-12  # roundoff ``_domain_disc`` admits past the circle
STATE_TOLERANCE = 1e-9
DEFAULT_RANDOM_SAMPLES = 500
DEFAULT_STATES = 1000
# Violating points a report lists (the worst ones); the rest are only counted.
MAX_VIOLATIONS = 100
# States per stack in ``_state_tables``: enough that each numpy call's fixed
# cost is small beside its per-state work, few enough that the intermediates
# stay in cache and add little to a sweep's peak memory.
_STATE_BLOCK = 4096
# The pairs (i, j), i < j, of the four columns of a pivot cut's amplitude
# matrix: its 2 x 2 minors (``_state_tables``).
_UPPER = np.triu_indices(4, 1)
# Points per block in ``_sweep``: a block's columns and one margin's
# temporaries stay in cache while every combo runs over it.
_SWEEP_BLOCK = 16384
# Rows of one sweep's workspace (``_Workspace``), each as long as its longest
# block: ten for a grid block (two axis positions, the joint spectrum, its
# powers, the y entropy, three margin rows), six for a full mesh's tile
# (``bounds.power_chain``), nine for a state block (x and y for positions).
_WORKSPACE_ROWS = 10
# Points a sweep takes at most (``SweepSpec``): a grid's mesh points plus
# its samples, or a state family's states.  More would run for days, and the
# cap keeps every axis table and state draw far below the largest array size.
_MAX_POINTS = 10**12


@dataclass(frozen=True)
class SweepSpec:
    """Grid, parameter lists, sample count, seed and tolerance of one sweep.

    Checked once, when it is made, so that every spec can run: its own
    fields, then its family's names, gates (``Family.gates``), powers
    (``bounds.check_power``) and index, then its size: a state family
    needs at least one state, and no sweep takes more than
    ``_MAX_POINTS`` points (``size`` words them).  Last, a grid family's
    box must meet its domain (``_box_meets_domain``); still, an unsampled
    box whose mesh misses it, or a sampled one whose overlap has a positive
    but tiny area, stops at run time.  Value lists become tuples, so a list
    or an array gives the same, hashable spec.
    """

    family: str
    grid: tuple[tuple[str, float, float, int], ...] = ()
    params: tuple[tuple[str, tuple[float, ...]], ...] = ()
    random_samples: int = 0
    seed: int = 0
    tolerance: float = GRID_TOLERANCE

    def __post_init__(self):
        # A NaN or infinite tolerance would let no margin count as a violation.
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        # Counts are stored as ints: a boolean or a fraction fails here, by
        # name, and not deep in the point source.
        for count in ("random_samples", "seed"):
            object.__setattr__(self, count, kernel.as_integer(getattr(self, count), count, least=0))
        grid = tuple([(name, lo, hi, kernel.as_integer(steps, f"axis {name!r} steps"))
                      for name, lo, hi, steps in self.grid])
        object.__setattr__(self, "grid", grid)
        for name, lo, hi, steps in grid:
            # Every comparison with NaN is False, so the checks below and the
            # gates would let a NaN bound through.
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {name!r} bounds must be finite, got [{lo}, {hi}]")
            if steps < 2:
                raise ValueError(f"axis {name!r} needs >= 2 steps, got {steps}")
            if hi < lo:
                raise ValueError(f"axis {name!r} has max {hi} < min {lo}")
        params = tuple([(name, tuple(values)) for name, values in self.params])
        object.__setattr__(self, "params", params)
        for name, values in params:
            if not values:
                raise ValueError(f"parameter {name!r} has no values")
            # A repeated value would check, and report, its points twice.
            if len(set(values)) < len(values):
                raise ValueError(f"parameter {name!r} repeats a value, got {values}")

        fam = family_of(self.family)
        for kind, expected, given in (("axes", fam.axes, grid), ("parameters", fam.params, params)):
            expected = tuple([name for name, *_ in expected])
            given = tuple([name for name, *_ in given])
            if sorted(given) != sorted(expected):
                raise ValueError(f"family {fam.name!r} takes {kind} {expected}, got {given}")
        gates = {name: measures.Window(*window) for name, *window in fam.gates}
        ranges = [(name, (lo, hi)) for name, lo, hi, _steps in grid]
        for k, (name, values) in enumerate(ranges + list(params)):
            # Axis bounds are finite (above); inf passes an open-ended gate.
            if k >= len(ranges) and not all(map(math.isfinite, values)):
                raise ValueError(f"{name!r} values must be finite, got {values}")
            lo, hi, hi_open = window = gates[name]
            if not all(window.contains(value) for value in values):
                if hi == math.inf:
                    raise ValueError(f"{name!r} values must be >= {lo}")
                edge = ")" if hi_open else "]"
                raise ValueError(f"{name!r} values must lie in [{lo}, {hi}{edge}")
            if name in _POWERS:
                # A gate admits roundoff below its edge; the power's own
                # floor is exact.
                for value in values:
                    bounds.check_power(value, _POWERS[name])
        if fam.regime is not None:
            # A regime's window may hold an index its measure refuses (alpha = 1).
            measure = measures.MEASURES[bounds.REGIMES[fam.regime].measure]
            for value in dict(params)[measure.index]:
                measure.check(value)
        if fam.kind == "state" and self.random_samples == 0:
            raise ValueError(f"family {fam.name!r} needs at least one state, got 0")
        points = math.prod(steps for *_, steps in grid) if grid else 0
        if points + self.random_samples > _MAX_POINTS:
            raise ValueError(f"a sweep of {self.size} is past the cap of {_MAX_POINTS} points")
        # A box that misses the domain leaves no mesh point and no sample;
        # the messages are the ones ``_grid_points`` would stop with.
        if fam.kind == "grid" and not _box_meets_domain(fam, grid, self.random_samples > 0):
            if self.random_samples:
                raise ValueError(f"rejection sampling failed to reach {self.random_samples} points")
            raise ValueError("sweep domain is empty")

    @property
    def size(self) -> str:
        """The sweep's points in words: its mesh and any samples, or its states."""
        if not self.grid:
            return f"{self.random_samples} states"
        steps = [steps for *_, steps in self.grid]
        size = f"a {' x '.join(map(str, steps))} mesh ({math.prod(steps)} points)"
        return f"{size} and {self.random_samples} samples" if self.random_samples else size


@dataclass
class SweepReport:
    """Outcome of one sweep: evaluation count, worst margin and violations.

    ``min_margin`` and ``argmin`` cover the finite margins only and are None
    when no margin is finite.  ``violations`` holds at most
    ``MAX_VIOLATIONS`` of the worst violating points, worst first and equal
    margins in sweep order, and ``violations_total`` counts them all.
    ``nonfinite`` counts the NaN or infinite margins (overflow in the bound
    arithmetic); they are neither minima nor violations.
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
        return json.dumps({
            "family": self.family,
            "points": self.points_checked,
            "min_margin": self.min_margin,
            "argmin": None if self.argmin is None else list(self.argmin),
            "violations": [{"point": list(pt), "margin": m} for pt, m in self.violations],
            "violations_total": self.violations_total,
            "nonfinite": self.nonfinite,
        })


# ---------------------------------------------------------------------------
# Margin functions (vectorized over points for one parameter combination)
# ---------------------------------------------------------------------------


class _Workspace:
    """Working arrays of one sweep, all cut from one buffer that is
    allocated when the sweep starts and reused by every block and combo.

    ``take(name, shape, rows)`` is the array ``name``: the first
    ``prod(shape)`` entries of ``rows`` rows of the buffer, which the name
    holds for the whole sweep.  A block's array is rewritten by the next
    block; within a block, a name holds one value at a time.  The view of
    each name, shape and dtype is cut once; each take is a fresh view of
    it, so a flag set on one taken array (read-only, say) stays on it.
    """

    def __init__(self, rows: int, length: int):
        self.buffer = np.empty((rows, length))
        self.held = {}  # name -> its rows, flattened
        self.views = {}  # (name, shape, dtype) -> its array
        self.used = 0

    def take(self, name, shape, rows=1, dtype=float):
        key = (name, shape, dtype)
        view = self.views.get(key)
        if view is not None:
            return view.view()
        held = self.held.get(name)
        if held is None:
            if self.used + rows > len(self.buffer):
                raise RuntimeError(f"sweep workspace has no rows left for {name!r}")
            held = self.held[name] = self.buffer[self.used : self.used + rows].reshape(-1)
            self.used += rows
        # A shape larger than the rows fails to reshape.
        view = self.views[key] = held[: math.prod(shape)].view(dtype).reshape(shape)
        return view.view()


class _Block(dict):
    """Columns of one block of sweep points, and the sweep's workspace.

    A full grid mesh is walked as open-grid tiles: the first axis a
    ``(rows, 1)`` column, the second a ``(1, n)`` row, both views of the
    axis tables.  A block of any other grid holds, for each axis in
    ``axes``, the run of its table that the block's points use and each
    point's position in it; its column of that axis is gathered on first
    read.  Keeps the last result of each function ``_shared`` calls on it,
    so the combos of one block build its qubit spectra once for every ``q``
    or ``alpha``, and the combos that share a ``q`` or ``alpha``
    (consecutive in ``_combos``) convert the block once.
    """

    def __init__(self, columns, workspace, axes=()):
        super().__init__(columns)
        self.workspace = workspace
        self.axes = dict(axes)
        self.memo = {}

    def __missing__(self, name):
        values, position = self.axes[name]
        column = self[name] = values[position]
        return column


class _Coordinate:
    """One coordinate of a block's points, read only at the flat positions
    ``i`` that ``_scan`` reports: ``values[at(i)]``."""

    def __init__(self, values, at):
        self.values, self.at = values, at

    def __getitem__(self, i):
        return self.values[self.at(i)]


def _block_array(pts, name, shape, rows=1):
    """Array ``name`` of ``shape`` from the block's workspace
    (``_Workspace.take``); a plain dict of columns gets a fresh one."""
    if isinstance(pts, _Block):
        return pts.workspace.take(name, shape, rows)
    return np.empty(shape)


def _shared(pts, fn, *args):
    """``fn(pts, *args)``, reused from the block's memo when it holds
    ``fn``'s result for the same ``args``; a plain dict of columns computes
    it directly."""
    if not isinstance(pts, _Block):
        return fn(pts, *args)
    held = pts.memo.pop(fn, None)
    if held is None or held[0] != args:
        del held  # dropped before ``fn`` writes the next result, not after
        held = (args, fn(pts, *args))
    pts.memo[fn] = held
    return held[1]


def _axis_values(pts, name):
    """The values of axis ``name`` that the points use, and each point's
    position among them: a ragged grid block's run of the axis table
    (``_Block``), or else the points' own column (a tile's row or column)
    with position None."""
    if isinstance(pts, _Block) and name in pts.axes:
        return pts.axes[name]
    return pts[name], None


def _grid_spectra(pts, squared):
    """Qubit spectra of the squared concurrences x^2 + y^2 at each point,
    and of x^2 and y^2 at each axis value the points use (``squared``), or
    of min(1, hypot(x, y)), x and y; then the positions of the points among
    the x and the y values (``_axis_values``).  A state block's joint
    spectrum is its pivot cut's, ``(lam_hi, lam_lo)``: its C^2 is x^2 + y^2
    plus the three-tangle (CKW).

    x^2 and y^2 are squared once per axis value and gathered (or broadcast)
    to the points, into the rows of the joint spectrum, which
    ``qubit_spectrum`` reads before it writes them.  The per-axis spectra
    are fresh arrays: an axis's run can be longer than a block."""
    (x, x_at), (y, y_at) = (_axis_values(pts, name) for name in ("x", "y"))
    squares = [x * x, y * y]
    shape = np.broadcast(x, y).shape if x_at is None else x_at.shape
    spectrum = _block_array(pts, "joint spectrum", (2, *shape), rows=2)
    if "lam_hi" in pts:
        spectrum[0], spectrum[1] = pts["lam_hi"], pts["lam_lo"]
        joint = measures.rows_last(spectrum)
    else:
        joint = _at_points(squares[0], x_at, spectrum[1])
        joint += _at_points(squares[1], y_at, spectrum[0])
        if not squared:
            np.sqrt(joint, out=joint)
            np.minimum(1.0, joint, out=joint)
        joint = measures.qubit_spectrum(joint, squared=squared, out=spectrum)
    spectra = [joint]
    for values, square in zip((x, y), squares):
        spectra.append(measures.qubit_spectrum(square if squared else values, squared=squared))
    return spectra, [x_at, y_at]


def _at_points(values, position, out):
    """``values`` at each point, into ``out``: gathered by ``position``, or
    broadcast when it is None."""
    if position is None:
        np.copyto(out, values)
        return out
    return values.take(position, out=out, mode="clip")


def _grid_triple(pts, measure, value):
    """g_q of x^2 + y^2, x^2 and y^2 (``measure`` "tsallis"), or f_alpha of
    min(1, hypot(x, y)), x and y (``measure`` "renyi"), at index ``value``.
    The entropy is the row's formula, looked up by name on ``measures``;
    the x and y terms are converted once per axis value and gathered to
    the points, the x term into the joint powers' second row, which holds
    nothing once the joint entropy is summed.  A state block's triple is
    its pivot cut's entropy, then its grid twin's x and y terms, larger
    first since the conversion increases (``_blocks``)."""
    row = measures.MEASURES[measure]
    (joint, *axes), positions = _shared(pts, _grid_spectra, row.squared)
    of_spectrum = getattr(measures, row.of_spectrum)
    powers = _block_array(pts, "joint powers", (2, *joint.shape[:-1]), rows=2)
    terms = [of_spectrum(joint, value, out=measures.rows_last(powers))]
    for name, spectrum, position in zip(("x", "y"), axes, positions):
        per_value = of_spectrum(spectrum, value)
        if position is not None:
            out = powers[1] if name == "x" else _block_array(pts, "y entropy", position.shape)
            per_value = _at_points(per_value, position, out)
        terms.append(per_value)
    return tuple(terms)


def _ordered_triple(pts, measure, value):
    """``_grid_triple`` once its pair has passed ``bounds._check_ordered``,
    which therefore runs once per block and index, not once per combo; the
    powered margins read the triple only through it."""
    triple = _shared(pts, _grid_triple, measure, value)
    bounds._check_ordered(*triple[1:])
    return triple


def _margin_power_chain(pts, combo):
    x, mu = pts["x"], pts["mu"]
    rows = _block_array(pts, "power chain", (6, *np.broadcast(x, mu).shape), rows=6)
    lhs, tight, loose, naive = bounds.power_chain(x, mu, out=rows)
    # The three gaps, each into the array of its left side.
    lhs -= tight
    tight -= loose
    loose -= naive
    np.minimum(lhs, tight, out=lhs)
    return np.minimum(lhs, loose, out=lhs)


# The relation rows' builders take the points, the combo, the family's
# ``bounds.Regime`` and its exponent's name.  An lhs is built into the margin
# row after the first term, which may use it; memoised triples stay unwritten.


def _degree_power(values, k, pts, name):
    """values^k into the block's array ``name``; at k = 1, values itself."""
    return values if k == 1 else np.power(values, k, out=_block_array(pts, name, values.shape))


def _sum_lhs(pts, combo, regime, power):
    z, _, _ = _shared(pts, _grid_triple, regime.measure, combo[regime.index])
    return _degree_power(z, regime.degree, pts, "margin")


def _sum_terms(pts, combo, regime, power):
    for term in _shared(pts, _grid_triple, regime.measure, combo[regime.index])[1:]:
        yield _degree_power(term, regime.degree, pts, "term")


def _powered_lhs(pts, combo, regime, power):
    full, _, _ = _shared(pts, _ordered_triple, regime.measure, combo[regime.index])
    return np.power(full, combo[power], out=_block_array(pts, "margin", (3, *full.shape), 3)[0])


def _tail_terms(pts, combo, regime, power):
    full, e1, e2 = _shared(pts, _ordered_triple, regime.measure, combo[regime.index])
    rows, mu = _block_array(pts, "margin", (3, *full.shape), rows=3), regime.power(combo[power])
    # The tail into row 1, its temporaries into rows 0 (the lhs's) and 2.
    yield from bounds._tail_core(e1, e2, mu, ("new",), regime.coupling, (rows[1], rows[0], rows[2]))


def _ckw_lhs(pts, combo, regime, power):
    return pts["c2_full"]


def _ckw_terms(pts, combo, regime, power):
    for name in ("c_ab", "c_ac"):
        yield np.square(pts[name], out=_block_array(pts, "term", pts[name].shape))


# ---------------------------------------------------------------------------
# Domain predicates and parameter gates
# ---------------------------------------------------------------------------


def _domain_all(pts):
    return np.ones_like(next(iter(pts.values())), dtype=bool)


def _domain_disc(pts):
    x, y = pts["x"], pts["y"]
    return x * x + y * y <= 1.0 + _DISC_SLACK


def _domain_disc_ordered(pts):
    return _domain_disc(pts) & (pts["x"] >= pts["y"])


def _box_meets_domain(fam, grid, sampled: bool) -> bool:
    """Whether the box of a grid family's axis bounds meets its domain.

    Lowering y keeps a point of the disc or of the ordered disc inside, so
    a box meets either iff its bottom edge does: the disc at the corner
    (x_lo, y_lo), the ordered disc at the edge's point nearest the diagonal
    x = y, each tested with the domain itself.  A ``sampled`` box with an
    axis wider than the slack must also meet it where the sampler can hit
    it: those axes open, x > y, and no slack on the circle when both are
    wide.  Any other domain keeps every point.
    """
    if fam.domain not in (_domain_disc, _domain_disc_ordered):
        return True
    (_, x_lo, x_hi, _), (_, y_lo, y_hi, _) = sorted(grid)  # x, then y
    wide = [hi - lo > _DISC_SLACK for lo, hi in ((x_lo, x_hi), (y_lo, y_hi))]
    if sampled and any(wide):
        x = max(x_lo, y_lo) if fam.domain is _domain_disc_ordered else x_lo
        inside = x * x + y_lo * y_lo < 1.0 + (0.0 if all(wide) else _DISC_SLACK)
        return inside and (fam.domain is _domain_disc or x_hi > y_lo)
    return any(fam.domain({"x": x, "y": y_lo}) for x in (x_lo, min(max(y_lo, x_lo), x_hi)))


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
# The name each power takes in ``bounds.check_power``: eta is the Tsallis mu.
_POWERS = {"mu": "mu", "eta": "mu", "gamma": "gamma"}


@dataclass(frozen=True)
class Family:
    """One inequality family of the registry.

    ``domain`` takes a dict of columns that broadcast together (a mesh's
    open-grid axis views, or equal-length sample columns) and returns a
    boolean mask that broadcasts to their shape (``_domain_all``'s to any).
    ``margin`` takes a dict of equal-length point columns, a state table's
    with its grid twin's ``x`` and ``y`` (``_blocks``), and one combo.
    Every family but ``lemma1`` takes both from its relation row
    (``_RELATIONS``).  ``regime`` names its ``bounds.REGIMES`` row, if any.
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
        return tuple([(name, *windows[name]) for name in names])


# A kind's default axes.
_KINDS = {"grid": (("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60)), "state": ()}


@dataclass(frozen=True)
class Relation:
    """A relation row, lhs >= the sum of its checked bound's terms: the
    builders of the lhs and of the terms (yielded one at a time, each read
    before the next reuses its rows), and the relation's grid domain."""

    lhs: callable
    terms: callable
    domain: callable

    def margin(self, pts, combo, regime=None, power=None):
        """The one margin rule: the lhs minus the terms, left to right."""
        terms = self.terms(pts, combo, regime, power)
        first = next(terms)
        lhs = self.lhs(pts, combo, regime, power)
        gap = np.subtract(lhs, first, out=_block_array(pts, "margin", lhs.shape))
        for term in terms:
            gap -= term
        return gap


# The relation rows.  A grid point (x, y) is a pair of concurrences
# (C_ab, C_ac), which CKW keeps in the unit disc.
_RELATIONS = {
    # z^k >= x^k + y^k of the block's triple (z, x, y), with k the regime's
    # degree: the superadditivity lemmas.
    "additive": Relation(_sum_lhs, _sum_terms, _domain_disc),
    # E^p >= Q_new(e1, e2), the new pair tail of the block's ordered triple
    # (E, e1 >= e2) under the regime's coupling, so x >= y on a grid.
    "powered": Relation(_powered_lhs, _tail_terms, _domain_disc_ordered),
    # C^2(A|BC) >= C_AB^2 + C_AC^2 on a state table's columns.
    "ckw": Relation(_ckw_lhs, _ckw_terms, _domain_all),
}


def _regime_family(name, kind, relation, regime, index_values, **exponent):
    """The family that checks ``regime``'s ``relation`` (``"additive"`` or
    ``"powered"``) on the points of its ``kind`` (``"grid"`` or ``"state"``),
    with the row's margin and grid domain.  Its parameters are the regime's
    index, with ``index_values``, then a powered relation's named exponent."""
    row, rel = bounds.REGIMES[regime], _RELATIONS[relation]
    margin = functools.partial(rel.margin, regime=row, power=next(iter(exponent), None))
    params = ((row.index, index_values), *exponent.items())
    domain = rel.domain if kind == "grid" else _domain_all
    return Family(name, kind, _KINDS[kind], params, margin, domain, regime)


_MU = (1.0, 1.5, 2.0, 3.0)
_GAMMA = (2.0, 3.0, 4.0)
_WINDOW_ALPHA = (measures.RENYI_ANALYTIC_MIN, 1.2, 1.5, 1.9)
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
        Family("ckw", "state", (), (), _RELATIONS["ckw"].margin, _RELATIONS["ckw"].domain),
        _regime_family("remark1", "state", "powered", "tsallis_q2to3", (2.0, 2.5, 3.0), eta=_MU),
        _regime_family("remark2", "state", "powered", "renyi_ge2", (2.0, 3.0), mu=_MU),
        _regime_family(
            "remark3", "state", "powered", "renyi_window", (_WINDOW_ALPHA[0], 1.5), gamma=_GAMMA
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
    base = dict(family=fam.name, grid=fam.axes, params=fam.params, seed=0,
                random_samples=DEFAULT_RANDOM_SAMPLES if grid else DEFAULT_STATES,
                tolerance=GRID_TOLERANCE if grid else STATE_TOLERANCE)
    return SweepSpec(**{**base, **overrides})


def _combos(spec: SweepSpec):
    """One dict per parameter combination; with no parameters, one ``{}``."""
    names = [name for name, _ in spec.params]
    for combo in itertools.product(*(values for _, values in spec.params)):
        yield dict(zip(names, combo))


def _scan(margins: np.ndarray, columns, tail: tuple, tolerance: float):
    """Min finite margin, its lexicographically smallest point, the worst
    violations (at most ``MAX_VIOLATIONS``, worst first), the number of
    violations and the number of non-finite margins.

    ``margins`` may have any shape; margin ``i``, its flat position in C
    order, is at point ``(*(col[i] for col in columns), *tail)``.  With no
    finite margin the minimum is inf and the point None.

    The minimum and the maximum come first: when both are finite, so is
    every margin (a NaN makes both NaN), and when the minimum is at least
    ``-tolerance`` no margin violates, so a typical block takes neither
    the non-finite nor the violation pass.
    """

    def point_of(i):
        return tuple([float(col[i]) for col in columns]) + tail

    margins = margins.reshape(-1)

    local_min, nonfinite = margins.min(), 0
    if not (math.isfinite(local_min) and math.isfinite(margins.max())):
        finite = np.isfinite(margins)
        nonfinite = margins.size - int(np.count_nonzero(finite))
        margins = np.where(finite, margins, math.inf)
        local_min = np.min(margins)
    local_min = float(local_min)
    best_point = None
    if local_min < math.inf:
        idxs = (margins == local_min).nonzero()[0]
        if idxs.size > 1:
            # lexsort's last key is its primary one; it is stable, so equal
            # points keep the first position.
            idxs = idxs[np.lexsort([col[idxs] for col in reversed(columns)])]
        best_point = point_of(int(idxs[0]))
    if local_min >= -tolerance:
        return local_min, best_point, [], 0, nonfinite
    bad = (margins < -tolerance).nonzero()[0]
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


def _grid_points(fam: Family, spec: SweepSpec) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The axis tables and the mesh's row runs of the family's domain.

    A table holds the axis's ``np.linspace`` values, then its coordinate of
    each rejection sample.  ``runs`` holds one ``(start, stop)`` column per
    mesh row, which keeps the second axis's entries ``start:stop`` (``(0, 0)``
    if none); the domain runs on about one sweep block of mesh rows at a time.
    Every registered domain is monotone in each axis under IEEE rounding, so
    it keeps one run a row; a row that keeps more raises ValueError.
    """
    axis_names = [name for name, *_ in spec.grid]
    shape = tuple([steps for *_, steps in spec.grid])
    tables = [np.empty(steps + spec.random_samples) for steps in shape]
    for table, (_, lo, hi, steps) in zip(tables, spec.grid):
        table[:steps] = np.linspace(lo, hi, steps)
    x, y = np.ix_(*(table[:steps] for table, steps in zip(tables, shape)))
    runs = np.empty((2, shape[0]), np.intp)
    rows = max(1, _SWEEP_BLOCK // shape[1])
    for top in range(0, shape[0], rows):
        kept = fam.domain(dict(zip(axis_names, (x[top : top + rows], y))))
        run = runs[:, top : top + rows]
        if kept.all():  # before broadcasting: ``_domain_all``'s spans no axis
            run[0], run[1] = 0, shape[1]
            continue
        kept = np.broadcast_to(kept, (run.shape[1], shape[1]))
        # A row's first kept entry (0 when it keeps none) and its count; the
        # run they make must end at its last kept entry (the reversed argmax).
        start, count = kept.argmax(axis=1), np.count_nonzero(kept, axis=1)
        if np.any((start + count + kept[:, ::-1].argmax(axis=1) != shape[1]) & (count > 0)):
            raise ValueError(
                f"family {fam.name!r} keeps more than one run of {axis_names[1]!r} on a mesh row"
            )
        run[0], run[1] = start, start + count
    if spec.random_samples == 0 and not np.any(runs[1] > runs[0]):
        raise ValueError("sweep domain is empty")

    if spec.random_samples:
        rng = np.random.default_rng(spec.seed)
        lows = np.array([lo for _, lo, _, _ in spec.grid])
        highs = np.array([hi for _, _, hi, _ in spec.grid])
        drawn = 0
        for _ in range(1000):
            remaining = spec.random_samples - drawn
            if remaining <= 0:
                break
            draw = rng.random((remaining, len(axis_names))) * (highs - lows) + lows
            cand = {name: draw[:, j] for j, name in enumerate(axis_names)}
            ok = fam.domain(cand)
            accepted = int(np.count_nonzero(ok))
            for table, steps, name in zip(tables, shape, axis_names):
                table[steps + drawn : steps + drawn + accepted] = cand[name][ok]
            drawn += accepted
        if drawn < spec.random_samples:
            raise ValueError(
                f"rejection sampling failed to reach {spec.random_samples} points"
            )
    return dict(zip(axis_names, tables)), runs


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
    # Not ``*``, which numpy may compute in place, rounding differently.
    q = np.multiply(t00, t01.conj()) + np.multiply(t01, t11.conj())
    gap = np.sqrt((p - r) ** 2 + 4.0 * (q.real**2 + q.imag**2))
    total = np.sqrt(p + r + 2.0 * np.abs(t00 * t11 - t01 * t01))
    return np.divide(gap, total, out=np.zeros_like(gap), where=total > 0.0)


def _state_tables(n_states: int, seed: int, start: int = 0) -> dict[str, np.ndarray]:
    """Per-state quantities every state-level family consumes.

    For rows ``start .. start + n_states`` of the seed's 3-qubit pure-state
    stream: the spectrum and the squared concurrence of the pivot cut (pivot
    = qubit 0), and the concurrences of the two pair marginals, all in closed
    form from the amplitudes, with no density matrix and no eigensolver.

    With M the 2 x 4 amplitude matrix of qubit 0 against qubits 1-2 and
    rho_A = M M^dagger, C^2(A|BC) = 4 det rho_A = 4 sum of
    |M_0i M_1j - M_0j M_1i|^2 over i < j (Cauchy-Binet), clipped at 1.  The
    eigenvalue gap sqrt(1 - C^2) is taken as the sum of squares
    sqrt((rho_00 - rho_11)^2 + 4 |rho_01|^2), which keeps its accuracy near
    a maximally entangled cut, where 1 - C^2 cancels.  Then
    lam_lo = C^2 / (2 (1 + gap)) and lam_hi = 1 - lam_lo, both accurate to
    roundoff.  The pairs are one ``_pair_concurrence`` of the AB and AC
    amplitude blocks, stacked.  The states are drawn and reduced
    ``_STATE_BLOCK`` at a time (``states.random_pure_states``' ``start``),
    so no more than one block of amplitudes is held at once.
    """
    i, j = _UPPER
    parts = []
    for offset in range(start, start + n_states, _STATE_BLOCK):
        count = min(_STATE_BLOCK, start + n_states - offset)
        amps = states.random_pure_states(3, count, seed, offset).reshape(-1, 2, 2, 2)
        pivot = amps.reshape(-1, 2, 4)
        row0, row1 = pivot[:, 0], pivot[:, 1]
        minors = row0[:, i] * row1[:, j] - row0[:, j] * row1[:, i]
        c2 = np.minimum(4.0 * np.vecdot(minors, minors).real, 1.0)
        off = np.vecdot(row1, row0)
        gap = np.sqrt(
            (np.vecdot(row0, row0).real - np.vecdot(row1, row1).real) ** 2
            + 4.0 * (off.real**2 + off.imag**2)
        )
        lam_lo = c2 / (2.0 * (1.0 + gap))
        spectrum = kernel.clamp_spectrum(np.stack([1.0 - lam_lo, lam_lo], axis=-1))
        c2_full = measures.squared_concurrence_of_spectrum(spectrum)
        pairs = np.concatenate([amps.reshape(-1, 4, 2), amps.swapaxes(2, 3).reshape(-1, 4, 2)])
        c_pairs = _pair_concurrence(pairs).reshape(2, -1)
        parts.append(np.vstack([spectrum.T, c_pairs, c2_full, np.arange(offset, offset + count)]))
    # One draw is its own table.  More are joined once the draws are done: a
    # table allocated first lies below their temporaries, and glibc hands
    # those back to the OS at every call.
    table = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return dict(zip(("lam_hi", "lam_lo", "c_ab", "c_ac", "c2_full", "index"), table))


def _blocks(fam: Family, spec: SweepSpec):
    """The sweep's points, in sweep order, as ``(block, coordinates)``: at
    most ``_SWEEP_BLOCK`` points a ``_Block``, all sharing one workspace
    (``_Workspace``), and the columns ``_scan`` reports them by: a grid mesh
    that keeps every row whole as open-grid tiles (``_tile_blocks``), any
    other as its row runs (``_run_blocks``), the states as one fresh
    ``_state_tables`` table a block, with each state's grid twin
    (``_grid_triple``) as its ``x`` and ``y``.
    """
    if fam.kind == "state":
        n_states = spec.random_samples
        workspace = _Workspace(_WORKSPACE_ROWS, min(_SWEEP_BLOCK, n_states))
        for start in range(0, n_states, _SWEEP_BLOCK):
            block = _state_tables(min(_SWEEP_BLOCK, n_states - start), spec.seed, start)
            # The grid twin's point: the larger and the smaller pair concurrence.
            c_ab, c_ac, shape = block["c_ab"], block["c_ac"], block["index"].shape
            block["x"] = np.maximum(c_ab, c_ac, out=workspace.take("x", shape))
            block["y"] = np.minimum(c_ab, c_ac, out=workspace.take("y", shape))
            yield _Block(block, workspace), [block["index"]]
        return

    tables, (start, stop) = _grid_points(fam, spec)
    n_points = int(np.sum(stop - start)) + spec.random_samples
    workspace = _Workspace(_WORKSPACE_ROWS, min(_SWEEP_BLOCK, n_points))
    walk = _tile_blocks if np.all(start == 0) and np.all(stop == spec.grid[1][3]) else _run_blocks
    yield from walk(spec, tables, (start, stop), workspace)


def _tile_blocks(spec: SweepSpec, tables, runs, workspace):
    """A full mesh as open-grid tiles, ``(rows, 1)`` views of the first axis
    against ``(1, n)`` views of the second, a row longer than
    ``_SWEEP_BLOCK`` split into chunks; then the samples, as flat blocks."""
    names, steps = list(tables), [steps for *_, steps in spec.grid]
    n_rows, n_cols = steps
    first, second = (table[:n] for table, n in zip(tables.values(), steps))
    rows, width = max(1, _SWEEP_BLOCK // n_cols), min(n_cols, _SWEEP_BLOCK)
    for top in range(0, n_rows, rows):
        column = first[top : top + rows, None]
        for left in range(0, n_cols, width):
            row = second[None, left : left + width]
            # Point i of a (rows, n) tile is at row i // n and column i % n.
            n = row.shape[1]
            coordinates = [
                _Coordinate(column[:, 0], lambda i, n=n: i // n),
                _Coordinate(row[0], lambda i, n=n: i % n),
            ]
            yield _Block(dict(zip(names, (column, row))), workspace), coordinates
    for start in range(0, spec.random_samples, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, spec.random_samples)
        columns = [table[n + start : n + stop] for table, n in zip(tables.values(), steps)]
        yield _Block(dict(zip(names, columns)), workspace), columns


def _run_blocks(spec: SweepSpec, tables, runs, workspace):
    """The mesh's row runs, then the samples, as flat blocks in C order;
    sample ``k`` is one more row, the first axis's entry ``n_rows + k``,
    whose run is the second axis's entry ``n_cols + k``.  A block holds,
    for each axis, the run of its table that its points use and, in a
    workspace row, each point's position in it: the sum of the steps from
    point to point, (0, 1) in a mesh row, (1, 1) between samples, and a
    jump into each row."""
    (x_table, y_table), (n_rows, n_cols) = tables.values(), (n for *_, n in spec.grid)
    start, stop = runs
    kept = np.flatnonzero(stop > start)
    # The kept rows, then the first sample: where each starts, and the jump into it.
    rows, firsts = np.append(kept, n_rows), np.append(start[kept], n_cols)
    begins = np.cumsum(np.append(0, stop[kept] - start[kept]))
    x_jumps, y_jumps = np.diff(rows), firsts[1:] - (stop[kept] - 1)
    n_mesh = int(begins[-1])
    for lo in range(0, n_mesh + spec.random_samples, _SWEEP_BLOCK):
        size = min(_SWEEP_BLOCK, n_mesh + spec.random_samples - lo)
        x_at, y_at = (workspace.take(f"{a} positions", (size,), dtype=np.intp) for a in tables)
        mesh = max(0, n_mesh - lo)
        x_at[:mesh], x_at[mesh:] = 0, 1
        y_at.fill(1)
        # The rows of the block's first and last points.
        i, j = np.searchsorted(begins, (lo, lo + size - 1), side="right") - 1
        at = begins[i + 1 : j + 1] - lo
        x_at[at], y_at[at] = x_jumps[i:j], y_jumps[i:j]
        x_at[0], y_at[0] = 0, firsts[i] + lo - begins[i]
        np.cumsum(x_at, out=x_at)
        np.cumsum(y_at, out=y_at)
        top, left = int(rows[i]) + max(0, lo - n_mesh), int(y_at.min())
        y_at -= left
        x_run = x_table[top : top + int(x_at[-1]) + 1]
        axes = [(x_run, x_at), (y_table[left : left + int(y_at.max()) + 1], y_at)]
        coordinates = [_Coordinate(run, position.__getitem__) for run, position in axes]
        yield _Block({}, workspace, zip(tables, axes)), coordinates


def _sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate the family's margin at every point (``_blocks``) for every
    parameter combo; a point is reported as ``(*coordinates, *param
    values)``, its axis values on a grid or its state index.  Every combo
    runs over one block before the next block, into one accumulator per
    combo.  Blocks come in point order and the accumulators are folded in
    combo order, so the report equals that of one pass over all points,
    combo after combo.
    """
    fam = family_of(spec.family)
    combos = list(_combos(spec))
    tails = [tuple([combo[name] for name, _ in spec.params]) for combo in combos]
    empty = (math.inf, None, [], 0, 0)
    per_combo = [empty] * len(combos)
    checked = 0
    for block, coordinates in _blocks(fam, spec):
        # Overflow in the bound arithmetic, or a power that underflows to 0
        # under a log, surfaces as non-finite margins, which the scan counts
        # and the report carries.  The points are built outside this, in
        # ``_blocks``, where such an operation is a fault.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k, combo in enumerate(combos):
                margins = np.asarray(fam.margin(block, combo), dtype=float)
                checked += margins.size
                scan = _scan(margins, coordinates, tails[k], spec.tolerance)
                per_combo[k] = _merge(per_combo[k], *scan)
                del margins  # the block's margin rows, rewritten by the next combo

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
    """Evaluate any family's margin over its spec's points: deterministic
    for a fixed spec, it reports the signed minimum margin, its location,
    and the worst of the points whose margin falls below -tolerance along
    with their count."""
    return _sweep(spec)


def run_state_check(family: str, n_states: int = DEFAULT_STATES, seed: int = 0) -> SweepReport:
    """Monogamy margins of a state-level family's default spec over
    ``n_states`` seeded random 3-qubit pure states, the two pair marginals
    ordered by value as in the two branches of the N=3 relations.  Other
    parameters or tolerances need a spec and ``run_sweep``."""
    fam = family_of(family)
    if fam.kind != "state":
        raise ValueError(f"family {fam.name!r} is grid-level; use run_sweep")
    # The engine itself, not run_sweep, so that a wrapper around both public
    # names (bench/tracer.py) sees one sweep per call.
    return _sweep(default_spec(fam.name, random_samples=n_states, seed=seed))
