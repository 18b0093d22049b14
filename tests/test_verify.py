import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonogamy import bounds, kernel, measures, states, verify


WINDOW_ALPHA = measures.RENYI_ANALYTIC_MIN

# (family, axis or parameter, lo, hi, hi open) of every registered gate.
GATES = [
    ("lemma1", "x", 0.0, 1.0, False),
    ("lemma1", "mu", 1.0, math.inf, False),
    ("gqsuper", "x", 0.0, 1.0, False),
    ("gqsuper", "y", 0.0, 1.0, False),
    ("gqsuper", "q", 2.0, 3.0, False),
    ("falphaadd", "x", 0.0, 1.0, False),
    ("falphaadd", "y", 0.0, 1.0, False),
    ("falphaadd", "alpha", 2.0, math.inf, False),
    ("falphasqadd", "x", 0.0, 1.0, False),
    ("falphasqadd", "y", 0.0, 1.0, False),
    ("falphasqadd", "alpha", WINDOW_ALPHA, 2.0, True),
    ("lemma2", "x", 0.0, 1.0, False),
    ("lemma2", "y", 0.0, 1.0, False),
    ("lemma2", "q", 2.0, 3.0, False),
    ("lemma2", "mu", 1.0, math.inf, False),
    ("lemma5", "x", 0.0, 1.0, False),
    ("lemma5", "y", 0.0, 1.0, False),
    ("lemma5", "alpha", 2.0, math.inf, False),
    ("lemma5", "mu", 1.0, math.inf, False),
    ("lemma6", "x", 0.0, 1.0, False),
    ("lemma6", "y", 0.0, 1.0, False),
    ("lemma6", "alpha", WINDOW_ALPHA, 2.0, True),
    ("lemma6", "gamma", 2.0, math.inf, False),
    ("remark1", "q", 2.0, 3.0, False),
    ("remark1", "eta", 1.0, math.inf, False),
    ("remark2", "alpha", 2.0, math.inf, False),
    ("remark2", "mu", 1.0, math.inf, False),
    ("remark3", "alpha", WINDOW_ALPHA, 2.0, True),
    ("remark3", "gamma", 2.0, math.inf, False),
]


def small_spec(family, **overrides):
    fam = verify.family_of(family)
    shrunk = tuple((name, lo, hi, min(steps, 25)) for name, lo, hi, steps in fam.axes)
    base = dict(grid=shrunk, random_samples=100)
    base.update(overrides)
    return verify.default_spec(family, **base)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            verify.SweepSpec("lemma1", grid=(("x", 0.0, 1.0, 1),))
        with pytest.raises(ValueError):
            verify.SweepSpec("lemma1", tolerance=0.0)
        for tolerance in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                verify.SweepSpec("lemma1", tolerance=tolerance)
            with pytest.raises(ValueError, match="finite and positive"):
                verify.run_sweep(verify.default_spec("ckw", random_samples=5, tolerance=tolerance))
        with pytest.raises(ValueError):
            verify.SweepSpec("lemma1", random_samples=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            verify.SweepSpec("lemma1", seed=-1)
        with pytest.raises(ValueError):
            verify.SweepSpec("lemma1", grid=(("x", 1.0, 0.0, 5),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_bound_named(self, bad):
        for lo, hi in ((bad, 1.0), (0.0, bad)):
            with pytest.raises(ValueError, match="axis 'mu' bounds must be finite"):
                verify.SweepSpec("lemma1", grid=(("x", 0.0, 1.0, 5), ("mu", lo, hi, 5)))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify.family_of("lemma99")


class TestGates:
    def test_table_covers_the_registry(self):
        registered = {
            (fam.name, gate[0]) for fam in verify.FAMILIES.values() for gate in fam.gates
        }
        assert registered == {(family, name) for family, name, *_ in GATES}

    @pytest.mark.parametrize("family,name,lo,hi,hi_open", GATES)
    def test_edges(self, family, name, lo, hi, hi_open):
        fam = verify.family_of(family)

        def check(value):
            grid = tuple(
                (axis, value, value, 2) if axis == name else (axis, a, b, steps)
                for axis, a, b, steps in fam.axes
            )
            params = tuple(
                (param, (value,)) if param == name else (param, values)
                for param, values in fam.params
            )
            verify._validate_against_gates(
                fam, verify.default_spec(family, grid=grid, params=params)
            )

        check(lo)
        if not hi_open and math.isfinite(hi):
            check(hi)
        rejected = [lo - 1e-9]
        if math.isfinite(hi):
            rejected.append(hi + 1e-9)
        if hi_open:
            rejected.append(hi)
        for value in rejected:
            with pytest.raises(ValueError, match=f"'{name}'"):
                check(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "family", [name for name in verify.FAMILY_NAMES if verify.family_of(name).params]
    )
    def test_non_finite_parameter_named(self, family, bad):
        fam = verify.family_of(family)
        for name, values in fam.params:
            params = tuple(
                (other, (values[0], bad) if other == name else vals)
                for other, vals in fam.params
            )
            spec = verify.default_spec(family, params=params)
            with pytest.raises(ValueError, match=f"'{name}' values must be finite"):
                verify._validate_against_gates(fam, spec)


class TestRunSweep:
    @pytest.mark.parametrize("family", verify.GRID_FAMILIES)
    def test_defaults_hold(self, family):
        report = verify.run_sweep(small_spec(family))
        assert report.min_margin >= -report.spec.tolerance
        assert report.violations == []

    def test_lemma1_full_grid_equality_edge(self):
        report = verify.run_sweep(verify.default_spec("lemma1"))
        assert report.min_margin >= -1e-12
        x, mu = report.argmin
        on_manifold = x in (0.0, 1.0) or mu == 1.0
        assert on_manifold

    def test_gq_super_margin_identically_zero_at_q2(self):
        fam = verify.family_of("gqsuper")
        xs = np.linspace(0.0, 1.0, 80)
        x, y = map(np.ravel, np.meshgrid(xs, xs))
        keep = x * x + y * y <= 1.0
        pts = {"x": x[keep], "y": y[keep]}
        margins = fam.margin(pts, {"q": 2.0})
        assert np.max(np.abs(margins)) < 1e-12

    def test_lemma5_closed_form_point(self):
        fam = verify.family_of("lemma5")
        pts = {"x": np.array([1 / math.sqrt(2)]), "y": np.array([1 / math.sqrt(2)])}
        margin = fam.margin(pts, {"alpha": 2.0, "mu": 1.0})[0]
        expected = 1.0 - 2.0 * (1.0 - math.log2(1.5))
        assert margin == pytest.approx(expected, abs=1e-12)

    def test_lemma2_margin_composes_power_chain(self):
        # direct margin == g-composed power-chain margin at every grid point
        fam = verify.family_of("lemma2")
        xs = np.linspace(0.05, 1.0, 30)
        x, y = map(np.ravel, np.meshgrid(xs, xs))
        keep = (x * x + y * y <= 1.0) & (x >= y)
        x, y = x[keep], y[keep]
        for q in (2.0, 2.5, 3.0):
            for mu in (1.0, 2.0, 3.0):
                direct = fam.margin({"x": x, "y": y}, {"q": q, "mu": mu})
                a = measures.g_q(x * x, q)
                b = measures.g_q(y * y, q)
                z = measures.g_q(x * x + y * y, q)
                _, tight, _, _ = bounds.power_chain(b / a, mu)
                composed = z**mu - a**mu * tight
                assert np.max(np.abs(direct - composed)) < 1e-12

    def test_lemma2_zero_point_margin_is_zero(self):
        fam = verify.family_of("lemma2")
        pts = {"x": np.array([0.0]), "y": np.array([0.0])}
        assert fam.margin(pts, {"q": 2.5, "mu": 2.0})[0] == 0.0

    def test_deterministic_serialization(self):
        spec = small_spec("gqsuper", random_samples=250, seed=11)
        a = verify.run_sweep(spec).to_json()
        b = verify.run_sweep(spec).to_json()
        assert a == b

    def test_json_wire_format(self):
        report = verify.run_sweep(small_spec("lemma1"))
        data = json.loads(report.to_json())
        assert list(data) == [
            "family", "points", "min_margin", "argmin", "violations",
            "violations_total", "nonfinite",
        ]
        assert data["violations_total"] == 0
        assert data["nonfinite"] == 0
        assert data["family"] == "lemma1"
        assert data["points"] == report.points_checked

    def test_points_accounting(self):
        spec = small_spec("falphaadd", random_samples=50)
        report = verify.run_sweep(spec)
        xs = np.linspace(0.0, 1.0, 25)
        x, y = map(np.ravel, np.meshgrid(xs, xs))
        grid_points = int(np.count_nonzero(x * x + y * y <= 1.0 + 1e-12))
        n_alphas = len(dict(spec.params)["alpha"])
        assert report.points_checked == (grid_points + 50) * n_alphas

    def test_violations_reported_below_tolerance(self):
        # An absurdly tight tolerance flags the roundoff-scale negatives.
        spec = verify.default_spec("lemma1", tolerance=1e-18, random_samples=0)
        report = verify.run_sweep(spec)
        assert report.min_margin < 0.0
        assert report.violations
        assert (report.violations == []) == (report.min_margin >= -spec.tolerance)
        for point, margin in report.violations:
            assert margin < -spec.tolerance
            assert len(point) == 2

    def test_violation_list_is_capped(self, monkeypatch):
        # A forced bound that fails on about half of each combo's points.
        fam = dataclasses.replace(
            verify.family_of("gqsuper"),
            margin=lambda pts, combo: pts["x"] - pts["y"] - 0.01 * combo["q"],
        )
        monkeypatch.setitem(verify.FAMILIES, "gqsuper", fam)
        spec = small_spec("gqsuper")
        report = verify.run_sweep(spec)
        pts = verify._grid_points(fam, spec)
        margins = np.concatenate(
            [fam.margin(pts, {"q": q}) for q in dict(spec.params)["q"]]
        )
        bad = np.sort(margins[margins < -spec.tolerance])
        assert bad.size > 3 * verify.MAX_VIOLATIONS
        assert report.violations_total == bad.size
        assert len(report.violations) == verify.MAX_VIOLATIONS
        # The worst margins overall, worst first, each at its own point.
        assert [m for _, m in report.violations] == bad[: verify.MAX_VIOLATIONS].tolist()
        assert len({q for (_, _, q), _ in report.violations}) > 1
        for (x, y, q), m in report.violations:
            assert m == x - y - 0.01 * q
        data = json.loads(report.to_json())
        assert data["violations_total"] == bad.size
        assert len(data["violations"]) == verify.MAX_VIOLATIONS

    def test_domain_gates(self):
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("lemma1", grid=(("x", 0.0, 1.0, 10), ("mu", 0.5, 2.0, 10))))
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("gqsuper", params=(("q", (1.5,)),)))
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("falphasqadd", params=(("alpha", (2.0,)),)))
        with pytest.raises(ValueError, match="'ckw' needs at least one state, got 0"):
            verify.run_sweep(verify.default_spec("ckw", random_samples=0))


def tie_margin(pts, combo):
    # Exactly -2 on the two x < 0.05 columns of the first combo, exactly -1
    # everywhere else: far more than MAX_VIOLATIONS ties at the cut.
    low = (pts["x"] < 0.05) & (combo["q"] == 2.0)
    return np.where(low, -2.0, -1.0)


class TestScan:
    def test_argmin_ties_resolve_lexicographically(self):
        x = np.array([0.5, 0.2, 0.2, 0.7, 0.2])
        y = np.array([0.1, 0.9, 0.3, 0.0, 0.3])
        margins = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        local_min, point, violations, total, nonfinite = verify._scan(
            margins, [x, y], (2.5,), 1e-12
        )
        assert (local_min, point) == (0.0, (0.2, 0.3, 2.5))
        assert (violations, total, nonfinite) == ([], 0, 0)

    def test_capped_violations_take_the_earliest_ties(self):
        # 40 margins below the cut, then 960 exact ties at -1: the list holds
        # the 40 and the 60 earliest-positioned ties, whatever the selection.
        position = np.arange(1000, dtype=float)
        margins = np.full(1000, -1.0)
        margins[500:540] = -2.0
        _, _, violations, total, _ = verify._scan(margins, [position], (), 1e-12)
        assert total == 1000
        assert [p for (p,), _ in violations] == list(range(500, 540)) + list(range(60))
        assert [m for _, m in violations] == [-2.0] * 40 + [-1.0] * 60

    @pytest.mark.parametrize("block", [97, 4096, 10**9])
    def test_sweep_cap_is_deterministic_across_blocks(self, block, monkeypatch):
        fam = dataclasses.replace(verify.family_of("gqsuper"), margin=tie_margin)
        monkeypatch.setitem(verify.FAMILIES, "gqsuper", fam)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", block)
        spec = small_spec("gqsuper", random_samples=40, seed=2, tolerance=0.5)
        report = verify.run_sweep(spec)
        pts = verify._grid_points(fam, spec)
        points = list(zip(pts["x"].tolist(), pts["y"].tolist()))
        low = [pt + (2.0,) for pt in points if pt[0] < 0.05]
        rest = [pt + (2.0,) for pt in points if pt[0] >= 0.05]
        n_low = len(low)
        assert 0 < n_low < verify.MAX_VIOLATIONS
        expected = [(pt, -2.0) for pt in low]
        expected += [(pt, -1.0) for pt in rest[: verify.MAX_VIOLATIONS - n_low]]
        assert report.violations == expected
        assert report.violations_total == report.points_checked


@st.composite
def grid_sweeps(draw):
    """A small grid spec inside the family's gates, a block size and a
    shift that lowers every margin (so that many points violate)."""
    fam = verify.family_of(draw(st.sampled_from(verify.GRID_FAMILIES)))
    gates = {name: (lo, hi, hi_open) for name, lo, hi, hi_open in fam.gates}

    def values(name, count):
        lo, hi, hi_open = gates[name]
        hi = min(hi, lo + 7.0)
        return draw(
            st.lists(st.floats(lo, hi, exclude_max=hi_open), min_size=count, max_size=count)
        )

    grid = tuple(
        (name, *sorted(values(name, 2)), draw(st.integers(2, 25)))
        for name, *_ in fam.axes
    )
    params = tuple(
        (name, tuple(values(name, draw(st.integers(1, 2))))) for name, _ in fam.params
    )
    spec = verify.default_spec(
        fam.name,
        grid=grid,
        params=params,
        random_samples=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
        tolerance=draw(st.sampled_from([1e-18, 1e-15, 1e-12, 1e-3, 0.5])),
    )
    block = draw(st.one_of(st.integers(1, 64), st.integers(1, 5000)))
    return spec, block, draw(st.sampled_from([0.0, 0.0, 1e-2, 0.1]))


def sweep_outcome(spec):
    try:
        return verify.run_sweep(spec).to_json()
    except ValueError as exc:  # an empty domain or a failed rejection sampler
        return f"error: {exc}"


class TestBlockedSweep:
    @settings(max_examples=60, deadline=None)
    @given(grid_sweeps())
    def test_any_block_size_equals_one_block(self, case):
        spec, block, shift = case
        fam = verify.family_of(spec.family)
        shifted = dataclasses.replace(
            fam, margin=lambda pts, combo: fam.margin(pts, combo) - shift
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verify.FAMILIES, fam.name, shifted)
            mp.setattr(verify, "_SWEEP_BLOCK", block)
            blocked = sweep_outcome(spec)
            mp.setattr(verify, "_SWEEP_BLOCK", 10**9)
            assert blocked == sweep_outcome(spec)

    @pytest.mark.parametrize("block", [1, 97, 16384])
    @pytest.mark.parametrize("family", verify.FAMILY_NAMES)
    def test_fixed_block_sizes_equal_one_block(self, family, block, monkeypatch):
        fam = verify.family_of(family)
        if fam.kind == "grid":
            spec = small_spec(family, tolerance=1e-18, random_samples=150, seed=4)
        else:
            spec = verify.default_spec(family, random_samples=300, seed=4, tolerance=1e-2)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", 10**9)
        one_block = verify._sweep(spec).to_json()
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", block)
        assert verify._sweep(spec).to_json() == one_block

    @pytest.mark.parametrize(
        "family,conversion,calls_per_block",
        [
            ("lemma2", "g_q", 3 * 3),  # 3 q values x 4 mu values
            ("lemma5", "f_alpha", 2 * 3),  # 2 alpha values x 4 mu values
            ("lemma6", "f_alpha", 4 * 3),  # 4 alpha values x 3 gamma values
            ("gqsuper", "g_q", 11 * 3),
        ],
    )
    def test_conversions_once_per_block_and_value(
        self, family, conversion, calls_per_block, monkeypatch
    ):
        original = getattr(measures, conversion)
        calls = []

        def counted(x, index):
            calls.append(np.size(x))
            return original(x, index)

        monkeypatch.setattr(measures, conversion, counted)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", 97)
        spec = small_spec(family)
        report = verify.run_sweep(spec)
        n_points = report.points_checked // math.prod(len(v) for _, v in spec.params)
        n_blocks = -(-n_points // 97)
        assert len(calls) == calls_per_block * n_blocks
        n_values = len(spec.params[0][1])
        assert sum(calls) == 3 * n_values * n_points


class TestRunStateCheck:
    @pytest.mark.parametrize("family", verify.STATE_FAMILIES)
    def test_defaults_hold(self, family):
        report = verify.run_state_check(family, n_states=150, seed=3)
        assert report.min_margin >= -verify.STATE_TOLERANCE
        assert report.violations == []

    def test_deterministic(self):
        a = verify.run_state_check("remark1", n_states=50, seed=5).to_json()
        b = verify.run_state_check("remark1", n_states=50, seed=5).to_json()
        assert a == b

    def test_param_override(self):
        spec = verify.default_spec(
            "remark2", random_samples=40, seed=1, params=(("alpha", (2.0,)), ("mu", (2.0,)))
        )
        assert verify.run_sweep(spec).points_checked == 40

    def test_rejects_grid_family(self):
        with pytest.raises(ValueError):
            verify.run_state_check("lemma1", n_states=10)

    def test_rejects_bad_params(self):
        spec = verify.default_spec(
            "remark1", random_samples=10, params=(("q", (5.0,)), ("eta", (1.0,)))
        )
        with pytest.raises(ValueError, match="'q' values"):
            verify.run_sweep(spec)

    @pytest.mark.parametrize("family", verify.STATE_FAMILIES)
    @pytest.mark.parametrize("n_states,seed", [(1, 0), (37, 5), (verify._STATE_BLOCK + 3, 7919)])
    def test_equals_run_sweep_of_the_default_spec(self, family, n_states, seed):
        spec = verify.default_spec(family, random_samples=n_states, seed=seed)
        expected = verify.run_sweep(spec).to_json()
        assert verify.run_state_check(family, n_states, seed).to_json() == expected

    def test_example_state_margin_structure(self):
        # The canonical example satisfies Tsallis additivity exactly at q=2,
        # so the pair bound saturates at eta=1 on those values.
        t_hi, t_lo = 30.0 / 81.0, 10.0 / 81.0
        margin = (40.0 / 81.0) - bounds.pair_bound_new(t_hi, t_lo, bounds.PowerParam(1.0))
        assert margin == pytest.approx(0.0, abs=1e-12)


def per_state_tables(n_states, seed):
    """Reference state table: every kernel call on one state at a time."""
    cols = {name: np.empty(n_states) for name in ("lam_hi", "lam_lo", "c_ab", "c_ac")}
    for i, amps in enumerate(states.random_pure_states(3, n_states, seed)):
        rho = states.density(states.PureState(3, amps))
        spectrum = kernel.hermitian_eigenvalues(kernel.partial_trace(rho, 3, {0}))
        cols["lam_hi"][i] = max(spectrum[0], 0.0)
        cols["lam_lo"][i] = max(spectrum[1], 0.0)
        cols["c_ab"][i] = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 1}))
        cols["c_ac"][i] = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 2}))
    c2_full = 2.0 * (1.0 - cols["lam_hi"] ** 2 - cols["lam_lo"] ** 2)
    cols["c2_full"] = np.maximum(c2_full, 0.0)
    cols["index"] = np.arange(n_states, dtype=float)
    return cols


class TestStateTables:
    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("n_states", [1, 400, verify._STATE_BLOCK + 3])
    def test_blocked_table_equals_per_state_loop(self, seed, n_states):
        table = verify._state_tables(n_states, seed)
        reference = per_state_tables(n_states, seed)
        assert table.keys() == reference.keys()
        for name, column in reference.items():
            assert np.array_equal(table[name], column), name
