import dataclasses
import hashlib
import json
import math
import tracemalloc

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


# sha256 of every `_state_tables` column at 515 states, across the 512-state
# block boundary: the closed forms the state sweeps read.
STATE_TABLE_SHA256 = {
    0: {
        "lam_hi": "6dc08a8506490e80d1a6e0e821475573d80a6447e3c2f17f9fdf2764eacb6654",
        "lam_lo": "d96e841aac49e5cf4ddbff2d1e7e6b0e8b710da6a70bea03024d633a994fc2c9",
        "c_ab": "edb3c597567b192e159c68870a031eee219d2275ba89178a59030a7116d4ddb6",
        "c_ac": "17c26532195f498627ae6347b1a8972899291689642fc69895e4a1de830c8a97",
        "c2_full": "b66c312652d55fc60806171f018c2bf7710b1b549eecb3856d5085b57344f46a",
        "index": "1392a4a34fdb7293213ca801a738e2b129637e213a79327ff3ff39fec301ce08",
    },
    3: {
        "lam_hi": "2ab7fcc239cd8db9ad5b7d86db060cf82802b8ee159b17911398f621bc8387f3",
        "lam_lo": "c2ddf415194104500574c301d61cd01f6f1e57227b0c4ada98bf7a38dc31c0ae",
        "c_ab": "8b16faeb151c6f31882aed1b48fbc644af25190ae5b7f8447a90a1a8d2c9a2ca",
        "c_ac": "2d84224249c8d3086b99107d586cba5b7fcf2cfcd4e51cecad6fb8abe0def400",
        "c2_full": "703d27dcd2ccee0d34d86a8ff34492c182a53aeba73f7230035a133b23f4bead",
        "index": "1392a4a34fdb7293213ca801a738e2b129637e213a79327ff3ff39fec301ce08",
    },
    7919: {
        "lam_hi": "b2c30b8abe94964b4123bf0ab080913bb17fa0520e3aad1dc5820de2d912d94b",
        "lam_lo": "cf55987a1e7f153a24bace36299f141181cfebd9625aa7390f9aab3d9f681027",
        "c_ab": "63b009c470201b442ec9f79a652d910861c635888bfb8f6a96ce55df7221f7a6",
        "c_ac": "adf42bbd0a553d4ef335ed33387d6359c4c0b95aeb472fd11d4c2db09772ea7d",
        "c2_full": "84c8e7d334389b8bced2c43cfdc19aa9d8ba5e43964919e7aedf91548793b799",
        "index": "1392a4a34fdb7293213ca801a738e2b129637e213a79327ff3ff39fec301ce08",
    },
}


GRID_AXES = (("x", 0.0, 1.0, 60), ("y", 0.0, 1.0, 60))
Q_SUPER = (2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0)
MU = (1.0, 1.5, 2.0, 3.0)

# (family, kind, regime, domain, default axes, default parameters, default
# tolerance) of every registered family, in registry order.
REGISTRY = [
    ("lemma1", "grid", None, "_domain_all",
     (("x", 0.0, 1.0, 200), ("mu", 1.0, 4.0, 200)), (), 1e-12),
    ("gqsuper", "grid", "tsallis_q2to3", "_domain_disc", GRID_AXES, (("q", Q_SUPER),), 1e-12),
    ("falphaadd", "grid", "renyi_ge2", "_domain_disc", GRID_AXES,
     (("alpha", (2.0, 2.5, 3.0, 4.0)),), 1e-12),
    ("falphasqadd", "grid", "renyi_window", "_domain_disc", GRID_AXES,
     (("alpha", (WINDOW_ALPHA, 1.2, 1.5, 1.9)),), 1e-12),
    ("lemma2", "grid", "tsallis_q2to3", "_domain_disc_ordered", GRID_AXES,
     (("q", (2.0, 2.5, 3.0)), ("mu", MU)), 1e-12),
    ("lemma5", "grid", "renyi_ge2", "_domain_disc_ordered", GRID_AXES,
     (("alpha", (2.0, 3.0)), ("mu", MU)), 1e-12),
    ("lemma6", "grid", "renyi_window", "_domain_disc_ordered", GRID_AXES,
     (("alpha", (WINDOW_ALPHA, 1.2, 1.5, 1.9)), ("gamma", (2.0, 3.0, 4.0))), 1e-12),
    ("ckw", "state", None, "_domain_all", (), (), 1e-9),
    ("remark1", "state", "tsallis_q2to3", "_domain_all", (),
     (("q", (2.0, 2.5, 3.0)), ("eta", MU)), 1e-9),
    ("remark2", "state", "renyi_ge2", "_domain_all", (), (("alpha", (2.0, 3.0)), ("mu", MU)), 1e-9),
    ("remark3", "state", "renyi_window", "_domain_all", (),
     (("alpha", (WINDOW_ALPHA, 1.5)), ("gamma", (2.0, 3.0, 4.0))), 1e-9),
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


class TestRegistry:
    def test_names_in_order(self):
        assert verify.FAMILY_NAMES == tuple(row[0] for row in REGISTRY)

    @pytest.mark.parametrize("family,kind,regime,domain,axes,params,tolerance", REGISTRY)
    def test_row(self, family, kind, regime, domain, axes, params, tolerance):
        fam = verify.family_of(family)
        assert (fam.name, fam.kind, fam.regime) == (family, kind, regime)
        assert fam.domain.__name__ == domain
        assert (fam.axes, fam.params) == (axes, params)
        spec = verify.default_spec(family)
        assert (spec.grid, spec.params, spec.tolerance) == (axes, params, tolerance)
        if regime is not None:
            # The regime's index is the first parameter.
            assert params[0][0] == bounds.REGIMES[regime].index


class TestGates:
    def test_table_covers_the_registry(self):
        registered = {
            (fam.name, gate[0]) for fam in verify.FAMILIES.values() for gate in fam.gates
        }
        assert registered == {(family, name) for family, name, *_ in GATES}

    def test_index_gate_is_the_regime_window(self):
        # A copy with another margin, as bench/tracer.py makes, keeps them.
        for fam in verify.FAMILIES.values():
            copy = dataclasses.replace(fam, margin=lambda pts, combo: 0.0)
            assert (copy.regime, copy.gates) == (fam.regime, fam.gates)
            if fam.regime is not None:
                row = bounds.REGIMES[fam.regime]
                assert (row.index, *row.window) in fam.gates, fam.name

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


class TestSpecNames:
    @pytest.mark.parametrize(
        "family,field,value,expected,given",
        [
            ("remark1", "params", (("q", (2.0,)), ("mu", (1.0,))), "('q', 'eta')", "('q', 'mu')"),
            ("lemma2", "params", (("q", (2.0,)),), "('q', 'mu')", "('q',)"),
            ("gqsuper", "grid", (("x", 0.0, 1.0, 10),), "('x', 'y')", "('x',)"),
            ("gqsuper", "params", (("q", (2.0,)), ("zeta", (1.0,))), "('q',)", "('q', 'zeta')"),
            ("lemma1", "params", (("q", (9.0,)),), "()", "('q',)"),
            ("ckw", "grid", (("x", 0.0, 1.0, 10),), "()", "('x',)"),
            (
                "remark2", "params", (("alpha", (2.0,)), ("alpha", (3.0,))),
                "('alpha', 'mu')", "('alpha', 'alpha')",
            ),
        ],
    )
    def test_mismatched_names_are_refused(self, family, field, value, expected, given):
        # A missing name used to end in a bare KeyError, an extra one was
        # silently ignored; a name given twice is refused too.
        spec = verify.default_spec(family, random_samples=10, **{field: value})
        kind = "axes" if field == "grid" else "parameters"
        message = f"family '{family}' takes {kind} {expected}, got {given}"
        with pytest.raises(ValueError) as excinfo:
            verify.run_sweep(spec)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "family,overrides,expected",
        [
            (
                "lemma2",
                dict(
                    grid=(("y", 0.0, 1.0, 12), ("x", 0.0, 1.0, 12)),
                    params=(("mu", (1.0, 2.0)), ("q", (2.0, 3.0))),
                    random_samples=20,
                    seed=5,
                ),
                '{"family": "lemma2", "points": 308, "min_margin": -3.3306690738754696e-16, '
                '"argmin": [0.1490385835335558, 0.6985119903183108, 1.0, 2.0], "violations": [], '
                '"violations_total": 0, "nonfinite": 0}',
            ),
            (
                "remark1",
                dict(params=(("eta", (1.5,)), ("q", (2.5, 3.0))), random_samples=30, seed=3),
                '{"family": "remark1", "points": 60, "min_margin": 0.010514410426337203, '
                '"argmin": [21.0, 1.5, 3.0], "violations": [], "violations_total": 0, '
                '"nonfinite": 0}',
            ),
        ],
    )
    def test_reordered_names_keep_their_report(self, family, overrides, expected):
        # Any order of the family's own names is a valid spec; a point lists
        # its coordinates and parameters in the spec's order.
        assert verify.run_sweep(verify.default_spec(family, **overrides)).to_json() == expected


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
            ("remark1", "g_q", 3 * 2),  # 3 q values x 4 eta values
            ("remark2", "f_alpha", 2 * 2),  # 2 alpha values x 4 mu values
            ("remark3", "f_alpha", 2 * 2),  # 2 alpha values x 3 gamma values
        ],
    )
    def test_conversions_once_per_block_and_value(
        self, family, conversion, calls_per_block, monkeypatch
    ):
        # A conversion is the entropy of a qubit spectrum: g_q the Tsallis
        # and f_alpha the Renyi one.  A state block's pivot cut entropy is
        # not a conversion and is not counted.
        entropy = {"g_q": "tsallis_of_spectrum", "f_alpha": "renyi_of_spectrum"}[conversion]
        original, make_spectrum = getattr(measures, entropy), measures.qubit_spectrum
        spectra, calls = [], []

        def spectrum(x, *, squared):
            lam = make_spectrum(x, squared=squared)
            spectra.append(lam)
            return lam

        def counted(lam, index):
            if any(lam is s for s in spectra):
                calls.append(lam.shape[0])
            return original(lam, index)

        monkeypatch.setattr(measures, "qubit_spectrum", spectrum)
        monkeypatch.setattr(measures, entropy, counted)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", 97)
        spec = small_spec(family)
        report = verify.run_sweep(spec)
        n_points = report.points_checked // math.prod(len(v) for _, v in spec.params)
        n_blocks = -(-n_points // 97)
        assert len(calls) == calls_per_block * n_blocks
        # Every call converts its whole block.
        assert sum(calls) == calls_per_block * n_points

    @pytest.mark.parametrize(
        "family",
        ["gqsuper", "falphaadd", "falphasqadd", "lemma2", "lemma5", "lemma6",
         "remark1", "remark2", "remark3"],
    )
    def test_spectra_once_per_block(self, family, monkeypatch):
        original = measures.qubit_spectrum
        sizes = []

        def counted(x, *, squared):
            sizes.append(np.size(x))
            return original(x, squared=squared)

        monkeypatch.setattr(measures, "qubit_spectrum", counted)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", 97)
        spec = small_spec(family)
        report = verify.run_sweep(spec)
        n_points = report.points_checked // math.prod(len(v) for _, v in spec.params)
        # Three spectra per grid block (two per state block: C_ab and C_ac),
        # each over the whole block, whatever the number of q or alpha values.
        per_block = 2 if verify.family_of(family).kind == "state" else 3
        assert len(sizes) == per_block * -(-n_points // 97)
        assert sum(sizes) == per_block * n_points


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
    """Reference state table: the density and spin-flip route, one state at
    a time."""
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


def hyperdeterminant(amplitudes):
    """Cayley's hyperdeterminant of each row's 2 x 2 x 2 amplitude array."""
    a = amplitudes.reshape(-1, 2, 2, 2)
    a000, a001, a010, a011 = a[:, 0, 0, 0], a[:, 0, 0, 1], a[:, 0, 1, 0], a[:, 0, 1, 1]
    a100, a101, a110, a111 = a[:, 1, 0, 0], a[:, 1, 0, 1], a[:, 1, 1, 0], a[:, 1, 1, 1]
    squares = (a000 * a111) ** 2 + (a001 * a110) ** 2 + (a010 * a101) ** 2 + (a100 * a011) ** 2
    pairs = (
        a000 * a111 * (a001 * a110 + a010 * a101 + a100 * a011)
        + a001 * a110 * (a010 * a101 + a100 * a011)
        + a010 * a101 * a100 * a011
    )
    quads = a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111
    return squares - 2.0 * pairs + 4.0 * quads


class TestStateTables:
    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("n_states", [1, 400, verify._STATE_BLOCK + 3])
    def test_blocked_table_equals_per_state_loop(self, seed, n_states):
        # The closed forms against the spin-flip route, at roundoff.
        table = verify._state_tables(n_states, seed)
        reference = per_state_tables(n_states, seed)
        assert table.keys() == reference.keys()
        for name, column in reference.items():
            np.testing.assert_allclose(table[name], column, rtol=0, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("n_states", [1, 400, verify._STATE_BLOCK + 3])
    def test_table_is_a_prefix_of_a_longer_table(self, seed, n_states):
        table = verify._state_tables(n_states, seed)
        longer = verify._state_tables(2000, seed)
        for name, column in table.items():
            assert np.array_equal(column, longer[name][:n_states]), name

    @pytest.mark.parametrize("seed", [3, 7919])
    def test_ckw_residual_is_the_three_tangle(self, seed):
        # C^2(A|BC) - C_AB^2 - C_AC^2 = 4 |Det(a)| for every pure state
        # (Coffman, Kundu and Wootters, PRA 61, 052306, 2000).
        table = verify._state_tables(20000, seed)
        tangle = 4.0 * np.abs(hyperdeterminant(states.random_pure_states(3, 20000, seed)))
        residual = table["c2_full"] - table["c_ab"] ** 2 - table["c_ac"] ** 2
        assert np.max(np.abs(residual - tangle)) <= 1e-14

    def test_product_ghz_and_w_rows(self, monkeypatch):
        rows = np.zeros((3, 8), dtype=complex)
        rows[0, 0] = 1.0
        rows[1, [0, 7]] = 1.0 / math.sqrt(2.0)
        rows[2, [1, 2, 4]] = 1.0 / math.sqrt(3.0)
        monkeypatch.setattr(states, "random_pure_states", lambda n, count, seed: rows[:count])
        table = verify._state_tables(3, 0)
        # |000>: a product state, exactly.
        assert [table[name][0] for name in ("lam_hi", "lam_lo", "c_ab", "c_ac", "c2_full")] == [
            1.0, 0.0, 0.0, 0.0, 0.0,
        ]
        # GHZ: no pair entanglement, a maximally entangled pivot cut.
        assert (table["c_ab"][1], table["c_ac"][1]) == (0.0, 0.0)
        assert table["lam_hi"][1] == pytest.approx(0.5, abs=1e-15)
        assert table["lam_lo"][1] == pytest.approx(0.5, abs=1e-15)
        assert table["c2_full"][1] == pytest.approx(1.0, abs=1e-15)
        # W: C_AB = C_AC = 2/3 and C^2(A|BC) = 8/9, so no three-tangle.
        assert table["c_ab"][2] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert table["c_ac"][2] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert table["c2_full"][2] == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_runs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        table = verify._state_tables(515, 0)
        assert table["c_ab"].shape == (515,)

    @pytest.mark.parametrize("seed", sorted(STATE_TABLE_SHA256))
    def test_columns_pinned(self, seed):
        table = verify._state_tables(515, seed)
        digests = {name: hashlib.sha256(column.tobytes()).hexdigest() for name, column in table.items()}
        assert digests == STATE_TABLE_SHA256[seed]


def meshgrid_points(fam, spec):
    """Reference grid source: the full meshgrid, its domain-filtered copy,
    then the rejection samples appended by one concatenate per column."""
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
            raise ValueError(f"rejection sampling failed to reach {spec.random_samples} points")
        pts = {name: np.concatenate([pts[name], *accepted[name]]) for name in axis_names}
    if next(iter(pts.values())).size == 0:
        raise ValueError("sweep domain is empty")
    return pts


def column_bytes(source, fam, spec):
    """Name, dtype and bytes of every column ``source`` returns, or its error."""
    try:
        pts = source(fam, spec)
    except ValueError as exc:
        return f"error: {exc}"
    return [(name, col.dtype.str, col.tobytes()) for name, col in pts.items()]


@st.composite
def grid_point_specs(draw):
    """Any grid family, 2-40 steps per axis over a range inside its gates,
    0-60 rejection samples and any seed."""
    fam = verify.family_of(draw(st.sampled_from(verify.GRID_FAMILIES)))
    gates = {name: (lo, hi) for name, lo, hi, _hi_open in fam.gates}

    def axis(name):
        lo, hi = gates[name]
        ends = draw(st.lists(st.floats(lo, min(hi, lo + 7.0)), min_size=2, max_size=2))
        return (name, *sorted(ends), draw(st.integers(2, 40)))

    spec = verify.default_spec(
        fam.name,
        grid=tuple(axis(name) for name, *_ in fam.axes),
        random_samples=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**64)),
    )
    return fam, spec


class TestGridPoints:
    @settings(max_examples=150, deadline=None)
    @given(grid_point_specs())
    def test_columns_equal_the_meshgrid_route_byte_for_byte(self, case):
        fam, spec = case
        assert column_bytes(verify._grid_points, fam, spec) == column_bytes(
            meshgrid_points, fam, spec
        )

    @pytest.mark.parametrize("family", verify.GRID_FAMILIES)
    def test_default_grids_equal_the_meshgrid_route(self, family):
        fam = verify.family_of(family)
        spec = verify.default_spec(family, seed=3)
        assert column_bytes(verify._grid_points, fam, spec) == column_bytes(
            meshgrid_points, fam, spec
        )

    def test_empty_domain_is_an_error(self):
        fam = verify.family_of("lemma2")
        grid = (("x", 0.9, 1.0, 30), ("y", 0.95, 1.0, 30))
        spec = verify.default_spec("lemma2", grid=grid, random_samples=0)
        with pytest.raises(ValueError, match="sweep domain is empty"):
            verify._grid_points(fam, spec)
        assert column_bytes(meshgrid_points, fam, spec) == "error: sweep domain is empty"

    # Bound on the tracemalloc peak over the returned columns' bytes: a
    # domain that keeps every point needs nothing beyond the columns; one
    # that drops points holds its mask and one masked copy of the mesh part.
    @pytest.mark.parametrize("family,bound", [("lemma1", 1.25), ("lemma2", 2.0), ("gqsuper", 2.0)])
    def test_peak_memory_stays_near_the_output(self, family, bound):
        fam = verify.family_of(family)
        grid = tuple((name, lo, hi, 1000) for name, lo, hi, _steps in fam.axes)
        spec = verify.default_spec(family, grid=grid, random_samples=500)
        # A first call imports what the sampler needs, outside the trace.
        verify._grid_points(fam, verify.default_spec(family, random_samples=5))
        tracemalloc.start()
        try:
            pts = verify._grid_points(fam, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(col.nbytes for col in pts.values())
        assert peak <= bound * output
