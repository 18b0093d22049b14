import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
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


# sha256 of every `_state_tables` column at 515 states: the closed forms the
# state sweeps read.  Each state's values do not depend on its stack, at any
# stack length (test_pair_concurrence_bits_do_not_depend_on_the_stack_length),
# so the digests hold at any `_STATE_BLOCK` and whichever call draws the rows.
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

    @pytest.mark.parametrize(
        "name,overrides",
        [("random_samples", {"random_samples": 10.5}), ("random_samples", {"random_samples": True}),
         ("seed", {"seed": 1.5}), ("seed", {"seed": False}),
         ("axis 'x' steps", {"grid": (("x", 0.0, 1.0, 20.5), ("y", 0.0, 1.0, 20))}),
         ("axis 'y' steps", {"grid": (("x", 0.0, 1.0, 20), ("y", 0.0, 1.0, True))})],
    )
    def test_counts_must_be_integers(self, name, overrides):
        # Refused by name in the spec, not deep in the point source; a
        # boolean is not a count.
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got"):
            verify.default_spec("lemma2", **overrides)

    def test_state_check_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="^random_samples must be an integer, got 2.5"):
            verify.run_state_check("ckw", 2.5)

    def test_integral_float_counts_are_stored_as_ints(self):
        grid = (("x", 0.0, 1.0, 20), ("y", 0.0, 1.0, 20))
        floats = verify.default_spec(
            "lemma2", grid=[(name, lo, hi, float(n)) for name, lo, hi, n in grid],
            random_samples=10.0, seed=3.0,
        )
        ints = verify.default_spec("lemma2", grid=grid, random_samples=10, seed=3)
        assert floats == ints
        counts = [floats.random_samples, floats.seed, *(n for *_, n in floats.grid)]
        assert all(type(n) is int for n in counts)
        assert verify.run_sweep(floats).to_json() == verify.run_sweep(ints).to_json()

    @pytest.mark.parametrize("values", [(2.0, 2.0), (2.0, 3.0, 2.0), (0.0, -0.0)])
    def test_repeated_parameter_value_is_refused(self, values):
        with pytest.raises(ValueError, match=r"^parameter 'q' repeats a value, got \("):
            verify.SweepSpec("lemma2", params=(("q", values), ("mu", (1.0,))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_bound_named(self, bad):
        for lo, hi in ((bad, 1.0), (0.0, bad)):
            with pytest.raises(ValueError, match="axis 'mu' bounds must be finite"):
                verify.SweepSpec("lemma1", grid=(("x", 0.0, 1.0, 5), ("mu", lo, hi, 5)))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify.family_of("lemma99")

    def test_params_are_stored_as_tuples(self):
        # Lists and arrays of values are kept as tuples, as the grid is, so
        # the frozen spec hashes; an array's truth value used to be ambiguous.
        expected = verify.default_spec("lemma2", params=(("q", (2.0, 2.5)), ("mu", (1.0,))))
        for values in (list, np.array):
            spec = verify.default_spec(
                "lemma2", params=[("q", values([2.0, 2.5])), ("mu", values([1.0]))]
            )
            assert spec == expected
            assert hash(spec) == hash(expected)
            assert all(type(vals) is tuple for _, vals in spec.params)

    @pytest.mark.parametrize("family", verify.STATE_FAMILIES)
    def test_state_family_without_states_is_refused_when_made(self, family):
        with pytest.raises(ValueError, match=f"^family '{family}' needs at least one state, got 0$"):
            verify.default_spec(family, random_samples=0)

    def test_points_past_the_cap_are_refused_when_made(self, monkeypatch):
        # Mesh points and samples count together: 10^6 x 10^6 is the cap,
        # one sample more is past it.  Nothing is allocated or run.
        def no_points(*args):
            raise AssertionError("points built")

        monkeypatch.setattr(verify, "_grid_points", no_points)
        grid = (("x", 0.0, 1.0, 10**6), ("y", 0.0, 1.0, 10**6))
        spec = verify.default_spec("lemma2", grid=grid, random_samples=0)
        assert spec.size == f"a 1000000 x 1000000 mesh ({10**12} points)"
        message = (
            f"a sweep of a 1000000 x 1000000 mesh ({10**12} points) and 1 samples "
            f"is past the cap of {verify._MAX_POINTS} points"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify.default_spec("lemma2", grid=grid, random_samples=1)

    @pytest.mark.parametrize("family", ["lemma6", "remark3"])
    def test_family_checked_once_when_made(self, family, monkeypatch):
        # The engine trusts its spec: with the family's gates broken after
        # the spec is made, the sweep gives the same report.
        spec = small_spec(family, random_samples=40, seed=3)
        expected = verify.run_sweep(spec).to_json()

        def broken(fam):
            raise AssertionError("gates read")

        monkeypatch.setattr(verify.Family, "gates", property(broken))
        assert verify.run_sweep(spec).to_json() == expected


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
            # The value is an end of its axis, which keeps its default range
            # otherwise: a box pinned at y = 1 would miss the ordered disc.
            grid = tuple(
                (axis, min(a, value), max(b, value), steps) if axis == name else (axis, a, b, steps)
                for axis, a, b, steps in fam.axes
            )
            params = tuple(
                (param, (value,)) if param == name else (param, values)
                for param, values in fam.params
            )
            verify.default_spec(family, grid=grid, params=params)

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
            with pytest.raises(ValueError, match=f"'{name}' values must be finite"):
                verify.default_spec(family, params=params)


    @pytest.mark.parametrize(
        "family,name,value,message",
        [
            ("lemma2", "mu", 1.0 - 1e-13, "power must be >= 1"),
            ("remark1", "eta", 1.0 - 1e-13, "power must be >= 1"),
            ("lemma6", "gamma", 2.0 - 1e-13, "power gamma must be >= 2"),
            ("lemma1", "mu", 1.0 - 1e-13, "power must be >= 1"),
        ],
    )
    def test_power_below_its_floor_is_refused_when_made(self, family, name, value, message):
        # The gate admits 1e-12 of roundoff below its edge; a power's floor
        # is exact, so the spec is refused before it runs.
        fam = verify.family_of(family)
        grid = tuple(
            (axis, value, hi, steps) if axis == name else (axis, lo, hi, steps)
            for axis, lo, hi, steps in fam.axes
        )
        params = tuple(
            (param, (value,)) if param == name else (param, values) for param, values in fam.params
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {value}$"):
            verify.default_spec(family, grid=grid, params=params)


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
        pts = gathered_points(fam, spec)
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

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0 + 1e-13), (-1e-13, 1.0)])
    def test_x_axis_gate_slack_runs(self, lo, hi):
        # The x gate admits 1e-12 of roundoff past its edges, and a spec it
        # admits can run: ``power_chain`` clips x as the gate reads it.
        spec = verify.default_spec("lemma1", grid=(("x", lo, hi, 5), ("mu", 1.0, 2.0, 5)))
        report = verify.run_sweep(spec)
        assert (report.violations_total, report.nonfinite) == (0, 0)

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
        # silently ignored; a name given twice is refused too.  The spec
        # refuses when it is made.
        kind = "axes" if field == "grid" else "parameters"
        message = f"family '{family}' takes {kind} {expected}, got {given}"
        with pytest.raises(ValueError) as excinfo:
            verify.default_spec(family, random_samples=10, **{field: value})
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


def scan_before(margins, columns, tail, tolerance):
    """``verify._scan`` as it was written before its fast path: every block
    took the non-finite and the violation passes."""

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
            idxs = idxs[np.lexsort([col[idxs] for col in reversed(columns)])]
        best_point = point_of(int(idxs[0]))
    bad = np.flatnonzero(margins < -tolerance)
    worst = bad
    if bad.size > verify.MAX_VIOLATIONS:
        bad_margins = margins[bad]
        cut = np.partition(bad_margins, verify.MAX_VIOLATIONS - 1)[verify.MAX_VIOLATIONS - 1]
        below = bad[bad_margins < cut]
        ties = bad[bad_margins == cut][: verify.MAX_VIOLATIONS - below.size]
        worst = np.concatenate([below, ties])
    worst = worst[np.lexsort((worst, margins[worst]))]
    violations = [(point_of(int(i)), float(margins[i])) for i in worst]
    return local_min, best_point, violations, int(bad.size), nonfinite


@st.composite
def scan_blocks(draw):
    """Margins of one block, its coordinate columns (with ties) and a
    tolerance.  Margins mix +-inf, NaN, +-0.0 ties and values on either side
    of -tolerance; a block may be all at or above -tolerance, or hold more
    than ``MAX_VIOLATIONS`` violations.  The values come from a drawn seed,
    which keeps blocks of hundreds of points quick to draw."""
    tolerance = draw(st.sampled_from([1e-12, 1e-3, 0.5]))
    size = draw(st.sampled_from([1, 2, 7, 64, 250, 400]))
    special, lo, hi = draw(
        st.sampled_from(
            [
                ([0.0, -0.0, -tolerance, math.inf, 1.0], -tolerance, 10.0),  # no violation
                ([-1.0, -2.0, -2 * tolerance], -3.0, -2 * tolerance),  # all violate
                ([math.inf, -math.inf, math.nan, 0.0, -0.0, -tolerance, -1.0], -3.0, 3.0),
            ]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picked = rng.random(size) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    margins = np.where(picked, rng.choice(special, size), rng.uniform(lo, hi, size))
    coords = [0.0, -0.0, 0.25, 0.5, 1.0]
    columns = [rng.choice(coords, size) for _ in range(draw(st.integers(1, 2)))]
    return margins, columns, draw(st.sampled_from([(), (2.5,), (2.0, 3.0)])), tolerance


class TestScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_blocks())
    def test_fast_path_equals_the_full_scan(self, case):
        margins, columns, tail, tolerance = case
        got = verify._scan(margins.copy(), columns, tail, tolerance)
        want = scan_before(margins.copy(), columns, tail, tolerance)
        # repr tells -0.0 from 0.0 in the minimum, the points and the margins.
        assert repr(got) == repr(want)
        assert [type(v) for v in got] == [type(v) for v in want]

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
        pts = gathered_points(fam, spec)
        points = list(zip(pts["x"].tolist(), pts["y"].tolist()))
        low = [pt + (2.0,) for pt in points if pt[0] < 0.05]
        rest = [pt + (2.0,) for pt in points if pt[0] >= 0.05]
        n_low = len(low)
        assert 0 < n_low < verify.MAX_VIOLATIONS
        expected = [(pt, -2.0) for pt in low]
        expected += [(pt, -1.0) for pt in rest[: verify.MAX_VIOLATIONS - n_low]]
        assert report.violations == expected
        assert report.violations_total == report.points_checked


# The grid families that check a regime's relation (all but lemma1).
REGIME_GRID_FAMILIES = [name for name in verify.GRID_FAMILIES if verify.family_of(name).regime]


def spec_or_reject(family, **fields):
    """``verify.default_spec(family, **fields)``; a box that misses the
    family's domain is refused when its spec is made (``TestBoxMeetsDomain``),
    and rejects the example instead."""
    try:
        return verify.default_spec(family, **fields)
    except ValueError as exc:
        samples = fields["random_samples"]
        refusals = ("sweep domain is empty", f"rejection sampling failed to reach {samples} points")
        assert str(exc) in refusals
        reject()


@st.composite
def grid_sweeps(draw, families=verify.GRID_FAMILIES):
    """A small grid spec of one of ``families`` inside the family's gates, a
    block size and a shift that lowers every margin (so that many points
    violate).  Only values the spec takes are drawn (``sweep_takes``): a
    refused one is never made."""
    fam = verify.family_of(draw(st.sampled_from(families)))
    gates = {name: (lo, hi, hi_open) for name, lo, hi, hi_open in fam.gates}

    def values(name, count, unique=False):
        lo, hi, hi_open = gates[name]
        hi = min(hi, lo + 7.0)
        floats = st.floats(lo, hi, exclude_max=hi_open)
        floats = floats.filter(lambda value: sweep_takes(fam, name, value))
        return draw(st.lists(floats, min_size=count, max_size=count, unique=unique))

    grid = tuple(
        (name, *sorted(values(name, 2)), draw(st.integers(2, 25)))
        for name, *_ in fam.axes
    )
    params = tuple(
        (name, tuple(values(name, draw(st.integers(1, 2)), unique=True)))
        for name, _ in fam.params
    )
    spec = spec_or_reject(
        fam.name,
        grid=grid,
        params=params,
        random_samples=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
        tolerance=draw(st.sampled_from([1e-18, 1e-15, 1e-12, 1e-3, 0.5])),
    )
    block = draw(st.one_of(st.integers(1, 64), st.integers(1, 5000)))
    return spec, block, draw(st.sampled_from([0.0, 0.0, 1e-2, 0.1]))


@st.composite
def full_mesh_sweeps(draw):
    """A spec whose domain keeps its whole mesh, and a block size.  lemma1
    takes mu up to 2000, where 2^mu overflows; a regime family takes a
    corner of the unit square inside its domain (x, y <= 0.7, and for the
    powered relations x >= 0.5 >= y).  2-50 steps per axis against blocks
    of 1-64 points split rows into chunks."""
    fam = verify.family_of(draw(st.sampled_from(verify.GRID_FAMILIES)))
    gates = {name: (lo, hi, hi_open) for name, lo, hi, hi_open in fam.gates}

    def between(lo, hi, count):
        return sorted(draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count)))

    if fam.name == "lemma1":
        ranges = {"x": between(0.0, 1.0, 2), "mu": between(1.0, 2000.0, 2)}
    elif fam.domain is verify._domain_disc:
        ranges = {"x": between(0.0, 0.7, 2), "y": between(0.0, 0.7, 2)}
    else:
        ranges = {"x": between(0.5, 0.7, 2), "y": between(0.0, 0.5, 2)}
    grid = tuple((name, *ranges[name], draw(st.integers(2, 50))) for name, *_ in fam.axes)

    def values(name):
        # Only values the spec takes: a refused spec is never made.  The
        # refusals have their own tests.
        lo, hi, hi_open = gates[name]
        floats = st.floats(lo, min(hi, lo + 7.0), exclude_max=hi_open)
        floats = floats.filter(lambda value: sweep_takes(fam, name, value))
        return tuple(draw(st.lists(floats, min_size=1, max_size=2, unique=True)))

    spec = verify.default_spec(
        fam.name,
        grid=grid,
        params=tuple((name, values(name)) for name, _ in fam.params),
        random_samples=draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
        tolerance=draw(st.sampled_from([1e-18, 1e-12, 0.5])),
    )
    return spec, draw(st.integers(1, 64))


def sweep_takes(fam, name, value):
    """Whether a spec of ``fam`` takes ``value`` for its axis or parameter
    ``name``: inside the gate, whose open edge excludes its slack of
    roundoff, and, for a regime's index, one the measure's check takes
    (renyi_window's window holds alpha = 1, which the Renyi check refuses;
    test_cli.py's test_von_neumann_limit_refused_before_any_point)."""
    lo, hi, hi_open = next(gate for gate_name, *gate in fam.gates if gate_name == name)
    if not measures.Window(lo, hi, hi_open).contains(value):
        return False
    if fam.regime is not None:
        measure = measures.MEASURES[bounds.REGIMES[fam.regime].measure]
        if name == measure.index:
            try:
                measure.check(value)
            except ValueError:
                return False
    return True


def every_run_full(spec):
    """Whether ``verify._grid_points`` keeps every mesh row of ``spec`` whole."""
    _, (start, stop) = verify._grid_points(verify.family_of(spec.family), spec)
    return bool(np.all(start == 0) and np.all(stop == spec.grid[1][3]))


def sweep_outcome(spec):
    try:
        return verify.run_sweep(spec).to_json()
    except ValueError as exc:  # an empty domain or a failed rejection sampler
        return f"error: {exc}"


def freeze(value):
    """Make every array in ``value`` (nested tuples, lists and dicts) read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, dict):
        for item in value.values():
            freeze(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            freeze(item)


def frozen_tree(value):
    freeze(value)
    return value


def flat_columns(block, names):
    """Copies of a block's coordinate columns, of equal length: a tile's
    column and row broadcast to the tile and raveled in C order, a ragged
    block's columns gathered from its axis runs."""
    shape = np.broadcast_shapes(*(np.shape(block[name]) for name in names))
    return {name: np.broadcast_to(block[name], shape).flatten() for name in names}


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

    @settings(max_examples=60, deadline=None)
    @given(grid_sweeps(REGIME_GRID_FAMILIES))
    # 245 mesh points and 40 samples: the third block of 97 holds the last
    # 51 mesh points and every sample.
    @example((small_spec("lemma6", random_samples=40, seed=2), 97, 0.0))
    def test_block_margins_equal_plain_columns_bit_for_bit(self, case):
        # Each engine block converts its axis values and gathers them; a
        # plain dict of the block's coordinates converts every point.
        spec, block, _shift = case
        fam = verify.family_of(spec.family)
        seen = []

        def recorded(pts, combo):
            # Copied: the block's margin rows are rewritten by the next combo.
            margins = fam.margin(pts, combo)
            seen.append((flat_columns(pts, ("x", "y")), dict(combo), margins.copy()))
            return margins

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verify.FAMILIES, fam.name, dataclasses.replace(fam, margin=recorded))
            mp.setattr(verify, "_SWEEP_BLOCK", block)
            sweep_outcome(spec)
        for columns, combo, margins in seen:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                plain = np.asarray(fam.margin(columns, combo), dtype=float)
            assert np.array_equal(margins.ravel().view(np.int64), plain.view(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(full_mesh_sweeps())
    # 2^mu overflows past mu = 1024; blocks of one point.
    @example((verify.default_spec("lemma1", grid=(("x", 0, 1, 2), ("mu", 900, 1100, 2))), 1))
    def test_tiles_equal_the_flat_route_bit_for_bit(self, case):
        # A mesh the domain keeps whole is walked as open-grid tiles; the
        # margins of every tile equal those of its points as flat columns,
        # and the report equals the one the flat (row run) route makes of
        # the same full runs.
        spec, block = case
        fam = verify.family_of(spec.family)
        names = [name for name, *_ in spec.grid]
        seen = []

        def recorded(pts, combo):
            margins = fam.margin(pts, combo)
            seen.append((flat_columns(pts, names), dict(combo), margins.copy()))
            return margins

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_SWEEP_BLOCK", block)
            assert every_run_full(spec)
            mp.setitem(verify.FAMILIES, fam.name, dataclasses.replace(fam, margin=recorded))
            tiled = sweep_outcome(spec)
            mp.setitem(verify.FAMILIES, fam.name, fam)
            mp.setattr(verify, "_tile_blocks", verify._run_blocks)
            assert sweep_outcome(spec) == tiled
        assert any(margins.ndim == 2 for _, _, margins in seen)
        for columns, combo, margins in seen:
            assert margins.size <= block
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                plain = np.asarray(fam.margin(columns, combo), dtype=float)
            assert np.array_equal(margins.ravel().view(np.int64), plain.view(np.int64))

    @pytest.mark.parametrize(
        "family,conversion,calls_per_block",
        [
            ("lemma2", "g_q", 3 * 3),  # 3 q values x 4 mu values
            ("lemma5", "f_alpha", 2 * 3),  # 2 alpha values x 4 mu values
            ("lemma6", "f_alpha", 4 * 3),  # 4 alpha values x 3 gamma values
            ("gqsuper", "g_q", 11 * 3),
            ("falphaadd", "f_alpha", 4 * 3),
            ("falphasqadd", "f_alpha", 4 * 3),
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
        # not a conversion and is not counted.  A grid block has three
        # spectra (the joint one and one per axis), a state block two (its
        # x and y); each takes one conversion per q or alpha, over the
        # whole spectrum, whatever the number of combos that share it.
        entropy = {"g_q": "tsallis_of_spectrum", "f_alpha": "renyi_of_spectrum"}[conversion]
        original, make_spectrum = getattr(measures, entropy), measures.qubit_spectrum
        spectra = []  # (spectrum, the sizes it was converted at)

        def spectrum(x, *, squared, out=None):
            lam = make_spectrum(x, squared=squared, out=out)
            spectra.append((lam, []))
            return lam

        def counted(lam, index, out=None):
            for made, sizes in spectra:
                if lam is made:
                    sizes.append(lam.shape[0])
            return original(lam, index, out=out)

        monkeypatch.setattr(measures, "qubit_spectrum", spectrum)
        monkeypatch.setattr(measures, entropy, counted)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", 97)
        spec = small_spec(family)
        report = verify.run_sweep(spec)
        n_points = report.points_checked // math.prod(len(v) for _, v in spec.params)
        n_blocks = -(-n_points // 97)
        n_values = len(spec.params[0][1])
        assert sum(len(sizes) for _, sizes in spectra) == calls_per_block * n_blocks
        assert len(spectra) == calls_per_block // n_values * n_blocks
        for lam, sizes in spectra:
            assert sizes == [lam.shape[0]] * n_values

    @pytest.mark.parametrize(
        "family",
        ["gqsuper", "falphaadd", "falphasqadd", "lemma2", "lemma5", "lemma6",
         "remark1", "remark2", "remark3"],
    )
    def test_spectra_once_per_block(self, family, monkeypatch):
        original = measures.qubit_spectrum
        sizes = []

        def counted(x, *, squared, out=None):
            sizes.append(np.size(x))
            return original(x, squared=squared, out=out)

        monkeypatch.setattr(measures, "qubit_spectrum", counted)
        monkeypatch.setattr(verify, "_SWEEP_BLOCK", 97)
        spec = small_spec(family)
        report = verify.run_sweep(spec)
        n_points = report.points_checked // math.prod(len(v) for _, v in spec.params)
        blocks = [(start, min(start + 97, n_points)) for start in range(0, n_points, 97)]
        if verify.family_of(family).kind == "state":
            # x and y, the larger and the smaller of C_ab and C_ac, each
            # over the whole block.
            assert sizes == [stop - start for start, stop in blocks for _ in range(2)]
            return
        # The joint concurrence over the whole block, then x and y over the
        # axis values the block uses: at most the axis's steps plus the
        # block's samples, whatever the number of q or alpha values.
        n_mesh = n_points - spec.random_samples
        steps = [steps for *_, steps in spec.grid]
        assert len(sizes) == 3 * len(blocks)
        for (start, stop), (joint, *axes) in zip(blocks, zip(*[iter(sizes)] * 3)):
            samples = max(0, stop - max(start, n_mesh))
            assert joint == stop - start
            assert all(1 <= size <= n + samples for size, n in zip(axes, steps))

    def test_pair_order_checked_once_per_block_and_index(self, monkeypatch):
        # A powered margin checks its block's memoised pair once per q or
        # alpha, not once per combo; a public tail checks on every call.
        check, calls = bounds._check_ordered, []

        def counted(e1, e2):
            calls.append(np.shape(e1))
            return check(e1, e2)

        monkeypatch.setattr(bounds, "_check_ordered", counted)
        verify.run_state_check("remark1", 400, 0)
        assert calls == [(400,)] * 3  # one block, 3 q values (x 4 eta values)
        for block in (97, verify._SWEEP_BLOCK):
            calls.clear()
            monkeypatch.setattr(verify, "_SWEEP_BLOCK", block)
            report = verify.run_sweep(verify.default_spec("lemma2"))
            n_points = report.points_checked // (3 * 4)  # 3 q values x 4 mu values
            assert len(calls) == 3 * -(-n_points // block)
        calls.clear()
        bounds.pair_bound_new(0.5, 0.2, 2.0)
        bounds.chain_bound((0.5, 0.3, 0.2), 2, 2.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("family", ["lemma2", "remark1"])
    def test_an_unordered_triple_is_refused(self, family, monkeypatch):
        # The order is checked once per block, but still checked: a triple
        # whose pair comes out unordered fails the sweep with the tails' message.
        triple = verify._grid_triple

        def swapped(pts, measure, value):
            full, e1, e2 = triple(pts, measure, value)
            return full, e2, e1

        monkeypatch.setattr(verify, "_grid_triple", swapped)
        if verify.family_of(family).kind == "grid":
            spec = small_spec(family)
        else:
            spec = verify.default_spec(family, random_samples=50)
        with pytest.raises(ValueError, match=r"^hypothesis violated: e1 < e2 \(caller must order\)$"):
            verify.run_sweep(spec)

    @pytest.mark.parametrize("family", verify.FAMILY_NAMES)
    def test_margin_twice_on_one_block_same_bits(self, family):
        # Axis tables, index columns and state columns are read-only from
        # the start, the first block's columns and axis runs once it is
        # built, and its memoised results after the first call, so a write
        # into any of them raises.
        fam = verify.family_of(family)
        if fam.kind == "grid":
            spec = small_spec(family, seed=4)
        else:
            spec = verify.default_spec(family, random_samples=300, seed=4)
        with pytest.MonkeyPatch.context() as mp:
            for source in ("_grid_points", "_state_tables"):
                built = getattr(verify, source)
                mp.setattr(verify, source, lambda *args, built=built: frozen_tree(built(*args)))
            block, _ = next(verify._blocks(fam, spec))
        freeze([dict(block), block.axes])
        for combo in verify._combos(verify.default_spec(family)):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                first = np.array(fam.margin(block, combo))
                freeze(block.memo)
                second = fam.margin(block, combo)
            assert first.view(np.int64).tolist() == second.view(np.int64).tolist(), combo

    # The tracemalloc peak of one benchmark-density sweep beyond its points,
    # in block columns of _SWEEP_BLOCK float64s: the sweep's workspace (ten
    # columns: the block's point positions, its memoised spectra and
    # entropies, and the temporaries of one margin evaluation) and the
    # per-axis values.  It measures 10.0 (lemma2) and 11.0 (gqsuper)
    # columns; separately allocated block arrays took 13.2 and 11.1, and
    # out-of-place margins 16.8 and 15.1.
    @pytest.mark.parametrize("family,bound", [("lemma2", 14.2), ("gqsuper", 12.1)])
    def test_block_temporaries_stay_bounded(self, family, bound):
        fam = verify.family_of(family)
        grid = tuple((name, lo, hi, 3 * steps) for name, lo, hi, steps in fam.axes)
        spec = verify.default_spec(family, grid=grid, random_samples=2000, seed=3)
        tables, runs = verify._grid_points(fam, spec)
        points = runs.nbytes + sum(table.nbytes for table in tables.values())
        # A first sweep imports what the sweep needs, outside the trace.
        verify.run_sweep(verify.default_spec(family, random_samples=5))
        tracemalloc.start()
        try:
            verify.run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - points) / (verify._SWEEP_BLOCK * 8) <= bound


# The benchmark's grid-sweep calls (bench/workloads.py, GridSweep): each grid
# family at 3x its default steps per axis with 2000 samples, three rounds,
# and the minor page faults (ru_minflt) each call takes.
FAULT_SCRIPT = """
import json, resource
from qmonogamy import verify

def spec(family, seed):
    grid = tuple((n, lo, hi, 3 * steps) for n, lo, hi, steps in verify.default_spec(family).grid)
    return verify.default_spec(family, grid=grid, random_samples=2000, seed=seed)

faults = {family: [] for family in verify.GRID_FAMILIES}
for seed in range(3):
    for family in verify.GRID_FAMILIES:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        verify.run_sweep(spec(family, seed))
        faults[family].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap behaviour")
def test_grid_sweeps_take_no_page_faults_after_the_first_round():
    # A sweep draws its block arrays from one workspace, which the heap
    # hands back to the next sweep: after the first round no call grows
    # the heap and has it trimmed again, so none faults its pages back in.
    src = os.path.dirname(os.path.dirname(verify.__file__))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert {family: counts for family, counts in faults.items() if max(counts[1:]) > 32} == {}


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
        with pytest.raises(ValueError, match="'q' values"):
            verify.default_spec(
                "remark1", random_samples=10, params=(("q", (5.0,)), ("eta", (1.0,)))
            )

    @pytest.mark.parametrize("family", verify.STATE_FAMILIES)
    @pytest.mark.parametrize(
        "n_states,seed", [(1, 0), (37, 5), (515, 7919), (verify._STATE_BLOCK + 3, 7919)]
    )
    def test_equals_run_sweep_of_the_default_spec(self, family, n_states, seed):
        spec = verify.default_spec(family, random_samples=n_states, seed=seed)
        expected = verify.run_sweep(spec).to_json()
        assert verify.run_state_check(family, n_states, seed).to_json() == expected

    def test_example_state_margin_structure(self):
        # The canonical example satisfies Tsallis additivity exactly at q=2,
        # so the pair bound saturates at eta=1 on those values.
        t_hi, t_lo = 30.0 / 81.0, 10.0 / 81.0
        margin = (40.0 / 81.0) - bounds.pair_bound_new(t_hi, t_lo, 1.0)
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
    @pytest.mark.parametrize("n_states", [1, 400, 515, verify._STATE_BLOCK + 3])
    def test_blocked_table_equals_per_state_loop(self, seed, n_states):
        # The closed forms against the spin-flip route, at roundoff.
        table = verify._state_tables(n_states, seed)
        reference = per_state_tables(n_states, seed)
        assert table.keys() == reference.keys()
        for name, column in reference.items():
            np.testing.assert_allclose(table[name], column, rtol=0, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("n_states", [1, 400, 515, verify._STATE_BLOCK + 3])
    def test_table_is_a_prefix_of_a_longer_table(self, seed, n_states):
        longer = verify._state_tables(2 * verify._STATE_BLOCK + 7, seed)
        # From the first row, and from a start whose rows cross a
        # _STATE_BLOCK edge of the longer table's draws.
        for start in (0, verify._STATE_BLOCK - 200):
            table = verify._state_tables(n_states, seed, start)
            for name, column in table.items():
                assert np.array_equal(column, longer[name][start : start + n_states]), (start, name)

    def test_pair_concurrence_bits_do_not_depend_on_the_stack_length(self):
        # From 256 KiB numpy may compute a product in place into a temporary
        # operand, which rounds differently; a row's bits must not depend on
        # the rows it is stacked with.  16384 rows are 8192 states' pairs.
        amps = states.random_pure_states(3, 8192, 3).reshape(-1, 2, 2, 2)
        stack = np.concatenate([amps.reshape(-1, 4, 2), amps.swapaxes(2, 3).reshape(-1, 4, 2)])
        whole = verify._pair_concurrence(stack)
        pieces = [verify._pair_concurrence(stack[k : k + 1000]) for k in range(0, len(stack), 1000)]
        assert whole.tobytes() == np.concatenate(pieces).tobytes()

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
        monkeypatch.setattr(
            states, "random_pure_states",
            lambda n, count, seed, start=0: rows[start : start + count],
        )
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

    # Bound on the tracemalloc peak beyond the six returned columns, per
    # state of one block: the block's amplitudes (128 bytes a state), its
    # uniforms and the temporaries of its reduction.  It measures 897
    # bytes; drawing the whole stream at once took 1585 at this size, and
    # grows with the table.
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_peak_memory_is_the_columns_and_one_block(self, seed):
        n_states = 3 * verify._STATE_BLOCK + 5
        table, peak = state_tables_peak(n_states, seed)
        columns = sum(column.nbytes for column in table.values())
        assert columns == 6 * 8 * n_states
        assert peak <= columns + 1024 * verify._STATE_BLOCK

    def test_state_sweep_peak_memory_is_flat_in_the_state_count(self):
        # One table a sweep block: 12 blocks of states peak as 3 do (within
        # 2 KB here), where a whole-run table added its six columns, 48
        # bytes a state (7.1 MB between these two counts).
        def peak(n_states):
            tracemalloc.start()
            try:
                verify.run_state_check("ckw", n_states, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A first sweep imports what the sweep needs, outside the trace.
        verify.run_state_check("ckw", 5)
        block = verify._SWEEP_BLOCK
        assert abs(peak(12 * block) - peak(3 * block)) <= block * 8

    @pytest.mark.parametrize("seed", sorted(STATE_TABLE_SHA256))
    def test_columns_pinned(self, seed):
        table = verify._state_tables(515, seed)
        digests = {name: hashlib.sha256(column.tobytes()).hexdigest() for name, column in table.items()}
        assert digests == STATE_TABLE_SHA256[seed]


# Each 3-qubit state family's grid twin, with the parameter names the twin
# gives the state family's.
GRID_TWINS = {"remark1": ("lemma2", {"eta": "mu"}), "remark2": ("lemma5", {}), "remark3": ("lemma6", {})}


@pytest.mark.parametrize("seed", [3, 7919])
@pytest.mark.parametrize("family", sorted(GRID_TWINS))
def test_state_margins_are_at_least_their_grid_twins(family, seed):
    # C^2(A|BC) = C_AB^2 + C_AC^2 + tau with tau >= 0 (Coffman, Kundu and
    # Wootters, PRA 61, 052306, 2000), and the cut entropy increases in it,
    # so a state's margin is at least its twin's at (max, min) of its pair
    # concurrences.  The smallest gap here is about 4e-8.
    table = verify._state_tables(20000, seed)
    x = np.maximum(table["c_ab"], table["c_ac"])
    y = np.minimum(table["c_ab"], table["c_ac"])
    twin, renamed = GRID_TWINS[family]
    for combo in verify._combos(verify.default_spec(family)):
        margins = verify.FAMILIES[family].margin({**table, "x": x, "y": y}, combo)
        twin_combo = {renamed.get(name, name): value for name, value in combo.items()}
        twin_margins = verify.FAMILIES[twin].margin({"x": x, "y": y}, twin_combo)
        assert np.all(margins >= twin_margins), combo


def pairwise_state_triple(table, measure, value):
    """A state's triple with each pair converted on its own: the pivot cut's
    entropy, then the larger and the smaller of the entropies of C_ab and
    C_ac (of their squares for the Tsallis measure)."""
    row = measures.MEASURES[measure]
    of_spectrum = getattr(measures, row.of_spectrum)
    full = of_spectrum(np.stack([table["lam_hi"], table["lam_lo"]], axis=-1), value)
    ab, ac = (
        of_spectrum(measures.qubit_spectrum(np.square(c) if row.squared else c, squared=row.squared), value)
        for c in (table["c_ab"], table["c_ac"])
    )
    return full, np.maximum(ab, ac), np.minimum(ab, ac)


@pytest.mark.parametrize("seed", [3, 7919])
@pytest.mark.parametrize("family", sorted(GRID_TWINS))
def test_state_margins_equal_the_pairwise_conversion(family, seed):
    # A sweep converts the larger and the smaller pair concurrence, its grid
    # twin's x and y; converting each pair and ordering the entropies gives
    # the same bits, since each conversion increases.  20000 states take
    # two sweep blocks.
    fam = verify.family_of(family)
    spec = verify.default_spec(family, random_samples=20000, seed=seed)
    regime = bounds.REGIMES[fam.regime]
    power = spec.params[1][0]
    for block, _ in verify._blocks(fam, spec):
        for combo in verify._combos(spec):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                margins = np.array(fam.margin(block, combo))
                full, e1, e2 = pairwise_state_triple(block, regime.measure, combo[regime.index])
                p = combo[power]
                bound = bounds.pair_bound_new(e1, e2, regime.power(p), regime.coupling)
                reference = np.power(full, p) - bound
            assert np.array_equal(margins, reference), combo


# The families that check a relation row (``verify._RELATIONS``): all but lemma1.
RELATION_FAMILIES = [name for name in verify.FAMILY_NAMES if name != "lemma1"]
# Exponents past which 2^mu overflows: mu (or eta) above 1024, and gamma = 2 mu.
OVERFLOWING = {"mu": (1020.0, 1100.0), "eta": (1020.0, 1100.0), "gamma": (2040.0, 2200.0)}


def relation_of(fam):
    """The relation row a family checks, its regime and its exponent's name."""
    if fam.regime is None:
        return verify._RELATIONS["ckw"], None, None
    power = fam.params[1][0] if len(fam.params) > 1 else None
    relation = verify._RELATIONS["additive" if power is None else "powered"]
    return relation, bounds.REGIMES[fam.regime], power


@st.composite
def relation_sweeps(draw):
    """A small spec of a family that checks a relation row, and a block
    size.  An exponent may lie where its tail overflows."""
    fam = verify.family_of(draw(st.sampled_from(RELATION_FAMILIES)))
    gates = {name: (lo, hi, hi_open) for name, lo, hi, hi_open in fam.gates}

    def values(name, count, unique=True):
        lo, hi, hi_open = gates[name]
        floats = st.floats(lo, min(hi, lo + 7.0), exclude_max=hi_open)
        if name in OVERFLOWING:
            floats |= st.floats(*OVERFLOWING[name])
        floats = floats.filter(lambda value: sweep_takes(fam, name, value))
        return draw(st.lists(floats, min_size=count, max_size=count, unique=unique))

    params = tuple((name, tuple(values(name, draw(st.integers(1, 2))))) for name, _ in fam.params)
    fields = {"params": params, "seed": draw(st.integers(0, 2**32 - 1))}
    if fam.kind == "state":
        spec = verify.default_spec(fam.name, random_samples=draw(st.integers(1, 300)), **fields)
    else:
        grid = tuple(
            (name, *sorted(values(name, 2, unique=False)), draw(st.integers(2, 25)))
            for name, *_ in fam.axes
        )
        spec = spec_or_reject(fam.name, grid=grid, random_samples=draw(st.integers(0, 60)), **fields)
        try:
            verify._grid_points(fam, spec)
        except ValueError as exc:
            # A box that meets its domain on a line only: no sample lands.
            assert str(exc) == f"rejection sampling failed to reach {spec.random_samples} points"
            reject()
    return spec, draw(st.integers(1, 400))


def public_relation(fam, columns, combo):
    """The lhs, the bound's terms and the margin of ``fam``'s relation at
    the points ``columns`` (plain arrays), from the public API: the
    conversions ``measures.g_q`` / ``f_alpha`` of each point's
    concurrences (a state's full cut is the entropy of its pivot spectrum),
    ``bounds.pair_bound_new``, and CKW's squares."""
    if fam.regime is None:
        c2_full, c_ab, c_ac = columns["c2_full"], columns["c_ab"], columns["c_ac"]
        return c2_full, [c_ab**2, c_ac**2], c2_full - c_ab**2 - c_ac**2
    regime = bounds.REGIMES[fam.regime]
    value, x, y = combo[regime.index], columns["x"], columns["y"]
    if regime.measure == "tsallis":
        full = measures.g_q(x * x + y * y, value)
        e1, e2 = measures.g_q(x * x, value), measures.g_q(y * y, value)
    else:
        full = measures.f_alpha(np.minimum(1.0, np.sqrt(x * x + y * y)), value)
        e1, e2 = measures.f_alpha(x, value), measures.f_alpha(y, value)
    if "lam_hi" in columns:
        of_spectrum = getattr(measures, measures.MEASURES[regime.measure].of_spectrum)
        full = of_spectrum(np.stack([columns["lam_hi"], columns["lam_lo"]], axis=-1), value)
    if len(fam.params) == 1:  # z^k >= x^k + y^k
        k = regime.degree
        z, xk, yk = (v if k == 1 else np.power(v, k) for v in (full, e1, e2))
        return z, [xk, yk], z - xk - yk
    p = combo[fam.params[1][0]]
    mu = p / 2.0 if regime.coupling == "squared" else p
    lhs, tail = np.power(full, p), bounds.pair_bound_new(e1, e2, mu, regime.coupling)
    return lhs, [tail], lhs - tail


def same_bits(got, want, shape):
    """Whether ``got``, broadcast to the block's point ``shape`` and
    raveled, has the bits of the flat ``want``."""
    got = np.broadcast_to(got, shape).ravel()
    return np.array_equal(got.view(np.int64), np.asarray(want, dtype=float).view(np.int64))


class TestRelationRows:
    @settings(max_examples=80, deadline=None)
    @given(relation_sweeps())
    # 2^mu overflows on a grid (x >= 0.5 >= y keeps whole rows: open-grid
    # tiles) and on states (mu = gamma / 2 = 1050).
    @example((verify.default_spec("lemma2", grid=(("x", 0.5, 0.7, 9), ("y", 0.0, 0.5, 7)),
                                  params=(("q", (2.5,)), ("mu", (2.0, 1030.0)))), 16))
    @example((verify.default_spec("remark3", random_samples=50,
                                  params=(("alpha", (1.5,)), ("gamma", (2100.0,)))), 16))
    def test_rows_equal_the_public_api_bit_for_bit(self, case):
        # Each row's lhs, each of its terms and the margin its rule derives,
        # on the engine's blocks (tiles, row runs and samples, or state
        # tables), against the same quantities built on the block's points
        # as plain columns.
        spec, block_size = case
        fam = verify.family_of(spec.family)
        relation, regime, power = relation_of(fam)
        if fam.kind == "grid":
            assert fam.domain is relation.domain
        checked = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_SWEEP_BLOCK", block_size)
            for block, _ in verify._blocks(fam, spec):
                if fam.kind == "grid":
                    columns = flat_columns(block, ("x", "y"))
                else:
                    columns = {name: np.array(column) for name, column in block.items()}
                for combo in verify._combos(spec):
                    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        # Copied: each term is rewritten by the next, the
                        # margin by the next combo.
                        lhs = np.array(relation.lhs(block, combo, regime, power))
                        terms = [np.array(t) for t in relation.terms(block, combo, regime, power)]
                        margin = np.array(fam.margin(block, combo))
                        want_lhs, want_terms, want_margin = public_relation(fam, columns, combo)
                    assert same_bits(lhs, want_lhs, margin.shape), combo
                    assert len(terms) == len(want_terms)
                    for term, want in zip(terms, want_terms):
                        assert same_bits(term, want, margin.shape), combo
                    assert same_bits(margin, want_margin, margin.shape), combo
                    checked += margin.size
        assert checked > 0


def state_tables_peak(n_states, seed):
    """``verify._state_tables(n_states, seed)`` and the tracemalloc peak of
    the call."""
    # A first call imports what the table needs, outside the trace.
    verify._state_tables(5, seed)
    tracemalloc.start()
    try:
        table = verify._state_tables(n_states, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, peak


def gathered_points(fam, spec):
    """The points of ``verify._blocks``' blocks as float columns: a ragged
    block's gathered from its axis runs, an open-grid tile's expanded."""
    names = [name for name, *_ in spec.grid]
    blocks = [flat_columns(block, names) for block, _ in verify._blocks(fam, spec)]
    return {name: np.concatenate([block[name] for block in blocks]) for name in names}


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
def grid_boxes(draw):
    """Any grid family, 2-40 steps per axis over a range inside its gates,
    0-60 rejection samples and any seed: ``(family, grid, samples, seed)``."""
    fam = verify.family_of(draw(st.sampled_from(verify.GRID_FAMILIES)))
    gates = {name: (lo, hi) for name, lo, hi, _hi_open in fam.gates}

    def axis(name):
        lo, hi = gates[name]
        ends = draw(st.lists(st.floats(lo, min(hi, lo + 7.0)), min_size=2, max_size=2))
        return (name, *sorted(ends), draw(st.integers(2, 40)))

    grid = tuple(axis(name) for name, *_ in fam.axes)
    return fam, grid, draw(st.integers(0, 60)), draw(st.integers(0, 2**64))


@st.composite
def grid_point_specs(draw):
    """The specs of ``grid_boxes`` (``spec_or_reject``)."""
    fam, grid, samples, seed = draw(grid_boxes())
    return fam, spec_or_reject(fam.name, grid=grid, random_samples=samples, seed=seed)


class TestBoxMeetsDomain:
    @pytest.mark.parametrize(
        ("family", "grid", "samples", "message"),
        [
            ("gqsuper", (("x", 0.9, 1.0, 60), ("y", 0.9, 1.0, 60)), 0, "sweep domain is empty"),
            ("lemma2", (("x", 0.0, 0.1, 60), ("y", 0.5, 1.0, 60)), 3,
             "rejection sampling failed to reach 3 points"),
            # The ordered disc's nearest point to this box's bottom edge is on
            # the diagonal, (0.8, 0.8), outside the disc; the corner (0, 0.8)
            # is inside the disc but not ordered.
            ("lemma5", (("x", 0.0, 1.0, 60), ("y", 0.8, 1.0, 60)), 0, "sweep domain is empty"),
        ],
    )
    def test_refused_when_made(self, family, grid, samples, message, monkeypatch):
        def no_points(*args):
            raise AssertionError("points built")

        monkeypatch.setattr(verify, "_grid_points", no_points)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify.default_spec(family, grid=grid, random_samples=samples)

    @settings(max_examples=150, deadline=None)
    @given(grid_boxes())
    # Both corners of the bottom edge miss the ordered disc; (0.5, 0.5) on
    # it is inside.
    @example((verify.family_of("lemma2"), (("x", 0.0, 1.0, 2), ("y", 0.5, 1.0, 2)), 0, 0))
    def test_refused_only_when_no_point_can_be_found(self, case):
        fam, grid, samples, seed = case
        try:
            verify.default_spec(fam.name, grid=grid, random_samples=samples, seed=seed)
            refusal = None
        except ValueError as exc:
            refusal = f"error: {exc}"
        if refusal is not None:
            # The reference route, on the same fields, finds no mesh point and
            # no sample, and stops with the same message.
            fields = types.SimpleNamespace(grid=grid, random_samples=samples, seed=seed)
            assert column_bytes(meshgrid_points, fam, fields) == refusal
        # A box with a point of the domain on a 101 x 101 mesh of it is made.
        dense = np.meshgrid(*(np.linspace(lo, hi, 101) for _, lo, hi, _ in grid), indexing="ij")
        if fam.domain(dict(zip((name for name, *_ in grid), dense))).any():
            assert refusal is None


class TestGridPoints:
    @settings(max_examples=150, deadline=None)
    @given(grid_point_specs())
    def test_columns_equal_the_meshgrid_route_byte_for_byte(self, case):
        fam, spec = case
        assert column_bytes(gathered_points, fam, spec) == column_bytes(
            meshgrid_points, fam, spec
        )

    @settings(max_examples=100, deadline=None)
    @given(grid_point_specs(), st.integers(1, 300))
    def test_runs_inside_rows_equal_the_meshgrid_route(self, case, block):
        # Every registered domain keeps a prefix of each row; a band keeps
        # a run that starts inside it, so the walk's jumps between rows go
        # both ways.
        fam, spec = case
        first, second = (name for name, *_ in spec.grid)
        band = dataclasses.replace(
            fam, domain=lambda pts: (pts[second] >= pts[first]) & (pts[second] <= pts[first] + 0.5)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_SWEEP_BLOCK", block)
            assert column_bytes(gathered_points, band, spec) == column_bytes(
                meshgrid_points, band, spec
            )

    @pytest.mark.parametrize("family", verify.GRID_FAMILIES)
    def test_default_grids_equal_the_meshgrid_route(self, family):
        fam = verify.family_of(family)
        spec = verify.default_spec(family, seed=3)
        assert column_bytes(gathered_points, fam, spec) == column_bytes(
            meshgrid_points, fam, spec
        )
        # Only a domain that keeps the whole mesh (lemma1's) keeps every row whole.
        assert every_run_full(spec) == (family == "lemma1")

    def test_empty_domain_is_an_error(self):
        # The box meets the ordered disc, at (0.5, 0.15) say, so the spec
        # is made, but no point of its 2 x 2 mesh lies inside.
        fam = verify.family_of("lemma2")
        grid = (("x", 0.0, 1.0, 2), ("y", 0.1, 0.2, 2))
        spec = verify.default_spec("lemma2", grid=grid, random_samples=0)
        with pytest.raises(ValueError, match="sweep domain is empty"):
            verify._grid_points(fam, spec)
        assert column_bytes(meshgrid_points, fam, spec) == "error: sweep domain is empty"

    def test_a_row_of_two_runs_is_an_error(self, monkeypatch):
        # Every domain keeps one run of y on each mesh row; one that keeps
        # two would lose points if it were walked as one.
        fam = dataclasses.replace(
            verify.family_of("lemma2"), domain=lambda pts: np.abs(pts["y"] - 0.5) > 0.25
        )
        monkeypatch.setitem(verify.FAMILIES, fam.name, fam)
        message = "family 'lemma2' keeps more than one run of 'y' on a mesh row"
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify._grid_points(fam, verify.default_spec("lemma2"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify.run_sweep(verify.default_spec("lemma2"))

    def test_mesh_past_the_cap_is_refused_before_any_allocation(self, monkeypatch):
        def no_linspace(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(np, "linspace", no_linspace)
        steps = verify._MAX_POINTS // 2 + 1
        message = (
            f"a sweep of a {steps} x 2 mesh ({2 * steps} points) and 500 samples "
            f"is past the cap of {verify._MAX_POINTS} points"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify.default_spec("lemma2", grid=(("x", 0.0, 1.0, steps), ("y", 0.0, 1.0, 2)))

    # Bound on the tracemalloc peak over the returned tables and runs, in
    # block columns of _SWEEP_BLOCK float64s: one block of mesh rows'
    # domain temporaries (its float x^2 + y^2, its boolean masks and the
    # buffers of broadcasting ufuncs).  It measures 2.2 columns at 1000 x
    # 1000 and 1.4 at 4000 x 4000; mask bits and index columns took 1.8 MB
    # (lemma2) and 3.4 MB (gqsuper) at 1000 x 1000.
    @pytest.mark.parametrize("family", ["lemma2", "gqsuper"])
    def test_peak_memory_stays_near_the_output(self, family):
        (tables, runs), peak = grid_points_peak(family, 1000)
        output = runs.nbytes + sum(table.nbytes for table in tables.values())
        assert runs.shape == (2, 1000)
        assert peak <= output + 3 * verify._SWEEP_BLOCK * 8

    @pytest.mark.parametrize("family", ["lemma2", "gqsuper"])
    def test_peak_memory_is_independent_of_the_mesh(self, family):
        # 16 times the mesh, and the same block of mesh rows: the peak
        # beyond the tables and runs does not grow, up to two block columns.
        excess = []
        for steps in (1000, 4000):
            (tables, runs), peak = grid_points_peak(family, steps)
            excess.append(peak - runs.nbytes - sum(table.nbytes for table in tables.values()))
        assert excess[1] <= excess[0] + 2 * verify._SWEEP_BLOCK * 8

    def test_full_mesh_peak_memory_is_tables_runs_and_one_row_block(self):
        # A domain that keeps the whole mesh (lemma1's) keeps every row
        # whole; beyond its tables and runs it holds at most one block of
        # mesh rows (a float64 column of _SWEEP_BLOCK points).
        (tables, runs), peak = grid_points_peak("lemma1", 1000)
        assert np.all(runs == [[0], [1000]])
        output = runs.nbytes + sum(table.nbytes for table in tables.values())
        assert peak <= output + verify._SWEEP_BLOCK * 8


def grid_points_peak(family, steps):
    """``verify._grid_points`` of ``family`` on a ``steps`` x ``steps``
    mesh with 500 samples, and the tracemalloc peak of the call."""
    fam = verify.family_of(family)
    grid = tuple((name, lo, hi, steps) for name, lo, hi, _steps in fam.axes)
    spec = verify.default_spec(family, grid=grid, random_samples=500)
    # A first call imports what the sampler needs, outside the trace.
    verify._grid_points(fam, verify.default_spec(family, random_samples=5))
    tracemalloc.start()
    try:
        pts = verify._grid_points(fam, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pts, peak


# The peak RSS in MB of a process that builds the grid source of lemma2 on
# an 8000 x 8000 mesh and walks every block of it, margins left out, and
# the number of points it walked.  The peak is the process's own high-water
# mark (VmHWM), which its ru_maxrss equals when a shell starts it: Linux
# keeps the ru_maxrss of the process that launched it across the exec,
# and here that is the test runner.
RSS_SCRIPT = """
import json
from qmonogamy import verify

fam = verify.family_of("lemma2")
grid = tuple((name, lo, hi, 8000) for name, lo, hi, _steps in fam.axes)
spec = verify.default_spec("lemma2", grid=grid)
points = sum(block.axes["x"][1].size for block, _ in verify._blocks(fam, spec))
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([points, peak / 1024]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_grid_source_rss_is_independent_of_the_mesh():
    # 25133248 mesh points and 500 samples.  The process holds numpy
    # (about 31 MB), the tables, the runs and one sweep workspace (1.3 MB):
    # 37 MB.  Index columns and mask bits took 140 MB.
    src = os.path.dirname(os.path.dirname(verify.__file__))
    done = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    points, peak_mb = json.loads(done.stdout)
    assert points == 25133248 + verify.DEFAULT_RANDOM_SAMPLES
    assert peak_mb < 50
