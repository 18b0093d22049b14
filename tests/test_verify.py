import json
import math

import numpy as np
import pytest

from qmonogamy import bounds, measures, verify


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
        with pytest.raises(ValueError):
            verify.SweepSpec("lemma1", random_samples=-1)
        with pytest.raises(ValueError):
            verify.SweepSpec("lemma1", grid=(("x", 1.0, 0.0, 5),))

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
        assert set(data) == {
            "family", "points", "min_margin", "argmin", "violations", "nonfinite"
        }
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

    def test_domain_gates(self):
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("lemma1", grid=(("x", 0.0, 1.0, 10), ("mu", 0.5, 2.0, 10))))
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("gqsuper", params=(("q", (1.5,)),)))
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("falphasqadd", params=(("alpha", (2.0,)),)))
        with pytest.raises(ValueError):
            verify.run_sweep(verify.default_spec("ckw"))


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
        report = verify.run_state_check(
            "remark2", n_states=40, seed=1, params={"alpha": (2.0,), "mu": (2.0,)}
        )
        assert report.points_checked == 40

    def test_rejects_grid_family(self):
        with pytest.raises(ValueError):
            verify.run_state_check("lemma1", n_states=10)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            verify.run_state_check("remark1", n_states=10, params={"q": (5.0,)})

    def test_example_state_margin_structure(self):
        # The canonical example satisfies Tsallis additivity exactly at q=2,
        # so the pair bound saturates at eta=1 on those values.
        t_hi, t_lo = 30.0 / 81.0, 10.0 / 81.0
        margin = (40.0 / 81.0) - bounds.pair_bound_new(t_hi, t_lo, bounds.PowerParam(1.0))
        assert margin == pytest.approx(0.0, abs=1e-12)


class TestRefine:
    def test_lemma1_refinement_stays_clean(self):
        report = verify.run_sweep(verify.default_spec("lemma1", random_samples=0))
        refined = verify.refine_near_equality(report, 5)
        assert refined.min_margin >= -1e-12
        assert refined.min_margin <= report.min_margin + report.spec.tolerance

    def test_refinement_contains_original_argmin(self):
        report = verify.run_sweep(small_spec("gqsuper", random_samples=0))
        refined = verify.refine_near_equality(report, 3)
        assert refined.min_margin <= report.min_margin + report.spec.tolerance
        assert refined.violations == []

    def test_factor_one_re_runs_neighborhood(self):
        report = verify.run_sweep(small_spec("falphaadd", random_samples=0))
        refined = verify.refine_near_equality(report, 1)
        assert refined.min_margin <= report.min_margin + report.spec.tolerance
        for (name, lo, hi, steps) in refined.spec.grid:
            assert steps == 3

    def test_state_refinement_multiplies_states(self):
        report = verify.run_state_check("ckw", n_states=60, seed=2)
        refined = verify.refine_near_equality(report, 2)
        assert refined.points_checked == 120
        assert refined.min_margin <= report.min_margin + report.spec.tolerance

    def test_factor_gate(self):
        report = verify.run_state_check("ckw", n_states=10, seed=2)
        with pytest.raises(ValueError):
            verify.refine_near_equality(report, 0)
