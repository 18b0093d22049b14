import math

import numpy as np
import pytest

from qmonogamy import kernel, measures, states

WINDOW_ALPHA = measures.RENYI_ANALYTIC_MIN

EXAMPLE_PARAMS = states.AcinParams(
    (np.sqrt(5.0) / 3.0, 0.0, np.sqrt(3.0) / 3.0, 1.0 / 3.0, 0.0)
)


def example_state():
    return states.acin_state(EXAMPLE_PARAMS)


def example_pairs():
    rho = states.density(example_state())
    return (
        kernel.partial_trace(rho, 3, {0, 2}),  # |101> coherence: C = 2 sqrt(15)/9
        kernel.partial_trace(rho, 3, {0, 1}),  # |110> coherence: C = 2 sqrt(5)/9
    )


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return states.PureState(2, v)


class TestParams:
    def test_tsallis_gates(self):
        with pytest.raises(ValueError):
            measures.TsallisParam(1.0)
        with pytest.raises(ValueError):
            measures.TsallisParam(0.0)
        assert measures.TsallisParam(2.0).analytic
        assert measures.TsallisParam(2.0).in_bound_window
        assert not measures.TsallisParam(0.5).analytic
        assert not measures.TsallisParam(3.5).in_bound_window
        assert measures.TsallisParam(measures.TSALLIS_ANALYTIC_MAX).analytic

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_index_rejected(self, value):
        with pytest.raises(ValueError, match="q must be finite"):
            measures.TsallisParam(value)
        with pytest.raises(ValueError, match="alpha must be finite"):
            measures.RenyiParam(value)
        with pytest.raises(ValueError, match="alpha must be finite"):
            measures.f_alpha(0.5, value)

    def test_renyi_gates(self):
        with pytest.raises(ValueError):
            measures.RenyiParam(1.0)
        with pytest.raises(ValueError):
            measures.RenyiParam(-2.0)
        assert measures.RenyiParam(2.0).regime == "ge2"
        assert measures.RenyiParam(1.5).regime == "window"
        assert measures.RenyiParam(WINDOW_ALPHA).regime == "window"
        with pytest.raises(ValueError):
            _ = measures.RenyiParam(0.5).regime

    @pytest.mark.parametrize(
        "conversion,param", [("g_q", "TsallisParam"), ("f_alpha", "RenyiParam")]
    )
    def test_float_index_builds_one_param(self, conversion, param, monkeypatch):
        built = []

        class Counted(getattr(measures, param)):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(measures, param, Counted)
        getattr(measures, conversion)(np.array([0.25, 0.5]), 2.5)
        assert len(built) == 1
        getattr(measures, conversion)(0.5, Counted(2.5))
        assert len(built) == 2


class TestGq:
    def test_linear_at_q2(self):
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(measures.g_q(xs, 2.0) - xs / 2.0)) < 1e-12

    def test_example_value(self):
        assert measures.g_q(80.0 / 81.0, 2.0) == pytest.approx(40.0 / 81.0, abs=1e-12)

    def test_zero_for_every_q(self):
        for q in (0.75, 0.8, 2.0, 2.5, 3.0, 4.0):
            assert measures.g_q(0.0, q) == 0.0
            # 0.0, not -0.0: below q = 1 the formula divides 0 by q - 1 < 0.
            assert math.copysign(1.0, measures.g_q(0.0, q)) == 1.0, q
            assert not np.any(np.signbit(measures.g_q(np.zeros(3), q))), q

    def test_direct_substitution_q3(self):
        # at x = 1 both halves are (1/2)^3
        assert measures.g_q(1.0, 3.0) == pytest.approx((1 - 2 * 0.125) / 2, abs=1e-14)

    def test_domain_gate(self):
        with pytest.raises(ValueError):
            measures.g_q(1.5, 2.0)
        with pytest.raises(ValueError):
            measures.g_q(-0.1, 2.0)

    def test_window_gate(self):
        with pytest.raises(ValueError):
            measures.g_q(0.5, 5.0)
        with pytest.raises(ValueError):
            measures.g_q(0.5, 0.5)

    @pytest.mark.parametrize("q", [2.0, 2.5, 3.0])
    def test_monotone_and_convex(self, q):
        xs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        vals = measures.g_q(xs, q)
        first = np.diff(vals)
        second = np.diff(vals, 2)
        assert np.min(first) >= -1e-10
        assert np.min(second) >= -1e-8

    def test_superadditivity_grid(self):
        # g_q(x^2 + y^2) >= g_q(x^2) + g_q(y^2) for q in [2, 3].
        xs = np.linspace(0.0, 1.0, 40)
        x, y = np.meshgrid(xs, xs)
        mask = x**2 + y**2 <= 1.0
        x, y = x[mask], y[mask]
        for q in np.arange(2.0, 3.01, 0.25):
            margin = (
                measures.g_q(x * x + y * y, q)
                - measures.g_q(x * x, q)
                - measures.g_q(y * y, q)
            )
            assert np.min(margin) >= -1e-12


class TestFalpha:
    def test_closed_form_at_alpha2(self):
        xs = np.linspace(0.0, 1.0, 101)
        expected = 1.0 - np.log2(2.0 - xs * xs)
        assert np.max(np.abs(measures.f_alpha(xs, 2.0) - expected)) < 1e-12

    def test_example_values(self):
        assert measures.f_alpha(math.sqrt(80.0 / 81.0), 2.0) == pytest.approx(
            1.0 - math.log2(82.0 / 81.0), abs=1e-12
        )
        # full-cut and pair values at the window edge
        assert measures.f_alpha(math.sqrt(80.0 / 81.0), WINDOW_ALPHA) == pytest.approx(
            0.99265, abs=1e-5
        )
        assert measures.f_alpha(math.sqrt(60.0 / 81.0), WINDOW_ALPHA) == pytest.approx(
            0.83477, abs=1e-5
        )

    def test_endpoints(self):
        for a in (WINDOW_ALPHA, 1.3, 2.0, 3.0):
            assert measures.f_alpha(0.0, a) == 0.0
            # 0.0, not -0.0: above alpha = 1 the formula divides log2(1) by 1 - alpha.
            assert math.copysign(1.0, measures.f_alpha(0.0, a)) == 1.0, a
            assert not np.any(np.signbit(measures.f_alpha(np.zeros(3), a))), a
            assert measures.f_alpha(1.0, a) == pytest.approx(1.0, abs=1e-12)

    def test_domain_and_window_gates(self):
        with pytest.raises(ValueError):
            measures.f_alpha(1.5, 2.0)
        with pytest.raises(ValueError):
            measures.f_alpha(0.5, 0.5)

    @pytest.mark.parametrize("a", [WINDOW_ALPHA, 1.5, 2.0, 3.0])
    def test_monotone_and_convex(self, a):
        xs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        vals = measures.f_alpha(xs, a)
        assert np.min(np.diff(vals)) >= -1e-10
        assert np.min(np.diff(vals, 2)) >= -1e-8

    @pytest.mark.parametrize("a", [2.0, 2.5, 3.0, 4.0])
    def test_additivity_bound(self, a):
        xs = np.linspace(0.0, 1.0, 40)
        x, y = np.meshgrid(xs, xs)
        mask = x**2 + y**2 <= 1.0
        x, y = x[mask], y[mask]
        z = np.sqrt(x * x + y * y)
        margin = measures.f_alpha(z, a) - measures.f_alpha(x, a) - measures.f_alpha(y, a)
        assert np.min(margin) >= -1e-12

    @pytest.mark.parametrize("a", [WINDOW_ALPHA, 1.2, 1.5, 1.9])
    def test_squared_additivity_bound(self, a):
        xs = np.linspace(0.0, 1.0, 40)
        x, y = np.meshgrid(xs, xs)
        mask = x**2 + y**2 <= 1.0
        x, y = x[mask], y[mask]
        z = np.sqrt(x * x + y * y)
        fz = measures.f_alpha(z, a)
        fx = measures.f_alpha(x, a)
        fy = measures.f_alpha(y, a)
        assert np.min(fz * fz - fx * fx - fy * fy) >= -1e-12


class TestConcurrencePure:
    def test_product_state(self):
        st = states.PureState(2, np.array([1.0, 0.0, 0.0, 0.0]))
        assert measures.concurrence_pure(st, {0}) == 0.0

    def test_bell(self):
        assert measures.concurrence_pure(bell_state(), {0}) == pytest.approx(1.0, abs=1e-12)

    def test_example_state(self):
        c = measures.concurrence_pure(example_state(), {0})
        assert c == pytest.approx(math.sqrt(80.0 / 81.0), abs=1e-12)

    def test_zero_iff_product(self):
        rng = np.random.default_rng(31)
        one = states.haar_state_vector(2, rng)
        other = states.haar_state_vector(4, rng)
        product = states.PureState(3, np.kron(one, other))
        assert measures.concurrence_pure(product, {0}) < 1e-10
        entangled = states.random_pure_state(3, 5)
        assert measures.concurrence_pure(entangled, {0}) > 1e-3

    def test_side_must_be_proper_subset(self):
        st = bell_state()
        with pytest.raises(ValueError):
            measures.concurrence_pure(st, set())
        with pytest.raises(ValueError):
            measures.concurrence_pure(st, {0, 1})
        with pytest.raises(ValueError):
            measures.concurrence_pure(st, {2})


class TestConcurrenceTwoQubit:
    def test_example_pairs(self):
        pair_hi, pair_lo = example_pairs()
        assert measures.concurrence_two_qubit(pair_hi) == pytest.approx(
            2.0 * np.sqrt(15.0) / 9.0, abs=1e-12
        )
        assert measures.concurrence_two_qubit(pair_lo) == pytest.approx(
            2.0 * np.sqrt(5.0) / 9.0, abs=1e-12
        )

    def test_maximally_mixed_is_separable(self):
        assert measures.concurrence_two_qubit(np.eye(4, dtype=complex) / 4.0) == 0.0

    def test_matches_pure_state_formula(self):
        for seed in range(1000):
            st = states.random_pure_state(2, seed)
            c_pure = measures.concurrence_pure(st, {0})
            c_mixed = measures.concurrence_two_qubit(states.density(st))
            assert abs(c_pure - c_mixed) < 1e-9

    def test_werner_closed_form(self):
        # p Bell + (1-p) I/4 has concurrence max(0, (3p-1)/2).
        v = bell_state().amplitudes
        bell_rho = np.outer(v, v.conj())
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9):
            rho = p * bell_rho + (1 - p) * np.eye(4) / 4.0
            expected = max(0.0, (3 * p - 1) / 2)
            assert measures.concurrence_two_qubit(rho) == pytest.approx(expected, abs=1e-12)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            measures.concurrence_two_qubit(np.eye(4, dtype=complex))  # trace 4
        with pytest.raises(ValueError):
            measures.concurrence_two_qubit(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))


class TestTsallisEvaluators:
    def test_product_state_zero(self):
        st = states.PureState(2, np.array([1.0, 0.0, 0.0, 0.0]))
        assert measures.tsallis_pure(st, {0}, 2.0) == pytest.approx(0.0, abs=1e-14)
        for q in (0.5, 0.8, 2.0):
            # 0.0, not -0.0, also where q - 1 < 0 divides the zero.
            assert math.copysign(1.0, measures.tsallis_pure(st, {0}, q)) == 1.0, q

    def test_example_full_cut(self):
        assert measures.tsallis_pure(example_state(), {0}, 2.0) == pytest.approx(
            40.0 / 81.0, abs=1e-12
        )

    def test_bell(self):
        assert measures.tsallis_pure(bell_state(), {0}, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_example_pair_values(self):
        pair_hi, pair_lo = example_pairs()
        assert measures.tsallis_two_qubit(pair_hi, 2.0) == pytest.approx(30.0 / 81.0, abs=1e-10)
        assert measures.tsallis_two_qubit(pair_lo, 2.0) == pytest.approx(10.0 / 81.0, abs=1e-10)

    def test_separable_diagonal(self):
        rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        assert measures.tsallis_two_qubit(rho, 2.5) == 0.0

    def test_matches_analytic_formula(self):
        for seed in range(1000):
            st = states.random_pure_state(3, seed)
            spectral = measures.tsallis_pure(st, {0}, 2.0)
            c = measures.concurrence_pure(st, {0})
            assert abs(spectral - measures.g_q(c * c, 2.0)) < 1e-9

    def test_matches_analytic_formula_other_q(self):
        for seed in range(100):
            st = states.random_pure_state(3, seed)
            for q in (2.5, 3.0):
                spectral = measures.tsallis_pure(st, {0}, q)
                c = measures.concurrence_pure(st, {0})
                assert abs(spectral - measures.g_q(c * c, q)) < 1e-9


class TestRenyiEvaluators:
    def test_product_state_zero(self):
        st = states.PureState(2, np.array([0.0, 0.0, 1.0, 0.0]))
        assert measures.renyi_pure(st, {0}, 2.0) == pytest.approx(0.0, abs=1e-12)
        for alpha in (0.5, 2.0, 3.0):
            # 0.0, not -0.0, also where 1 - alpha < 0 divides log2(1).
            assert math.copysign(1.0, measures.renyi_pure(st, {0}, alpha)) == 1.0, alpha

    def test_example_full_cut(self):
        assert measures.renyi_pure(example_state(), {0}, 2.0) == pytest.approx(
            1.0 - math.log2(82.0 / 81.0), abs=1e-12
        )
        assert measures.renyi_pure(example_state(), {0}, WINDOW_ALPHA) == pytest.approx(
            0.99265, abs=1e-5
        )

    def test_example_pair_values(self):
        pair_hi, pair_lo = example_pairs()
        assert measures.renyi_two_qubit(pair_hi, 2.0) == pytest.approx(0.66742, abs=1e-5)
        assert measures.renyi_two_qubit(pair_lo, 2.0) == pytest.approx(0.19010, abs=1e-5)
        assert measures.renyi_two_qubit(pair_hi, WINDOW_ALPHA) == pytest.approx(0.83477, abs=1e-5)
        assert measures.renyi_two_qubit(pair_lo, WINDOW_ALPHA) == pytest.approx(0.41466, abs=1e-5)

    def test_matches_analytic_formula(self):
        for seed in range(1000):
            st = states.random_pure_state(3, seed)
            spectral = measures.renyi_pure(st, {0}, 2.0)
            c = measures.concurrence_pure(st, {0})
            assert abs(spectral - measures.f_alpha(c, 2.0)) < 1e-9


class TestMonogamyChain:
    def test_squared_concurrence_chain(self):
        # C^2(A|BC) >= C^2(AB) + C^2(AC) on random 3-qubit pure states.
        for seed in range(1000):
            st = states.random_pure_state(3, seed)
            rho = states.density(st)
            c_full = measures.concurrence_pure(st, {0})
            c_ab = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 1}))
            c_ac = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 2}))
            assert c_full**2 - c_ab**2 - c_ac**2 >= -1e-9
