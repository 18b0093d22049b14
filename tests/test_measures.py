import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The three pure-cut wrappers and the index arguments they take after the side.
PURE_CUT_WRAPPERS = [
    (measures.concurrence_pure, ()),
    (measures.tsallis_pure, (2.0,)),
    (measures.renyi_pure, (1.5,)),
]


class TestParams:
    """Each measure's index check and analytic window are its ``MEASURES``
    row."""

    def test_rows(self):
        rows = [tuple(row) for row in measures.MEASURES.values()]
        assert rows == [
            ("tsallis", "q", measures.TSALLIS_ANALYTIC, True, "tsallis_of_spectrum"),
            ("renyi", "alpha", measures.RENYI_ANALYTIC, False, "renyi_of_spectrum"),
        ]
        for name, row in measures.MEASURES.items():
            assert row.name == name
            assert callable(getattr(measures, row.of_spectrum))

    def test_tsallis_gates(self):
        tsallis = measures.MEASURES["tsallis"]
        for value in (1.0, 0.0, -2.0):
            with pytest.raises(ValueError, match=f"^q must be positive and != 1, got {value}$"):
                tsallis.check(value)
        assert tsallis.check(2) == 2.0 and type(tsallis.check(2)) is float
        assert tsallis.analytic.contains(2.0)
        assert not tsallis.analytic.contains(0.5)
        assert tsallis.analytic.contains(measures.TSALLIS_ANALYTIC_MAX)
        for q in (0.5, 5.0):
            message = rf"^q {q} outside the analytic window \[0.697224, 4.302776\]$"
            with pytest.raises(ValueError, match=message):
                measures.g_q(0.5, q)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_index_rejected(self, value):
        for name, index in (("tsallis", "q"), ("renyi", "alpha")):
            with pytest.raises(ValueError, match=f"^{index} must be finite, got {value}$"):
                measures.MEASURES[name].check(value)
        with pytest.raises(ValueError, match="^q must be finite"):
            measures.g_q(0.5, value)
        with pytest.raises(ValueError, match="^alpha must be finite"):
            measures.f_alpha(0.5, value)

    def test_renyi_gates(self):
        renyi = measures.MEASURES["renyi"]
        for value in (1.0, 0.0, -2.0):
            with pytest.raises(ValueError, match=f"^alpha must be positive and != 1, got {value}$"):
                renyi.check(value)
        assert renyi.analytic.contains(WINDOW_ALPHA)
        assert not renyi.analytic.contains(0.5)
        message = "^alpha 0.5 below the analytic threshold 0.822876$"
        with pytest.raises(ValueError, match=message):
            measures.f_alpha(0.5, 0.5)

    def test_one_edge_rule(self):
        # A closed edge admits 1e-12 of roundoff, an open edge excludes it.
        inside, outside = 5e-13, 2e-12
        renyi = measures.MEASURES["renyi"].analytic
        assert renyi.contains(WINDOW_ALPHA - inside)
        assert not renyi.contains(WINDOW_ALPHA - outside)
        values = np.array([1.0 - outside, 1.0 - inside, 2.0 - inside, 2.0])
        assert measures.Window(1.0, 2.0, hi_open=True).contains(values).tolist() == [
            False, True, False, False
        ]


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
        for x in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                measures.g_q(x, 2.0)

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
        for x in (1.5, math.nan):
            with pytest.raises(ValueError):
                measures.f_alpha(x, 2.0)
        with pytest.raises(ValueError):
            measures.f_alpha(0.5, 0.5)

    @pytest.mark.parametrize("a", [1100.0, 2000.0, 1e308])
    def test_huge_alpha_tends_to_the_min_entropy(self, a):
        # Every power of these spectra underflows; with lam_lo / lam_max below
        # 0.6 the value is a * -log2(lam_max) / (a - 1) to double precision.
        xs = np.array([0.3, 0.6, 0.9])
        top = measures.qubit_spectrum(xs, squared=False)[:, 0]
        expected = -np.log2(top) * a / (a - 1.0)
        assert np.allclose(measures.f_alpha(xs, a), expected, rtol=1e-14, atol=0.0)
        assert measures.f_alpha(0.0, a) == 0.0
        assert measures.f_alpha(1.0, a) == pytest.approx(1.0, abs=1e-12)

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


def g_q_reference(x, q):
    """g_q in one piece, with no spectrum step: the spectrum path must match
    it bit for bit.  The two powers are taken as one array, as the spectrum
    path takes them, and the value is clamped at 0.0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
        raise ValueError("x outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    root = np.sqrt(np.maximum(0.0, 1.0 - arr))
    hi = (1.0 + root) / 2.0
    lo = (1.0 - root) / 2.0
    powers = np.array([hi, lo]) ** q
    vals = np.maximum((1.0 - powers[0] - powers[1]) / (q - 1.0), 0.0)
    return float(vals) if np.ndim(x) == 0 else vals


def f_alpha_reference(x, alpha):
    """f_alpha in one piece, with no spectrum step: the spectrum path must
    match it bit for bit.  Powers as in ``g_q_reference``; clamped at 0.0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
        raise ValueError("x outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    root = np.sqrt(np.maximum(0.0, 1.0 - arr * arr))
    hi = (1.0 + root) / 2.0
    lo = (1.0 - root) / 2.0
    powers = np.array([hi, lo]) ** alpha
    vals = np.maximum(np.log2(powers[0] + powers[1]) / (1.0 - alpha), 0.0)
    return float(vals) if np.ndim(x) == 0 else vals


def hexes(value):
    return [float(v).hex() for v in np.ravel(value)]


# Conversion inputs: the domain edges, the slack on either side of them and
# anything in between.
UNIT_INPUTS = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0 + 1e-10, -1e-10, 0.5]),
    st.floats(0.0, 1.0),
)
SCALAR_OR_ARRAY = st.one_of(
    UNIT_INPUTS, st.lists(UNIT_INPUTS, min_size=1, max_size=20).map(np.array)
)


TSALLIS_INDEX = st.floats(measures.TSALLIS_ANALYTIC_MIN, measures.TSALLIS_ANALYTIC_MAX).filter(
    lambda q: q != 1.0
)
RENYI_INDEX = st.floats(WINDOW_ALPHA, 40.0).filter(lambda a: a != 1.0)


class TestQubitSpectrum:
    @settings(max_examples=300, deadline=None)
    @given(x=SCALAR_OR_ARRAY, q=TSALLIS_INDEX)
    def test_g_q_of_spectrum_same_bits(self, x, q):
        spectrum = measures.qubit_spectrum(x, squared=True)
        reference = g_q_reference(x, q)
        got = measures.g_q(x, q)
        assert type(got) is type(reference)
        assert hexes(got) == hexes(reference)
        assert hexes(measures.tsallis_of_spectrum(spectrum, q)) == hexes(reference)

    @settings(max_examples=300, deadline=None)
    @given(x=SCALAR_OR_ARRAY, alpha=RENYI_INDEX)
    def test_f_alpha_of_spectrum_same_bits(self, x, alpha):
        spectrum = measures.qubit_spectrum(x, squared=False)
        reference = f_alpha_reference(x, alpha)
        got = measures.f_alpha(x, alpha)
        assert type(got) is type(reference)
        assert hexes(got) == hexes(reference)
        assert hexes(measures.renyi_of_spectrum(spectrum, alpha)) == hexes(reference)

    @pytest.mark.parametrize("squared", [True, False])
    def test_domain_gate(self, squared):
        # NaN fails too, although every comparison with it is False.
        for x in (1.1, np.array([0.5, 1.1]), math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"x outside \[0, 1\]"):
                measures.qubit_spectrum(x, squared=squared)

    def test_window_gates_still_run(self):
        with pytest.raises(ValueError, match="outside the analytic window"):
            measures.g_q(0.5, 5.0)
        with pytest.raises(ValueError, match="below the analytic threshold"):
            measures.f_alpha(0.5, 0.5)


class TestScalarEqualsStacked:
    """A call on one value or one spectrum gives the bits of the matching
    member of a call on a stack of them."""

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(UNIT_INPUTS, min_size=1, max_size=20),
        i=st.integers(0, 19),
        q=TSALLIS_INDEX,
        alpha=RENYI_INDEX,
    )
    def test_member_bits(self, xs, i, q, alpha):
        stack = np.array(xs)
        x = xs[i % len(xs)]
        for conversion, index, entropy, squared in (
            (measures.g_q, q, measures.tsallis_of_spectrum, True),
            (measures.f_alpha, alpha, measures.renyi_of_spectrum, False),
        ):
            assert hexes(conversion(x, index)) == hexes(conversion(stack, index)[i % len(xs)])
            one = measures.qubit_spectrum(x, squared=squared)
            # Qubit spectra (contiguous columns) and the row-contiguous
            # stacks ``cut_spectrum`` returns.
            for spectra in (
                measures.qubit_spectrum(stack, squared=squared),
                np.ascontiguousarray(measures.qubit_spectrum(stack, squared=squared)),
            ):
                member = entropy(spectra, index)[i % len(xs)]
                assert hexes(entropy(one, index)) == hexes(member)

    def test_near_product_pair_clamps_to_zero(self):
        # The squared concurrence of a pair 3.7e-9 rad from a product state:
        # 1 - hi^q - lo^q is a roundoff negative there, clamped to 0.0.
        x = math.sin(2 * 3.7275937e-09) ** 2
        assert measures.g_q(x, 2.5) == 0.0
        assert np.all(measures.g_q(np.linspace(0.0, 1e-16, 2001), 2.5) >= 0.0)


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
        # Every pure-cut wrapper takes its side through measures.cut_spectrum.
        st = bell_state()
        for wrapper, args in PURE_CUT_WRAPPERS:
            for side in (set(), {0, 1}, {2}, [0, 1.0]):
                with pytest.raises(ValueError):
                    wrapper(st, side, *args)


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

    def test_spin_flip_rejects_negative_eigenvalue(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0])
        message = "density matrix has negative eigenvalue -2.000e-01"
        with pytest.raises(ValueError, match=f"^{message}$"):
            measures.spin_flip_spectrum(bad)
        with pytest.raises(ValueError, match=f"^stack member 1: {message}$"):
            measures.spin_flip_spectrum(np.stack([np.eye(4) / 4.0, bad]))


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


@pytest.mark.parametrize(
    "entropy,index", [("tsallis_pure", 2.0), ("renyi_pure", 1.5), ("concurrence_pure", None)]
)
def test_roundoff_product_cut_is_zero(entropy, index):
    # Qubit 2 of (|0000> + |1100>)/sqrt(2), amplitudes rounded up: the cut's
    # trace power lands a hair off 1 and the entropy a hair below 0.
    amps = np.zeros(16)
    amps[0] = amps[12] = 0.7071067811865476
    args = () if index is None else (index,)
    value = getattr(measures, entropy)(states.PureState(4, amps), {2}, *args)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("formula", [measures.tsallis_of_spectrum, measures.renyi_of_spectrum])
def test_spectrum_formulas_take_a_list(formula):
    lam = [0.75, 0.25]
    assert formula(lam, 2.0) == formula(np.array(lam), 2.0)
    assert formula([[0.5, 0.5], lam], 3.0).tolist() == [formula([0.5, 0.5], 3.0), formula(lam, 3.0)]


@pytest.mark.parametrize(
    "wrapper,args", PURE_CUT_WRAPPERS, ids=[w.__name__ for w, _ in PURE_CUT_WRAPPERS]
)
def test_non_integral_side_rejected(wrapper, args):
    # int() truncated 0.5 and computed the cut {0}.
    with pytest.raises(ValueError, match="qubit index must be an integer, got 0.5"):
        wrapper(states.random_pure_state(3, 5), [0.5], *args)


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


# ---------------------------------------------------------------------------
# In-place spectra and entropies: no input written, and the bits of the
# out-of-place formulas
# ---------------------------------------------------------------------------


def qubit_spectrum_before(x, squared):
    """``measures.qubit_spectrum`` as it was written before it wrote into
    one ``(2, ...)`` array, gate left out."""
    arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    root = np.sqrt(np.maximum(0.0, 1.0 - (arr if squared else arr * arr)))
    return np.moveaxis(np.array([(1.0 + root) / 2.0, (1.0 - root) / 2.0]), 0, -1)


def tsallis_before(lam, q):
    """``measures.tsallis_of_spectrum`` before it accumulated in place."""
    powers = lam**q
    rest = 1.0
    for k in range(powers.shape[-1]):
        rest = rest - powers[..., k]
    return np.maximum(rest / (q - 1.0), 0.0)


def renyi_before(lam, alpha):
    """``measures.renyi_of_spectrum`` before it accumulated in place."""
    shift = 0.0
    if alpha * math.log2(lam.shape[-1]) > 1000.0:
        top = np.max(lam, axis=-1, keepdims=True)
        lam, shift = lam / top, alpha * np.log2(top[..., 0])
    powers = lam**alpha
    total = powers[..., 0]
    for k in range(1, powers.shape[-1]):
        total = total + powers[..., k]
    return np.maximum((shift + np.log2(total)) / (1.0 - alpha), 0.0)


def int_bits(value):
    return np.asarray(value, dtype=float).view(np.int64).tolist()


def read_only(value):
    """A read-only copy of an array, so that any write into it raises; a
    Python float is returned as it is."""
    if isinstance(value, float):
        return value
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


@st.composite
def unit_inputs(draw):
    """x in [0, 1] up to the slack: a Python float, a 0-d array, a 1-D array
    or an ``(n, 1) + (1, m)`` broadcast of two halves."""
    shape = draw(st.sampled_from(["float", "0-d", "1-D", "broadcast"]))
    if shape == "float":
        return draw(UNIT_INPUTS)
    if shape == "0-d":
        return np.array(draw(UNIT_INPUTS))
    if shape == "1-D":
        return np.array(draw(st.lists(UNIT_INPUTS, min_size=1, max_size=12)))
    halves = st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6)
    return np.array(draw(halves))[:, None] + np.array(draw(halves))[None, :]


@st.composite
def spectra(draw):
    """Descending spectra along the last axis: one spectrum of 2-4 values,
    or an ``(n, 2)`` stack in either memory order, with exact zeros and
    exact ones among them."""
    unit = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    if draw(st.booleans()):
        weights = draw(st.lists(unit, min_size=2, max_size=4).filter(lambda w: sum(w) > 0))
        lam = np.sort(np.array(weights) / sum(weights))[::-1].copy()
        return lam
    lo = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=12)))
    stack = np.stack([1.0 - lo, lo], axis=-1)
    return stack if draw(st.booleans()) else np.asfortranarray(stack)


class TestInPlaceEntropies:
    @settings(max_examples=300, deadline=None)
    @given(x=unit_inputs(), squared=st.booleans())
    def test_qubit_spectrum_same_bits(self, x, squared):
        want = qubit_spectrum_before(x, squared)
        for x_in in (x, read_only(x)):
            got = measures.qubit_spectrum(x_in, squared=squared)
            assert got.shape == want.shape and int_bits(got) == int_bits(want)
            # Each eigenvalue column stays contiguous.
            assert all(got[..., k].flags.c_contiguous for k in range(2))

    @settings(max_examples=300, deadline=None)
    @given(lam=spectra(), q=TSALLIS_INDEX, alpha=RENYI_INDEX, huge=st.sampled_from([1500.0, 5e4]))
    def test_entropies_same_bits_and_types(self, lam, q, alpha, huge):
        frozen = read_only(lam)
        for entropy, before, index in (
            (measures.tsallis_of_spectrum, tsallis_before, q),
            (measures.renyi_of_spectrum, renyi_before, alpha),
            # Past alpha log2(k) = 1000 the top eigenvalue comes out first.
            (measures.renyi_of_spectrum, renyi_before, huge),
        ):
            want = before(lam, index)
            got = entropy(frozen, index)
            assert type(got) is type(want)
            assert int_bits(got) == int_bits(want)
        assert int_bits(frozen) == int_bits(lam)

    @settings(max_examples=300, deadline=None)
    @given(x=unit_inputs(), q=TSALLIS_INDEX, alpha=RENYI_INDEX)
    def test_conversions_same_bits_and_types(self, x, q, alpha):
        frozen = read_only(x)
        for conversion, before, index, squared in (
            (measures.g_q, tsallis_before, q, True),
            (measures.f_alpha, renyi_before, alpha, False),
        ):
            values = before(qubit_spectrum_before(x, squared), index)
            want = float(values) if np.ndim(x) == 0 else values
            got = conversion(frozen, index)
            assert type(got) is type(want)
            assert int_bits(got) == int_bits(want)

    @pytest.mark.parametrize("index", [0.8, 2.0, 3.5])
    def test_product_cut_is_positive_zero(self, index):
        # An exact product spectrum: both formulas give (+-0.0) / (1 - index)
        # before the clamp, which must leave +0.0, for one spectrum and for
        # each member of a stack.
        for lam in (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]])):
            for entropy in (measures.tsallis_of_spectrum, measures.renyi_of_spectrum):
                for value in np.ravel(entropy(lam, index)):
                    assert value == 0.0 and math.copysign(1.0, value) == 1.0
        for value in (measures.g_q(0.0, 2.5), measures.f_alpha(0.0, 2.5)):
            assert type(value) is float
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
