import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonogamy import bounds, kernel, measures, states, verify

WINDOW_ALPHA = measures.RENYI_ANALYTIC_MIN

# Exact canonical-example pair values for the Tsallis q=2 comparison:
# full cut 40/81, stronger pair 30/81, weaker pair 10/81.
T_FULL, T_HI, T_LO = 40.0 / 81.0, 30.0 / 81.0, 10.0 / 81.0


def example_state():
    return states.acin_state(
        states.AcinParams((np.sqrt(5.0) / 3.0, 0.0, np.sqrt(3.0) / 3.0, 1.0 / 3.0, 0.0))
    )


def pair_concurrences(st, pivot, order):
    """C(pivot, b) of each partner b in ``order``, one closed form per pair."""
    rho = states.density(st)
    return [
        measures.concurrence_two_qubit(kernel.partial_trace(rho, st.n_qubits, {pivot, b}))
        for b in order
    ]


def density_route_upper(st, pivot, rest):
    """The certificate's upper bracket from the density: the eigenpairs of
    the marginal on the pivot and ``rest``, one projector per live
    eigenvector, and the pivot spectrum of each projector."""
    keep = sorted({pivot, *rest})
    w, v = np.linalg.eigh(kernel.partial_trace(states.density(st), st.n_qubits, keep))
    live = w > 1e-12
    vecs = v[:, live].T
    projectors = vecs[:, :, None] * vecs[:, None, :].conj()
    spectra = measures.cut_spectrum(projectors, len(keep), {keep.index(pivot)})
    return float(np.sum(w[live] * np.sqrt(measures.squared_concurrence_of_spectrum(spectra))))


def certificate(st, pivot, order):
    return bounds.ordering_certificate(st, pivot, order, pair_concurrences(st, pivot, order))


class TestCheckPower:
    def test_gates(self):
        with pytest.raises(ValueError, match="power must be >= 1, got 0.5"):
            bounds.check_power(0.5)
        with pytest.raises(ValueError, match="power must be >= 1, got 0.5"):
            bounds.check_power(np.array([2.0, 0.5]))
        with pytest.raises(ValueError, match="power gamma must be >= 2, got 1.5"):
            bounds.check_power(1.5, "gamma")
        assert bounds.REGIMES["renyi_window"].power(5.0) == 2.5
        assert bounds.check_power(2) == 2.0 and type(bounds.check_power(2)) is float

    @settings(max_examples=300, deadline=None)
    @given(st.floats(2.0, 1.7e308))
    def test_gamma_round_trips_exactly(self, gamma):
        # The squared coupling's exponent is 2 mu; it must be gamma bit for bit.
        assert 2.0 * bounds.REGIMES["renyi_window"].power(gamma) == gamma

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_named(self, bad):
        with pytest.raises(ValueError, match=f"power mu must be finite, got {bad}"):
            bounds.check_power(bad)
        with pytest.raises(ValueError, match=f"power gamma must be finite, got {bad}"):
            bounds.REGIMES["renyi_window"].power(bad)


class TestRegimes:
    # A closed edge admits 1e-12 of roundoff, an open edge excludes it.
    INSIDE, OUTSIDE = 5e-13, 2e-12

    def test_tsallis_edges(self):
        for q in (2.0 - self.INSIDE, 2.0, 2.5, 3.0, 3.0 + self.INSIDE):
            assert bounds.regime_of("tsallis", q).name == "tsallis_q2to3"
        for q in (2.0 - self.OUTSIDE, 3.0 + self.OUTSIDE, 1.5, 3.5):
            message = rf"tsallis bounds need q in \[2.0, 3.0\], got {q}"
            with pytest.raises(ValueError, match=message):
                bounds.regime_of("tsallis", q)

    def test_renyi_edges(self):
        # The two Renyi rows split alpha = 2 without overlap.
        expected = [
            (WINDOW_ALPHA - self.INSIDE, "renyi_window"),
            (WINDOW_ALPHA, "renyi_window"),
            (1.5, "renyi_window"),
            (2.0 - self.OUTSIDE, "renyi_window"),
            (2.0 - self.INSIDE, "renyi_ge2"),
            (2.0, "renyi_ge2"),
            (2.0 + self.INSIDE, "renyi_ge2"),
            (1e6, "renyi_ge2"),
        ]
        for alpha, name in expected:
            assert bounds.regime_of("renyi", alpha).name == name, alpha
        for alpha in (WINDOW_ALPHA - self.OUTSIDE, 0.5):
            message = f"renyi bounds need alpha >= 0.822876, got {alpha}"
            with pytest.raises(ValueError, match=message):
                bounds.regime_of("renyi", alpha)

    def test_index_checked_before_the_windows(self):
        for measure, name in (("tsallis", "q"), ("renyi", "alpha")):
            with pytest.raises(ValueError, match=f"{name} must be finite, got nan"):
                bounds.regime_of(measure, math.nan)
            with pytest.raises(ValueError, match=f"{name} must be positive and != 1"):
                bounds.regime_of(measure, 1.0)
        with pytest.raises(ValueError, match="unknown measure 'shannon'"):
            bounds.regime_of("shannon", 2.0)

    def test_power_follows_the_coupling(self):
        assert bounds.REGIMES["renyi_ge2"].power(3.0) == 3.0
        assert bounds.REGIMES["renyi_window"].power(3.0) == 1.5
        assert [row.degree for row in bounds.REGIMES.values()] == [1, 1, 2]

    def test_table_invariants(self):
        for row in bounds.REGIMES.values():
            assert row.index == measures.MEASURES[row.measure].index
            assert row.coupling in bounds.COUPLINGS
            outer = measures.MEASURES[row.measure].analytic
            assert outer.lo <= row.window.lo and row.window.hi <= outer.hi, row.name
        # The Renyi rows tile [RENYI_ANALYTIC_MIN, inf): each value lies in
        # exactly one of them.
        renyi = sorted(row.window for row in bounds.REGIMES.values() if row.measure == "renyi")
        assert len(renyi) == 2
        assert renyi[0].lo == measures.RENYI_ANALYTIC_MIN and renyi[-1].hi == math.inf
        for below, above in zip(renyi, renyi[1:]):
            assert below.hi == above.lo and below.hi_open and not above.hi_open
        edges = [WINDOW_ALPHA, 2.0]
        probes = [e + d for e in edges for d in (-self.INSIDE, 0.0, self.INSIDE)]
        probes += list(np.linspace(WINDOW_ALPHA, 5.0, 97)) + [1e6]
        for alpha in probes:
            assert sum(bool(w.contains(alpha)) for w in renyi) == 1, alpha
        # Every row is checked by at least one grid and one state family.
        for kind in ("grid", "state"):
            checked = {fam.regime for fam in verify.FAMILIES.values() if fam.kind == kind}
            assert set(bounds.REGIMES) <= checked, kind


class TestPowerChain:
    def test_equality_at_endpoints(self):
        for mu in (1.0, 1.7, 2.0, 3.4, 5.0):
            lhs, tight, loose, naive = bounds.power_chain(1.0, mu)
            assert lhs == pytest.approx(2.0**mu, abs=1e-12)
            assert tight == pytest.approx(2.0**mu, abs=1e-12)
            assert loose == pytest.approx(2.0**mu, abs=1e-12)
            assert naive == pytest.approx(2.0**mu, abs=1e-12)
            assert bounds.power_chain(0.0, mu) == (1.0, 1.0, 1.0, 1.0)

    def test_direct_substitution(self):
        lhs, tight, loose, naive = bounds.power_chain(0.5, 2.0)
        assert lhs == 2.25
        assert tight == pytest.approx(1.0 + (4 / 3) * 0.5 + (4 - 4 / 3 - 1) * 0.25, abs=1e-15)
        assert loose == pytest.approx(2.0, abs=1e-15)
        assert naive == pytest.approx(1.75, abs=1e-15)
        # A scalar x with a list or an array of powers gives one array each.
        for mus in ([1.0, 2.0], np.array([2.0])):
            chain = bounds.power_chain(0.5, mus)
            assert all(type(v) is np.ndarray and v.shape == np.shape(mus) for v in chain)
            for k, mu in enumerate(mus):
                assert [v[k] for v in chain] == pytest.approx(bounds.power_chain(0.5, mu), abs=1e-15)

    def test_chain_dominance_grid(self):
        xs = np.linspace(0.0, 1.0, 50)
        mus = np.linspace(1.0, 5.0, 40)
        x, mu = map(np.ravel, np.meshgrid(xs, mus))
        lhs, tight, loose, naive = bounds.power_chain(x, mu)
        assert np.min(lhs - tight) >= -1e-12
        assert np.min(tight - loose) >= -1e-12
        assert np.min(loose - naive) >= -1e-12

    def test_domain_gates(self):
        for x in (1.2, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"x outside \[0, 1\]"):
                bounds.power_chain(x, 2.0)
        with pytest.raises(ValueError):
            bounds.power_chain(0.5, 0.8)

    def test_gate_slack_is_clipped(self):
        # The sweep gates admit 1e-12 of roundoff past x's edges.
        assert bounds.power_chain(1.0 + 1e-13, 2.5) == bounds.power_chain(1.0, 2.5)
        assert bounds.power_chain(-1e-13, 2.5) == bounds.power_chain(0.0, 2.5)
        for x in (1.0 + 2e-12, -2e-12):
            with pytest.raises(ValueError, match=r"x outside \[0, 1\]"):
                bounds.power_chain(x, 2.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_named(self, bad):
        # NaN passes the mu >= 1 check and inf makes NaN tails with warnings.
        with pytest.raises(ValueError, match=f"power mu must be finite, got {bad}"):
            bounds.power_chain(0.5, bad)
        with pytest.raises(ValueError, match=f"power mu must be finite, got {bad}"):
            bounds.power_chain(np.array([0.5, 0.5]), np.array([2.0, bad]))


class TestPairBounds:
    def test_single_party_reduction(self):
        p = bounds.REGIMES["renyi_window"].power(5.0)
        assert bounds.pair_bound_new(0.7, 0.0, p) == pytest.approx(0.7**2.5, abs=1e-15)
        assert bounds.pair_bound_new(0.7, 0.0, p, "squared") == pytest.approx(
            0.7**5.0, abs=1e-15
        )
        for coupling, power in (("linear", 2.5), ("squared", 5.0)):
            got = bounds.pair_bound_prior(0.7, 0.0, p, coupling)
            assert got == pytest.approx(0.7**power, abs=1e-15)

    def test_saturation_at_power_one(self):
        # g_2 is linear, so the canonical example satisfies additivity exactly.
        val = bounds.pair_bound_new(T_HI, T_LO, 1.0)
        assert val == pytest.approx(T_FULL, abs=1e-15)

    def test_example_prior_value(self):
        # hand-derived: e1^2 + 3 e2^2 + e2 (e1 - e2) = 1400/6561
        got = bounds.pair_bound_prior(T_HI, T_LO, 2.0)
        assert got == pytest.approx(1400.0 / 6561.0, abs=1e-15)

    @pytest.mark.parametrize("e1,e2", [(0.5, math.nan), (math.nan, 0.2), (math.nan, math.nan)])
    def test_nan_values_rejected(self, e1, e2):
        # Every comparison with NaN is False, so the sign check must fail it.
        for tail in (bounds.pair_bound_new, bounds.pair_bound_prior, bounds.pair_bound_naive):
            with pytest.raises(ValueError, match="nonnegative"):
                tail(e1, e2, 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            bounds.pair_bound_new(np.array([0.5, 0.4]), np.array([0.1, math.nan]), 2.0)

    @pytest.mark.parametrize("nan_in", ["e1", "e2"])
    @pytest.mark.parametrize("shape", ["0-d", "1-D", "open grid"])
    def test_nan_refused_with_the_message(self, nan_in, shape):
        e1, e2 = {
            "0-d": (np.array(0.5), np.array(0.2)),
            "1-D": (np.array([0.5, 0.4]), np.array([0.1, 0.2])),
            "open grid": (np.array([[0.5], [0.4]]), np.array([[0.1, 0.2, 0.3]])),
        }[shape]
        bad = {"e1": e1, "e2": e2}[nan_in].copy()
        bad.flat[-1] = math.nan
        args = (bad, e2) if nan_in == "e1" else (e1, bad)
        with pytest.raises(ValueError, match="^entanglement values must be finite and nonnegative$"):
            bounds.pair_bound_new(*args, 2.0)
        unordered = r"^hypothesis violated: e1 < e2 \(caller must order\)$"
        with pytest.raises(ValueError, match=unordered):
            bounds.pair_bound_new(e2, e1, 2.0)

    @pytest.mark.parametrize(
        "e1,e2",
        [
            (math.inf, 0.5),
            (0.5, math.inf),
            (np.array([0.5, math.inf]), np.array([0.1, 0.2])),
            (np.array([[0.5], [0.4]]), np.array([[0.1, math.inf]])),
        ],
    )
    def test_inf_refused_with_the_message(self, e1, e2):
        # As ``chain_bound`` refuses it; the sign and finite check comes
        # before the ordering one.
        with pytest.raises(ValueError, match="^entanglement values must be finite and nonnegative$"):
            bounds.pair_bound_new(e1, e2, 2.0)

    def test_array_mu_refused_by_name(self):
        # The scalar entries take one power (power_chain takes a row of them);
        # an array mu was a TypeError from float().
        two = r"^power mu must be a number, got an array of shape \(2,\)$"
        for tail in (bounds.pair_bound_new, bounds.pair_bound_prior, bounds.pair_bound_naive):
            with pytest.raises(ValueError, match=two):
                tail(0.5, 0.2, np.array([2.0, 3.0]))
        with pytest.raises(ValueError, match=two):
            bounds.chain_bound((0.5, 0.2), 1, np.array([2.0, 3.0]))
        with pytest.raises(ValueError, match=r"^power mu must be a number, got an array of shape \(1,\)$"):
            bounds.compare_chain(0.9, (0.5, 0.2), 1, np.array([2.0]), "tsallis_q2to3")
        # A 0-d array is one power.
        assert bounds.pair_bound_new(0.5, 0.2, np.array(2.0)) == bounds.pair_bound_new(0.5, 0.2, 2.0)

    def test_old_family_name_is_an_unknown_coupling(self):
        with pytest.raises(ValueError, match="unknown coupling 'ref11'"):
            bounds.pair_bound_prior(T_HI, T_LO, 2.0, "ref11")

    def test_example_new_value(self):
        # hand-derived: e1^2 + (4/3) e1 e2 + (5/3) e2^2 = 4400/19683
        got = bounds.pair_bound_new(T_HI, T_LO, 2.0)
        assert got == pytest.approx(4400.0 / 19683.0, abs=1e-15)

    def test_mu1_collapse_families_agree(self):
        p = 1.0
        for e1, e2 in ((0.9, 0.4), (0.5, 0.5), (0.3, 0.0)):
            new = bounds.pair_bound_new(e1, e2, p)
            assert new == pytest.approx(e1 + e2, abs=1e-15)
            assert bounds.pair_bound_prior(e1, e2, p) == pytest.approx(new, abs=1e-15)

    def test_squared_example_at_gamma2(self):
        e1 = measures.f_alpha(2.0 * math.sqrt(15.0) / 9.0, WINDOW_ALPHA)
        e2 = measures.f_alpha(2.0 * math.sqrt(5.0) / 9.0, WINDOW_ALPHA)
        p = bounds.REGIMES["renyi_window"].power(2.0)
        new = bounds.pair_bound_new(e1, e2, p, "squared")
        prior = bounds.pair_bound_prior(e1, e2, p, "squared")
        assert new == pytest.approx(e1 * e1 + e2 * e2, abs=1e-14)
        assert prior == pytest.approx(new, abs=1e-14)

    def test_ordering_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            bounds.pair_bound_new(0.2, 0.4, 2.0)
        with pytest.raises(ValueError):
            bounds.pair_bound_prior(0.2, 0.4, 2.0)

    def test_new_dominates_prior_everywhere(self):
        es = np.linspace(0.0, 1.0, 60)
        e1, e2 = map(np.ravel, np.meshgrid(es, es))
        keep = e1 >= e2
        e1, e2 = e1[keep], e2[keep]
        for mu in (1.0, 1.3, 2.0, 2.7, 4.0):
            p_lin = mu
            p_sq = bounds.REGIMES["renyi_window"].power(2.0 * mu)
            new_lin = bounds.pair_bound_new(e1, e2, p_lin)
            prior = bounds.pair_bound_prior(e1, e2, p_lin)
            assert np.min(new_lin - prior) >= -1e-12
            naive = bounds.pair_bound_naive(e1, e2, p_lin)
            assert np.min(prior - naive) >= -1e-12
            new_sq = bounds.pair_bound_new(e1, e2, p_sq, "squared")
            prior_sq = bounds.pair_bound_prior(e1, e2, p_sq, "squared")
            naive_sq = bounds.pair_bound_naive(e1, e2, p_sq, "squared")
            assert np.min(new_sq - prior_sq) >= -1e-12
            assert np.min(prior_sq - naive_sq) >= -1e-12


# Tails of values up to 2**8 agree to about 1e-13; the chain holds exactly.
DOMINANCE_RTOL = 1e-12


class TestTailDominanceProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(1.0, 8.0),
    )
    def test_new_prior_naive(self, a, b, mu):
        e1, e2 = max(a, b), min(a, b)
        p = mu
        for coupling in bounds.COUPLINGS:
            new = bounds.pair_bound_new(e1, e2, p, coupling)
            prior = bounds.pair_bound_prior(e1, e2, p, coupling)
            naive = bounds.pair_bound_naive(e1, e2, p, coupling)
            slack = DOMINANCE_RTOL * (1.0 + abs(new))
            assert new >= prior - slack, coupling
            assert prior >= naive - slack, coupling


class TestChainBound:
    def test_collapses_to_pair_bit_for_bit(self):
        p = 2.5
        for vals in ((0.7, 0.3), (0.5, 0.5), (0.2, 0.0)):
            assert bounds.chain_bound(vals, 1, p) == bounds.pair_bound_new(*vals, p)

    def test_four_party_descending_expansion(self):
        p = 1.8
        a, b, c = 0.8, 0.5, 0.2
        expected = a**1.8 + (2.0**p - 1) * bounds.pair_bound_new(b, c, p)
        assert bounds.chain_bound((a, b, c), 2, p) == pytest.approx(expected, abs=1e-15)

    def test_four_party_split_zero(self):
        p = 2.0
        a, b, c = 0.3, 0.5, 0.8
        expected = (2.0**p - 1) * a**2.0 + bounds.pair_bound_new(c, b, p)
        assert bounds.chain_bound((a, b, c), 0, p) == pytest.approx(expected, abs=1e-15)

    def test_all_zero(self):
        assert bounds.chain_bound((0.0, 0.0, 0.0), 2, 2.0) == 0.0

    def test_gates(self):
        p = 2.0
        with pytest.raises(ValueError):
            bounds.chain_bound((0.5,), 0, p)
        with pytest.raises(ValueError):
            bounds.chain_bound((0.5, 0.4), 2, p)
        with pytest.raises(ValueError):
            bounds.chain_bound((0.5, -0.1), 1, p)

    def test_split_index_is_an_integer(self):
        # An integral float is the integer; anything else is a ValueError.
        p = 2.0
        vals = (0.5, 0.3, 0.4)
        assert bounds.chain_bound(vals, 1.0, p) == bounds.chain_bound(vals, 1, p)
        report = bounds.compare_chain(0.9, vals, 1.0, p, "tsallis_q2to3")
        assert report == bounds.compare_chain(0.9, vals, 1, p, "tsallis_q2to3")
        for bad in (0.5, math.nan, "1", True):
            with pytest.raises(ValueError, match="split index must be an integer"):
                bounds.chain_bound(vals, bad, p)
            with pytest.raises(ValueError, match="split index must be an integer"):
                bounds.compare_chain(0.9, vals, bad, p, "tsallis_q2to3")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_named(self, bad):
        # NaN passes the sign check; both would make a non-finite chain.
        message = rf"must be finite and nonnegative, got \[{bad}, 0.1\]"
        with pytest.raises(ValueError, match=message):
            bounds.chain_bound([bad, 0.1], 1, 2.0)
        with pytest.raises(ValueError, match=message):
            bounds.compare_chain(0.5, [bad, 0.1], 1, 2.0, "tsallis_q2to3")

    def test_overflow_is_inf_not_overflow_error(self):
        # An overflowing power is numpy's, as in the pair tails: inf with a
        # RuntimeWarning, never OverflowError.
        for vals, m in (((1e200, 1e150, 1e-3), 2), ((1e200, 1e-3, 1e150), 1)):
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert bounds.chain_bound(vals, m, 3.0) == math.inf
        # At split 1 the last two values must ascend: the call ends in the
        # ordering error, not in the first value's overflow.
        with pytest.raises(ValueError, match="e1 < e2"), np.errstate(over="ignore"):
            bounds.chain_bound([1e200, 1e150, 1e-3], 1, 3.0)


class TestCompareBounds:
    def test_example_power_one_all_coincide(self):
        rep = bounds.compare_chain(
            T_FULL, (T_HI, T_LO), 1, 1.0, "tsallis_q2to3"
        )
        assert rep.margins[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.margins[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.margins[2] == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(T_FULL, abs=1e-15)

    def test_example_power_two_gap(self):
        # new - prior = (mu^2/(mu+1) - mu/2) e2 (e1 - e2) = 200/19683 here
        rep = bounds.compare_chain(
            T_FULL, (T_HI, T_LO), 1, 2.0, "tsallis_q2to3"
        )
        assert rep.lhs == pytest.approx(1600.0 / 6561.0, abs=1e-15)
        assert rep.new_bound - rep.prior_bound == pytest.approx(200.0 / 19683.0, abs=1e-14)
        assert all(m >= -1e-12 for m in rep.margins)

    def test_renyi_power_one(self):
        e_full = measures.f_alpha(math.sqrt(80.0 / 81.0), 2.0)
        e1 = measures.f_alpha(math.sqrt(60.0 / 81.0), 2.0)
        e2 = measures.f_alpha(math.sqrt(20.0 / 81.0), 2.0)
        rep = bounds.compare_chain(e_full, (e1, e2), 1, 1.0, "renyi_ge2")
        assert rep.new_bound == pytest.approx(e1 + e2, abs=1e-14)
        assert rep.prior_bound == pytest.approx(e1 + e2, abs=1e-14)
        assert rep.new_bound == pytest.approx(0.85752, abs=1e-5)
        assert rep.lhs >= rep.new_bound

    @pytest.mark.parametrize("lhs", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("exponent", [2.5, 2.0])
    def test_lhs_must_be_finite_and_nonnegative(self, lhs, exponent):
        # A negative lhs has a complex power at 2.5 and a positive one at 2.0;
        # a NaN one would read as an overflow.
        with pytest.raises(ValueError, match=f"^lhs must be finite and nonnegative, got {lhs}$"):
            bounds.compare_chain(lhs, (0.3, 0.1), 1, exponent, "tsallis_q2to3")

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            bounds.compare_chain(0.5, (0.4, 0.2), 1, 1.0, "nope")

    def test_overflow_is_a_value_error(self):
        # lhs**2000 overflows: the report names the exponent, and no
        # OverflowError escapes.
        message = (
            r"^exponent 2000.0 overflows the bound arithmetic "
            r"\(lhs, new, prior, naive = \(inf, "
        )
        with pytest.raises(ValueError, match=message):
            bounds.compare_chain(2.0, (1.5, 0.5), 1, 2000.0, "renyi_ge2")

    def test_needs_an_ordered_pair(self):
        with pytest.raises(ValueError, match="e1 < e2"):
            bounds.compare_chain(0.5, (0.2, 0.4), 1, 2.0, "tsallis_q2to3")
        with pytest.raises(ValueError, match="nonnegative"):
            bounds.compare_chain(0.5, (0.4, -0.2), 1, 2.0, "tsallis_q2to3")

    def test_chain_comparison_dominance(self):
        vals = np.linspace(0.0, 0.9, 8)
        for a in vals:
            for b in vals[vals <= a]:
                for c in vals[vals <= b]:
                    for mu in (1.0, 2.0, 3.0):
                        rep = bounds.compare_chain(
                            1.0, (a, b, c), 2, mu, "tsallis_q2to3"
                        )
                        assert rep.new_bound - rep.prior_bound >= -1e-12
                        assert rep.prior_bound - rep.naive_bound >= -1e-12


class TestStateLevelRemarks:
    def _pair_values(self, state):
        rho = states.density(state)
        return (
            kernel.partial_trace(rho, 3, {0, 1}),
            kernel.partial_trace(rho, 3, {0, 2}),
        )

    def test_tsallis_powered_monogamy_random_states(self):
        qs = (2.0, 2.5, 3.0)
        etas = (1.0, 1.5, 2.0, 3.0)
        for seed in range(1000):
            st = states.random_pure_state(3, seed)
            rho_ab, rho_ac = self._pair_values(st)
            c_ab = measures.concurrence_two_qubit(rho_ab)
            c_ac = measures.concurrence_two_qubit(rho_ac)
            for q in qs:
                lhs = measures.tsallis_pure(st, {0}, q)
                t1 = measures.g_q(c_ab * c_ab, q)
                t2 = measures.g_q(c_ac * c_ac, q)
                e1, e2 = max(t1, t2), min(t1, t2)
                for eta in etas:
                    margin = lhs**eta - bounds.pair_bound_new(e1, e2, eta)
                    assert margin >= -1e-9

    def test_renyi_powered_monogamy_random_states(self):
        for seed in range(500):
            st = states.random_pure_state(3, seed)
            rho_ab, rho_ac = self._pair_values(st)
            c_ab = measures.concurrence_two_qubit(rho_ab)
            c_ac = measures.concurrence_two_qubit(rho_ac)
            for alpha in (2.0, 3.0):
                lhs = measures.renyi_pure(st, {0}, alpha)
                r1 = measures.f_alpha(c_ab, alpha)
                r2 = measures.f_alpha(c_ac, alpha)
                e1, e2 = max(r1, r2), min(r1, r2)
                for mu in (1.0, 1.5, 2.0, 3.0):
                    margin = lhs**mu - bounds.pair_bound_new(e1, e2, mu)
                    assert margin >= -1e-9

    def test_renyi_window_powered_monogamy_random_states(self):
        for seed in range(500):
            st = states.random_pure_state(3, seed)
            rho_ab, rho_ac = self._pair_values(st)
            c_ab = measures.concurrence_two_qubit(rho_ab)
            c_ac = measures.concurrence_two_qubit(rho_ac)
            for alpha in (WINDOW_ALPHA, 1.5):
                lhs = measures.renyi_pure(st, {0}, alpha)
                r1 = measures.f_alpha(c_ab, alpha)
                r2 = measures.f_alpha(c_ac, alpha)
                e1, e2 = max(r1, r2), min(r1, r2)
                for gamma in (2.0, 3.0, 4.0):
                    p = bounds.REGIMES["renyi_window"].power(gamma)
                    margin = lhs**gamma - bounds.pair_bound_new(e1, e2, p, "squared")
                    assert margin >= -1e-9


class TestValueVsConcurrenceOrdering:
    def test_monotone_conversion_aligns_orderings(self):
        # For two-qubit marginals, ordering by measure value agrees with
        # ordering by concurrence (the conversions are increasing), so the
        # two branch selections coincide there.
        for seed in range(300):
            st = states.random_pure_state(3, seed)
            rho = states.density(st)
            c1 = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 1}))
            c2 = measures.concurrence_two_qubit(kernel.partial_trace(rho, 3, {0, 2}))
            for q in (2.0, 3.0):
                t1, t2 = measures.g_q(c1 * c1, q), measures.g_q(c2 * c2, q)
                assert (c1 >= c2) == (t1 >= t2) or abs(t1 - t2) < 1e-12
            for a in (WINDOW_ALPHA, 2.0):
                r1, r2 = measures.f_alpha(c1, a), measures.f_alpha(c2, a)
                assert (c1 >= c2) == (r1 >= r2) or abs(r1 - r2) < 1e-12


class TestOrderingCertificate:
    def test_example_state_orders(self):
        st = example_state()
        # qubit 2 pairs through the |101> amplitude (concurrence 2 sqrt(15)/9),
        # qubit 1 through |110> (concurrence 2 sqrt(5)/9)
        assert certificate(st, 0, (2, 1)) == [bounds.CERTIFIED]
        assert certificate(st, 0, (1, 2)) == [bounds.VIOLATED]

    def test_w_state_equality_certifies(self):
        amps = np.zeros(8)
        amps[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
        st = states.PureState(3, amps)
        assert certificate(st, 0, (1, 2)) == [bounds.CERTIFIED]
        assert certificate(st, 0, (2, 1)) == [bounds.CERTIFIED]

    def test_three_qubit_never_undetermined(self):
        for seed in range(200):
            st = states.random_pure_state(3, seed)
            tags = certificate(st, 0, (1, 2))
            assert tags[0] in (bounds.CERTIFIED, bounds.VIOLATED)

    def test_product_four_qubit_chain(self):
        # Bell pair on (0, 1) times |00> on (2, 3): every hypothesis holds.
        amps = np.zeros(16)
        amps[0b0000] = amps[0b1100] = 1.0 / np.sqrt(2.0)
        st = states.PureState(4, amps)
        tags = certificate(st, 0, (1, 2, 3))
        assert tags == [bounds.CERTIFIED, bounds.CERTIFIED]
        summary, split = bounds.certificate_summary(tags)
        assert summary == bounds.CERTIFIED and split == 2
        # chain bound saturates: values (t, 0, 0) give t^eta
        t_pair = measures.tsallis_pure(st, {0}, 2.0)
        for eta in (1.0, 2.0):
            chain = bounds.chain_bound((t_pair, 0.0, 0.0), 2, eta)
            assert chain == pytest.approx(t_pair**eta, abs=1e-12)

    def test_fewer_than_two_partners_has_no_positions(self):
        assert certificate(states.random_pure_state(1, 0), 0, ()) == []
        assert certificate(states.random_pure_state(2, 0), 1, (0,)) == []

    def test_summary_patterns(self):
        c, v, u = bounds.CERTIFIED, bounds.VIOLATED, bounds.UNDETERMINED
        assert bounds.certificate_summary([c, c]) == (c, 2)
        assert bounds.certificate_summary([c, v]) == (v, 1)
        assert bounds.certificate_summary([v, v]) == (v, 0)
        assert bounds.certificate_summary([v, c]) == (u, 0)
        assert bounds.certificate_summary([c, u]) == (u, 1)

    def test_gates(self):
        st = states.random_pure_state(3, 0)
        with pytest.raises(ValueError):
            bounds.ordering_certificate(st, 0, (1, 1), [0.1, 0.2])
        with pytest.raises(ValueError):
            bounds.ordering_certificate(st, 0, (1,), [0.1])

    @pytest.mark.parametrize("pivot,order", [(0.5, [1.5, 2]), (0, [1.5, 2]), (0.5, [1, 2])])
    def test_non_integral_qubit_indices_rejected(self, pivot, order):
        # int() truncated them, so pivot 0.5 was certified as pivot 0.
        st = states.random_pure_state(3, 0)
        with pytest.raises(ValueError, match="must be an integer, got 0.5|got 1.5"):
            bounds.ordering_certificate(st, pivot, order, [0.1, 0.2])

    def test_rejects_a_bad_table(self):
        st = example_state()
        table = pair_concurrences(st, 0, (2, 1))
        for bad in ([], table[:1], table + [0.1]):
            message = rf"one concurrence per partner \(2\), got {len(bad)}"
            with pytest.raises(ValueError, match=message):
                bounds.ordering_certificate(st, 0, (2, 1), bad)
        for value in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                bounds.ordering_certificate(st, 0, (2, 1), [table[0], value])

    def test_three_qubits_use_the_table_alone(self, monkeypatch):
        st = example_state()
        table = pair_concurrences(st, 0, (2, 1))
        four = states.random_pure_state(4, 5)
        four_table = pair_concurrences(four, 0, (1, 2, 3))
        four_tags = bounds.ordering_certificate(four, 0, (1, 2, 3), four_table)

        def refuse(*args, **kwargs):
            raise AssertionError("density route called")

        # Neither a density, a partial trace nor an eigensolver is needed.
        for owner, name in ((states, "density"), (kernel, "partial_trace"),
                            (measures, "cut_spectrum"), (np.linalg, "eigh")):
            monkeypatch.setattr(owner, name, refuse)
        assert bounds.ordering_certificate(st, 0, (2, 1), table) == [bounds.CERTIFIED]
        # The table alone decides: swapped values swap the tag.
        assert bounds.ordering_certificate(st, 0, (2, 1), table[::-1]) == [bounds.VIOLATED]
        # Four qubits bracket the first position from the amplitudes.
        assert bounds.ordering_certificate(four, 0, (1, 2, 3), four_table) == four_tags

    def test_upper_bracket_threshold_is_the_density_routes(self):
        # Every pivot and first partner of 200 Haar states: the first
        # position certifies just above the reference's threshold and not
        # just below it.
        for amps in states.random_pure_states(4, 200, 11):
            st = states.PureState(4, amps)
            for pivot in range(4):
                partners = [b for b in range(4) if b != pivot]
                for first in partners:
                    rest = [b for b in partners if b != first]
                    threshold = density_route_upper(st, pivot, rest) - bounds._CERT_TOL
                    for shift in (1e-13, -1e-13):
                        tags = bounds.ordering_certificate(
                            st, pivot, [first, *rest], [threshold + shift, 0.5, 0.5]
                        )
                        assert (tags[0] == bounds.CERTIFIED) == (shift > 0), (pivot, first)


# ---------------------------------------------------------------------------
# In-place tails: no input written, and the bits of the out-of-place formulas
# ---------------------------------------------------------------------------


def tail_values_before(head, lead, e2, last, full, squared, coefficients):
    """``bounds._tail_values`` as it was written before it summed each tail
    into its cross term: one fresh array per operation."""
    tails = []
    for c in coefficients:
        cross = c * lead * e2
        if squared:
            cross = cross * e2
        tails.append(head + cross + (full - c - 1.0) * last)
    return tails


def tail_before(e1, e2, mu, name, coupling):
    """``bounds._tail`` on the formula above, gates left out."""
    a, b = np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)
    k = 2 if coupling == "squared" else 1
    pow_ = k * mu
    [vals] = tail_values_before(
        a**pow_, a ** (pow_ - k), b, b**pow_, bounds._TWO**mu, k == 2, [bounds._TAILS[name](mu)]
    )
    return float(vals) if np.ndim(e1) == 0 and np.ndim(e2) == 0 else vals


def power_chain_before(x, p):
    """``bounds.power_chain`` as it was written before it raised 1 + x to mu
    in place, gates left out."""
    mu = float(p) if np.ndim(p) == 0 else np.asarray(p, dtype=float)
    arr = np.asarray(x, dtype=float)
    lhs = (1.0 + arr) ** mu
    coefficients = (bounds._TAILS[name](mu) for name in ("new", "prior", "naive"))
    tight, loose, naive = tail_values_before(
        1.0, 1.0, arr, arr**mu, bounds._TWO**mu, False, coefficients
    )
    if np.ndim(x) == 0:
        return float(lhs), float(tight), float(loose), float(naive)
    return lhs, tight, loose, naive


def bits(value):
    """The int64 view of a float or an array of them: equal bits, including
    the sign of a zero and the payload of a NaN."""
    return np.asarray(value, dtype=float).view(np.int64).tolist()


def frozen(value):
    """A read-only copy of an array, so that any write into it raises; a
    Python float is returned as it is."""
    if isinstance(value, float):
        return value
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


UNIT = st.floats(0.0, 1.0)
MU_VALUES = st.floats(1.0, 12.0)
PAIR_TAILS = [
    ("new", bounds.pair_bound_new),
    ("prior", bounds.pair_bound_prior),
    ("naive", bounds.pair_bound_naive),
]


@st.composite
def ordered_pairs(draw):
    """(e1, e2) with e1 >= e2 elementwise: Python floats, 0-d arrays, equal
    1-D arrays, or an ``(n, 1)`` column against a ``(1, m)`` row."""
    shape = draw(st.sampled_from(["float", "0-d", "1-D", "broadcast"]))
    if shape in ("float", "0-d"):
        a, b = draw(UNIT), draw(UNIT)
        e1, e2 = max(a, b), min(a, b)
        return (e1, e2) if shape == "float" else (np.array(e1), np.array(e2))
    if shape == "1-D":
        pairs = draw(st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=12))
        return np.array([max(p) for p in pairs]), np.array([min(p) for p in pairs])
    hi = draw(st.lists(st.floats(0.5, 1.0), min_size=1, max_size=6))
    lo = draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6))
    return np.array(hi)[:, None], np.array(lo)[None, :]


class TestInPlaceTails:
    @settings(max_examples=200, deadline=None)
    @given(pair=ordered_pairs(), mu=MU_VALUES)
    def test_pair_tails_same_bits_and_types(self, pair, mu):
        for coupling in bounds.COUPLINGS:
            for name, fn in PAIR_TAILS:
                want = tail_before(*pair, mu, name, coupling)
                # Read-only inputs: a write into either raises.
                for e1, e2 in (pair, [frozen(v) for v in pair]):
                    got = fn(e1, e2, mu, coupling)
                    assert type(got) is type(want), (name, coupling)
                    assert bits(got) == bits(want), (name, coupling)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from(["float", "0-d", "1-D", "broadcast"]),
        xs=st.lists(UNIT, min_size=1, max_size=8),
        mus=st.lists(MU_VALUES, min_size=1, max_size=8),
        array_mu=st.booleans(),
    )
    def test_power_chain_same_bits_and_types(self, shape, xs, mus, array_mu):
        if shape == "float":
            x, mu = xs[0], mus[0]
        elif shape == "0-d":
            x, mu = np.array(xs[0]), np.array(mus[0]) if array_mu else mus[0]
        elif shape == "1-D":
            n = min(len(xs), len(mus))
            x, mu = np.array(xs[:n]), np.array(mus[:n]) if array_mu else mus[0]
        else:
            x, mu = np.array(xs)[:, None], np.array(mus)[None, :] if array_mu else mus[0]
        want = power_chain_before(x, mu)
        for x_in, mu_in in ((x, mu), (frozen(x), frozen(mu))):
            got = bounds.power_chain(x_in, mu_in)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [bits(v) for v in got] == [bits(v) for v in want]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.tuples(UNIT, UNIT, MU_VALUES), min_size=1, max_size=10),
        squared=st.booleans(),
    )
    def test_tail_values_write_no_input(self, values, squared):
        a, b, mu = (np.array(column) for column in zip(*values))
        e1, e2 = np.maximum(a, b), np.minimum(a, b)
        k = 2 if squared else 1
        args = (e1 ** (k * mu), e1 ** (k * mu - k), e2, e2 ** (k * mu), bounds._TWO**mu)
        coefficients = [bounds._TAILS[name](mu) for name in bounds._TAILS]
        want = tail_values_before(*args, squared, coefficients)
        got = bounds._tail_values(
            *(frozen(v) for v in args), squared, [frozen(c) for c in coefficients]
        )
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(UNIT, min_size=2, max_size=4), mu=MU_VALUES, m=st.integers(0, 2))
    def test_chain_bound_takes_a_read_only_array(self, values, mu, m):
        # The split's tail couples the last two values, larger one first.
        m = min(m, len(values) - 1)
        values = sorted(values, reverse=True)
        if m < len(values) - 1:
            values[-2:] = values[:-3:-1]
        for coupling in bounds.COUPLINGS:
            want = bounds.chain_bound(list(values), m, mu, coupling)
            got = bounds.chain_bound(frozen(values), m, mu, coupling)
            assert type(got) is float and bits(got) == bits(want)


TAIL_NAMES = ("new", "prior", "naive")


def tail_ordered(values, m):
    """``values`` descending, with the last two swapped below the full
    split: the order the chain's tail pair needs at split ``m``."""
    values = sorted(values, reverse=True)
    if m < len(values) - 1:
        values[-2:] = values[:-3:-1]
    return values


class TestOnePassChain:
    @settings(max_examples=200, deadline=None)
    @given(a=UNIT, b=UNIT, mu=MU_VALUES)
    def test_two_values_are_the_public_pair_tails(self, a, b, mu):
        e1, e2 = max(a, b), min(a, b)
        for coupling in bounds.COUPLINGS:
            got = bounds.chain_bound([e1, e2], 1, mu, coupling, TAIL_NAMES)
            want = [fn(e1, e2, mu, coupling) for _, fn in PAIR_TAILS]
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert [bits(v) for v in got] == [bits(v) for v in want], coupling

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(UNIT, min_size=3, max_size=4), mu=MU_VALUES, m=st.integers(0, 2))
    def test_three_names_are_three_one_name_calls(self, values, mu, m):
        values = tail_ordered(values, min(m, len(values) - 1))
        m = min(m, len(values) - 1)
        for coupling in bounds.COUPLINGS:
            want = [bounds.chain_bound(values, m, mu, coupling, name) for name in TAIL_NAMES]
            # A tuple or a list of names gives a tuple of chains.
            for names in (TAIL_NAMES, list(TAIL_NAMES)):
                got = bounds.chain_bound(values, m, mu, coupling, names)
                assert type(got) is tuple
                assert [bits(v) for v in got] == [bits(v) for v in want], coupling
            # A single name is one float, not a one-entry tuple.
            assert type(want[0]) is float

    def test_compare_chain_makes_one_chain_call(self, monkeypatch):
        calls = []
        original = bounds.chain_bound

        def counted(*args):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(bounds, "chain_bound", counted)
        report = bounds.compare_chain(0.9, (0.5, 0.3, 0.2), 2, 2.0, "tsallis_q2to3")
        assert calls == [TAIL_NAMES]
        assert report.new_bound == original((0.5, 0.3, 0.2), 2, 2.0)

    @pytest.mark.parametrize(
        "args,message",
        [
            # Values that are not a flat list of numbers, by shape or entry.
            (([[0.5, 0.2]], 1, 2.0), r"flat list of numbers, got the entry \[0\.5, 0\.2\]"),
            ((np.array([[0.5, 0.2]]), 1, 2.0),
             r"^entanglement values must be a flat list of numbers, got an array of shape \(1, 2\)$"),
            ((np.array(0.5), 1, 2.0), r"got an array of shape \(\)$"),
            (([[0.5], [0.2]], 1, 2.0), r"^entanglement values must be a flat list of numbers, got the entry \[0\.5\]$"),
            (([0.5, None], 1, 2.0), r"got the entry None$"),
            (([0.5, 1j], 1, 2.0), r"got the entry 1j$"),
            # The power comes first, then the values, then the split.
            (([[0.5], [0.2]], 1, 0.5), r"^power must be >= 1, got 0\.5$"),
            (([0.5], 5, 2.0), r"^need at least two per-pair values, got 1$"),
            (([math.nan, 0.1], 5, 2.0, "cubic", "bogus"),
             r"^entanglement values must be finite and nonnegative, got \[nan, 0\.1\]$"),
            (([0.5, 0.1], 5, 2.0, "cubic", "bogus"), r"^split index 5 outside 0\.\.1$"),
            (([0.5, 0.1], 1, np.array([2.0]), "cubic"),
             r"^power mu must be a number, got an array of shape \(1,\)$"),
            (([0.5, 0.1], 1, 2.0, "cubic", "bogus"),
             r"^unknown coupling 'cubic'; expected one of \('linear', 'squared'\)$"),
            # Every name is checked before the pair's order.
            (([0.1, 0.5], 1, 2.0, "linear", "bogus"),
             r"^unknown tail 'bogus'; expected one of \('new', 'prior', 'naive'\)$"),
            (([0.1, 0.5], 1, 2.0, "linear", ("new", "bogus")), r"^unknown tail 'bogus'"),
            (([0.1, 0.5], 1, 2.0, "linear", TAIL_NAMES),
             r"^hypothesis violated: e1 < e2 \(caller must order\)$"),
            (([0.5, 0.2, 0.3], 2, 2.0), r"^hypothesis violated: e1 < e2"),
            # A name that is not a string is unknown, not unhashable.
            (([0.1, 0.5], 1, 2.0, "linear", [["new"]]), r"^unknown tail \['new'\]"),
        ],
    )
    def test_chain_bound_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            bounds.chain_bound(*args)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0.9, np.array([[0.5, 0.2]]), 1, 2.0, "tsallis_q2to3"),
             r"^entanglement values must be a flat list of numbers, got an array of shape \(1, 2\)$"),
            ((0.9, [[0.5], [0.2]], 1, 2.0, "tsallis_q2to3"),
             r"^entanglement values must be a flat list of numbers, got the entry \[0\.5\]$"),
            # The power, the regime and lhs come before the values.
            ((0.9, [[0.5], [0.2]], 1, 0.5, "nope"), r"^power must be >= 1, got 0\.5$"),
            ((math.nan, [math.nan, 0.1], 1, 2.0, "nope"), r"^unknown regime 'nope'"),
            ((math.nan, [[0.5], [0.2]], 1, 2.0, "tsallis_q2to3"),
             r"^lhs must be finite and nonnegative, got nan$"),
            ((0.9, [0.5, 0.1], 1, np.array([2.0]), "renyi_window"),
             r"^power mu must be a number, got an array of shape \(1,\)$"),
            ((0.9, [math.nan, 0.1], 7, 2.0, "tsallis_q2to3"),
             r"^entanglement values must be finite and nonnegative, got \[nan, 0\.1\]$"),
            ((0.9, [0.5, 0.1], 7, 2.0, "tsallis_q2to3"), r"^split index 7 outside 0\.\.1$"),
            ((0.9, [0.1, 0.5], 1, 2.0, "renyi_window"),
             r"^hypothesis violated: e1 < e2 \(caller must order\)$"),
        ],
    )
    def test_compare_chain_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            bounds.compare_chain(*args)
