import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonogamy import bounds, kernel, measures, states

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


def certificate(st, pivot, order):
    return bounds.ordering_certificate(st, pivot, order, pair_concurrences(st, pivot, order))


class TestPowerParam:
    def test_gates(self):
        with pytest.raises(ValueError):
            bounds.PowerParam(0.5)
        with pytest.raises(ValueError, match="power must be >= 1, got 0.75"):
            bounds.PowerParam.from_gamma(1.5)
        assert bounds.PowerParam.from_gamma(5.0).mu == 2.5
        assert bounds.PowerParam(2.0).h == 3.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(2.0, 1.7e308))
    def test_gamma_round_trips_exactly(self, gamma):
        # The squared coupling's exponent is 2 mu; it must be gamma bit for bit.
        assert 2.0 * bounds.PowerParam.from_gamma(gamma).mu == gamma

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_named(self, bad):
        with pytest.raises(ValueError, match=f"power mu must be finite, got {bad}"):
            bounds.PowerParam(bad)
        with pytest.raises(ValueError, match=f"power gamma must be finite, got {bad}"):
            bounds.PowerParam.from_gamma(bad)


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

    def test_chain_dominance_grid(self):
        xs = np.linspace(0.0, 1.0, 50)
        mus = np.linspace(1.0, 5.0, 40)
        x, mu = map(np.ravel, np.meshgrid(xs, mus))
        lhs, tight, loose, naive = bounds.power_chain(x, mu)
        assert np.min(lhs - tight) >= -1e-12
        assert np.min(tight - loose) >= -1e-12
        assert np.min(loose - naive) >= -1e-12

    def test_domain_gates(self):
        with pytest.raises(ValueError):
            bounds.power_chain(1.2, 2.0)
        with pytest.raises(ValueError):
            bounds.power_chain(0.5, 0.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_named(self, bad):
        # NaN passes the mu >= 1 check and inf makes NaN tails with warnings.
        with pytest.raises(ValueError, match=f"power mu must be finite, got {bad}"):
            bounds.power_chain(0.5, bad)
        with pytest.raises(ValueError, match=f"power mu must be finite, got {bad}"):
            bounds.power_chain(np.array([0.5, 0.5]), np.array([2.0, bad]))


class TestPairBounds:
    def test_single_party_reduction(self):
        p = bounds.PowerParam.from_gamma(5.0)
        assert bounds.pair_bound_new(0.7, 0.0, p) == pytest.approx(0.7**2.5, abs=1e-15)
        assert bounds.pair_bound_new(0.7, 0.0, p, "squared") == pytest.approx(
            0.7**5.0, abs=1e-15
        )
        for coupling, power in (("linear", 2.5), ("squared", 5.0)):
            got = bounds.pair_bound_prior(0.7, 0.0, p, coupling)
            assert got == pytest.approx(0.7**power, abs=1e-15)

    def test_saturation_at_power_one(self):
        # g_2 is linear, so the canonical example satisfies additivity exactly.
        val = bounds.pair_bound_new(T_HI, T_LO, bounds.PowerParam(1.0))
        assert val == pytest.approx(T_FULL, abs=1e-15)

    def test_example_prior_value(self):
        # hand-derived: e1^2 + 3 e2^2 + e2 (e1 - e2) = 1400/6561
        got = bounds.pair_bound_prior(T_HI, T_LO, bounds.PowerParam(2.0))
        assert got == pytest.approx(1400.0 / 6561.0, abs=1e-15)

    def test_old_family_name_is_an_unknown_coupling(self):
        with pytest.raises(ValueError, match="unknown coupling 'ref11'"):
            bounds.pair_bound_prior(T_HI, T_LO, bounds.PowerParam(2.0), "ref11")

    def test_example_new_value(self):
        # hand-derived: e1^2 + (4/3) e1 e2 + (5/3) e2^2 = 4400/19683
        got = bounds.pair_bound_new(T_HI, T_LO, bounds.PowerParam(2.0))
        assert got == pytest.approx(4400.0 / 19683.0, abs=1e-15)

    def test_mu1_collapse_families_agree(self):
        p = bounds.PowerParam(1.0)
        for e1, e2 in ((0.9, 0.4), (0.5, 0.5), (0.3, 0.0)):
            new = bounds.pair_bound_new(e1, e2, p)
            assert new == pytest.approx(e1 + e2, abs=1e-15)
            assert bounds.pair_bound_prior(e1, e2, p) == pytest.approx(new, abs=1e-15)

    def test_squared_example_at_gamma2(self):
        e1 = measures.f_alpha(2.0 * math.sqrt(15.0) / 9.0, WINDOW_ALPHA)
        e2 = measures.f_alpha(2.0 * math.sqrt(5.0) / 9.0, WINDOW_ALPHA)
        p = bounds.PowerParam.from_gamma(2.0)
        new = bounds.pair_bound_new(e1, e2, p, "squared")
        prior = bounds.pair_bound_prior(e1, e2, p, "squared")
        assert new == pytest.approx(e1 * e1 + e2 * e2, abs=1e-14)
        assert prior == pytest.approx(new, abs=1e-14)

    def test_ordering_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            bounds.pair_bound_new(0.2, 0.4, bounds.PowerParam(2.0))
        with pytest.raises(ValueError):
            bounds.pair_bound_prior(0.2, 0.4, bounds.PowerParam(2.0))

    def test_new_dominates_prior_everywhere(self):
        es = np.linspace(0.0, 1.0, 60)
        e1, e2 = map(np.ravel, np.meshgrid(es, es))
        keep = e1 >= e2
        e1, e2 = e1[keep], e2[keep]
        for mu in (1.0, 1.3, 2.0, 2.7, 4.0):
            p_lin = bounds.PowerParam(mu)
            p_sq = bounds.PowerParam.from_gamma(2.0 * mu)
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
        p = bounds.PowerParam(mu)
        for coupling in bounds.COUPLINGS:
            new = bounds.pair_bound_new(e1, e2, p, coupling)
            prior = bounds.pair_bound_prior(e1, e2, p, coupling)
            naive = bounds.pair_bound_naive(e1, e2, p, coupling)
            slack = DOMINANCE_RTOL * (1.0 + abs(new))
            assert new >= prior - slack, coupling
            assert prior >= naive - slack, coupling


class TestChainBound:
    def test_collapses_to_pair_bit_for_bit(self):
        p = bounds.PowerParam(2.5)
        for vals in ((0.7, 0.3), (0.5, 0.5), (0.2, 0.0)):
            assert bounds.chain_bound(vals, 1, p) == bounds.pair_bound_new(*vals, p)

    def test_four_party_descending_expansion(self):
        p = bounds.PowerParam(1.8)
        a, b, c = 0.8, 0.5, 0.2
        expected = a**1.8 + p.h * bounds.pair_bound_new(b, c, p)
        assert bounds.chain_bound((a, b, c), 2, p) == pytest.approx(expected, abs=1e-15)

    def test_four_party_split_zero(self):
        p = bounds.PowerParam(2.0)
        a, b, c = 0.3, 0.5, 0.8
        expected = p.h * a**2.0 + bounds.pair_bound_new(c, b, p)
        assert bounds.chain_bound((a, b, c), 0, p) == pytest.approx(expected, abs=1e-15)

    def test_all_zero(self):
        assert bounds.chain_bound((0.0, 0.0, 0.0), 2, bounds.PowerParam(2.0)) == 0.0

    def test_gates(self):
        p = bounds.PowerParam(2.0)
        with pytest.raises(ValueError):
            bounds.chain_bound((0.5,), 0, p)
        with pytest.raises(ValueError):
            bounds.chain_bound((0.5, 0.4), 2, p)
        with pytest.raises(ValueError):
            bounds.chain_bound((0.5, -0.1), 1, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_named(self, bad):
        # NaN passes the sign check; both would make a non-finite chain.
        message = rf"must be finite and nonnegative, got \[{bad}, 0.1\]"
        with pytest.raises(ValueError, match=message):
            bounds.chain_bound([bad, 0.1], 1, 2.0)
        with pytest.raises(ValueError, match=message):
            bounds.compare_chain(0.5, [bad, 0.1], 1, 2.0, "tsallis_q2to3")


class TestCompareBounds:
    def test_example_power_one_all_coincide(self):
        rep = bounds.compare_chain(
            T_FULL, (T_HI, T_LO), 1, bounds.PowerParam(1.0), "tsallis_q2to3"
        )
        assert rep.margins[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.margins[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.margins[2] == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(T_FULL, abs=1e-15)

    def test_example_power_two_gap(self):
        # new - prior = (mu^2/(mu+1) - mu/2) e2 (e1 - e2) = 200/19683 here
        rep = bounds.compare_chain(
            T_FULL, (T_HI, T_LO), 1, bounds.PowerParam(2.0), "tsallis_q2to3"
        )
        assert rep.lhs == pytest.approx(1600.0 / 6561.0, abs=1e-15)
        assert rep.new_bound - rep.prior_bound == pytest.approx(200.0 / 19683.0, abs=1e-14)
        assert all(m >= -1e-12 for m in rep.margins)

    def test_renyi_power_one(self):
        e_full = measures.f_alpha(math.sqrt(80.0 / 81.0), 2.0)
        e1 = measures.f_alpha(math.sqrt(60.0 / 81.0), 2.0)
        e2 = measures.f_alpha(math.sqrt(20.0 / 81.0), 2.0)
        rep = bounds.compare_chain(e_full, (e1, e2), 1, bounds.PowerParam(1.0), "renyi_ge2")
        assert rep.new_bound == pytest.approx(e1 + e2, abs=1e-14)
        assert rep.prior_bound == pytest.approx(e1 + e2, abs=1e-14)
        assert rep.new_bound == pytest.approx(0.85752, abs=1e-5)
        assert rep.lhs >= rep.new_bound

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            bounds.compare_chain(0.5, (0.4, 0.2), 1, bounds.PowerParam(1.0), "nope")

    def test_needs_an_ordered_pair(self):
        with pytest.raises(ValueError, match="e1 < e2"):
            bounds.compare_chain(0.5, (0.2, 0.4), 1, bounds.PowerParam(2.0), "tsallis_q2to3")
        with pytest.raises(ValueError, match="nonnegative"):
            bounds.compare_chain(0.5, (0.4, -0.2), 1, bounds.PowerParam(2.0), "tsallis_q2to3")

    def test_chain_comparison_dominance(self):
        vals = np.linspace(0.0, 0.9, 8)
        for a in vals:
            for b in vals[vals <= a]:
                for c in vals[vals <= b]:
                    for mu in (1.0, 2.0, 3.0):
                        rep = bounds.compare_chain(
                            1.0, (a, b, c), 2, bounds.PowerParam(mu), "tsallis_q2to3"
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
                    margin = lhs**eta - bounds.pair_bound_new(e1, e2, bounds.PowerParam(eta))
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
                    margin = lhs**mu - bounds.pair_bound_new(e1, e2, bounds.PowerParam(mu))
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
                    p = bounds.PowerParam.from_gamma(gamma)
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
            chain = bounds.chain_bound((t_pair, 0.0, 0.0), 2, bounds.PowerParam(eta))
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
        # Any density or partial trace would now raise.
        monkeypatch.setattr(bounds, "density", None)
        monkeypatch.setattr(kernel, "partial_trace", None)
        assert bounds.ordering_certificate(st, 0, (2, 1), table) == [bounds.CERTIFIED]
        # The table alone decides: swapped values swap the tag.
        assert bounds.ordering_certificate(st, 0, (2, 1), table[::-1]) == [bounds.VIOLATED]
