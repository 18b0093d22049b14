"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from qmonogamy import bounds, cli, kernel, measures, states, verify

WINDOW_ALPHA = measures.RENYI_ANALYTIC_MIN


def _report(tag, ok, elapsed, limit, label):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} ({elapsed:.2f} s, limit {limit:.0f} s) - {label}")


def _triple_regression(tag, which, reference, limit=1.0):
    start = time.perf_counter()
    measure, index, _ = cli.EXAMPLE_REFERENCE[which]
    computed = cli.example_values(measure, index)
    elapsed = time.perf_counter() - start
    ok = all(abs(got - want) <= 1e-5 for got, want in zip(computed, reference))
    ok = ok and elapsed < limit
    _report(tag, ok, elapsed, limit, f"triple {reference} reproduced within 1e-5")
    assert ok, (computed, reference, elapsed)


def test_criterion_1_tsallis_example():
    _triple_regression(1, 1, (0.49383, 0.37037, 0.12346))


def test_criterion_2_renyi_example():
    _triple_regression(2, 2, (0.98230, 0.66742, 0.19010))


def test_criterion_3_renyi_window_example():
    _triple_regression(3, 3, (0.99265, 0.83477, 0.41466))


def test_criterion_4_figure_dominance():
    ok = True
    worst_elapsed = 0.0
    for which in (1, 2, 3):
        start = time.perf_counter()
        rows = cli.figure_rows(which)
        elapsed = time.perf_counter() - start
        worst_elapsed = max(worst_elapsed, elapsed)
        ok = ok and elapsed < 2.0
        equality_exponent = 2.0 if which == 3 else 1.0  # gamma = 2 means mu = 1
        for exponent, lhs, new, prior in rows:
            ok = ok and lhs - new >= -1e-12
            ok = ok and new - prior >= -1e-12
            if exponent > equality_exponent + 1e-9:
                ok = ok and new > prior  # strictly tighter above the collapse point
            if abs(exponent - equality_exponent) < 1e-9:
                ok = ok and abs(new - prior) <= 1e-9
        if which == 1:
            exponent, lhs, new, prior = rows[0]
            ok = ok and abs(lhs - new) <= 1e-9 and abs(new - prior) <= 1e-9
    _report(4, ok, worst_elapsed, 2.0, "figure rows obey lhs >= new >= prior, strict above power 1")
    assert ok


_EQUALITY_MANIFOLDS = {
    "lemma1": lambda p: p[0] in (0.0, 1.0) or p[1] == 1.0,
    "gqsuper": lambda p: p[0] == 0.0 or p[1] == 0.0 or p[2] == 2.0,
    "falphaadd": lambda p: p[0] == 0.0 or p[1] == 0.0,
    "falphasqadd": lambda p: p[0] == 0.0 or p[1] == 0.0,
    "lemma2": lambda p: p[1] == 0.0 or p[2] == 2.0,
    "lemma5": lambda p: p[1] == 0.0,
    "lemma6": lambda p: p[1] == 0.0,
}


def test_criterion_5_lemma_sweeps():
    start = time.perf_counter()
    ok = True
    details = []
    for family in verify.GRID_FAMILIES:
        report = verify.run_sweep(verify.default_spec(family, random_samples=0))
        clean = not report.violations and report.min_margin >= -1e-12
        equality = abs(report.min_margin) <= 1e-12
        on_manifold = _EQUALITY_MANIFOLDS[family](report.argmin)
        ok = ok and clean and equality and on_manifold
        details.append((family, report.min_margin, report.argmin))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(5, ok, elapsed, 30.0, "all grid families violation-free, equality manifolds detected")
    assert ok, details


def test_criterion_6_state_level_suite():
    start = time.perf_counter()
    ok = True
    details = []
    for family in verify.STATE_FAMILIES:
        report = verify.run_state_check(family, n_states=1000, seed=0)
        ok = ok and not report.violations and report.min_margin >= -1e-9
        details.append((family, report.min_margin))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(6, ok, elapsed, 60.0, "monogamy margins >= -1e-9 on 1000 states per combo")
    assert ok, details


def test_criterion_7_roof_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    worst_mixed = 0.0
    for i in range(100):
        v1 = states.haar_state_vector(4, rng)
        v2 = states.haar_state_vector(4, rng)
        w = rng.random()
        rho = w * np.outer(v1, v1.conj()) + (1 - w) * np.outer(v2, v2.conj())
        closed = measures.concurrence_two_qubit(rho)
        est = measures.concurrence_roof_oracle(rho, seed=5000 + i)
        worst_mixed = max(worst_mixed, abs(est - closed))
    worst_pure = 0.0
    for i in range(20):
        st = states.random_pure_state(2, i)
        est = measures.concurrence_roof_oracle(states.density(st), seed=i)
        worst_pure = max(worst_pure, abs(est - measures.concurrence_pure(st, {0})))
    elapsed = time.perf_counter() - start
    ok = worst_mixed <= 2e-3 and worst_pure <= 1e-6 and elapsed < 120.0
    _report(7, ok, elapsed, 120.0,
            f"oracle vs closed form: rank-2 worst {worst_mixed:.2e}, pure worst {worst_pure:.2e}")
    assert ok


def test_criterion_8_numeric_kernel_checks():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(42)

    # eigenvalue reconstruction residuals
    for dim in (2, 4, 8, 16):
        for _ in range(10):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (g + g.conj().T) / 2.0
            w, v = np.linalg.eigh(h)
            for i in range(dim):
                ok = ok and np.linalg.norm(h @ v[:, i] - w[i] * v[:, i]) <= 1e-10
            ok = ok and np.allclose(
                kernel.hermitian_eigenvalues(h), np.sort(w)[::-1], atol=1e-12
            )

    # partial trace preserves trace
    for n in (2, 3, 4):
        for seed in range(10):
            st = states.random_pure_state(n, seed)
            rho = states.density(st)
            for q in range(n):
                reduced = kernel.partial_trace(rho, n, {q})
                ok = ok and abs(np.trace(reduced) - np.trace(rho)) <= 1e-12

    # monotonicity and convexity of the conversion functions
    xs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    for q in (2.0, 2.5, 3.0):
        vals = measures.g_q(xs, q)
        ok = ok and np.min(np.diff(vals)) >= -1e-10
        ok = ok and np.min(np.diff(vals, 2)) >= -1e-8
    for a in (WINDOW_ALPHA, 1.5, 2.0, 3.0):
        vals = measures.f_alpha(xs, a)
        ok = ok and np.min(np.diff(vals)) >= -1e-10
        ok = ok and np.min(np.diff(vals, 2)) >= -1e-8

    elapsed = time.perf_counter() - start
    _report(8, ok, elapsed, 30.0, "eigen residuals, trace preservation, monotone/convex conversions")
    assert ok


def test_extension_four_party_chain():
    """Criterion-4-style dominance at N=4 plus the certified-ordering pathway."""
    start = time.perf_counter()
    ok = True

    # formula level: chain with the tightened tail dominates the transplanted
    # prior and naive tails for every regime, split index and value triple
    # compatible with that split's ordering hypothesis (fully descending for
    # m = 2; ascending tail pair for m < 2)
    vals = np.linspace(0.0, 0.95, 7)
    for regime, powers in (
        ("tsallis_q2to3", (1.0, 1.5, 2.0, 3.0)),
        ("renyi_ge2", (1.0, 1.5, 2.0, 3.0)),
        ("renyi_window", (2.0, 3.0, 4.0)),
    ):
        for a in vals:
            for b in vals:
                for c in vals:
                    split_choices = [2] if b >= c else []
                    if c >= b:
                        split_choices += [0, 1]
                    for power in powers:
                        p = bounds.REGIMES[regime].power(power)
                        for m in split_choices:
                            rep = bounds.compare_chain(1.0, (a, b, c), m, p, regime)
                            ok = ok and rep.new_bound - rep.prior_bound >= -1e-12
                            ok = ok and rep.prior_bound - rep.naive_bound >= -1e-12

    # state level: whenever the ordering certificate resolves a 4-qubit state,
    # the powered entanglement clears the matching chain bound
    decisive = 0
    for seed in range(150):
        st = states.random_pure_state(4, seed)
        rho = states.density(st)
        pair_c = {
            b: measures.concurrence_two_qubit(kernel.partial_trace(rho, 4, {0, b}))
            for b in (1, 2, 3)
        }
        order = sorted(pair_c, key=pair_c.get)  # ascending favors the swap branch
        tags = bounds.ordering_certificate(st, 0, order, [pair_c[b] for b in order])
        summary, split = bounds.certificate_summary(tags)
        if summary == bounds.UNDETERMINED:
            continue
        decisive += 1
        for q, eta in ((2.0, 1.0), (2.0, 2.0), (3.0, 1.5)):
            lhs = measures.tsallis_pure(st, {0}, q)
            tail = [measures.g_q(pair_c[b] ** 2, q) for b in order]
            margin = lhs**eta - bounds.chain_bound(tail, split, bounds.PowerParam(eta))
            ok = ok and margin >= -1e-9
        for alpha, mu in ((2.0, 1.0), (2.0, 2.0)):
            lhs = measures.renyi_pure(st, {0}, alpha)
            tail = [measures.f_alpha(pair_c[b], alpha) for b in order]
            margin = lhs**mu - bounds.chain_bound(tail, split, bounds.PowerParam(mu))
            ok = ok and margin >= -1e-9
    ok = ok and decisive >= 50

    elapsed = time.perf_counter() - start
    _report("N4", ok, elapsed, 60.0,
            f"chain dominance and certified-ordering pathway ({decisive} decisive states)")
    assert ok
