"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure (run with -s to see them)."""

import math
import time
from fractions import Fraction

from ohmwalk.circulant import complete_minus_opposite
from ohmwalk.exact import SequenceContext, bejaia, pisa, sequence_pair
from ohmwalk.resistance import (
    eigentime_identity_check,
    r_half_sums,
    resistance_report,
    two_point_resistance,
)
from ohmwalk.spectral import (
    cos_odd_power_sum,
    cos_odd_power_sum_direct,
    eigenvalues_minus_opposite,
    series_identities,
    sin_power_sum,
    sin_power_sum_direct,
)
from ohmwalk.walks import WalkConfig, fpt_closed, markov_fpt, mfpt_closed, simulate_fpt


def test_criterion_1_sequence_constants_and_speed():
    ctx = SequenceContext(7)
    assert bejaia(ctx, 7) == 12649
    assert pisa(ctx, 7) == 57965
    best = min(
        _timed(lambda: (bejaia(ctx, 7), pisa(ctx, 7))) for _ in range(5)
    )
    assert best < 1e-3, f"sequence evaluation took {best:.2e}s"
    print(f"criterion 1: PASS: B_7(7)=12649, P_7(7)=57965 in {best * 1e6:.0f}us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_eigentime_identity_n7():
    lhs, rhs = eigentime_identity_check(7)
    assert rhs == Fraction(18, 13)
    assert abs(lhs - 1.3846153) < 1e-6
    assert abs(float(rhs) - 1.3846153) < 1e-6
    print(f"criterion 2: PASS: eigentime both sides {lhs!r}, exact 18/13")


def test_criterion_3_cycle_degeneration():
    for l in range(1, 5):
        assert two_point_resistance(5, l) == Fraction(l * (5 - l), 5)
        assert fpt_closed(5, l) == l * (5 - l)
    print("criterion 3: PASS: n=5 reproduces l(5-l)/5 and l(5-l) exactly")


def test_criterion_4_triple_oracle_sweep():
    start = time.perf_counter()
    worst = 0.0
    pairs = 0
    for n in range(5, 102, 2):
        for l in range(1, n):
            rep = resistance_report(n, l)
            worst = max(worst, rep.max_rel_dev)
            pairs += 1
            assert rep.max_rel_dev <= 1e-9, (n, l, rep.max_rel_dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 4: PASS: {pairs} (n,l) pairs, worst rel dev {worst:.2e}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_5_half_sum_equality():
    worst_pair = 0.0
    worst_closed = 0.0
    for n in range(5, 42, 2):
        for l in range(1, n):
            r1, r2, closed = r_half_sums(n, l)
            worst_pair = max(worst_pair, abs(r1 - r2))
            worst_closed = max(worst_closed, abs(r1 - closed))
    assert worst_pair <= 1e-10
    assert worst_closed <= 1e-9
    print(
        f"criterion 5: PASS: |R1-R2| <= {worst_pair:.2e}, "
        f"|R1-R/2| <= {worst_closed:.2e}"
    )


def test_criterion_6_markov_oracle_exact():
    for n in range(5, 26, 2):
        h = markov_fpt(complete_minus_opposite(n), 0)
        for l in range(1, n):
            assert h[l] == fpt_closed(n, l), (n, l)
    h7 = markov_fpt(complete_minus_opposite(7), 0)
    assert {Fraction(76, 13), Fraction(80, 13), Fraction(96, 13)} <= set(h7)
    print("criterion 6: PASS: first-step analysis equals |E|R(l) exactly, n<=25")


def test_criterion_7_mfpt_erratum():
    for n in range(5, 26, 2):
        h = markov_fpt(complete_minus_opposite(n), 0)
        corrected = mfpt_closed(n)
        assert sum(h) / n == corrected
        spectral = (n - 3) * eigenvalues_minus_opposite(n).reciprocal_sum()
        assert abs(float(corrected) - spectral) < 1e-8
        assert mfpt_closed(n, "paper") == corrected * Fraction(n - 1, n - 3)
    assert mfpt_closed(7) == Fraction(72, 13)
    print("criterion 7: PASS: corrected mean 72/13 at n=7; printed variant off by (n-1)/(n-3)")


def test_criterion_8_power_sum_congruence_correction():
    worst = 0.0
    for n in (5, 7, 9):
        for k in range(1, 3 * n + 1):
            ds = sin_power_sum_direct(n, k)
            dc = cos_odd_power_sum_direct(n, k)
            worst = max(worst, abs(sin_power_sum(n, k) - ds) / ds)
            worst = max(worst, abs(cos_odd_power_sum(n, k) - dc) / dc)
    assert worst <= 1e-9
    print(f"criterion 8: PASS: closed power sums match direct, worst rel {worst:.2e}")


def test_criterion_9_exact_identity_suite():
    for n in range(5, 100, 2):
        ctx = SequenceContext(n)
        d = ctx.d
        bs, ps = sequence_pair(ctx, 403)
        sum_sq = 0
        sum_even = 0
        for l in range(201):
            assert ps[l] ** 2 - d * bs[l] ** 2 == 4
            assert bs[l] ** 2 * d == ps[2 * l] - 2
            if l >= 1:
                sum_sq += bs[l] ** 2
                sum_even += bs[2 * l]
                assert d * sum_sq == bs[2 * l + 1] - bs[1] - 2 * l
                assert d * sum_even == ps[2 * l + 1] - ps[1]
        # symmetry identity, cross-multiplied to stay in integers
        def b(i):
            return bs[i] if i >= 0 else -bs[-i]

        for l in range(1, n):
            lhs = (ps[n] + 2) * (b(2 * (n - l)) - b(2 * l) - 2 * b(n - 2 * l))
            rhs = d * bs[n] * (b(n - l) ** 2 - b(l) ** 2)
            assert lhs == rhs, (n, l)
    print("criterion 9: PASS: all sequence identities exact for n<=99, l<=200")


def test_criterion_10_monte_carlo_calibration():
    cases = [(5, 2), (7, 1), (7, 3), (11, 2)]
    for n, l in cases:
        g = complete_minus_opposite(n)
        exact = float(fpt_closed(n, l))
        est = simulate_fpt(g, 0, l, WalkConfig(trials=100000, seed=42))
        assert est.valid
        assert abs(est.mean - exact) / est.stderr <= 4.0, (n, l)
        good = 0
        for seed in range(1000, 1050):
            est = simulate_fpt(g, 0, l, WalkConfig(trials=100000, seed=seed))
            if abs(est.mean - exact) / est.stderr <= 3.0:
                good += 1
        assert good >= 49, f"({n},{l}): only {good}/50 seeds within 3 sigma"
    print("criterion 10: PASS: z<=4 at seed 42; >=49/50 seeds within 3 sigma per case")


def test_criterion_11_series_identities():
    worst = 0.0
    for n in (5, 7, 9, 11):
        report = series_identities(n, 100 * n)
        assert all(i.rel_dev <= 1e-8 for i in report.identities()), report
        worst = max(worst, max(i.rel_dev for i in report.identities()))
        if n == 5:
            assert abs(report.central_binomial.closed - math.sqrt(5)) < 1e-12
    print(f"criterion 11: PASS: truncated series match closed forms, worst rel {worst:.2e}")
