import decimal
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ohmwalk import checks, circulant, resistance, spectral
from ohmwalk.circulant import complete_minus_opposite
from ohmwalk.exact import SequenceContext, conjugate_ratio, sequence_pair
from ohmwalk.resistance import (
    conjugate_ratio_radical,
    eigentime_identity_check,
    max_or_nan,
    r_half_sums,
    radical_pass,
    resistance_numerators,
    resistance_report,
    total_effective_resistance,
    two_point_resistance,
    two_point_resistance_radical,
)
from ohmwalk.spectral import (
    eigenvalues_circulant,
    eigenvalues_minus_opposite,
    reciprocal_sum,
    spectral_resistance,
)


@pytest.mark.parametrize(
    "entry",
    [
        SequenceContext,
        circulant.complete_minus_opposite,
        eigenvalues_minus_opposite,
        lambda n: spectral.cos_odd_power_sum(n, 1),
        lambda n: spectral.series_identities(n, 10),
        lambda n: two_point_resistance(n, 1),
        lambda n: two_point_resistance_radical(n, 1),
        conjugate_ratio_radical,
        lambda n: r_half_sums(n),
        lambda n: radical_pass(n),
        total_effective_resistance,
        eigentime_identity_check,
    ],
)
@pytest.mark.parametrize("n", [4, 6, -7, 3])
def test_family_domain_has_one_message(entry, n):
    with pytest.raises(ValueError) as info:
        entry(n)
    assert str(info.value) == f"n must be odd and >= 5, got {n}"


class TestTwoPointResistance:
    def test_five_cycle_degeneration(self):
        for l in range(1, 5):
            assert two_point_resistance(5, l) == Fraction(l * (5 - l), 5)

    def test_seven_values(self):
        assert two_point_resistance(7, 1) == Fraction(38, 91)
        assert two_point_resistance(7, 2) == Fraction(40, 91)
        assert two_point_resistance(7, 3) == Fraction(48, 91)

    def test_symmetry_is_exact(self):
        for n in (7, 9, 13):
            for l in range(1, n):
                assert two_point_resistance(n, l) == two_point_resistance(n, n - l)

    def test_domain_errors(self):
        for n, l in ((6, 1), (4, 1), (7, 0), (7, 7), (7, -1)):
            with pytest.raises(ValueError):
                two_point_resistance(n, l)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_against_laplacian_pseudoinverse(self, n):
        g = complete_minus_opposite(n)
        pinv = np.linalg.pinv(g.laplacian_dense().astype(float))
        for l in range(1, n):
            oracle = pinv[0, 0] + pinv[l, l] - 2 * pinv[0, l]
            assert float(two_point_resistance(n, l)) == pytest.approx(oracle, rel=1e-9)

    def test_bounded_by_cycle_resistance(self):
        # removing edges cannot decrease resistance
        for n in (7, 11, 21):
            for l in range(1, n):
                r = two_point_resistance(n, l)
                assert 0 < r <= Fraction(l * (n - l), n)

    def test_always_lowest_terms(self):
        r = two_point_resistance(11, 3)
        assert math.gcd(r.numerator, r.denominator) == 1
        assert r.denominator > 0


def _table_against_the_per_distance_route(n):
    # R(d) * w_n at every distance from one sequence pass against the per-d
    # powering route: the value, and the bits check_half_sums reads as R(d)/2;
    # the distances above (n - 1)/2 mirror those below
    xs, w = resistance_numerators(n)
    assert len(xs) == n and xs[0] == 0
    for d in range(1, (n + 1) // 2):
        exact = two_point_resistance(n, d)
        assert Fraction(xs[d], w) == exact, (n, d)
        assert xs[d] / w / 2.0 == float(exact) / 2, (n, d)
        assert xs[n - d] == xs[d], (n, d)


class TestResistanceTable:
    def test_equals_the_per_distance_route(self):
        for n in range(5, 402, 2):
            _table_against_the_per_distance_route(n)

    @pytest.mark.parametrize("n", [1001, 2001])
    def test_equals_the_per_distance_route_at_large_n(self, n):
        _table_against_the_per_distance_route(n)

    def test_kirchhoff_index_is_n_times_the_half_table(self):
        # the Kirchhoff index sums R over all pairs: n/2 times R(1..n-1)
        for n in range(5, 402, 2):
            xs, w = resistance_numerators(n)
            assert total_effective_resistance(n) == n * Fraction(sum(xs), 2 * w), n

    def test_domain_errors(self):
        for n in (3, 4, 6):
            with pytest.raises(ValueError, match="odd and >= 5"):
                resistance_numerators(n)


def _six_power_radical(n, l):
    # the radical route as it was before it shared powers, with unit and
    # conj each raised to l and to 2l and conj to n twice: the reference
    l = min(l, n - l)
    prec = int(2 * l * math.log10(n)) + 30
    traps = [decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]
    context = decimal.Context(
        prec, decimal.ROUND_HALF_EVEN, decimal.MIN_EMIN, decimal.MAX_EMAX, flags=[], traps=traps, clamp=0
    )
    with decimal.localcontext(context):
        root = decimal.Decimal(n * (n - 4)).sqrt()
        unit = (n - 2 + root) / 2
        conj = (n - 2 - root) / 2
        b_2l = (unit ** (2 * l) - conj ** (2 * l)) / root
        b_l = (unit**l - conj**l) / root
        ratio = (1 - conj**n) / (1 + conj**n)
        return float(b_2l - root * b_l * b_l * ratio)


class TestRadicalRoute:
    def test_three_powers_equal_six(self):
        cases = [(n, l) for n in range(5, 102, 2) for l in range(1, n)]
        for n, l in cases + [(2001, 1000), (4001, 2000)]:
            assert two_point_resistance_radical(n, l) == _six_power_radical(n, l), (n, l)

    def test_matches_exact_small(self):
        for n in (5, 7, 9):
            for l in range(1, n):
                assert two_point_resistance_radical(n, l) == pytest.approx(
                    float(two_point_resistance(n, l)), rel=1e-12
                )

    def test_matches_exact_large(self):
        # double precision would lose ~190 digits to cancellation here
        assert two_point_resistance_radical(101, 50) == pytest.approx(
            float(two_point_resistance(101, 50)), rel=1e-12
        )

    @pytest.mark.parametrize(
        "caller",
        [None, decimal.Context(prec=5, Emax=10, traps=[decimal.Inexact])],
        ids=["default_context", "trapping_caller_context"],
    )
    def test_rounds_to_the_exact_value(self, caller):
        # bit for bit, for every l at odd n <= 101 and at two mid-range
        # distances; a caller's decimal context must not reach the route
        cases = [(n, l) for n in range(5, 102, 2) for l in range(1, n)]
        with decimal.localcontext(caller or decimal.getcontext()):
            for n, l in cases + [(401, 200), (2001, 1000)]:
                assert two_point_resistance_radical(n, l) == float(two_point_resistance(n, l)), (n, l)

    def test_default_context_does_not_reach_the_route(self, monkeypatch):
        # decimal.Context() copies any field it is not given from DefaultContext
        expected = two_point_resistance_radical(101, 50)
        monkeypatch.setitem(decimal.DefaultContext.traps, decimal.Inexact, True)
        monkeypatch.setattr(decimal.DefaultContext, "rounding", decimal.ROUND_FLOOR)
        assert two_point_resistance_radical(101, 50) == expected == float(two_point_resistance(101, 50))

    def test_pass_equals_the_single_route(self):
        # powers accumulated in the context of the top l, then rounded to
        # each l's own, against binary powers and the exact value, bit for bit
        cases = [(n, range(1, n)) for n in range(5, 102, 2)] + [(401, [200]), (1001, [500])]
        for n, ls in cases:
            radical = radical_pass(n)
            for l in ls:
                exact = float(two_point_resistance(n, l))
                assert two_point_resistance_radical(n, l, radical) == two_point_resistance_radical(n, l) == exact, (n, l)

    def test_conjugate_ratio_double_precision(self):
        # the rationalized d*B_n/(P_n+2) against the literal radical form
        for n in range(5, 50, 2):
            exact = float(conjugate_ratio(SequenceContext(n)))
            assert conjugate_ratio_radical(n) == pytest.approx(exact, rel=1e-12)


def _inline_half_sums(n, l):
    # r_half_sums' two direct sums as they were before the denominators were
    # hoisted: the reference
    half = (n - 1) // 2
    r1 = (4.0 / n) * sum(
        math.sin(2 * k * l * math.pi / n) ** 2
        / (n - 4.0 * math.sin(k * math.pi / n) ** 2)
        for k in range(1, half + 1)
    )
    r2 = (4.0 / n) * sum(
        math.sin((2 * k - 1) * l * math.pi / n) ** 2
        / (n - 4.0 * math.cos((2 * k - 1) * math.pi / (2 * n)) ** 2)
        for k in range(1, half + 1)
    )
    return r1, r2


class TestHalfSums:
    def test_shared_denominators_change_no_bit(self):
        # every distance from one call, whose sines run once per distinct m,
        # against the inline sums at every l
        for n in range(5, 202, 2):
            sums = r_half_sums(n)
            assert len(sums) == n and sums[0] == (0.0, 0.0)
            for l in range(1, n):
                assert sums[l] == _inline_half_sums(n, l), (n, l)

    def test_check_calls_once_per_n(self, monkeypatch):
        # perfbench times the resistance.half_sums layer at this binding
        calls = []
        monkeypatch.setattr(checks, "r_half_sums", lambda n: calls.append(n) or r_half_sums(n))
        assert checks.check_half_sums(31, 1e-9).passed
        assert calls == [31]

    def test_seven(self):
        r1, r2 = r_half_sums(7)[1]
        closed = float(two_point_resistance(7, 1)) / 2
        assert r1 == pytest.approx(19 / 91, rel=1e-12)
        assert abs(r1 - r2) < 1e-14
        assert abs(r1 - closed) < 1e-14

    def test_five(self):
        r1, r2 = r_half_sums(5)[2]
        assert r1 == pytest.approx(0.6, abs=1e-12)
        assert r2 == pytest.approx(0.6, abs=1e-12)

    def test_nine_all_distances(self):
        for l, (r1, r2) in enumerate(r_half_sums(9)[1:], 1):
            closed = float(two_point_resistance(9, l)) / 2
            assert abs(r1 - r2) < 1e-10
            assert abs(r1 - closed) < 1e-9


class TestTotals:
    def test_values(self):
        assert total_effective_resistance(5) == 10
        assert total_effective_resistance(7) == Fraction(126, 13)

    def test_equals_sum_of_pair_resistances(self):
        for n in (5, 7, 9, 15):
            by_pairs = n * sum(
                two_point_resistance(n, l) for l in range(1, (n - 1) // 2 + 1)
            )
            assert total_effective_resistance(n) == by_pairs

    def test_spectral_oracle(self):
        for n in (5, 7, 9, 21, 41):
            spectral = n * reciprocal_sum(eigenvalues_minus_opposite(n))
            assert float(total_effective_resistance(n)) == pytest.approx(
                spectral, abs=1e-8
            )


class TestEigentime:
    def test_seven(self):
        lhs, rhs = eigentime_identity_check(7)
        assert rhs == Fraction(18, 13)
        assert lhs == pytest.approx(1.3846153, abs=1e-6)
        assert abs(lhs - float(rhs)) < 1e-8

    def test_five_gives_cycle_value(self):
        lhs, rhs = eigentime_identity_check(5)
        assert rhs == 2
        assert lhs == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(5, 42, 2))
    def test_identity_holds(self, n):
        lhs, rhs = eigentime_identity_check(n)
        assert abs(lhs - float(rhs)) < 1e-8


class TestReport:
    def test_report_fields_and_validity(self):
        rep = resistance_report(7, 1)
        assert rep.exact == Fraction(38, 91)
        assert rep.max_rel_dev <= 1e-9
        assert rep.max_rel_dev < 1e-12

    def test_reports_valid_on_sample_grid(self):
        for n in (5, 9, 33, 77):
            for l in (1, (n - 1) // 2, n - 1):
                assert resistance_report(n, l).max_rel_dev <= 1e-9

    def test_shared_spectrum_gives_the_same_report(self):
        for n in (5, 9, 33):
            spectrum = spectral_resistance(complete_minus_opposite(n))
            for l in range(1, n):
                assert resistance_report(n, l, spectrum) == resistance_report(n, l)

    @pytest.mark.parametrize("n", [5, 21, 61])
    def test_oracle_check_builds_one_spectrum_per_n(self, n, monkeypatch):
        calls = []
        original = checks.spectral_resistance
        monkeypatch.setattr(checks, "spectral_resistance", lambda g: calls.append(g) or original(g))
        row = checks.check_resistance_oracles(n, 1e-9)
        assert len(calls) == 1 and row.passed
        monkeypatch.undo()
        assert row.max_dev == max(resistance_report(n, l).max_rel_dev for l in range(1, n))

    @pytest.mark.parametrize("n", [5, 21, 59])
    def test_oracle_check_reads_half_the_distances(self, n, monkeypatch):
        calls = []
        original = resistance.two_point_resistance_radical
        monkeypatch.setattr(resistance, "two_point_resistance_radical",
                            lambda n, l, radical=None: calls.append((l, radical)) or original(n, l, radical))
        assert checks.check_resistance_oracles(n, 1e-9).passed
        assert [l for l, _ in calls] == list(range(1, (n - 1) // 2 + 1))
        # one radical pass per n, shared by every distance
        assert isinstance(calls[0][1], resistance.RadicalPass)
        assert all(radical is calls[0][1] for _, radical in calls)

    def test_max_or_nan(self):
        assert max_or_nan([0.0, 3e-16, 1e-16]) == 3e-16
        assert math.isnan(max_or_nan([0.0, math.nan, 1e-16]))
        assert math.isnan(max_or_nan([1.0, math.nan]))

    @pytest.mark.parametrize("l", [1, 3])
    def test_a_nan_spectral_route_fails(self, l, monkeypatch):
        # the builtin max would keep the finite deviation ahead of the NaN
        n = 9
        spectrum = spectral_resistance(complete_minus_opposite(n))
        spectrum[l] = math.nan
        assert math.isnan(resistance_report(n, l, spectrum).max_rel_dev)
        monkeypatch.setattr(checks, "spectral_resistance", lambda g: spectrum)
        row = checks.check_resistance_oracles(n, 1e-9)
        assert math.isnan(row.max_dev) and not row.passed


@given(n=st.integers(2, 200).map(lambda k: 2 * k + 1))
@example(n=401)
@settings(max_examples=12, deadline=None)
def test_exact_spectral_and_radical_routes_agree(n):
    # odd n <= 401, every distance l, on both sides of the l <-> n-l fold
    g = complete_minus_opposite(n)
    spectrum = spectral_resistance(g)
    for l in range(1, n):
        exact = float(two_point_resistance(n, l))
        assert spectrum[l] == pytest.approx(exact, rel=1e-13, abs=0)
        assert two_point_resistance_radical(n, l) == pytest.approx(exact, rel=1e-13, abs=0)
    kirchhoff = n * reciprocal_sum(eigenvalues_circulant(g))
    assert float(total_effective_resistance(n)) == pytest.approx(kirchhoff, rel=1e-13, abs=0)


def full_index_resistance(n, l):
    # the O(n)-list route: B_{2l} - d*B_n/(P_n+2) * B_l**2
    l = min(l, n - l)
    ctx = SequenceContext(n)
    bs, ps = sequence_pair(ctx, max(2 * l, n))
    return Fraction(bs[2 * l]) - Fraction(ctx.d * bs[n], ps[n] + 2) * bs[l] ** 2


def full_index_kirchhoff(n):
    ctx = SequenceContext(n)
    bs, ps = sequence_pair(ctx, n)
    return n * (
        Fraction(ps[n] - (n - 2), ctx.d)
        - Fraction((bs[n] - n) * bs[n], ps[n] + 2)
    )


class TestHalfIndexRoute:
    @pytest.mark.parametrize("n", [*range(5, 62, 2), 201, 401])
    def test_equals_full_index_formulas(self, n):
        for l in range(1, n):
            assert two_point_resistance(n, l) == full_index_resistance(n, l), l
        assert total_effective_resistance(n) == full_index_kirchhoff(n)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (two_point_resistance, (20001, 1)),
            (two_point_resistance, (20001, 10000)),
            (total_effective_resistance, (20001,)),
        ],
    )
    def test_large_n_peak_memory(self, fn, args):
        # the full-index route held ~n big integers: ~1.5 GB at n = 20001
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
