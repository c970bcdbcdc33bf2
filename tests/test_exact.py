from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmwalk.exact import (
    QuadElem,
    SequenceContext,
    bejaia,
    bejaia_sequence,
    conjugate_ratio,
    half_index_pair,
    pisa,
    pisa_sequence,
    power_pair,
    sequence_pair,
    sum_bejaia_even,
    sum_bejaia_squares,
)


def quad(a, b, d):
    return QuadElem(Fraction(a), Fraction(b), d)


class TestQuadElem:
    def test_identity_element(self):
        one = quad(1, 0, 21)
        root = quad(0, 1, 21)
        assert one * root == root

    def test_unit_times_conjugate_is_one(self):
        phi = SequenceContext(7).phi()
        assert phi * phi.conjugate() == quad(1, 0, 21)
        assert phi.norm() == 1

    def test_square_of_unit(self):
        # ((5+sqrt(21))/2)^2 = 23/2 + (5/2) sqrt(21), i.e. (P_2/2, B_2/2)
        phi = SequenceContext(7).phi()
        assert phi * phi == QuadElem(Fraction(23, 2), Fraction(5, 2), 21)

    def test_pow_zero(self):
        phi = SequenceContext(7).phi()
        assert phi**0 == quad(1, 0, 21)

    def test_seventh_power_matches_sequence_pair(self):
        phi = SequenceContext(7).phi()
        assert phi**7 == QuadElem(Fraction(57965, 2), Fraction(12649, 2), 21)

    def test_fifth_power_fibonacci_lucas(self):
        # ((3+sqrt5)/2)^5 = (L_10 + F_10 sqrt5)/2; oracle: plain recursions
        fib = [0, 1]
        luc = [2, 1]
        for _ in range(10):
            fib.append(fib[-1] + fib[-2])
            luc.append(luc[-1] + luc[-2])
        phi = SequenceContext(5).phi()
        assert phi**5 == QuadElem(Fraction(luc[10], 2), Fraction(fib[10], 2), 5)

    def test_mismatched_radicand_rejected(self):
        with pytest.raises(ValueError):
            quad(1, 1, 5) * quad(1, 1, 21)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            SequenceContext(5).phi() ** -1

    @given(
        a=st.integers(-9, 9),
        b=st.integers(-9, 9),
        k=st.integers(0, 12),
    )
    def test_pow_equals_repeated_multiplication(self, a, b, k):
        x = quad(a, b, 13)
        expected = quad(1, 0, 13)
        for _ in range(k):
            expected = expected * x
        assert x**k == expected

    @given(
        a1=st.integers(-9, 9), b1=st.integers(-9, 9),
        a2=st.integers(-9, 9), b2=st.integers(-9, 9),
        a3=st.integers(-9, 9), b3=st.integers(-9, 9),
    )
    def test_ring_axioms(self, a1, b1, a2, b2, a3, b3):
        x, y, z = quad(a1, b1, 5), quad(a2, b2, 5), quad(a3, b3, 5)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    def test_norm_is_multiplicative(self):
        x, y = quad(3, -2, 21), quad(Fraction(1, 2), 5, 21)
        assert (x * y).norm() == x.norm() * y.norm()


class TestSequences:
    def test_context_rejects_bad_n(self):
        for bad in (4, 6, 3, 0, -5, 100):
            with pytest.raises(ValueError):
                SequenceContext(bad)

    def test_bejaia_base_terms(self):
        ctx = SequenceContext(7)
        assert bejaia(ctx, 0) == 0
        assert bejaia(ctx, 1) == 1
        assert bejaia(ctx, 7) == 12649

    def test_pisa_base_terms(self):
        assert pisa(SequenceContext(9), 0) == 2
        assert pisa(SequenceContext(7), 7) == 57965
        assert pisa(SequenceContext(5), 5) == 123

    def test_n5_bisects_fibonacci_and_lucas(self):
        fib = [0, 1]
        luc = [2, 1]
        for _ in range(62):
            fib.append(fib[-1] + fib[-2])
            luc.append(luc[-1] + luc[-2])
        ctx = SequenceContext(5)
        for l in range(31):
            assert bejaia(ctx, l) == fib[2 * l]
            assert pisa(ctx, l) == luc[2 * l]
        assert bejaia(ctx, 6) == 144

    def test_sequences_match_first_terms(self):
        ctx = SequenceContext(7)
        assert bejaia_sequence(ctx, 8) == [0, 1, 5, 24, 115, 551, 2640, 12649]
        assert pisa_sequence(SequenceContext(5), 6) == [2, 3, 7, 18, 47, 123]

    def test_negative_index_conventions(self):
        ctx = SequenceContext(9)
        for l in range(1, 12):
            assert bejaia(ctx, -l) == -bejaia(ctx, l)
            assert pisa(ctx, -l) == pisa(ctx, l)

    def test_recursion_matches_binet_components(self):
        # phi^l = (P_l + B_l sqrt(d)) / 2, checked by incremental products
        for n in range(5, 100, 2):
            ctx = SequenceContext(n)
            bs, ps = sequence_pair(ctx, 200)
            phi = ctx.phi()
            acc = QuadElem(Fraction(1), Fraction(0), ctx.d)
            for l in range(201):
                assert acc.a * 2 == ps[l] and acc.b * 2 == bs[l], (n, l)
                acc = acc * phi

    @given(
        n=st.integers(2, 49).map(lambda k: 2 * k + 1),
        l=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_identity(self, n, l):
        ctx = SequenceContext(n)
        assert pisa(ctx, l) ** 2 - ctx.d * bejaia(ctx, l) ** 2 == 4

    def test_square_relation(self):
        for n in (5, 7, 23):
            ctx = SequenceContext(n)
            for l in range(40):
                assert bejaia(ctx, l) ** 2 * ctx.d == pisa(ctx, 2 * l) - 2

    def test_cross_identities(self):
        for n in (5, 9, 31):
            ctx = SequenceContext(n)
            for l in range(1, 40):
                assert pisa(ctx, l) == bejaia(ctx, l + 1) - bejaia(ctx, l - 1)
                assert ctx.d * bejaia(ctx, l) == pisa(ctx, l + 1) - pisa(ctx, l - 1)


class TestSums:
    def test_even_index_sums(self):
        assert sum_bejaia_even(SequenceContext(7), 1) == 5
        assert sum_bejaia_even(SequenceContext(7), 3) == 2760
        assert sum_bejaia_even(SequenceContext(5), 2) == 24  # F_4 + F_8

    def test_square_sums(self):
        assert sum_bejaia_squares(SequenceContext(7), 1) == 1
        assert sum_bejaia_squares(SequenceContext(7), 3) == 602
        assert sum_bejaia_squares(SequenceContext(5), 3) == 74

    def test_sums_reject_bad_count(self):
        with pytest.raises(ValueError):
            sum_bejaia_even(SequenceContext(5), 0)

    def test_results_in_lowest_terms(self):
        ctx = SequenceContext(9)
        for n in (1, 3, 10):
            for value in (sum_bejaia_even(ctx, n), sum_bejaia_squares(ctx, n)):
                assert value.denominator > 0
                import math

                assert math.gcd(value.numerator, value.denominator) == 1


def test_conjugate_ratio_examples():
    # d * B_n / (P_n + 2): 5*5*55/125 = 11/5 at n=5
    assert conjugate_ratio(SequenceContext(5)) == Fraction(11, 5)
    assert conjugate_ratio(SequenceContext(7)) == Fraction(21 * 12649, 57967)


ODD_N_TO_401 = st.integers(2, 200).map(lambda k: 2 * k + 1)


class TestPowering:
    @given(n=ODD_N_TO_401, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_power_pair_equals_listed_terms(self, n, data):
        ctx = SequenceContext(n)
        bs, ps = sequence_pair(ctx, 2 * n)
        for k in (0, 1, n, 2 * n, data.draw(st.integers(0, 2 * n))):
            assert power_pair(ctx, k) == (bs[k], ps[k]), (n, k)

    def test_half_index_pair_against_full_index_terms(self):
        # psi = (sqrt(n) + sqrt(n-4))/2 squares to phi; psi**n = psi * phi**j
        for n in range(5, 402, 2):
            ctx = SequenceContext(n)
            bs, ps = sequence_pair(ctx, n)
            u, w = half_index_pair(ctx)
            assert n * w * w - (n - 4) * u * u == 4
            assert bs[n] == u * w
            assert ps[n] + 2 == n * w * w
            assert conjugate_ratio(ctx) == Fraction(ctx.d * bs[n], ps[n] + 2), n

    def test_half_index_pair_n5_is_lucas_over_fibonacci(self):
        # T = L_5 / F_5 = 11/5 at n = 5: u_5 = L_5, w_5 = F_5
        assert half_index_pair(SequenceContext(5)) == (11, 5)

    def test_power_pair_rejects_negative_index(self):
        with pytest.raises(ValueError):
            power_pair(SequenceContext(7), -1)
