import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from helpers import as_pair, digit_limit
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ohmwalk import exact
from ohmwalk.exact import (
    STR_SPLIT_BITS,
    SequenceContext,
    bejaia,
    bejaia_sequence,
    conjugate_ratio,
    decimal_str,
    half_index_pair,
    pisa,
    pisa_sequence,
    power_pair,
    reduce_by,
    resistance_gcd_bound,
    sequence_pair,
    sum_bejaia_even,
    sum_bejaia_squares,
)
from ohmwalk.resistance import total_effective_resistance, two_point_resistance


@dataclass(frozen=True)
class QuadElem:
    """Element a + b*sqrt(d) of Q(sqrt(d)) with rational a, b and fixed
    positive integer radicand d: the reference oracle for `power_pair`."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d <= 0:
            raise ValueError(f"radicand must be positive, got {self.d}")

    def _check_compatible(self, other: "QuadElem") -> None:
        if self.d != other.d:
            raise ValueError(f"mismatched radicands: {self.d} != {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.a + other, self.b, self.d)
        if isinstance(other, QuadElem):
            self._check_compatible(other)
            return QuadElem(self.a + other.a, self.b + other.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.a * other, self.b * other, self.d)
        if isinstance(other, QuadElem):
            self._check_compatible(other)
            return QuadElem(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.d,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """k-th power by repeated squaring, k >= 0."""
        if k < 0:
            raise ValueError("negative exponents are not supported")
        result = QuadElem(Fraction(1), Fraction(0), self.d)
        base = self
        while k > 0:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self):
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a**2 - b**2 * d."""
        return self.a * self.a - self.b * self.b * self.d


def phi(ctx: SequenceContext) -> QuadElem:
    """Fundamental unit (n - 2 + sqrt(d)) / 2 of the context."""
    return QuadElem(Fraction(ctx.n - 2, 2), Fraction(1, 2), ctx.d)


def quad(a, b, d):
    return QuadElem(Fraction(a), Fraction(b), d)


class TestQuadElem:
    def test_identity_element(self):
        one = quad(1, 0, 21)
        root = quad(0, 1, 21)
        assert one * root == root

    def test_unit_times_conjugate_is_one(self):
        unit = phi(SequenceContext(7))
        assert unit * unit.conjugate() == quad(1, 0, 21)
        assert unit.norm() == 1

    def test_square_of_unit(self):
        # ((5+sqrt(21))/2)^2 = 23/2 + (5/2) sqrt(21), i.e. (P_2/2, B_2/2)
        unit = phi(SequenceContext(7))
        assert unit * unit == QuadElem(Fraction(23, 2), Fraction(5, 2), 21)

    def test_pow_zero(self):
        unit = phi(SequenceContext(7))
        assert unit**0 == quad(1, 0, 21)

    def test_seventh_power_matches_sequence_pair(self):
        unit = phi(SequenceContext(7))
        assert unit**7 == QuadElem(Fraction(57965, 2), Fraction(12649, 2), 21)

    def test_fifth_power_fibonacci_lucas(self):
        # ((3+sqrt5)/2)^5 = (L_10 + F_10 sqrt5)/2; oracle: plain recursions
        fib = [0, 1]
        luc = [2, 1]
        for _ in range(10):
            fib.append(fib[-1] + fib[-2])
            luc.append(luc[-1] + luc[-2])
        unit = phi(SequenceContext(5))
        assert unit**5 == QuadElem(Fraction(luc[10], 2), Fraction(fib[10], 2), 5)

    def test_mismatched_radicand_rejected(self):
        with pytest.raises(ValueError):
            quad(1, 1, 5) * quad(1, 1, 21)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            phi(SequenceContext(5)) ** -1

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
            unit = phi(ctx)
            acc = QuadElem(Fraction(1), Fraction(0), ctx.d)
            for l in range(201):
                assert acc.a * 2 == ps[l] and acc.b * 2 == bs[l], (n, l)
                acc = acc * unit

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

    def test_closed_forms_match_the_recurrence_at_large_count(self):
        # the running sums of the B/P recurrence modulo the prime 2**61 - 1
        n, count, p = 20001, 10**5, 2**61 - 1
        m = n - 2
        b0, b1, p0, p1 = 0, 1, 2, m
        squares = evens = 0
        for l in range(1, 2 * count + 1):
            if l <= count:
                squares = (squares + b1 * b1) % p
            if l % 2 == 0:
                evens = (evens + b1) % p
            b0, b1, p0, p1 = b1, (m * b1 - b0) % p, p1, (m * p1 - p0) % p
        ctx = SequenceContext(n)
        for value, expected in ((sum_bejaia_squares(ctx, count), squares),
                                (sum_bejaia_even(ctx, count), evens)):
            assert value.denominator == 1
            assert value.numerator % p == expected

    def test_results_in_lowest_terms(self):
        ctx = SequenceContext(9)
        for n in (1, 3, 10):
            for value in (sum_bejaia_even(ctx, n), sum_bejaia_squares(ctx, n)):
                assert value.denominator > 0
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

    @pytest.mark.parametrize("n", [5, 7, 61, 401])
    def test_remembered_pairs_equal_fresh_ones(self, n):
        # every k <= 300 computed once into one context, then read back from
        # it in another order, against a fresh context each and the list
        ctx = SequenceContext(n)
        bs, ps = sequence_pair(ctx, 300)
        assert [power_pair(ctx, k) for k in range(301)] == list(zip(bs, ps))
        for k in reversed(range(301)):
            assert power_pair(ctx, k) == power_pair(SequenceContext(n), k) == (bs[k], ps[k]), (n, k)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @given(n=ODD_N_TO_401, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_top_down_memo_in_any_call_order(self, order, n, seed):
        # each call steps from the memo of k >> 1: found there at once
        # (ascending), or first filled in by the call's own recursion
        # (descending), or either (shuffled)
        ctx = SequenceContext(n)
        bs, ps = sequence_pair(ctx, 2000)
        ks = list(range(2001))
        if order == "descending":
            ks.reverse()
        elif order == "shuffled":
            random.Random(seed).shuffle(ks)
        assert [(k, power_pair(ctx, k)) for k in ks] == [(k, (bs[k], ps[k])) for k in ks]

    def test_memo_is_not_part_of_the_context(self):
        a, b = SequenceContext(61), SequenceContext(61)
        power_pair(a, 100)
        half_index_pair(b)
        sum_bejaia_even(b, 7)
        assert a._powers != b._powers
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "SequenceContext(n=61)"
        assert a != SequenceContext(63) and a.d == 61 * 57

    @given(n=ODD_N_TO_401, k=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_power_pair_equals_quadratic_ring_powers(self, n, k):
        # phi**k = (P_k + B_k*sqrt(d))/2 in Q(sqrt(d)), by the reference ring
        ctx = SequenceContext(n)
        b, p = power_pair(ctx, k)
        assert phi(ctx) ** k == QuadElem(Fraction(p, 2), Fraction(b, 2), ctx.d)


def unreduced_resistance(n, l):
    """(num_l, w_n) with R(l) = num_l / w_n before any reduction."""
    ctx = SequenceContext(n)
    b, p = power_pair(ctx, min(l, n - l))
    u, w = half_index_pair(ctx)
    return b * (p * w - (n - 4) * u * b), w


class TestReduction:
    @given(n=ODD_N_TO_401)
    @example(n=9)
    @example(n=15)
    @settings(max_examples=50, deadline=None)
    def test_results_equal_the_constructor(self, n):
        ctx = SequenceContext(n)
        reduced = 0  # distances whose gcd G exceeds 1
        for l in range(1, n):
            num, w = unreduced_resistance(n, l)
            expected = Fraction(num, w)
            assert as_pair(reduce_by(num, w, resistance_gcd_bound(ctx, min(l, n - l)))) == as_pair(expected)
            assert as_pair(two_point_resistance(n, l)) == as_pair(expected), l
            reduced += expected.denominator < w
        # w_k and u_k are even exactly when 3 | k, so 2 | G at l = 1 when 3 | n
        assert reduced > 0 or n % 3
        u, w = half_index_pair(SequenceContext(n))
        expected = Fraction(n * u - w, w)
        assert as_pair(total_effective_resistance(n)) == as_pair(expected)
        assert w // expected.denominator in (n, 2 * n)  # the Kirchhoff G > 1 always
        assert as_pair(conjugate_ratio(ctx)) == as_pair(Fraction((n - 4) * u, w))

    @pytest.mark.parametrize("n, l, g", [(9, 1, 2), (9, 3, 18), (15, 5, 310), (7, 2, 1)])
    def test_known_gcds_divide_the_bound(self, n, l, g):
        num, w = unreduced_resistance(n, l)
        assert math.gcd(num, w) == g
        assert resistance_gcd_bound(SequenceContext(n), l) % g == 0
        assert reduce_by(num, w, resistance_gcd_bound(SequenceContext(n), l)).denominator == w // g

    def test_bound_uses_the_term_at_gcd_of_l_and_n(self):
        # s = gcd(l, n): w_1 = 1, w_3 = n - 3, w_5 = (n-2)(n-3) - 1
        ctx = SequenceContext(15)
        assert [resistance_gcd_bound(ctx, l) for l in (1, 3, 5, 6)] == [
            8, 8 * 12**2, 8 * 155**2, 8 * 12**2
        ]


REDUCE_CASES = [
    (0, 1, 1),
    (0, 5, 5),
    (1, 1, 1),
    (-3, 7, 1),
    (6, 4, 2),
    (-6, 4, 8),
    (38 * 13, 91 * 13, 13),
    (2**200 + 1, 3**90, 1),
    (-(10**50), 7**60, 1),
    (2**2 * 3**41, 18, 36),
]


class TestReduceBy:
    """`reduce_by` fills Fraction's slots directly, a private layout; these
    pin the result to the plain constructor's."""

    @pytest.mark.parametrize("num, den, bound", REDUCE_CASES)
    def test_pinned_to_the_constructor(self, num, den, bound):
        got, ref = reduce_by(num, den, bound), Fraction(num, den)
        assert type(got) is Fraction
        assert as_pair(got) == as_pair(ref)
        assert got == ref and hash(got) == hash(ref) and {ref: 1}[got] == 1
        assert repr(got) == repr(ref) and str(got) == str(ref)
        assert float(got) == float(ref) and got.as_integer_ratio() == ref.as_integer_ratio()
        for other in (Fraction(2, 3), 5, -1.5, ref):
            assert got + other == ref + other and got - other == ref - other
            assert got * other == ref * other and (got < other) == (ref < other)
            assert other - got == other - ref
        assert as_pair(got / 7) == as_pair(ref / 7) and as_pair(got**2) == as_pair(ref**2)
        assert as_pair(-got) == as_pair(-ref) and as_pair(abs(got)) == as_pair(abs(ref))
        assert as_pair(pickle.loads(pickle.dumps(got))) == as_pair(ref)
        assert as_pair(Fraction(got)) == as_pair(ref) and round(got, 3) == round(ref, 3)
        assert math.floor(got) == math.floor(ref) and int(got) == int(ref)

    @given(num=st.integers(-(10**40), 10**40), den=st.integers(1, 10**40), k=st.integers(1, 9))
    def test_any_multiple_of_the_gcd_gives_the_constructor(self, num, den, k):
        got = reduce_by(num, den, k * math.gcd(num, den))
        assert as_pair(got) == as_pair(Fraction(num, den)) and hash(got) == hash(Fraction(num, den))


def _special(bits):
    return st.sampled_from([2**bits, 2**bits - 1, 2**bits + 1, 10 ** (bits * 3 // 10), 10 ** (bits * 3 // 10) - 1])


# 3 * 2**15 bits: 48 times the split, so the recursion runs several levels deep
SPANNING_BITS = st.integers(0, 48 * STR_SPLIT_BITS)


class TestDecimalStr:
    @given(
        x=st.one_of(
            st.integers(),
            SPANNING_BITS.flatmap(_special),
            st.tuples(SPANNING_BITS, st.integers(0, 2**32)).map(lambda t: random.Random(t[1]).getrandbits(t[0])),
        ),
        negate=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_str(self, x, negate):
        x = -x if negate else x
        with digit_limit(0):
            assert decimal_str(x) == str(x)

    @pytest.mark.parametrize(
        "x",
        [0, 1, -1, 7, 2**127, 2**128 - 1, 2**128, 2**129 + 1, -(2**129), 10**38, 10**39 - 1, 3**500],
    )
    def test_the_split_itself_on_small_values(self, x, monkeypatch):
        monkeypatch.setattr(exact, "STR_SPLIT_BITS", 0)
        assert decimal_str(x) == str(x)

    def test_values_straddling_the_threshold(self):
        with digit_limit(0):
            for bits in (STR_SPLIT_BITS - 1, STR_SPLIT_BITS, STR_SPLIT_BITS + 1, 2 * STR_SPLIT_BITS + 3):
                for x in (2**bits - 1, 2**bits, 2**bits + 1, -(2**bits) - 1):
                    assert decimal_str(x) == str(x), (bits, x)

    @pytest.mark.parametrize(
        "x",
        [10**5000, 10**9000, 10**9900, -(10**9900) - 1, 2**131071 - 1, random.Random(5).getrandbits(1 << 17)],
        ids=["10**5000", "10**9000", "10**9900", "-(10**9900)-1", "2**131071-1", "random 2**17 bits"],
    )
    def test_holds_at_the_least_digit_limit(self, x):
        # 640 is the least limit CPython accepts; str() below the split
        # never meets it, and the split itself converts no int to str
        with digit_limit(0):
            expected = str(x)
        with digit_limit(640):
            assert decimal_str(x) == expected
