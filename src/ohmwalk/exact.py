"""Exact arithmetic for the quadratic ring Q(sqrt(D)) and the integer
sequences attached to the complete-graph-minus-opposite-edges family.

For odd n >= 5 put D = n(n-4).  The fundamental unit

    phi = (n - 2 + sqrt(D)) / 2,        phi * conj(phi) = 1,

generates two companion integer sequences via phi**l = (P_l + B_l*sqrt(D))/2:

    B_0 = 0, B_1 = 1,    B_l = (n-2)*B_{l-1} - B_{l-2}   (bejaia)
    P_0 = 2, P_1 = n-2,  P_l = (n-2)*P_{l-1} - P_{l-2}   (pisa)

For n = 5 these are the bisected Fibonacci (A001906) and Lucas (A005248)
numbers.  A single term comes from binary powering of phi on integer
pairs (`power_pair`, O(log l) multiplies); `sequence_pair` lists terms.

The half root psi = (sqrt(n) + sqrt(n-4))/2 has psi**2 = phi, so with
j = (n-1)/2, psi**n = psi * phi**j = (w_n*sqrt(n) + u_n*sqrt(n-4))/2 where

    u_n = (P_j + n*B_j)/2,   w_n = (P_j + (n-4)*B_j)/2      (half_index_pair)

and B_n = u_n*w_n, P_n + 2 = n*w_n**2, n*w_n**2 - (n-4)*u_n**2 = 4.  The
closed forms therefore need only half-size integers, reduced without a
full-size gcd (`reduce_by`) and printed in subquadratic time
(`decimal_str`).  Everything in this module is exact and stdlib-only:
integers are unbounded and rationals are `fractions.Fraction`.
"""

from __future__ import annotations

__all__ = ["SequenceContext", "bejaia", "bejaia_sequence", "conjugate_ratio", "pisa", "pisa_sequence",
           "sum_bejaia_even", "sum_bejaia_squares"]

import decimal
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class SequenceContext:
    """Parameter context: odd vertex count n >= 5 with radicand d = n(n-4).

    d is never a perfect square here since (n-2)**2 - d = 4.  Constructing
    one is how every layer checks the family domain.  n is stored as a
    Python int (`operator.index`), so a numpy integer cannot overflow the
    big-integer arithmetic and a float is refused.  It remembers the pairs
    `power_pair` computes for it; only n is in eq, hash and repr.
    """

    n: int
    d: int = field(init=False, repr=False, compare=False)
    _powers: dict[int, tuple[int, int]] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 5 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 5, got {self.n}")
        object.__setattr__(self, "d", self.n * (self.n - 4))


def sequence_pair(ctx: SequenceContext, upto: int) -> tuple[list[int], list[int]]:
    """Terms 0..upto of both sequences, by the shared recursion."""
    m = ctx.n - 2
    bs = [0, 1]
    ps = [2, m]
    for _ in range(upto - 1):
        bs.append(m * bs[-1] - bs[-2])
        ps.append(m * ps[-1] - ps[-2])
    return bs[: upto + 1], ps[: upto + 1]


def power_pair(ctx: SequenceContext, k: int) -> tuple[int, int]:
    """(B_k, P_k) for k >= 0 by binary powering, top-down from the memo of k >> 1.

    Squaring maps (B, P) to (B*P, (P**2 + d*B**2)/2), which is P**2 - 2 by
    the norm P**2 - d*B**2 = 4; multiplying by phi (for odd k) maps (B, P) to
    ((m*B + P)/2, (m*P + d*B)/2), m = n - 2.  `ctx` remembers each pair on the
    way, so a call whose k >> 1 is known costs O(1) multiplies.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 0, 2
    if k in ctx._powers:
        return ctx._powers[k]
    b, p = power_pair(ctx, k >> 1)
    b, p = b * p, p * p - 2
    if k & 1:
        b, p = ((ctx.n - 2) * b + p) // 2, ((ctx.n - 2) * p + ctx.d * b) // 2
    ctx._powers[k] = b, p
    return b, p


def half_index_pair(ctx: SequenceContext, k: int | None = None) -> tuple[int, int]:
    """(u_k, w_k), psi**k = (w_k*sqrt(n) + u_k*sqrt(n-4))/2, for odd k >= 1
    (default n) from (B_j, P_j), j = (k-1)/2.  gcd(u_n, w_n) is 1 or 2:
    its square divides the norm n*w_n**2 - (n-4)*u_n**2 = 4."""
    n = ctx.n
    b, p = power_pair(ctx, ((n if k is None else k) - 1) // 2)
    return (p + n * b) // 2, (p + (n - 4) * b) // 2


def bejaia(ctx: SequenceContext, l: int) -> int:
    """B_l: generalized bisected Fibonacci number for the context.

    Negative indices follow the closed form: B_{-k} = -B_k.
    """
    if l < 0:
        return -bejaia(ctx, -l)
    return power_pair(ctx, l)[0]


def pisa(ctx: SequenceContext, l: int) -> int:
    """P_l: generalized bisected Lucas number; P_{-k} = P_k."""
    return power_pair(ctx, abs(l))[1]


def bejaia_sequence(ctx: SequenceContext, count: int) -> list[int]:
    """First `count` terms B_0 .. B_{count-1}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return sequence_pair(ctx, max(count - 1, 1))[0][:count]


def pisa_sequence(ctx: SequenceContext, count: int) -> list[int]:
    """First `count` terms P_0 .. P_{count-1}."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return sequence_pair(ctx, max(count - 1, 1))[1][:count]


def sum_bejaia_even(ctx: SequenceContext, n: int) -> Fraction:
    """sum_{l=1..n} B_{2l} = (P_{2n+1} - P_1) / d, from one `power_pair`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return reduce_by(power_pair(ctx, 2 * n + 1)[1] - (ctx.n - 2), ctx.d, ctx.d)


def sum_bejaia_squares(ctx: SequenceContext, n: int) -> Fraction:
    """sum_{l=1..n} B_l**2 = (B_{2n+1} - B_1 - 2n) / d, from one `power_pair`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return reduce_by(power_pair(ctx, 2 * n + 1)[0] - 1 - 2 * n, ctx.d, ctx.d)


def conjugate_ratio(ctx: SequenceContext) -> Fraction:
    """The exact value of sqrt(d) * (1 - phi_bar**n) / (1 + phi_bar**n).

    Multiplying numerator and denominator by the conjugate and using
    phi * phi_bar = 1 collapses the radical to T = d * B_n / (P_n + 2),
    which is why closed-form resistances come out rational.  Through the
    half-index pair T = (n-4) * u_n / w_n, with operands of half the size.
    """
    u, w = half_index_pair(ctx)
    return reduce_by((ctx.n - 4) * u, w, 2)  # gcd(n-4, w_n) = 1, gcd(u_n, w_n) | 2


def resistance_gcd_bound(ctx: SequenceContext, l: int) -> int:
    """8*w_s**2 with s = gcd(l, n): a multiple of G = gcd(num_l, w_n), where
    R(l) = num_l/w_n, num_l = B_l*(P_l*w_n - (n-4)*u_n*B_l), 1 <= l < n/2.

    Proof.  alpha, beta = (sqrt(n) +- sqrt(n-4))/2 have alpha*beta = 1 and
    (alpha + beta)**2 = n: Lehmer numbers with coprime (R, Q) = (n, 1), and
    alpha/beta = phi is no root of unity.  Their Lehmer sequences are
    U_k = (alpha**k - beta**k)/(alpha - beta) and V_k = (alpha**k +
    beta**k)/(alpha + beta) for odd k, U_k = (alpha**k - beta**k)/(alpha**2
    - beta**2) for even k.  As alpha = psi and alpha**2 - beta**2 = sqrt(d),
    B_l = U_{2l}, and for odd k u_k = U_k, w_k = V_k (`half_index_pair`)
    and U_{2k} = U_k*V_k.  Strong divisibility, gcd(U_a, U_b) = U_{gcd(a,b)}
    (D. H. Lehmer, Ann. of Math. 31 (1930); W. L. McDaniel, Fibonacci
    Quart. 29 (1991)), gives for s = gcd(l, n), which is odd:
      (1) w_n | U_{2n} = u_n*w_n: gcd(B_l, w_n) | gcd(U_{2l}, U_{2n}) = u_s*w_s;
      (2) u_s = U_s | U_n = u_n, so gcd(u_s, w_n) | gcd(u_n, w_n) | 2.
    As gcd(x*y, z) | gcd(x, z)*gcd(y, z), gcd(B_l, w_n) | 2*w_s.  A prime
    dividing n - 4 (odd) and w_n divides n*w_n**2 - (n-4)*u_n**2 = 4, so
    gcd(n-4, w_n) = 1.  num_l = B_l*X with X = -(n-4)*u_n*B_l mod w_n, so
        G | gcd(B_l, w_n) * gcd(X, w_n) | gcd(B_l, w_n)**2 * gcd(u_n, w_n)
          | (2*w_s)**2 * 2 = 8*w_s**2.
    `checks.check_sequence_identities` asserts it for every l of each n.
    """
    w_s = half_index_pair(ctx, math.gcd(l, ctx.n))[1]
    return 8 * w_s * w_s


def reduce_by(num: int, den: int, bound: int) -> Fraction:
    """Fraction(num, den) for den > 0 and a multiple `bound` of gcd(num, den),
    which equals g = gcd(num, gcd(den, bound)): g divides it, and it divides
    num, den and bound.  For small bound no gcd runs on two full-size
    operands, and the constructor's normalising gcd is skipped: the slots
    are filled as `Fraction._from_coprime_ints` does on Python 3.12+, which
    works alike on 3.10-3.13 (the tests pin it against the constructor)."""
    g = math.gcd(num, math.gcd(den, bound))
    x = object.__new__(Fraction)
    x._numerator, x._denominator = num // g, den // g
    return x


STR_SPLIT_BITS = 1 << 11  # str() sees <= 617 digits, within any int->str limit (CPython allows >= 640)


def decimal_str(x: int) -> str:
    """str(x), subquadratic above STR_SPLIT_BITS bits: both halves of x's
    bits go recursively to exact `decimal.Decimal`s, joined as hi*2**h + lo
    with libmpdec's number-theoretic-transform multiply.  This is the
    method of CPython 3.12's `_pylong.int_to_decimal_string`."""
    if abs(x).bit_length() <= STR_SPLIT_BITS:
        return str(x)

    @functools.cache  # local, so it lives for this call only
    def pow2(k: int) -> decimal.Decimal:
        return decimal.Decimal(2) ** k if k <= 128 else pow2(k >> 1) * pow2(k - (k >> 1))

    def convert(y: int, k: int) -> decimal.Decimal:  # 0 <= y < 2**k
        if k <= 128:
            return decimal.Decimal(y)
        h = k >> 1
        return convert(y & ((1 << h) - 1), h) + convert(y >> h, k - h) * pow2(h)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        y = convert(abs(x), x.bit_length())
        return str(-y if x < 0 else y)
