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
closed forms therefore need only half-size integers.  Everything in this
module is exact: integers are unbounded and rationals are
`fractions.Fraction` (always lowest terms, positive denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QuadElem:
    """Element a + b*sqrt(d) of Q(sqrt(d)) with rational a, b and fixed
    positive integer radicand d (non-square in every context we build)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d <= 0:
            raise ValueError(f"radicand must be positive, got {self.d}")

    def _check_compatible(self, other: QuadElem) -> None:
        if self.d != other.d:
            raise ValueError(f"mismatched radicands: {self.d} != {other.d}")

    def __add__(self, other: QuadElem | int | Fraction) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.a + other, self.b, self.d)
        if isinstance(other, QuadElem):
            self._check_compatible(other)
            return QuadElem(self.a + other.a, self.b + other.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QuadElem:
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other: QuadElem | int | Fraction) -> QuadElem:
        return self + (-other if isinstance(other, QuadElem) else -Fraction(other))

    def __rsub__(self, other: int | Fraction) -> QuadElem:
        return (-self) + other

    def __mul__(self, other: QuadElem | int | Fraction) -> QuadElem:
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

    def __pow__(self, k: int) -> QuadElem:
        """k-th power by repeated squaring, k >= 0."""
        if not isinstance(k, int):
            return NotImplemented
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

    def conjugate(self) -> QuadElem:
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a**2 - b**2 * d."""
        return self.a * self.a - self.b * self.b * self.d

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


@dataclass(frozen=True)
class SequenceContext:
    """Parameter context: odd vertex count n >= 5 with radicand d = n(n-4).

    d is never a perfect square here since (n-2)**2 - d = 4.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 5 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 5, got {self.n}")

    @property
    def d(self) -> int:
        return self.n * (self.n - 4)

    def phi(self) -> QuadElem:
        """Fundamental unit (n - 2 + sqrt(d)) / 2."""
        return QuadElem(Fraction(self.n - 2, 2), Fraction(1, 2), self.d)

    def phi_bar(self) -> QuadElem:
        """Conjugate root (n - 2 - sqrt(d)) / 2; phi * phi_bar = 1."""
        return self.phi().conjugate()


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
    """(B_k, P_k) for k >= 0 by binary powering of phi on integer pairs.

    Squaring maps (B, P) to (B*P, (P**2 + d*B**2)/2), which is P**2 - 2 by
    the norm P**2 - d*B**2 = 4; multiplying by phi maps (B, P) to
    ((m*B + P)/2, (m*P + d*B)/2) with m = n - 2.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m, d = ctx.n - 2, ctx.d
    b, p = 0, 2
    for bit in bin(k)[2:]:
        b, p = b * p, p * p - 2
        if bit == "1":
            b, p = (m * b + p) // 2, (m * p + d * b) // 2
    return b, p


def half_index_pair(ctx: SequenceContext) -> tuple[int, int]:
    """(u_n, w_n) from (B_j, P_j) with j = (n-1)/2; see the module docstring.
    gcd(u_n, w_n) divides 4, since n*w_n**2 - (n-4)*u_n**2 = 4."""
    n = ctx.n
    b, p = power_pair(ctx, (n - 1) // 2)
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
    """sum_{l=1..n} B_{2l}, via (P_{2n+1} - P_1) / d.

    Both the direct sum and the closed form are evaluated and compared;
    a mismatch would mean a broken sequence implementation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bs, ps = sequence_pair(ctx, 2 * n + 1)
    direct = sum(bs[2 * l] for l in range(1, n + 1))
    closed = Fraction(ps[2 * n + 1] - ps[1], ctx.d)
    if direct != closed:
        raise ArithmeticError(
            f"even-index sum mismatch for n={ctx.n}: {direct} != {closed}"
        )
    return closed


def sum_bejaia_squares(ctx: SequenceContext, n: int) -> Fraction:
    """sum_{l=1..n} B_l**2, via (B_{2n+1} - B_1 - 2n) / d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bs, _ = sequence_pair(ctx, 2 * n + 1)
    direct = sum(bs[l] * bs[l] for l in range(1, n + 1))
    closed = Fraction(bs[2 * n + 1] - bs[1] - 2 * n, ctx.d)
    if direct != closed:
        raise ArithmeticError(
            f"square sum mismatch for n={ctx.n}: {direct} != {closed}"
        )
    return closed


def conjugate_ratio(ctx: SequenceContext) -> Fraction:
    """The exact value of sqrt(d) * (1 - phi_bar**n) / (1 + phi_bar**n).

    Multiplying numerator and denominator by the conjugate and using
    phi * phi_bar = 1 collapses the radical to T = d * B_n / (P_n + 2),
    which is why closed-form resistances come out rational.  Through the
    half-index pair T = (n-4) * u_n / w_n, with operands of half the size.
    """
    u, w = half_index_pair(ctx)
    return Fraction((ctx.n - 4) * u, w)
