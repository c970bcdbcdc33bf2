"""Closed-form two-point resistance on the complete graph minus opposite
edges, plus total effective resistance and the eigentime identity.

The primary route is exact: with B/P the context sequences and
T = d*B_n/(P_n+2) (see `exact.conjugate_ratio`),

    R(l) = B_{2l} - T * B_l**2        for 1 <= l <= (n-1)/2,

extended by the symmetry R(l) = R(n-l).  A second, independent route
evaluates the same formula through its radical (conjugate-unit) shape in
arbitrary precision, and a third comes from the Laplacian eigenvalue sum
(`spectral.spectral_resistance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .circulant import complete_minus_opposite
from .exact import SequenceContext, sequence_pair, conjugate_ratio
from .spectral import eigenvalues_minus_opposite, spectral_resistance


def _validate_family(n: int) -> None:
    if n < 5 or n % 2 == 0:
        raise ValueError(f"N must be odd and >= 5, got {n}")


def _validate_pair(n: int, l: int) -> int:
    """Domain-check (n, l) and fold l into [1, (n-1)/2]."""
    _validate_family(n)
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must be in [1, {n - 1}], got {l}")
    return min(l, n - l)


def two_point_resistance(n: int, l: int) -> Fraction:
    """Exact resistance between vertices at circular distance l."""
    l = _validate_pair(n, l)
    ctx = SequenceContext(n)
    bs, _ = sequence_pair(ctx, max(2 * l, n))
    return Fraction(bs[2 * l]) - conjugate_ratio(ctx) * bs[l] ** 2


def two_point_resistance_radical(n: int, l: int, dps: int | None = None) -> float:
    """The same closed form evaluated through its radical shape,

        B_{2l} - sqrt(d) * B_l^2 * (1 - qb^n) / (1 + qb^n),

    with B's from their conjugate-power expressions and qb the conjugate
    unit.  The subtraction cancels ~2*l*log10(n) leading digits, far past
    double precision for mid-sized n, so the evaluation runs in mpmath at
    a working precision scaled to the cancellation and is rounded to a
    double at the end.
    """
    l = _validate_pair(n, l)
    if dps is None:
        dps = int(2 * l * math.log10(n)) + 30
    with mpmath.workdps(dps):
        root = mpmath.sqrt(n * (n - 4))
        unit = (n - 2 + root) / 2
        conj = (n - 2 - root) / 2
        b_2l = (unit ** (2 * l) - conj ** (2 * l)) / root
        b_l = (unit**l - conj**l) / root
        ratio = (1 - conj**n) / (1 + conj**n)
        return float(b_2l - root * b_l * b_l * ratio)


def conjugate_ratio_radical(n: int) -> float:
    """sqrt(d)*(1 - qb^n)/(1 + qb^n) naively in double precision, for
    checking the rationalized `exact.conjugate_ratio` against the literal
    radical expression (benign here: no catastrophic cancellation)."""
    _validate_family(n)
    root = math.sqrt(n * (n - 4))
    conj = (n - 2 - root) / 2
    q = conj**n
    return root * (1.0 - q) / (1.0 + q)


def r_half_sums(n: int, l: int) -> tuple[float, float, float]:
    """The even-mode and odd-mode halves of the resistance sum, plus the
    closed-form half R(l)/2.  Both direct trigonometric sums equal R(l)/2;
    they are returned separately so callers can check it.
    """
    _validate_pair(n, l)
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
    closed = float(two_point_resistance(n, l)) / 2.0
    return r1, r2, closed


def total_effective_resistance(n: int) -> Fraction:
    """Sum of resistances over all vertex pairs (Kirchhoff index):

        n * [ (P_n - (n-2))/d  -  (B_n - n) * B_n / (P_n + 2) ].
    """
    _validate_family(n)
    ctx = SequenceContext(n)
    bs, ps = sequence_pair(ctx, n)
    return n * (
        Fraction(ps[n] - (n - 2), ctx.d)
        - Fraction((bs[n] - n) * bs[n], ps[n] + 2)
    )


def eigentime_identity_check(n: int) -> tuple[float, Fraction]:
    """Both sides of the reciprocal-eigenvalue identity: the spectral sum
    sum_k 1/lambda_k and its exact closed form (= total resistance / n)."""
    _validate_family(n)
    lhs = eigenvalues_minus_opposite(n).reciprocal_sum()
    rhs = total_effective_resistance(n) / n
    return lhs, rhs


def rel_dev(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


@dataclass(frozen=True)
class ResistanceReport:
    """One (n, l) resistance with all three routes and their spread."""

    n: int
    l: int
    exact: Fraction
    float_closed: float
    spectral: float
    max_rel_dev: float

    @property
    def valid(self) -> bool:
        return self.max_rel_dev <= 1e-9


def resistance_report(n: int, l: int) -> ResistanceReport:
    exact = two_point_resistance(n, l)
    closed = two_point_resistance_radical(n, l)
    spec = spectral_resistance(complete_minus_opposite(n), l)
    as_float = float(exact)
    dev = max(
        rel_dev(as_float, closed),
        rel_dev(as_float, spec),
        rel_dev(closed, spec),
    )
    return ResistanceReport(n, l, exact, closed, spec, dev)
