"""Closed-form two-point resistance on the complete graph minus opposite
edges, plus total effective resistance and the eigentime identity.

The primary route is exact: with B/P the context sequences and
T = d*B_n/(P_n+2) (see `exact.conjugate_ratio`),

    R(l) = B_{2l} - T * B_l**2        for 1 <= l <= (n-1)/2,

extended by the symmetry R(l) = R(n-l).  It is evaluated from two pairs
only: (B_l, P_l) by binary powering, with B_{2l} = B_l * P_l, and the
half-index pair (u_n, w_n), with T = (n-4)*u_n/w_n (see `exact`):

    R(l) = B_l * (P_l*w_n - (n-4)*u_n*B_l) / w_n,
    Kirchhoff index = n*u_n/w_n - 1.

The Kirchhoff index is reduced by a proved small multiple of its gcd
(`exact.reduce_by`), so no gcd runs on two operands of the size of w_n.
R(l) still takes the constructor's full-size gcd: reducing it by
`exact.resistance_gcd_bound` (proved, and asserted by `verify`) takes
perfbench's exact_large_n repetitions under the 25 ms period of its
reference sampler, which then finds no sample (see ROADMAP).  Memory
stays linear in the size of the result.  A second, independent route
evaluates the same formula through its radical (conjugate-unit) shape in
stdlib `decimal`, and a third comes from the Laplacian eigenvalue sum
(`spectral.spectral_resistance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .circulant import complete_minus_opposite
# conjugate_ratio and sequence_pair are not called here; perfbench/spans.py wraps these bindings
from .exact import SequenceContext, conjugate_ratio, half_index_pair, power_pair, reduce_by, sequence_pair
from .spectral import eigenvalues_minus_opposite, spectral_resistance


def _validate_pair(n: int, l: int) -> tuple[SequenceContext, int]:
    """Domain-check (n, l): the family's context, and l folded into
    [1, (n-1)/2]."""
    ctx = SequenceContext(n)
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must be in [1, {n - 1}], got {l}")
    return ctx, min(l, n - l)


def two_point_resistance(n: int, l: int) -> Fraction:
    """Exact resistance between vertices at circular distance l."""
    ctx, l = _validate_pair(n, l)
    b, p = power_pair(ctx, l)
    u, w = half_index_pair(ctx)
    return Fraction(b * (p * w - (n - 4) * u * b), w)


def two_point_resistance_radical(n: int, l: int) -> float:
    """The same closed form evaluated through its radical shape,

        B_{2l} - sqrt(d) * B_l^2 * (1 - qb^n) / (1 + qb^n),

    with B's from their conjugate-power expressions and qb the conjugate
    unit.  The subtraction cancels ~2*l*log10(n) leading digits, so it runs
    in a fresh `decimal` context (no caller's context reaches it) of that
    many digits plus 30, with the widest exponent range, and is rounded to
    a double at the end.
    """
    _, l = _validate_pair(n, l)
    with localcontext(Context(int(2 * l * math.log10(n)) + 30, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        root = Decimal(n * (n - 4)).sqrt()
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
    SequenceContext(n)
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

        n * [ (P_n - (n-2))/d  -  (B_n - n) * B_n / (P_n + 2) ],

    which the half-index pair collapses to n*u_n/w_n - 1.  Its gcd,
    gcd(n*u_n, w_n), divides gcd(n, w_n)*gcd(u_n, w_n) and so 2n.
    """
    u, w = half_index_pair(SequenceContext(n))
    return reduce_by(n * u - w, w, 2 * n)


def eigentime_identity_check(n: int) -> tuple[float, Fraction]:
    """Both sides of the reciprocal-eigenvalue identity: the spectral sum
    sum_k 1/lambda_k and its exact closed form (= total resistance / n)."""
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


def resistance_report(n: int, l: int, spectrum: np.ndarray | None = None) -> ResistanceReport:
    """The three routes at (n, l); pass `spectrum`, the graph's
    `spectral_resistance` array, to reuse it across distances."""
    exact = two_point_resistance(n, l)
    closed = two_point_resistance_radical(n, l)
    if spectrum is None:
        spectrum = spectral_resistance(complete_minus_opposite(n))
    spec = float(spectrum[l])
    as_float = float(exact)
    dev = max(
        rel_dev(as_float, closed),
        rel_dev(as_float, spec),
        rel_dev(closed, spec),
    )
    return ResistanceReport(n, l, exact, closed, spec, dev)
