"""Closed-form two-point resistance on the complete graph minus opposite
edges, plus total effective resistance and the eigentime identity.

The primary route is exact: with B/P the context sequences and
T = d*B_n/(P_n+2) (see `exact.conjugate_ratio`),

    R(l) = B_{2l} - T * B_l**2        for 1 <= l <= (n-1)/2,

extended by the symmetry R(l) = R(n-l).  It is evaluated from two pairs
only: (B_l, P_l) by binary powering, with B_{2l} = B_l * P_l, and the
half-index pair (u_n, w_n), with T = (n-4)*u_n/w_n, which `exact` powers
once per n and holds for the next closed form at the same n:

    R(l) = B_l * (P_l*w_n - (n-4)*u_n*B_l) / w_n,
    Kirchhoff index = n*u_n/w_n - 1.

`resistance_numerators` gives every R(d) = 2*B_d*w_{n-2d}/w_n over w_n from one
`sequence_pair`, mirrored to all n distances: the one table that
`walks.markov_fpt` certifies and `half_sums` reads.

The derived quantities, the Kirchhoff index and |E|*R(l) in `walks`, reduce
by proved small multiples of their gcds (`exact.reduce_by`; 2n and
|E|*`exact.resistance_gcd_bound`): no gcd on two operands of w_n's size.
R(l) itself still takes the constructor's full-size gcd: reduced by that
bound, perfbench's exact_large_n repetitions drop under its reference
sampler's 25 ms period (see ROADMAP).  Memory stays linear in the size of
the result.  Independent routes check it: the radical shape in stdlib
`decimal` (its l-independent work done once per n by `radical_pass`), the
Laplacian eigenvalue sum, and the half sums (every l from one
`r_half_sums` call, each distinct sine once).
"""

from __future__ import annotations

__all__ = ["ResistanceReport", "eigentime_identity_check", "r_half_sums", "resistance_report",
           "total_effective_resistance", "two_point_resistance", "two_point_resistance_radical"]

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from decimal import DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction

import numpy as np

from .circulant import complete_minus_opposite
# conjugate_ratio is not called here; perfbench/spans.py wraps this binding
from .exact import SequenceContext, conjugate_ratio, half_index_pair, power_pair, reduce_by, sequence_pair
from .spectral import eigenvalues_minus_opposite, reciprocal_sum, spectral_resistance


def _validate_pair(n: int, l: int) -> tuple[SequenceContext, int]:
    """Domain-check (n, l): the family's context, and l, as the Python int
    it equals (`operator.index`), folded into [1, (n-1)/2]."""
    ctx, l = SequenceContext(n), operator.index(l)
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must be in [1, {n - 1}], got {l}")
    return ctx, min(l, n - l)


def _resistance_numerator(ctx: SequenceContext, l: int) -> tuple[int, int]:
    """(num_l, w_n) with R(l) = num_l/w_n unreduced, for 1 <= l <= (n-1)/2."""
    n, (b, p), (u, w) = ctx.n, power_pair(ctx, l), half_index_pair(ctx)
    return b * (p * w - (n - 4) * u * b), w


def two_point_resistance(n: int, l: int) -> Fraction:
    """Exact resistance between vertices at circular distance l, reduced by the constructor's
    full-size gcd (see above), which runs with no context alive: its memo holds l's powers."""
    return Fraction(*_resistance_numerator(*_validate_pair(n, l)))


def resistance_numerators(n: int) -> tuple[list[int], int]:
    """xs[d] = R(d)*w_n = 2*B_d*w_{n-2d} = B_d*(P_{j-d} + (n-4)*B_{j-d}) at d = 0..j = (n-1)/2,
    mirrored by R(n-d) = R(d) to every d < n, and w_n, from one `sequence_pair`, not a powering per d."""
    ctx = SequenceContext(n)
    n, j = ctx.n, (ctx.n - 1) // 2
    bs, ps = sequence_pair(ctx, j)
    half = [b * (p + (n - 4) * c) for b, p, c in zip(bs, ps[::-1], bs[::-1])]
    return half + half[:0:-1], (ps[j] + (n - 4) * bs[j]) // 2


def _radical_context(n: int, l: int) -> Context:
    """R(l)'s radical shape cancels ~2*l*log10(n) leading digits: that many
    plus 30, the widest exponent range and every field given, so that
    neither the caller's context nor `decimal.DefaultContext` reaches it."""
    return Context(int(2 * l * math.log10(n)) + 30, ROUND_HALF_EVEN, MIN_EMIN, MAX_EMAX, flags=[],
                   traps=[InvalidOperation, DivisionByZero, Overflow], clamp=0)


def _radical_terms(n: int, l: int) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """sqrt(d), (1 - qb^n)/(1 + qb^n), unit**l and qb**l, in the current context."""
    root = Decimal(n * (n - 4)).sqrt()
    conj = (n - 2 - root) / 2
    return root, (1 - conj**n) / (1 + conj**n), ((n - 2 + root) / 2) ** l, conj**l


RadicalPass = namedtuple("RadicalPass", "root ratio powers")


def radical_pass(n: int) -> RadicalPass:
    """Root, ratio and powers[l] = (unit**l, qb**l) for l <= l_max = (n-1)/2, in the context of
    l_max; each power one multiply from the last, costing ~log10(l_max) guard digits."""
    n = SequenceContext(n).n
    l_max = (n - 1) // 2
    with localcontext(_radical_context(n, l_max)):
        root, ratio, unit, conj = _radical_terms(n, 1)
        powers = [(Decimal(1), Decimal(1))]
        for _ in range(l_max):
            powers.append((powers[-1][0] * unit, powers[-1][1] * conj))
    return RadicalPass(root, ratio, powers)


def two_point_resistance_radical(n: int, l: int, radical: RadicalPass | None = None) -> float:
    """The same closed form evaluated through its radical shape,

        B_{2l} - sqrt(d) * B_l^2 * (1 - qb^n) / (1 + qb^n),

    with B's from their conjugate-power expressions (B_{2l} squares the
    powers of B_l) and qb the conjugate unit, in the `decimal` context of l
    and rounded to a double.  Alone, the route binary-powers; pass
    `radical_pass(n)` as `radical` to read its root, ratio and powers,
    rounded to the context of l.
    """
    ctx, l = _validate_pair(n, l)
    n = ctx.n
    with localcontext(_radical_context(n, l)):
        root, ratio, unit_l, conj_l = _radical_terms(n, l) if radical is None else (
            +x for x in (radical.root, radical.ratio, *radical.powers[l]))
        b_2l = (unit_l * unit_l - conj_l * conj_l) / root
        b_l = (unit_l - conj_l) / root
        return float(b_2l - root * b_l * b_l * ratio)


def conjugate_ratio_radical(n: int) -> float:
    """sqrt(d)*(1 - qb^n)/(1 + qb^n) naively in double precision, for
    checking the rationalized `exact.conjugate_ratio` against the literal
    radical expression (benign here: no catastrophic cancellation)."""
    n = SequenceContext(n).n
    root = math.sqrt(n * (n - 4))
    conj = (n - 2 - root) / 2
    q = conj**n
    return root * (1.0 - q) / (1.0 + q)


def r_half_sums(n: int) -> list[tuple[float, float]]:
    """The even-mode and odd-mode halves of the resistance sum at every l in [0, n):
    (4/n) * the sum over k = 1..(n-1)/2 of sin(m*pi/n)**2/den, m = 2kl (even mode) and
    (2k-1)l (odd mode).  Both equal R(l)/2; they are returned separately so callers can
    check it.  A term's bits depend only on m, so each distinct m goes through `math.sin`
    once; numpy's IEEE division has the bits of `/`, and each sum adds its terms in k
    order with the builtin `sum`."""
    n = SequenceContext(n).n
    ks = np.arange(1, (n - 1) // 2 + 1)
    ms = np.multiply.outer(np.arange(n), [2 * ks, 2 * ks - 1])
    seen = np.zeros(n * n, bool)  # every m is below n**2: a table indexed by m
    seen[ms] = True
    terms = np.zeros(n * n)
    terms[seen] = [math.sin(m * math.pi / n) ** 2 for m in np.flatnonzero(seen).tolist()]
    terms = terms[ms]
    terms /= [[n - 4.0 * math.sin(k * math.pi / n) ** 2 for k in ks.tolist()],
              [n - 4.0 * math.cos((2 * k - 1) * math.pi / (2 * n)) ** 2 for k in ks.tolist()]]
    return [((4.0 / n) * sum(even), (4.0 / n) * sum(odd)) for even, odd in map(np.ndarray.tolist, terms)]


def total_effective_resistance(n: int) -> Fraction:
    """Sum of resistances over all vertex pairs (Kirchhoff index):

        n * [ (P_n - (n-2))/d  -  (B_n - n) * B_n / (P_n + 2) ],

    which the half-index pair collapses to n*u_n/w_n - 1.  Its gcd,
    gcd(n*u_n, w_n), divides gcd(n, w_n)*gcd(u_n, w_n) and so 2n.
    """
    ctx = SequenceContext(n)
    n, (u, w) = ctx.n, half_index_pair(ctx)
    return reduce_by(n * u - w, w, 2 * n)


def eigentime_identity_check(n: int) -> tuple[float, Fraction]:
    """Both sides of the reciprocal-eigenvalue identity: the spectral sum
    sum_k 1/lambda_k and its exact closed form (= total resistance / n)."""
    lhs = reciprocal_sum(eigenvalues_minus_opposite(n))
    rhs = total_effective_resistance(n) / n
    return lhs, rhs


def rel_dev(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def max_or_nan(devs: list[float]) -> float:
    """The largest deviation, or NaN if any is NaN: the builtin `max` keeps
    an earlier value against a later NaN, which would let a NaN route pass."""
    return math.nan if any(map(math.isnan, devs)) else max(devs)


@dataclass(frozen=True)
class ResistanceReport:
    """One (n, l) resistance with all three routes and their spread."""

    exact: Fraction
    float_closed: float
    spectral: float
    max_rel_dev: float


def resistance_report(n: int, l: int, spectrum: np.ndarray | None = None,
                      radical: RadicalPass | None = None) -> ResistanceReport:
    """The three routes at (n, l); pass the graph's `spectral_resistance`
    array as `spectrum` and a `radical_pass` of n as `radical` to reuse them."""
    exact = two_point_resistance(n, l)
    closed = two_point_resistance_radical(n, l, radical)
    if spectrum is None:
        spectrum = spectral_resistance(complete_minus_opposite(n))
    spec = float(spectrum[l])
    as_float = float(exact)
    dev = max_or_nan([rel_dev(as_float, closed), rel_dev(as_float, spec), rel_dev(closed, spec)])
    return ResistanceReport(exact, closed, spec, dev)
