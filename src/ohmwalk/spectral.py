"""Double-precision spectral machinery: circulant Laplacian eigenvalues
as float64 arrays indexed by Fourier mode, their reciprocal sum, the
eigenvalue-sum formula for two-point resistance (every distance from one
FFT), trigonometric power sums with their congruence corrections,
normalized Chebyshev evaluation, and truncated-series identities reported
as named tuples.

Exactness lives elsewhere (`exact`, `resistance`); this module is the
floating-point oracle side.  Binomial coefficients are computed with
unbounded integers and converted to double only at the last step.
"""

from __future__ import annotations

__all__ = ["chebyshev_normalized", "cos_odd_power_sum", "eigenvalues_circulant", "eigenvalues_minus_opposite",
           "reciprocal_sum", "series_identities", "sin_power_sum", "spectral_resistance"]

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .circulant import CirculantGraph
from .exact import SequenceContext


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """Extend indices 0..n//2 to 0..n-1 by x[n-k] = x[k]."""
    return np.concatenate([half, half[1 : (n + 1) // 2][::-1]])


def eigenvalues_circulant(g: CirculantGraph) -> np.ndarray:
    """lambda_k = 4 * sum over jumps j of sin^2(pi*k*j/n), k = 0..n-1;
    lambda_0 == 0 and lambda_k == lambda_{n-k} hold exactly.

    A jump of exactly n/2 (even n) reaches a single vertex, so it carries
    weight 2 instead of 4.  All modes k <= n/2 are evaluated at once, one
    sine pass per cache-sized block of jumps whose rows are added in jump
    order, and mirrored to n-k: blocking moves no bit, mirroring is exact.
    """
    n = g.n
    angles = np.pi * np.arange(n // 2 + 1)
    half = np.zeros(n // 2 + 1)
    jumps = np.array(g.jumps, dtype=float)[:, None]
    weights = np.where(2 * jumps == n, 2.0, 4.0)
    block = min(64, max(1, 2**15 // len(angles)))  # at most 64 jumps and 2^15 values
    for k in range(0, len(jumps), block):
        for row in weights[k : k + block] * np.sin(jumps[k : k + block] * angles / n) ** 2:
            half += row
    return _mirror(half, n)


def eigenvalues_minus_opposite(n: int) -> np.ndarray:
    """Spectrum of the complete-minus-opposite-edges graph on odd n from
    the split closed forms: even modes 2k give n - 4sin^2(k*pi/n), odd
    modes 2k-1 give n - 4cos^2((2k-1)*pi/2n), and mode n-m repeats mode m."""
    n = SequenceContext(n).n
    half = [n - 4.0 * (math.cos(math.pi * m / (2 * n)) if m % 2 else math.sin(math.pi * (m // 2) / n)) ** 2
            for m in range(1, (n - 1) // 2 + 1)]
    return np.array([0.0, *half, *reversed(half)])


def reciprocal_sum(values: np.ndarray) -> float:
    """sum of 1/lambda over the nonzero modes 1..n-1, added in mode order by
    the builtin `sum`; numpy's IEEE division has the bits of `/`."""
    return sum((1.0 / values[1:]).tolist())


def spectral_resistance(g: CirculantGraph) -> np.ndarray:
    """Two-point resistance R(l) for every distance l = 0..n-1.

    With 4 sin^2(pi*k*l/n) = 2 - 2 cos(2*pi*k*l/n), the eigenvalue sum
    (1/n) * sum_k 4 sin^2(pi*k*l/n) / lambda_k becomes

        R(l) = (2/n) * [sum_k 1/lambda_k - Re DFT(1/lambda)_l],

    k = 0 left out, so one FFT gives every distance.  Distances l <= n/2
    come from a real FFT and are mirrored to n-l, so R(l) == R(n-l) and
    R(0) == 0 hold exactly.  The eigenvalues come from their sine form,
    not from an FFT of the Laplacian's first row: that FFT loses the
    relative accuracy of the small eigenvalues of sparse circulants.
    """
    n = g.n
    inv = np.zeros(n)
    inv[1:] = 1.0 / eigenvalues_circulant(g)[1:]
    half = (2.0 / n) * (inv.sum() - np.fft.rfft(inv).real)
    half[0] = 0.0
    return _mirror(half, n)


# --- trigonometric power sums -------------------------------------------

def folded_alternating(j: int, n: int) -> int:
    """sum_{p>=1} (-1)^p C(2j, j - p*n); zero until j >= n.

    No closed form is known for n >= 4, so this is always evaluated
    directly.
    """
    if n < 1:
        raise ValueError("period n must be >= 1")
    total = 0
    p = 1
    while j - p * n >= 0:
        total += (-1) ** p * math.comb(2 * j, j - p * n)
        p += 1
    return total


def sin_power_sum(n: int, k: int) -> float:
    """Closed form of sum_{m=1..n-1} sin^(2k)(m*pi/n).

    The plain central-binomial term is wrong once k reaches n; the folded
    correction restores exactness for every k.
    """
    if k < 1:
        raise ValueError("exponent k must be >= 1")
    value = Fraction(n * math.comb(2 * k, k), 4**k)
    corr = folded_alternating(k, n)
    if corr:
        value += Fraction(n, 2 ** (2 * k - 1)) * corr
    return float(value)


def sin_power_sum_direct(n: int, k: int) -> float:
    return sum(math.sin(math.pi * m / n) ** (2 * k) for m in range(1, n))


def cos_odd_power_sum(n: int, k: int) -> float:
    """Closed form of sum_{m=1..(n-1)/2} cos^(2k)((2m-1)*pi/2n), odd n.

    For odd n, (2m-1)*pi/2n = pi/2 - j*pi/n with j = (n+1)/2 - m running
    over 1..(n-1)/2, so the terms are sin^(2k)(j*pi/n): one mirror half
    of `sin_power_sum`.
    """
    n = SequenceContext(n).n
    return sin_power_sum(n, k) / 2


def cos_odd_power_sum_direct(n: int, k: int) -> float:
    return sum(
        math.cos((2 * m - 1) * math.pi / (2 * n)) ** (2 * k)
        for m in range(1, (n - 1) // 2 + 1)
    )


# --- Chebyshev ------------------------------------------------------------

def chebyshev_normalized(l: int, x):
    """C_{2l}(x) = 2*T_{2l}(x/2) by its explicit integer-coefficient sum.

    Exact when x is an int or Fraction; for |x| <= 2 it matches
    2*cos(2l*arccos(x/2)).  C_0 = 2.  At x = n-2 this evaluates the
    conjugate-power sum P_{2l} of the sequence context.
    """
    if l < 0:
        raise ValueError("order parameter l must be >= 0")
    if l == 0:
        return 2 + 0 * x  # preserves the numeric type of x
    total = 0 * x
    for k in range(l + 1):
        # 2l/(2l-k) * C(2l-k, k) == C(2l-k, k) + C(2l-k-1, k-1), an integer
        coeff = math.comb(2 * l - k, k)
        if k > 0:
            coeff += math.comb(2 * l - k - 1, k - 1)
        total += (-1) ** k * coeff * x ** (2 * l - 2 * k)
    return total


# --- series identities -----------------------------------------------------

def rel_dev_from(value: float, ref: float) -> float:
    """|value - ref| relative to the reference, |ref| floored at 1e-300."""
    return abs(value - ref) / max(abs(ref), 1e-300)


SeriesIdentity = namedtuple("SeriesIdentity", "name truncated closed rel_dev")
SeriesReport = namedtuple("SeriesReport", "central_binomial alternating_folded even_folded odd_folded")


def _folded_rows(n: int, rows: int):
    """(C(2J,J), even folded sum, odd folded sum) for J < rows.  Row J+1 is
    the (1, 2, 1) step of row J.  Below row n nothing folds: row[J+k] is
    C(2J, J+k), |k| <= J.  From row n, c[r] sums C(2J, J+k) over k = r
    (mod 2n), cyclically; by k <-> -k, even = (c[0] - C(2J,J))/2, odd = c[n]/2,
    and C(2J+2, J+1) = C(2J,J) * (4J+2)/(J+1)."""
    row = [1]  # row 0: C(0, 0)
    for big_j in range(min(rows, n)):
        yield row[big_j], 0, 0
        row = [a + 2 * b + d for a, b, d in zip([0, 0] + row, [0] + row + [0], row + [0, 0])]
    if rows > n:
        c = row[n : 2 * n] + [row[0] + row[2 * n]] + row[1:n]
        central = row[n]
        for big_j in range(n, rows):
            yield central, (c[0] - central) // 2, c[n] // 2
            c = [a + 2 * b + d for a, b, d in zip(c[-1:] + c[:-1], c, c[1:] + c[:1])]
            central = central * (4 * big_j + 2) // (big_j + 1)


def series_identities(n: int, truncation: int) -> SeriesReport:
    """Compare four truncated binomial series against their closed forms.

    With q = 2/(n - 2 + sqrt(n(n-4))) (the conjugate unit) and
    s = sqrt(n/(n-4)):

        sum_J C(2J,J)/n^J                           -> s
        sum_J [folded_alternating(J, n)]/n^J        -> -s*q^n/(1+q^n)
        sum_J [sum_{p>=1} C(2J, J - 2pn)]/n^J       ->  s*q^2n/(1-q^2n)
        sum_J [sum_{p>=1} C(2J, J - (2p-1)n)]/n^J   ->  s*q^n/(1-q^2n)

    The folded sums have no known closed form; `_folded_rows` walks them.
    The report only measures: truncation below ~50n shows as large rel_dev.
    """
    n = SequenceContext(n).n
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    sums = [0.0] * 4  # central, alternating, even, odd
    npow = 1  # n**J
    for big_j, (central, s_even, s_odd) in enumerate(_folded_rows(n, truncation + 1)):
        for i, term in enumerate((central, s_even - s_odd, s_even, s_odd)):
            sums[i] += term / npow
        # C(2J,J)*(J+2n)/n**(J+1) bounds every term of row J (a fold adds at
        # most J/n binomials, none above C(2J,J)) and shrinks by a factor
        # below 0.9 per row for n >= 5; int/int rounds correctly, so once it
        # is 0.0 every later term is +-0.0 and no sum can change
        if (central * (big_j + 2 * n)) / (npow * n) == 0.0:
            break
        npow *= n

    s = math.sqrt(n / (n - 4))
    q = 2.0 / (n - 2 + math.sqrt(n * (n - 4)))
    qn = q**n
    closed = (s, -s * qn / (1.0 + qn), s * qn * qn / (1.0 - qn * qn), s * qn / (1.0 - qn * qn))
    return SeriesReport(*(SeriesIdentity(name, t, c, rel_dev_from(t, c))
                          for name, t, c in zip(SeriesReport._fields, sums, closed)))
