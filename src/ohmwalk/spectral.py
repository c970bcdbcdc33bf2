"""Double-precision spectral machinery: circulant Laplacian eigenvalues,
the eigenvalue-sum formula for two-point resistance (every distance from
one FFT), trigonometric power sums with their congruence corrections,
normalized Chebyshev evaluation, and truncated-series identities.

Exactness lives elsewhere (`exact`, `resistance`); this module is the
floating-point oracle side.  Binomial coefficients are computed with
unbounded integers and converted to double only at the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import CirculantGraph
from .exact import SequenceContext


@dataclass(frozen=True)
class EigenSpectrum:
    """Laplacian eigenvalues indexed by Fourier mode; values[0] == 0 and
    values[k] == values[n-k] hold exactly by construction."""

    n: int
    values: tuple[float, ...]

    def reciprocal_sum(self) -> float:
        """sum of 1/lambda over the nonzero modes."""
        return sum(1.0 / lam for lam in self.values[1:])


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """Extend indices 0..n//2 to 0..n-1 by x[n-k] = x[k]."""
    return np.concatenate([half, half[1 : (n + 1) // 2][::-1]])


def eigenvalues_circulant(g: CirculantGraph) -> EigenSpectrum:
    """lambda_k = 4 * sum over jumps j of sin^2(pi*k*j/n).

    A jump of exactly n/2 (even n) reaches a single vertex, so it carries
    weight 2 instead of 4.  All modes k <= n/2 are evaluated at once, one
    pass per jump, and mirrored to n-k, so the mirror symmetry is exact.
    """
    n = g.n
    angles = np.pi * np.arange(n // 2 + 1)
    half = np.zeros(n // 2 + 1)
    for j in g.jumps:
        half += (2.0 if 2 * j == n else 4.0) * np.sin(angles * j / n) ** 2
    return EigenSpectrum(n, tuple(_mirror(half, n).tolist()))


def eigenvalues_minus_opposite(n: int) -> EigenSpectrum:
    """Spectrum of the complete-minus-opposite-edges graph on odd n from
    the split closed forms: even modes 2k give n - 4sin^2(k*pi/n), odd
    modes 2k-1 give n - 4cos^2((2k-1)*pi/2n)."""
    SequenceContext(n)
    vals = [0.0] * n
    for m in range(1, (n - 1) // 2 + 1):
        if m % 2 == 0:
            lam = n - 4.0 * math.sin(math.pi * (m // 2) / n) ** 2
        else:
            lam = n - 4.0 * math.cos(math.pi * m / (2 * n)) ** 2
        vals[m] = lam
        vals[n - m] = lam
    return EigenSpectrum(n, tuple(vals))


def all_resistances(g: CirculantGraph) -> np.ndarray:
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
    inv[1:] = 1.0 / np.array(eigenvalues_circulant(g).values[1:])
    half = (2.0 / n) * (inv.sum() - np.fft.rfft(inv).real)
    half[0] = 0.0
    return _mirror(half, n)


def spectral_resistance(g: CirculantGraph, l: int | None = None) -> float | np.ndarray:
    """Two-point resistance between vertices at circular distance l, read
    from `all_resistances`; with l None, that whole array."""
    n = g.n
    if l is None:
        return all_resistances(g)
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must be in [1, {n - 1}], got {l}")
    return float(all_resistances(g)[l])


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
    SequenceContext(n)
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


@dataclass(frozen=True)
class SeriesIdentity:
    name: str
    truncated: float
    closed: float
    rel_dev: float


@dataclass(frozen=True)
class SeriesReport:
    n: int
    truncation: int
    central_binomial: SeriesIdentity
    alternating_folded: SeriesIdentity
    even_folded: SeriesIdentity
    odd_folded: SeriesIdentity

    def identities(self) -> tuple[SeriesIdentity, ...]:
        return (
            self.central_binomial,
            self.alternating_folded,
            self.even_folded,
            self.odd_folded,
        )


def _identity(name: str, truncated: float, closed: float) -> SeriesIdentity:
    return SeriesIdentity(name, truncated, closed, rel_dev_from(truncated, closed))


def _folded_rows(n: int, rows: int):
    """(C(2J,J), even folded sum, odd folded sum) for J < rows.  Row J+1 is
    the (1, 2, 1) step of row J.  Below row n nothing folds: row[J+k] is
    C(2J, J+k), |k| <= J.  From row n, c[r] sums C(2J, J+k) over k = r
    (mod 2n), cyclically; by k <-> -k, even = (c[0] - C(2J,J))/2, odd = c[n]/2."""
    row = [1]  # row 0: C(0, 0)
    for big_j in range(min(rows, n)):
        yield row[big_j], 0, 0
        row = [a + 2 * b + d for a, b, d in zip([0, 0] + row, [0] + row + [0], row + [0, 0])]
    if rows > n:
        c = row[n : 2 * n] + [row[0] + row[2 * n]] + row[1:n]
        for big_j in range(n, rows):
            central = math.comb(2 * big_j, big_j)
            yield central, (c[0] - central) // 2, c[n] // 2
            c = [a + 2 * b + d for a, b, d in zip(c[-1:] + c[:-1], c, c[1:] + c[:1])]


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
    SequenceContext(n)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    sums = [0.0] * 4  # central, alternating, even, odd
    npow = 1  # n**J
    dead = 0
    for big_j, (central, s_even, s_odd) in enumerate(_folded_rows(n, truncation + 1)):
        for i, term in enumerate((central, s_even - s_odd, s_even, s_odd)):
            sums[i] += term / npow
        # envelope bound on every remaining term; once it underflows to
        # 0.0 the float sums cannot change any further
        if big_j > 2 * n and (central * (big_j + 2 * n)) / (npow * n) == 0.0:
            dead += 1
            if dead >= 3:
                break
        npow *= n
    t_central, t_alt, t_even, t_odd = sums

    s = math.sqrt(n / (n - 4))
    q = 2.0 / (n - 2 + math.sqrt(n * (n - 4)))
    qn = q**n
    return SeriesReport(
        n=n,
        truncation=truncation,
        central_binomial=_identity("central_binomial", t_central, s),
        alternating_folded=_identity("alternating_folded", t_alt, -s * qn / (1.0 + qn)),
        even_folded=_identity("even_folded", t_even, s * qn * qn / (1.0 - qn * qn)),
        odd_folded=_identity("odd_folded", t_odd, s * qn / (1.0 - qn * qn)),
    )
