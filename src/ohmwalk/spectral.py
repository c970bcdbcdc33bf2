"""Double-precision spectral machinery: circulant Laplacian eigenvalues,
the eigenvalue-sum formula for two-point resistance (every distance from
one FFT), trigonometric power sums with their congruence corrections,
normalized Chebyshev evaluation, and truncated-series identity checks.

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
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 5, got {n}")
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


def spectral_resistance(g: CirculantGraph, l: int) -> float:
    """Two-point resistance between vertices at circular distance l, read
    from `all_resistances`.

    l is reduced to min(l, n-l) first, which makes the l <-> n-l symmetry
    hold to the last bit.
    """
    n = g.n
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must be in [1, {n - 1}], got {l}")
    return float(all_resistances(g)[min(l, n - l)])


# --- trigonometric power sums -------------------------------------------

def folded_alternating(j: int, n: int) -> int:
    """sum_{p>=1} (-1)^p C(2j, j - p*n); zero until j >= n.

    No closed form is known for n >= 4, so this is always evaluated
    directly.
    """
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

    The correction is the alternating fold: even fold indices add, odd
    ones subtract.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 5, got {n}")
    if k < 1:
        raise ValueError("exponent k must be >= 1")
    value = Fraction(n * math.comb(2 * k, k), 2 ** (2 * k + 1))
    corr = folded_alternating(k, n)
    if corr:
        value += Fraction(n, 4**k) * corr
    return float(value)


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


# --- series identity checks ------------------------------------------------

@dataclass(frozen=True)
class SeriesIdentity:
    name: str
    truncated: float
    closed: float
    rel_dev: float
    ok: bool


@dataclass(frozen=True)
class SeriesReport:
    n: int
    truncation: int
    tol: float
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

    @property
    def all_ok(self) -> bool:
        return all(ident.ok for ident in self.identities())


def _identity(name: str, truncated: float, closed: float, tol: float) -> SeriesIdentity:
    dev = abs(truncated - closed) / max(abs(closed), 1e-300)
    return SeriesIdentity(name, truncated, closed, dev, dev <= tol)


def series_identities(n: int, truncation: int, tol: float = 1e-8) -> SeriesReport:
    """Compare four truncated binomial series against their closed forms.

    With q = 2/(n - 2 + sqrt(n(n-4))) (the conjugate unit) and
    s = sqrt(n/(n-4)):

        sum_J C(2J,J)/n^J                           -> s
        sum_J [folded_alternating(J, n)]/n^J        -> -s*q^n/(1+q^n)
        sum_J [sum_{p>=1} C(2J, J - 2pn)]/n^J       ->  s*q^2n/(1-q^2n)
        sum_J [sum_{p>=1} C(2J, J - (2p-1)n)]/n^J   ->  s*q^n/(1-q^2n)

    The folded inner sums have no known closed form and are evaluated
    directly.  Truncation below ~50n risks tripping the per-identity `ok`
    flag rather than raising.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 5, got {n}")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    fact = [1] * (2 * truncation + 1)
    for i in range(1, len(fact)):
        fact[i] = fact[i - 1] * i

    def comb(a: int, b: int) -> int:
        return fact[a] // (fact[b] * fact[a - b])

    t_central = 0.0
    t_alt = 0.0
    t_even = 0.0
    t_odd = 0.0
    npow = 1  # n**J
    dead = 0
    for big_j in range(truncation + 1):
        central = comb(2 * big_j, big_j)
        s_even = 0
        s_odd = 0
        p = 1
        while big_j - p * n >= 0:
            c = comb(2 * big_j, big_j - p * n)
            if p % 2 == 0:
                s_even += c
            else:
                s_odd += c
            p += 1
        t_central += central / npow
        t_alt += (s_even - s_odd) / npow
        t_even += s_even / npow
        t_odd += s_odd / npow
        # envelope bound on every remaining term; once it underflows to
        # 0.0 the float sums cannot change any further
        if big_j > 2 * n and (central * (big_j + 2 * n)) / (npow * n) == 0.0:
            dead += 1
            if dead >= 3:
                break
        npow *= n

    s = math.sqrt(n / (n - 4))
    q = 2.0 / (n - 2 + math.sqrt(n * (n - 4)))
    qn = q**n
    return SeriesReport(
        n=n,
        truncation=truncation,
        tol=tol,
        central_binomial=_identity("central_binomial", t_central, s, tol),
        alternating_folded=_identity(
            "alternating_folded", t_alt, -s * qn / (1.0 + qn), tol
        ),
        even_folded=_identity(
            "even_folded", t_even, s * qn * qn / (1.0 - qn * qn), tol
        ),
        odd_folded=_identity("odd_folded", t_odd, s * qn / (1.0 - qn * qn), tol),
    )
