"""Cross-validation suite behind `ohmwalk verify`.

Every check pits an implementation against an independent route: exact
identities are tested as exact integer/rational equalities, float routes
against each other with explicit tolerances, and the simulator against
the closed forms statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import complete_minus_opposite
from .exact import SequenceContext, bejaia, conjugate_ratio, sequence_pair
from .resistance import (
    conjugate_ratio_radical,
    eigentime_identity_check,
    r_half_sums,
    rel_dev,
    resistance_report,
)
from .spectral import (
    all_resistances,
    cos_odd_power_sum,
    cos_odd_power_sum_direct,
    eigenvalues_circulant,
    eigenvalues_minus_opposite,
    sin_power_sum,
    sin_power_sum_direct,
    spectral_resistance,  # not called here; perfbench/spans.py wraps this binding
)
from .walks import WalkConfig, fpt_closed, markov_fpt, simulate_fpt


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    max_dev: float
    passed: bool
    detail: str = ""


def check_sin_identity(n: int, tol: float) -> CheckResult:
    # 4 * sum_{m<=(n-1)/2} sin^2(k*m*pi/n) == n for every mode k
    dev = max(
        abs(4.0 * sum(math.sin(k * m * math.pi / n) ** 2 for m in range(1, (n - 1) // 2 + 1)) - n)
        / n
        for k in range(1, n)
    )
    return CheckResult("sin_identity", n, dev, dev <= tol)


def check_spectrum(n: int, tol: float) -> CheckResult:
    g = complete_minus_opposite(n)
    split = sorted(eigenvalues_minus_opposite(n).values)
    direct = sorted(eigenvalues_circulant(g).values)
    numeric = np.sort(np.linalg.eigvalsh(g.laplacian_dense().astype(float)))
    dev = float(
        max(
            max(abs(a - b) for a, b in zip(split, direct)) / n,
            max(abs(a - b) for a, b in zip(split, numeric)) / n,
        )
    )
    return CheckResult("spectrum", n, dev, dev <= tol)


def check_power_sums(n: int, tol: float) -> CheckResult:
    exponents = sorted({1, 2, 3, n, n + 1, 2 * n, 2 * n + 3})
    dev = 0.0
    for k in exponents:
        dev = max(dev, rel_dev(sin_power_sum(n, k), sin_power_sum_direct(n, k)))
        dev = max(dev, rel_dev(cos_odd_power_sum(n, k), cos_odd_power_sum_direct(n, k)))
    return CheckResult("power_sums", n, dev, dev <= tol)


def check_half_sums(n: int, tol: float) -> CheckResult:
    dev = 0.0
    for l in range(1, n):
        r1, r2, closed = r_half_sums(n, l)
        dev = max(dev, abs(r1 - r2), abs(r1 - closed))
    return CheckResult("half_sums", n, dev, dev <= tol)


def check_resistance_oracles(n: int, tol: float) -> CheckResult:
    dev = max(resistance_report(n, l).max_rel_dev for l in range(1, n))
    return CheckResult("resistance_oracles", n, dev, dev <= tol)


def check_symmetry_identity(n: int, tol: float) -> CheckResult:
    # B_{2(n-l)} - B_{2l} - 2 B_{n-2l} == ratio * (B_{n-l}^2 - B_l^2), exactly
    ctx = SequenceContext(n)
    ratio = conjugate_ratio(ctx)
    ok = all(
        Fraction(bejaia(ctx, 2 * (n - l)) - bejaia(ctx, 2 * l) - 2 * bejaia(ctx, n - 2 * l))
        == ratio * (bejaia(ctx, n - l) ** 2 - bejaia(ctx, l) ** 2)
        for l in range(1, n)
    )
    return CheckResult("symmetry_identity", n, 0.0 if ok else 1.0, ok)


def check_sequence_identities(n: int, tol: float, upto: int = 60) -> CheckResult:
    ctx = SequenceContext(n)
    bs, ps = sequence_pair(ctx, 2 * upto + 1)
    d = ctx.d
    ok = True
    for l in range(upto + 1):
        ok &= ps[l] ** 2 - d * bs[l] ** 2 == 4
        ok &= d * bs[l] ** 2 == ps[2 * l] - 2
        if l >= 1:
            ok &= ps[l] == bs[l + 1] - bs[l - 1]
            ok &= d * bs[l] == ps[l + 1] - ps[l - 1]
    # running sums against their closed forms
    sq = 0
    ev = 0
    for l in range(1, upto + 1):
        sq += bs[l] * bs[l]
        ev += bs[2 * l]
        ok &= Fraction(sq) == Fraction(bs[2 * l + 1] - bs[1] - 2 * l, d)
        ok &= Fraction(ev) == Fraction(ps[2 * l + 1] - ps[1], d)
    return CheckResult("sequence_identities", n, 0.0 if ok else 1.0, ok)


def check_conjugate_ratio(n: int, tol: float = 1e-12) -> CheckResult:
    dev = rel_dev(float(conjugate_ratio(SequenceContext(n))), conjugate_ratio_radical(n))
    return CheckResult("conjugate_ratio", n, dev, dev <= tol)


def check_eigentime(n: int, tol: float = 1e-8) -> CheckResult:
    lhs, rhs = eigentime_identity_check(n)
    dev = abs(lhs - float(rhs))
    return CheckResult("eigentime", n, dev, dev <= tol, detail=f"both sides {lhs!r}")


def check_markov(n: int, tol: float = 1e-8) -> CheckResult:
    g = complete_minus_opposite(n)
    h = markov_fpt(g, 0)
    if isinstance(h, list):  # exact route
        ok = all(h[l] == fpt_closed(n, l) for l in range(1, n))
        return CheckResult("markov_fpt", n, 0.0 if ok else 1.0, ok, detail="exact")
    dev = max(rel_dev(float(h[l]), float(fpt_closed(n, l))) for l in range(1, n))
    return CheckResult("markov_fpt", n, dev, dev <= tol, detail="float")


def check_foster(n: int, tol: float = 1e-8) -> CheckResult:
    g = complete_minus_opposite(n)
    r = all_resistances(g).tolist()
    total = sum(
        r[(w - v) % n]
        for v in range(n)
        for w in g.neighbors(v)
        if v < w
    )
    dev = rel_dev(total, n - 1.0)
    return CheckResult("foster", n, dev, dev <= tol)


def check_monte_carlo(n: int, l: int, trials: int, seed: int) -> CheckResult:
    g = complete_minus_opposite(n)
    est = simulate_fpt(g, 0, l, WalkConfig(trials=trials, seed=seed))
    z = est.z_score(float(fpt_closed(n, l)))
    ok = est.valid and abs(z) <= 4.0
    return CheckResult(
        "monte_carlo", n, abs(z), ok, detail=f"l={l} trials={trials} z={z:+.2f}"
    )


def run_suite(
    n_max: int,
    tol: float = 1e-9,
    mc_trials: int = 20000,
    mc_seed: int = 42,
) -> list[CheckResult]:
    """All checks for every odd n in [5, n_max]; the Monte Carlo row runs
    once (n=7, or n=5 if that's all there is) to keep the suite quick."""
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    if mc_trials < 2:
        raise ValueError("Monte Carlo trials must be >= 2 for a z-test")
    results: list[CheckResult] = []
    for n in range(5, n_max + 1, 2):
        results.append(check_sin_identity(n, tol))
        results.append(check_spectrum(n, tol))
        results.append(check_power_sums(n, tol))
        results.append(check_half_sums(n, tol))
        results.append(check_resistance_oracles(n, tol))
        results.append(check_symmetry_identity(n, tol))
        results.append(check_sequence_identities(n, tol))
        if n <= 49:
            results.append(check_conjugate_ratio(n))
        results.append(check_eigentime(n))
        results.append(check_markov(n))
        results.append(check_foster(n))
    mc_n = 7 if n_max >= 7 else 5
    results.append(check_monte_carlo(mc_n, 1 if mc_n == 7 else 2, mc_trials, mc_seed))
    return results
