"""Cross-validation suite behind `ohmwalk verify`.

Every check pits an implementation against an independent route: exact
identities are tested as exact integer/rational equalities, float routes
against each other within the suite's one tolerance `tol`, and the
simulator against the closed forms by the z-test of `walks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import complete_graph, complete_minus_opposite
# bejaia is not called here; perfbench/spans.py wraps this binding
from .exact import SequenceContext, bejaia, bejaia_sequence, conjugate_ratio, half_index_pair, power_pair
from .exact import resistance_gcd_bound, sequence_pair, sum_bejaia_even, sum_bejaia_squares
from .resistance import (
    conjugate_ratio_radical,
    eigentime_identity_check,
    half_sum_denominators,
    max_or_nan,
    r_half_sums,
    rel_dev,
    resistance_report,
)
from .spectral import (
    cos_odd_power_sum,
    cos_odd_power_sum_direct,
    eigenvalues_circulant,
    eigenvalues_minus_opposite,
    sin_power_sum,
    sin_power_sum_direct,
    spectral_resistance,
)
from .walks import WalkConfig, fpt_closed, markov_fpt, simulate_fpt, z_test_config


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    max_dev: float
    passed: bool
    detail: str = ""


def check_sin_identity(n: int, tol: float) -> CheckResult:
    # 4 * sum_{m<=(n-1)/2} sin^2(k*m*pi/n) == n for every mode k: each nonzero
    # Laplacian eigenvalue of the complete graph K_n, in its sine form, is n
    dev = max_or_nan([abs(lam - n) for lam in eigenvalues_circulant(complete_graph(n)).values[1:]]) / n
    return CheckResult("sin_identity", n, dev, dev <= tol)


def check_spectrum(n: int, tol: float) -> CheckResult:
    g = complete_minus_opposite(n)
    split = sorted(eigenvalues_minus_opposite(n).values)
    direct = sorted(eigenvalues_circulant(g).values)
    numeric = np.sort(np.linalg.eigvalsh(g.laplacian_dense().astype(float)))
    # sorting moves a NaN but keeps it, so some pair below differs by NaN
    dev = float(max_or_nan([abs(a - b) / n for other in (direct, numeric) for a, b in zip(split, other)]))
    return CheckResult("spectrum", n, dev, dev <= tol)


def check_power_sums(n: int, tol: float) -> CheckResult:
    exponents = sorted({1, 2, 3, n, n + 1, 2 * n, 2 * n + 3})
    routes = ((sin_power_sum, sin_power_sum_direct), (cos_odd_power_sum, cos_odd_power_sum_direct))
    dev = max_or_nan([rel_dev(closed(n, k), direct(n, k)) for k in exponents for closed, direct in routes])
    return CheckResult("power_sums", n, dev, dev <= tol)


def check_half_sums(n: int, tol: float) -> CheckResult:
    denominators = half_sum_denominators(n)
    sums = [r_half_sums(n, l, denominators) for l in range(1, n)]
    dev = max_or_nan([abs(r1 - other) for r1, r2, closed in sums for other in (r2, closed)])
    return CheckResult("half_sums", n, dev, dev <= tol)


def check_resistance_oracles(n: int, tol: float) -> CheckResult:
    # each route gives R(n - l) == R(l) bit for bit; half_sums reads every l
    spectrum = spectral_resistance(complete_minus_opposite(n))
    dev = max_or_nan([resistance_report(n, l, spectrum).max_rel_dev for l in range(1, (n - 1) // 2 + 1)])
    return CheckResult("resistance_oracles", n, dev, dev <= tol)


def check_symmetry_identity(n: int, tol: float) -> CheckResult:
    # B_{2(n-l)} - B_{2l} - 2 B_{n-2l} == ratio * (B_{n-l}^2 - B_l^2), exactly,
    # every B_k from one list, with B_{-k} = -B_k
    ctx = SequenceContext(n)
    ratio = conjugate_ratio(ctx)
    bs = bejaia_sequence(ctx, 2 * n - 1)
    ok = all(
        Fraction(bs[2 * (n - l)] - bs[2 * l] - 2 * (bs[n - 2 * l] if 2 * l < n else -bs[2 * l - n]))
        == ratio * (bs[n - l] ** 2 - bs[l] ** 2)
        for l in range(1, n)
    )
    return CheckResult("symmetry_identity", n, 0.0 if ok else 1.0, ok)


def check_sequence_identities(n: int, tol: float) -> CheckResult:
    ctx = SequenceContext(n)
    upto = 60  # index range of the term and running-sum identities
    bs, ps = sequence_pair(ctx, max(2 * upto + 1, n))
    d = ctx.d
    # binary powering and the half-index pair against the O(n) recursion
    ok = all(power_pair(ctx, k) == (bs[k], ps[k]) for k in range(len(bs)))
    u, w = half_index_pair(ctx)
    ok &= n * w * w - (n - 4) * u * u == 4
    ok &= bs[n] == u * w
    ok &= ps[n] + 2 == n * w * w
    ok &= conjugate_ratio(ctx) == Fraction(d * bs[n], ps[n] + 2)
    # proved multiples of the gcds of R(l) and of the Kirchhoff index
    for l in range(1, (n - 1) // 2 + 1):
        g = math.gcd(bs[l] * (ps[l] * w - (n - 4) * u * bs[l]), w)
        ok &= resistance_gcd_bound(ctx, l) % g == 0
    ok &= 2 * n % math.gcd(n * u - w, w) == 0
    for l in range(upto + 1):
        ok &= ps[l] ** 2 - d * bs[l] ** 2 == 4
        ok &= d * bs[l] ** 2 == ps[2 * l] - 2
        if l >= 1:
            ok &= ps[l] == bs[l + 1] - bs[l - 1]
            ok &= d * bs[l] == ps[l + 1] - ps[l - 1]
    # running direct sums against the closed forms in `exact`
    sq = 0
    ev = 0
    for l in range(1, upto + 1):
        sq += bs[l] * bs[l]
        ev += bs[2 * l]
        ok &= sq == sum_bejaia_squares(ctx, l)
        ok &= ev == sum_bejaia_even(ctx, l)
    return CheckResult("sequence_identities", n, 0.0 if ok else 1.0, ok)


def check_conjugate_ratio(n: int, tol: float) -> CheckResult:
    dev = rel_dev(float(conjugate_ratio(SequenceContext(n))), conjugate_ratio_radical(n))
    # the radical route is benign in double precision: never looser than 1e-12
    return CheckResult("conjugate_ratio", n, dev, dev <= min(tol, 1e-12))


def check_eigentime(n: int, tol: float) -> CheckResult:
    lhs, rhs = eigentime_identity_check(n)
    dev = abs(lhs - float(rhs))
    return CheckResult("eigentime", n, dev, dev <= tol, detail=f"both sides {lhs!r}")


def check_markov(n: int, tol: float) -> CheckResult:
    g = complete_minus_opposite(n)
    h = markov_fpt(g, 0)
    if isinstance(h, list):  # exact route, where h[n - l] is h[l]
        ok = all(h[l] == fpt_closed(n, l) for l in range(1, (n - 1) // 2 + 1))
        return CheckResult("markov_fpt", n, 0.0 if ok else 1.0, ok, detail="exact")
    dev = max_or_nan([rel_dev(float(h[l]), float(fpt_closed(n, l))) for l in range(1, n)])
    return CheckResult("markov_fpt", n, dev, dev <= tol, detail="float")


def check_foster(n: int, tol: float) -> CheckResult:
    g = complete_minus_opposite(n)
    r = spectral_resistance(g).tolist()
    offsets = g.neighbor_offsets()
    # each edge once, from its lower end v to w = v + off mod n
    total = sum(r[off] for v in range(n) for off in offsets if v < (v + off) % n)
    dev = rel_dev(total, n - 1.0)
    return CheckResult("foster", n, dev, dev <= tol)


def check_monte_carlo(n: int, l: int, cfg: WalkConfig) -> CheckResult:
    g = complete_minus_opposite(n)
    est = simulate_fpt(g, 0, l, cfg)
    z, ok = est.z_test(float(fpt_closed(n, l)))
    return CheckResult(
        "monte_carlo", n, abs(z), ok, detail=f"l={l} trials={cfg.trials} z={z:+.2f}"
    )


def run_suite(
    n_max: int,
    tol: float = 1e-9,
    mc_trials: int = 20000,
    mc_seed: int = 42,
) -> list[CheckResult]:
    """All checks for every odd n in [5, n_max]; the Monte Carlo row runs
    once (n=7, or n=5 if that's all there is) to keep the suite quick.
    A check that raises becomes a FAIL row, with its traceback on stderr."""
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    # built first, so bad trials or a bad seed are refused before any check runs
    mc_cfg = z_test_config(mc_trials, mc_seed)
    results: list[CheckResult] = []

    def run(name: str, check, n: int, *args) -> None:
        try:
            results.append(check(n, *args))
        except Exception as exc:
            import traceback
            traceback.print_exc()
            results.append(CheckResult(name, n, 1.0, False, f"raised {type(exc).__name__}"))

    for n in range(5, n_max + 1, 2):
        run("sin_identity", check_sin_identity, n, tol)
        run("spectrum", check_spectrum, n, tol)
        run("power_sums", check_power_sums, n, tol)
        run("half_sums", check_half_sums, n, tol)
        run("resistance_oracles", check_resistance_oracles, n, tol)
        run("symmetry_identity", check_symmetry_identity, n, tol)
        run("sequence_identities", check_sequence_identities, n, tol)
        if n <= 49:
            run("conjugate_ratio", check_conjugate_ratio, n, tol)
        run("eigentime", check_eigentime, n, tol)
        run("markov_fpt", check_markov, n, tol)
        run("foster", check_foster, n, tol)
    mc_n = 7 if n_max >= 7 else 5
    run("monte_carlo", check_monte_carlo, mc_n, 1 if mc_n == 7 else 2, mc_cfg)
    return results
