"""Cross-validation suite behind `ohmwalk verify`.

Every check pits an implementation against an independent route: exact
identities are tested as exact integer/rational equalities, float routes
against each other within the suite's one tolerance `tol`, and the
simulator against the closed forms by the z-test of `walks`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import complete_graph, complete_minus_opposite
# bejaia is not called here; perfbench/spans.py wraps this binding
from .exact import SequenceContext, bejaia, bejaia_sequence, conjugate_ratio, half_index_pair, power_pair
from .exact import resistance_gcd_bound, sequence_pair, sum_bejaia_even, sum_bejaia_squares
from .resistance import (
    _resistance_numerator,
    conjugate_ratio_radical,
    eigentime_identity_check,
    max_or_nan,
    r_half_sums,
    radical_pass,
    rel_dev,
    resistance_numerators,
    resistance_report,
    two_point_resistance_radical,
)
from .spectral import (
    chebyshev_normalized,
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


# what a check measured; `run_suite` stamps the row's name and n on it
Measured = namedtuple("Measured", "max_dev passed detail", defaults=("",))


def check_sin_identity(n: int, tol: float) -> Measured:
    # 4 * sum_{m<=(n-1)/2} sin^2(k*m*pi/n) == n for every mode k: each nonzero
    # Laplacian eigenvalue of the complete graph K_n, in its sine form, is n
    dev = max_or_nan([abs(lam - n) for lam in eigenvalues_circulant(complete_graph(n)).tolist()[1:]]) / n
    return Measured(dev, dev <= tol)


def check_spectrum(n: int, tol: float) -> Measured:
    g = complete_minus_opposite(n)
    split = sorted(eigenvalues_minus_opposite(n).tolist())
    direct = sorted(eigenvalues_circulant(g).tolist())
    numeric = np.sort(np.linalg.eigvalsh(g.laplacian_dense().astype(float)))
    # sorting moves a NaN but keeps it, so some pair below differs by NaN
    dev = float(max_or_nan([abs(a - b) / n for other in (direct, numeric) for a, b in zip(split, other)]))
    return Measured(dev, dev <= tol)


def check_power_sums(n: int, tol: float) -> Measured:
    exponents = sorted({1, 2, 3, n, n + 1, 2 * n, 2 * n + 3})
    routes = ((sin_power_sum, sin_power_sum_direct), (cos_odd_power_sum, cos_odd_power_sum_direct))
    dev = max_or_nan([rel_dev(closed(n, k), direct(n, k)) for k in exponents for closed, direct in routes])
    return Measured(dev, dev <= tol)


def check_half_sums(n: int, tol: float) -> Measured:
    # R(l)/2 from one table per n, as float(R(l)) / 2; resistance_oracles checks the per-l route
    (xs, w), sums = resistance_numerators(n), r_half_sums(n)
    dev = max_or_nan([abs(r1 - other) for (r1, r2), x in zip(sums[1:], xs[1:]) for other in (r2, x / w / 2.0)])
    return Measured(dev, dev <= tol)


def check_resistance_oracles(n: int, tol: float) -> Measured:
    # each route gives R(n - l) == R(l) bit for bit; half_sums reads every l.  The radical
    # route the CLI prints, binary powers with no pass, is held to R((n - 1)/2)
    spectrum, radical, j = spectral_resistance(complete_minus_opposite(n)), radical_pass(n), (n - 1) // 2
    reports = [resistance_report(n, l, spectrum, radical) for l in range(1, j + 1)]
    single = rel_dev(float(reports[-1].exact), two_point_resistance_radical(n, j))
    dev = max_or_nan([report.max_rel_dev for report in reports] + [single])
    return Measured(dev, dev <= tol)


def check_symmetry_identity(n: int, tol: float) -> Measured:
    # B_{2(n-l)} - B_{2l} - 2 B_{n-2l} == ratio * (B_{n-l}^2 - B_l^2), exactly,
    # every B_k from one list, with B_{-k} = -B_k
    ctx = SequenceContext(n)
    num, den = conjugate_ratio(ctx).as_integer_ratio()
    bs = bejaia_sequence(ctx, 2 * n - 1)
    ok = all(
        den * (bs[2 * (n - l)] - bs[2 * l] - 2 * (bs[n - 2 * l] if 2 * l < n else -bs[2 * l - n]))
        == num * (bs[n - l] ** 2 - bs[l] ** 2)
        for l in range(1, n)
    )
    return Measured(0.0 if ok else 1.0, ok)


def check_sequence_identities(n: int, tol: float) -> Measured:
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
    # R(l)*w_n powered per l against the table, and proved multiples of the gcds of R(l) and of the Kirchhoff index
    xs, w_xs = resistance_numerators(n)
    for l in range(1, (n - 1) // 2 + 1):
        ok &= _resistance_numerator(ctx, l) == (xs[l], w_xs)
        ok &= resistance_gcd_bound(ctx, l) % math.gcd(xs[l], w) == 0
    ok &= 2 * n % math.gcd(n * u - w, w) == 0
    for l in range(upto + 1):
        ok &= ps[l] ** 2 - d * bs[l] ** 2 == 4
        ok &= d * bs[l] ** 2 == ps[2 * l] - 2
        if l >= 1:
            ok &= ps[l] == bs[l + 1] - bs[l - 1]
            ok &= d * bs[l] == ps[l + 1] - ps[l - 1]
    # the normalized Chebyshev polynomial at n - 2 is the conjugate-power sum
    ok &= all(chebyshev_normalized(l, n - 2) == ps[2 * l] for l in range(9))
    # running direct sums against the closed forms in `exact`
    sq = 0
    ev = 0
    for l in range(1, upto + 1):
        sq += bs[l] * bs[l]
        ev += bs[2 * l]
        ok &= sq == sum_bejaia_squares(ctx, l)
        ok &= ev == sum_bejaia_even(ctx, l)
    return Measured(0.0 if ok else 1.0, ok)


def check_conjugate_ratio(n: int, tol: float) -> Measured:
    dev = rel_dev(float(conjugate_ratio(SequenceContext(n))), conjugate_ratio_radical(n))
    # the radical route is benign in double precision: never looser than 1e-12
    return Measured(dev, dev <= min(tol, 1e-12))


def check_eigentime(n: int, tol: float) -> Measured:
    lhs, rhs = eigentime_identity_check(n)
    dev = abs(lhs - float(rhs))
    return Measured(dev, dev <= tol, f"both sides {lhs!r}")


def check_markov(n: int, tol: float) -> Measured:
    # certified exact at every n, against the per-l closed form the CLI prints; h[n - l] is h[l]
    h = markov_fpt(complete_minus_opposite(n), 0)
    ok = all(h[l] == fpt_closed(n, l) for l in range(1, (n - 1) // 2 + 1))
    return Measured(0.0 if ok else 1.0, ok, "exact")


def check_foster(n: int, tol: float) -> Measured:
    g = complete_minus_opposite(n)
    offsets, v = np.array(g.neighbor_offsets()), np.arange(n)[:, None]
    # each edge once, from its lower end v to v + off mod n, in (v, off) order for the builtin sum
    terms = np.broadcast_to(spectral_resistance(g)[offsets], (n, len(offsets)))[v < (v + offsets) % n]
    dev = rel_dev(sum(terms.tolist()), n - 1.0)
    return Measured(dev, dev <= tol)


def check_monte_carlo(n: int, l: int, cfg: WalkConfig) -> Measured:
    g = complete_minus_opposite(n)
    est = simulate_fpt(g, 0, l, cfg)
    z, ok = est.z_test(float(fpt_closed(n, l)))
    return Measured(abs(z), ok, f"l={l} trials={cfg.trials} z={z:+.2f}")


# the rows of `verify` at each odd n, in order: (name, check, largest n). conjugate_ratio stops at
# 49 only to keep the row set CI and perfbench/expected.json pin: its max_dev reads 0.0 up to 1001.
ROWS = (
    ("sin_identity", "check_sin_identity", math.inf),
    ("spectrum", "check_spectrum", math.inf),
    ("power_sums", "check_power_sums", math.inf),
    ("half_sums", "check_half_sums", math.inf),
    ("resistance_oracles", "check_resistance_oracles", math.inf),
    ("symmetry_identity", "check_symmetry_identity", math.inf),
    ("sequence_identities", "check_sequence_identities", math.inf),
    ("conjugate_ratio", "check_conjugate_ratio", 49),
    ("eigentime", "check_eigentime", math.inf),
    ("markov_fpt", "check_markov", math.inf),
    ("foster", "check_foster", math.inf),
)


def run_suite(
    n_max: int,
    tol: float = 1e-9,
    mc_trials: int = 20000,
    mc_seed: int = 42,
) -> list[CheckResult]:
    """Each row of `ROWS` at every odd n in [5, n_max] up to its largest n,
    then the Monte Carlo row once (n=7, or n=5 if that's all there is).
    Checks are looked up by name as they run, so a rebound `check_*` runs;
    one that raises becomes a FAIL row, with its traceback on stderr."""
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    # built first, so bad trials or a bad seed are refused before any check runs
    mc_cfg = z_test_config(mc_trials, mc_seed)
    mc_n = 7 if n_max >= 7 else 5
    calls = [(name, check, n, tol) for n in range(5, n_max + 1, 2)
             for name, check, top in ROWS if n <= top]
    calls.append(("monte_carlo", "check_monte_carlo", mc_n, 1 if mc_n == 7 else 2, mc_cfg))
    results: list[CheckResult] = []
    for name, check, n, *args in calls:
        try:
            results.append(CheckResult(name, n, *globals()[check](n, *args)))
        except Exception as exc:
            import traceback
            traceback.print_exc()
            results.append(CheckResult(name, n, 1.0, False, f"raised {type(exc).__name__}"))
    return results
