"""Random-walk quantities on circulant graphs: closed-form first-passage,
commute, and mean-first-passage times for the complete-minus-opposite
family, an exact first-step-analysis oracle, and a seeded Monte Carlo
simulator.

The simulator runs `_walk_np`, a refilled pool of trials in numpy lockstep
that hands its last few trials to the pure-Python spec `_walk_py`.  Every
trial has its own substream and the tests hold the two to bit-for-bit equal
sums, so results never depend on chunking, pool slots or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _walk_np as _kernel
from .circulant import CirculantGraph
from .resistance import total_effective_resistance, two_point_resistance

# WalkConfig rejects max_steps at or above this; simulate_fpt clamps below it
_MAX_STEPS_LIMIT = 2**31

EXACT_SOLVE_LIMIT = 60  # first-step analysis switches to float LU above this
FPT_SOLVE_CAP = 2048  # markov_fpt refuses graphs with more vertices


def kernel_backend() -> str:
    """Which walk kernel simulate_fpt runs: always 'numpy'."""
    return "numpy"


def fpt_closed(n: int, l: int) -> Fraction:
    """Expected steps from a vertex to one at circular distance l on the
    complete-minus-opposite graph: |E| * R(l) with |E| = n(n-3)/2."""
    return Fraction(n * (n - 3), 2) * two_point_resistance(n, l)


def commute_time_closed(n: int, l: int) -> Fraction:
    """Expected round-trip steps, 2|E|R(l); the graph is vertex-transitive
    so both one-way times are equal."""
    return 2 * fpt_closed(n, l)


def mfpt_closed(n: int, variant: str = "corrected") -> Fraction:
    """Mean first-passage time averaged over all targets (divided by n).

    variant='corrected' uses the true degree n-3 of the graph and equals
    (1/n) * sum over targets of fpt_closed.  variant='paper' reproduces
    the printed formula whose prefactor treats the degree as n-1; it
    overstates the mean by exactly (n-1)/(n-3).
    """
    if variant not in ("corrected", "paper"):
        raise ValueError(f"variant must be 'corrected' or 'paper', got {variant!r}")
    degree = (n - 3) if variant == "corrected" else (n - 1)
    return degree * total_effective_resistance(n) / n


def markov_fpt(g: CirculantGraph, target: int) -> list[Fraction] | np.ndarray:
    """First-passage times to `target` by first-step analysis:

        h[target] = 0,    h[i] = 1 + (1/deg) * sum over neighbors j of h[j].

    Both routes solve one system, the Laplacian (deg*I - A) h = deg*1 with
    the target row pinned to h = 0: exactly over the rationals up to
    EXACT_SOLVE_LIMIT vertices, by float LU beyond.  Graphs above
    FPT_SOLVE_CAP vertices are refused.
    """
    n = g.n
    if not 0 <= target < n:
        raise ValueError(f"target must be in [0, {n - 1}], got {target}")
    if n > FPT_SOLVE_CAP:
        raise ValueError(f"graph has {n} vertices, above the solve cap {FPT_SOLVE_CAP}")
    mat = g.laplacian_dense()
    mat[target] = 0
    mat[target, target] = 1
    rhs = np.full(n, g.degree)
    rhs[target] = 0
    if n > EXACT_SOLVE_LIMIT:
        return np.linalg.solve(mat.astype(float), rhs.astype(float))
    return _solve_exact(mat.tolist(), rhs.tolist())


def _solve_exact(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """Solve a x = b over the rationals by fraction-free (Bareiss)
    elimination: every intermediate is an integer, and the only division
    that leaves the integers is x_i = X_i / det at the end.  A zero pivot
    raises ZeroDivisionError."""
    n = len(a)
    for row, b_i in zip(a, b):
        row.append(b_i)
    # no pivot search: a pinned Laplacian is a nonsingular M-matrix, so its leading minors are > 0
    prev = 1
    for k in range(n):
        pivot = a[k]
        p = pivot[k]
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[k + 1 :], pivot[k + 1 :])]
        prev = p
    det = prev
    xs = [0] * n  # X_i = det * x_i, an integer by Cramer's rule
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * row[n] - sum(row[j] * xs[j] for j in range(i + 1, n))
        xs[i] = acc // row[i]
    return [Fraction(x, det) for x in xs]


@dataclass(frozen=True)
class WalkConfig:
    """Monte Carlo settings.  seed is a 64-bit value; max_steps of None
    means 100*n^2, resolved per graph at simulation time."""

    trials: int
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.max_steps is not None and not 1 <= self.max_steps < _MAX_STEPS_LIMIT:
            raise ValueError(f"max_steps must be in [1, {_MAX_STEPS_LIMIT})")


def z_test_config(trials: int, seed: int = 0, max_steps: int | None = None) -> WalkConfig:
    """Settings for a run that ends in a z-test, which needs a standard
    error and so at least two trials."""
    if trials < 2:
        raise ValueError("trials must be >= 2 for a z-test")
    return WalkConfig(trials=trials, seed=seed, max_steps=max_steps)


@dataclass(frozen=True)
class FptEstimate:
    mean: float
    stderr: float
    trials: int
    truncated: int

    @property
    def valid(self) -> bool:
        return self.truncated == 0

    def z_test(self, exact: float) -> tuple[float, bool]:
        """z = (mean - exact) / stderr, and whether the estimate agrees with
        `exact`: |z| <= 4 and no walk truncated.  z is NaN, and fails, when
        the stderr is 0 or infinite (fewer than two trials)."""
        z = (self.mean - exact) / self.stderr if 0 < self.stderr < math.inf else math.nan
        return z, self.valid and abs(z) <= 4.0


def simulate_fpt(
    g: CirculantGraph,
    source: int,
    target: int,
    cfg: WalkConfig,
    trial_offset: int = 0,
) -> FptEstimate:
    """Estimate the source-to-target first-passage time by simulation.

    Deterministic given (cfg.seed, trial indices): every trial runs on its
    own substream, and the moments are reduced from exact integer sums, so
    splitting the work across calls via `trial_offset` (or any parallel
    schedule) reproduces the one-shot result bit for bit.
    """
    n = g.n
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source and target must be vertices of the graph")
    if source == target:
        raise ValueError("source and target must differ")
    max_steps = cfg.max_steps if cfg.max_steps is not None else 100 * n * n
    max_steps = min(max_steps, _MAX_STEPS_LIMIT - 1)
    total, total_sq, truncated = _kernel.run_trials(
        n,
        g.neighbor_offsets(),
        source,
        target,
        cfg.trials,
        cfg.seed,
        max_steps,
        trial_offset,
    )
    mean = total / cfg.trials
    if cfg.trials > 1:
        var = Fraction(cfg.trials * total_sq - total * total, cfg.trials * (cfg.trials - 1))
        stderr = math.sqrt(float(var) / cfg.trials)
    else:
        stderr = float("inf")
    return FptEstimate(mean=mean, stderr=stderr, trials=cfg.trials, truncated=truncated)
