"""Random-walk quantities on circulant graphs: closed-form first-passage,
commute, and mean-first-passage times for the complete-minus-opposite
family, a first-step-analysis oracle, and a seeded Monte Carlo simulator.

The oracle's exact route folds its linear system onto the orbits of the
reflection about the target, ~n/2 unknowns, and solves it by numeric
lifting: one float inverse, then O(n^2) float and int64 work per lifted
digit, each digit's error corrected in exact integers, rational
reconstruction, and an exact check of the answer in Python ints before it
is returned.

The simulator runs `_walk_np`, a refilled pool of trials in numpy lockstep
that hands its last few trials to the pure-Python spec `_walk_py`.  Every
trial has its own substream and the tests hold the two to bit-for-bit equal
sums, so results never depend on chunking, pool slots or execution order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _walk_np as _kernel
from .circulant import CirculantGraph
from .exact import reduce_by
from .resistance import total_effective_resistance, two_point_resistance

# WalkConfig rejects max_steps at or above this; simulate_fpt clamps below it
_MAX_STEPS_LIMIT = 2**31

EXACT_SOLVE_LIMIT = 60  # first-step analysis switches to float LU above this
FPT_SOLVE_CAP = 2048  # markov_fpt refuses graphs with more vertices
# The exact route lifts LIFT_BITS bits a step and raises on a digit above
# DIGIT_BOUND or a residual above RESIDUAL_BOUND.  Rows of a pinned Laplacian
# on n <= EXACT_SOLVE_LIMIT vertices, folded or not, have absolute sums
# <= 2(n - 1) < 2^7, so |a @ digit| < 2^62, |residual << LIFT_BITS| <= 2^61
# and the next residual stays below 2^63: int64 is exact.
LIFT_BITS = 30
DIGIT_BOUND = 2**55
RESIDUAL_BOUND = 2**31


def kernel_backend() -> str:
    """Which walk kernel simulate_fpt runs: always 'numpy'."""
    return "numpy"


def fpt_closed(n: int, l: int) -> Fraction:
    """Expected steps from a vertex to one at circular distance l on the
    complete-minus-opposite graph: |E| * R(l) with |E| = n(n-3)/2."""
    r, n = two_point_resistance(n, l), operator.index(n)  # a numpy n would overflow |E| * numerator
    edges = n * (n - 3) // 2
    return reduce_by(edges * r.numerator, r.denominator, edges)  # R(l) is in lowest terms: gcd | |E|


def commute_time_closed(n: int, l: int) -> Fraction:
    """Expected round-trip steps, 2|E|R(l); the graph is vertex-transitive
    so both one-way times are equal."""
    return 2 * fpt_closed(n, l)


def mfpt_degree(n: int, variant: str) -> int:
    """The degree in the mean first-passage time's prefactor: the true degree
    n-3 for variant='corrected', n-1 for 'paper', as the printed formula has it."""
    if variant not in ("corrected", "paper"):
        raise ValueError(f"variant must be 'corrected' or 'paper', got {variant!r}")
    return n - 3 if variant == "corrected" else n - 1


def mfpt_closed(n: int, variant: str = "corrected") -> Fraction:
    """Mean first-passage time averaged over all targets (divided by n),
    `mfpt_degree` * Kirchhoff index / n.  variant='corrected' equals (1/n) *
    sum over targets of fpt_closed; 'paper' overstates it by (n-1)/(n-3)."""
    n = operator.index(n)  # a numpy n would leak into the Fraction arithmetic
    return mfpt_degree(n, variant) * total_effective_resistance(n) / n


def markov_fpt(g: CirculantGraph, target: int) -> list[Fraction] | np.ndarray:
    """First-passage times to `target` by first-step analysis:

        h[target] = 0,    h[i] = 1 + (1/deg) * sum over neighbors j of h[j].

    Both routes solve one system, the Laplacian (deg*I - A) h = deg*1 with
    the target row pinned to h = 0: exactly over the rationals up to
    EXACT_SOLVE_LIMIT vertices (a list of Fractions, by `_solve_exact`'s
    certified numeric lifting), by float LU beyond (an array).  Graphs above
    FPT_SOLVE_CAP vertices are refused.

    The exact route solves the quotient by the reflection v -> 2*target - v,
    an automorphism that fixes the target, so h[target + d] == h[target - d]
    (Kemeny and Snell, Finite Markov Chains, 6.3): one unknown and one row
    per orbit, representative target + d for d = 0..n//2, each mirrored
    column target - d added in once (d = 0 and n/2 have no mirror), and the
    answer mirrored back to all n vertices.
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
    reps = (target + np.arange(n // 2 + 1)) % n
    mirrors = (2 * target - reps) % n
    moved = mirrors != reps
    folded = mat[np.ix_(reps, reps)]
    folded[:, moved] += mat[np.ix_(reps, mirrors[moved])]
    x = _solve_exact(folded.tolist(), rhs[reps].tolist())
    return [x[min((v - target) % n, (target - v) % n)] for v in range(n)]


def _solve_exact(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """Solve a x = b over the rationals by numeric lifting (Wan, 2006).

    From one float inverse, each step lifts LIFT_BITS more bits of x and
    keeps a @ lifted == scale * b - residual exact in int64.  Lifting stops
    once scale exceeds twice the square of the Hadamard bound on det(a) and
    on every Cramer numerator, times the error a^-1 residual, so rational
    reconstruction (Wang, 1981) recovers x over one common denominator.
    The result is returned only after a x == b holds exactly on every row,
    in Python ints; a candidate that fails raises ArithmeticError.  A
    singular system raises ZeroDivisionError, and so does one whose float
    inverse cannot prove a nonsingular or keep a digit or the residual
    within its bound.
    """
    mat = np.array(a, dtype=np.int64)
    try:
        inverse = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise ZeroDivisionError("the system is singular") from None
    # a null vector z of a has (I - inverse @ a) z = z, so a norm below 1 proves a
    # nonsingular: the second term bounds the product's rounding, the margin to 1
    # the test's own
    slop = np.abs(np.eye(len(b)) - inverse @ mat) + (len(b) + 2) * 2.0**-53 * (np.abs(inverse) @ np.abs(mat))
    if not slop.sum(axis=1).max() < 0.5:
        raise ZeroDivisionError("the system is singular or too ill-conditioned to lift")
    residual = np.array(b, dtype=np.int64)
    # Hadamard: |det(a)| and every |Cramer numerator| are <= sqrt(sq_bound)
    sq_bound = math.prod((np.square(mat).sum(axis=1) + np.square(residual)).tolist())
    lifted, scale = [0] * len(b), 1
    while True:
        error = inverse @ residual  # scale * x - lifted, as far as the inverse is exact
        largest = float(np.abs(error).max())
        if not largest <= DIGIT_BOUND >> LIFT_BITS:
            raise ZeroDivisionError("a digit passes DIGIT_BOUND: too ill-conditioned to lift")
        slack = 2 * math.ceil(largest) + 1  # > |scale * x - lifted| for a good inverse
        if scale > 2 * sq_bound * slack:
            break
        digit = np.rint(error * 2.0**LIFT_BITS).astype(np.int64)
        residual = (residual << LIFT_BITS) - mat @ digit
        if not np.abs(residual).max() <= RESIDUAL_BOUND:
            raise ZeroDivisionError("a residual passes RESIDUAL_BOUND: too ill-conditioned to lift")
        lifted = [(x << LIFT_BITS) + d for x, d in zip(lifted, digit.tolist())]
        scale <<= LIFT_BITS
    # den grows to the lcm of the entries' denominators, a divisor of det(a),
    # so den * lifted_i lies within den * slack <= bound < scale / 2 of
    # scale times an integer, the numerator
    bound = math.isqrt(sq_bound) * slack
    den = 1
    for x in lifted:
        den *= _reconstructed_denominator(den * x % scale, scale, bound)
    nums = [(den * x + scale // 2) // scale for x in lifted]
    if any(sum(map(operator.mul, row, nums)) != den * b_i for row, b_i in zip(a, b)):
        raise ArithmeticError("the lifted solution fails a x == b; it is not returned")
    return [Fraction(x, den) for x in nums]


def _reconstructed_denominator(u: int, modulus: int, bound: int) -> int:
    """The denominator q of the fraction r/q == u mod `modulus` with
    |r| <= bound, by the extended Euclidean remainder sequence (Wang)."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return abs(t1)


@dataclass(frozen=True)
class WalkConfig:
    """Monte Carlo settings.  seed is a 64-bit value; max_steps of None
    means 100*n^2, resolved per graph at simulation time.  Each field is
    stored as a Python int (`operator.index`): a numpy integer would
    overflow the kernel's seed arithmetic or leak into the estimate."""

    trials: int
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "max_steps"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
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
    # Python ints: numpy ones overflow the substream seeds or leak into the estimate
    n, (source, target, trial_offset) = g.n, map(operator.index, (source, target, trial_offset))
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
