"""Random-walk quantities on circulant graphs: closed-form first-passage
and mean-first-passage times for the complete-minus-opposite family, a
first-step-analysis oracle, and a seeded Monte Carlo simulator.

The oracle certifies instead of solving: it scales
`resistance.resistance_numerators`, R(d) at every distance d over one
common denominator, by |E| and returns it only after the first-step
equations hold exactly, in O(n) big-int operations at every n.

The simulator runs `_walk_np`, a pool of trials in numpy lockstep whose slots
are refilled, then retired in place; it hands its last few trials to the spec
`_walk_py`.  Every trial has its own substream and the tests hold the two to
bit-for-bit equal sums, so no result depends on chunking, slots or order.
"""

from __future__ import annotations

__all__ = ["FptEstimate", "WalkConfig", "fpt_closed", "kernel_backend", "markov_fpt", "mfpt_closed",
           "simulate_fpt"]

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _walk_np as _kernel
from .circulant import CirculantGraph
from .exact import SequenceContext, reduce_by, resistance_gcd_bound
from .resistance import _resistance_numerator, _validate_pair, resistance_numerators, total_effective_resistance
from .resistance import two_point_resistance  # not called here; perfbench/spans.py wraps this binding

# WalkConfig rejects max_steps at or above this; simulate_fpt clamps below it
_MAX_STEPS_LIMIT = 2**31


def kernel_backend() -> str:
    """Which walk kernel simulate_fpt runs: always 'numpy'."""
    return "numpy"


def fpt_closed(n: int, l: int) -> Fraction:
    """Expected steps from a vertex to one at circular distance l on the complete-minus-opposite
    graph: |E| * R(l), |E| = n(n-3)/2.  With R(l) = num/w_n, gcd(|E|*num, w_n) divides
    gcd(|E|, w_n)*gcd(num, w_n) and so |E|*`resistance_gcd_bound`: no full-size gcd runs."""
    ctx, l = _validate_pair(n, l)
    n, (num, w) = ctx.n, _resistance_numerator(ctx, l)
    edges = n * (n - 3) // 2
    return reduce_by(edges * num, w, edges * resistance_gcd_bound(ctx, l))


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


def markov_fpt(g: CirculantGraph, target: int) -> list[Fraction]:
    """First-passage times to `target` by first-step analysis,

        h[target] = 0,    h[i] = 1 + (1/deg) * sum over neighbors j of h[j],

    on `complete_minus_opposite(n)`, certified instead of solved.  The
    candidate at distance d from the target is |E| * R(d), with R(d) read
    over the common denominator w_n from `resistance_numerators`, and it is
    returned only after it satisfies every equation exactly: the pinned
    Laplacian of a connected graph is nonsingular, so it is then the
    solution (Kemeny and Snell, Finite Markov Chains, 6.3), and the
    check is a certificate (McConnell, Mehlhorn, Naeher and Schweitzer,
    "Certifying algorithms", Comput. Sci. Rev. 5, 2011).  A candidate that
    fails raises ArithmeticError.  Any other graph is refused.

    The reflection v -> 2*target - v fixes the graph and the target, so
    h[target + d] == h[target - d]: the pin and the equations at d = 1..(n-1)/2
    are all of them, each O(1) big-int operations (the neighbour sum is the
    whole sum less h(d) and the two non-neighbours).  Each value is reduced
    by the proved bound of `fpt_closed`, not by a full-size gcd.
    """
    n, target = g.n, operator.index(target)
    if not 0 <= target < n:
        raise ValueError(f"target must be in [0, {n - 1}], got {target}")
    j = (n - 1) // 2
    if n % 2 == 0 or g.jumps != tuple(range(1, j)):
        raise ValueError(f"first-step analysis is certified on complete_minus_opposite(n) only, got C_{n}{g.jumps}")
    deg, edges, (xs, w) = g.degree, g.edge_count, resistance_numerators(n)
    h = [edges * x for x in xs]  # numerators over w_n at distances 0..n-1 from the target
    total = sum(h)
    others = set(range(1, n)).difference(g.neighbor_offsets())
    if h[0] or any(deg * h[d] - (total - h[d] - sum(h[(d + o) % n] for o in others)) != deg * w
                   for d in range(1, j + 1)):
        raise ArithmeticError("the candidate fails a first-step equation; it is not returned")
    ctx = SequenceContext(n)  # the bound of fpt_closed; the context's power memo holds each w_s
    values = [Fraction(0)] + [reduce_by(x, w, edges * resistance_gcd_bound(ctx, d))
                              for d, x in enumerate(h[1:j + 1], 1)]
    return [values[min(k, n - k)] for k in ((v - target) % n for v in range(n))]


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
