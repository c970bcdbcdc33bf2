"""Pure-Python walk kernel: the executable specification of the trial
loop.  `_walk_np` is the kernel simulate_fpt runs, and it hands its last
few trials to `_finish`; the tests hold the two to bit-for-bit equal sums.

RNG contract (shared by both, and part of the public reproducibility
promise):

* stream: SplitMix64; state advances by the golden-ratio increment
  0x9E3779B97F4A7C15 per draw and is whitened by the standard two-round
  mix; passes through 64-bit wraparound everywhere.
* substreams: trial t (global index, so chunked runs agree with one-shot
  runs) starts from state = mix(seed + (t+1) * 0x9E3779B97F4A7C15 mod 2^64).
* neighbor choice: draw a 64-bit value, reject values >= the largest
  multiple of the degree (exact uniformity), reduce mod degree, index the
  graph's canonical neighbor-offset order.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _finish(
    state: int, pos: int, steps: int, n: int, offsets: tuple[int, ...], target: int, max_steps: int
) -> tuple[int, bool]:
    """Walk one trial on from (state, pos, steps) until it reaches target or
    max_steps; returns its steps and whether it was truncated."""
    deg = len(offsets)
    threshold = (1 << 64) - (1 << 64) % deg  # accept-all when deg divides 2^64
    while pos != target and steps < max_steps:
        while True:
            state = (state + _GAMMA) & _MASK
            r = _mix(state)
            if r < threshold:
                break
        pos = (pos + offsets[r % deg]) % n
        steps += 1
    return steps, pos != target


def run_trials(
    n: int,
    offsets: tuple[int, ...],
    source: int,
    target: int,
    trials: int,
    seed: int,
    max_steps: int,
    trial_offset: int = 0,
) -> tuple[int, int, int]:
    """Walk `trials` independent trials from source until target (or
    max_steps); returns (sum of steps, sum of squared steps, number of
    truncated trials).  Exact integer accumulation makes the reduction
    order irrelevant.
    """
    total = total_sq = truncated = 0
    for t in range(trial_offset, trial_offset + trials):
        state = _mix((seed + (t + 1) * _GAMMA) & _MASK)
        steps, cut = _finish(state, source, 0, n, offsets, target, max_steps)
        total += steps
        total_sq += steps * steps
        truncated += cut
    return total, total_sq, truncated
