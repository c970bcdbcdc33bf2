"""Pure-Python walk kernel: the executable specification of the trial
loop.  `_walk_np` is the kernel simulate_fpt runs; the tests hold it to
bit-for-bit equal sums with this one.

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
    deg = len(offsets)
    rem = (1 << 64) % deg
    threshold = (1 << 64) - rem  # accept-all when rem == 0
    total = 0
    total_sq = 0
    truncated = 0
    for t in range(trial_offset, trial_offset + trials):
        state = _mix((seed + (t + 1) * _GAMMA) & _MASK)
        pos = source
        steps = 0
        while pos != target and steps < max_steps:
            while True:
                state = (state + _GAMMA) & _MASK
                r = _mix(state)
                if r < threshold:
                    break
            pos = (pos + offsets[r % deg]) % n
            steps += 1
        if pos != target:
            truncated += 1
        total += steps
        total_sq += steps * steps
    return total, total_sq, truncated
