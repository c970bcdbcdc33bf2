"""Numpy walk kernel, bit-for-bit equivalent to `_walk_py.run_trials`, whose
docstring states the RNG contract; uint64 arithmetic wraps mod 2^64.

A pool of BLOCK slots advances in lockstep.  A slot whose trial ends takes
the next trial index and keeps the iteration it started at, so trials need
not share a step count.  Once none is left to start, such a slot retires in
place: its start becomes int64 max, which no live trial holds, so it is
never cut or oldest and no arrival of it counts.  Retired slots are dropped
when at most half the pool is live and before the last TAIL live trials go
to the spec's `_walk_py._finish`, cheaper there.

A draw is reduced mod the degree in one pass (a mask) when the degree is a
power of two, else in three (a division).  Finished trials' squared steps
sum in one int64 dot while it^2 * count < 2^63 at iteration it, else in
three dots over 16-bit halves (`_square_sum`).
"""

from __future__ import annotations

import numpy as np

from . import _walk_py

# Slots in the pool; trial t runs on substream t whatever its slot.  The size
# trades memory (a few arrays of BLOCK words) against numpy's cost per call.
BLOCK = 1 << 14
TAIL = 32  # live trials at or below which the scalar spec finishes the call

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 output mix of z into out (which may be z); tmp is a buffer
    of z's shape."""
    np.right_shift(z, 30, out=tmp)
    np.bitwise_xor(z, tmp, out=out)
    out *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(out, 27, out=tmp)
    out ^= tmp
    out *= np.uint64(0x94D049BB133111EB)
    np.right_shift(out, 31, out=tmp)
    out ^= tmp
    return out


def _square_sum(steps: np.ndarray, top: int = 2**31 - 1) -> int:
    """Exact sum of squares of steps in [0, 2^31), none above top: one int64
    dot while top^2 * len(steps) < 2^63, else hi * 2^16 + lo, whose dots
    cannot overflow."""
    if top * top * steps.size < 1 << 63:
        return int(steps @ steps)
    hi, lo = steps >> 16, steps & 0xFFFF
    return (int(hi @ hi) << 32) + (int(hi @ lo) << 17) + int(lo @ lo)


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
    """Same contract and result as `_walk_py.run_trials`: (sum of steps,
    sum of squared steps, number of truncated trials), for source != target
    and max_steps >= 1, which `simulate_fpt` and `WalkConfig` enforce."""
    offs = np.asarray([o % n for o in offsets], dtype=np.uint64)
    deg = np.uint64(len(offsets))
    rem = (1 << 64) % len(offsets)  # 0: every draw is accepted
    # rem is 0 just when deg is a power of two, and then draw % deg is draw & (deg - 1)
    mask = None if rem else deg - np.uint64(1)
    threshold = np.uint64(-rem % (1 << 64))
    size = live = min(BLOCK, trials)  # live: the slots not retired
    tmp = np.empty(size, dtype=np.uint64)
    draws = np.empty(size, dtype=np.uint64)
    state = np.empty(size, dtype=np.uint64)
    pos = np.empty(size, dtype=np.uint64)
    start = np.empty(size, dtype=np.int64)  # iteration at which each slot's trial started
    never = np.iinfo(np.int64).max  # the start of a retired slot, which no live trial holds
    idle = np.arange(size)  # slots whose trial has ended
    total = total_sq = truncated = 0
    nxt, end = trial_offset, trial_offset + trials
    it = oldest = 0  # lockstep iteration; a lower bound on the live starts
    while True:
        k = min(idle.size, end - nxt)
        if k:
            # trial t starts from mix(seed + (t+1)*gamma), wrapping in uint64
            fresh = np.multiply(np.arange(k, dtype=np.uint64), _GAMMA, out=draws[:k])
            fresh += np.uint64((seed + (nxt + 1) * int(_GAMMA)) % (1 << 64))
            state[idle[:k]] = _mix(fresh, fresh, tmp[:k])
            pos[idle[:k]] = source
            start[idle[:k]] = it
            nxt += k
        if k < idle.size:  # no trial left to start: retire the other slots in place
            start[idle[k:]] = never
            live -= idle.size - k
            if 2 * live <= pos.size or live <= TAIL:
                keep = np.flatnonzero(start != never)
                # one at a time, so that only one old array outlives its copy
                state = state.take(keep)
                pos = pos.take(keep)
                start = start.take(keep)
        if nxt == end and live <= TAIL:  # every slot left is live
            for s, p, b in zip(state.tolist(), pos.tolist(), start.tolist()):
                steps, cut = _walk_py._finish(s, p, it - b, n, offsets, target, max_steps)
                total += steps
                total_sq += steps * steps
                truncated += cut
            return total, total_sq, truncated
        m = pos.size
        state += _GAMMA
        draw = _mix(state, draws[:m], tmp[:m])
        if rem and draw.max() >= threshold:
            bad = np.flatnonzero(draw >= threshold)
            while bad.size:  # advance and draw again until accepted
                fresh = state[bad] + _GAMMA
                state[bad] = fresh
                draw[bad] = _mix(fresh, fresh, tmp[: bad.size])
                bad = bad[fresh >= threshold]
        quot = tmp[:m]
        if mask is not None:
            draw &= mask
        else:  # draw % deg, as draw - (draw // deg) * deg: numpy divides by
            # a scalar through libdivide, several times faster than remainder
            np.floor_divide(draw, deg, out=quot)
            quot *= deg
            draw -= quot
        pos += np.take(offs, draw.view(np.int64), out=quot, mode="clip")  # draw < deg
        # offsets lie in [0, n), so pos < 2n; pos - n wraps past pos
        # unless pos >= n, and the minimum of the two is pos mod n
        np.subtract(pos, n, out=quot)
        np.minimum(pos, quot, out=pos)
        it += 1
        done = pos == target
        if it - max_steps >= oldest:  # the oldest live trial may be at max_steps
            oldest = int(start.min())
            cut = start == it - max_steps
            truncated += int(np.count_nonzero(cut & ~done))
            done |= cut
        idle = done.nonzero()[0]
        if live < pos.size:  # a retired slot's arrival ends no trial
            idle = idle[start[idle] != never]
        if idle.size:
            steps = start[idle]
            np.subtract(it, steps, out=steps)
            total += int(steps.sum())
            total_sq += _square_sum(steps, it)  # every step count is at most it
