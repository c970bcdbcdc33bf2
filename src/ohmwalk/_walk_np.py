"""Numpy walk kernel: runs the trials of a block in lockstep as uint64
arrays, bit-for-bit equivalent to `_walk_py.run_trials`, whose docstring
states the RNG contract.

numpy's uint64 arithmetic wraps mod 2^64 as SplitMix64 requires.  All live
trials of a block have taken the same number of steps, so those that reach
the target at step k add k and k^2 each to the sums and are compacted out.
Sums stay Python ints: an int64 sum of squared steps overflows near
max_steps = 2^31 - 1.
"""

from __future__ import annotations

import numpy as np

# Trials advanced together.  Substreams are indexed globally, so blocking is
# exact; the size trades memory (a few arrays of BLOCK words) against the
# fixed cost of each numpy call, paid once per step of every block.
BLOCK = 1 << 14

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
    sum of squared steps, number of truncated trials)."""
    offs = np.asarray([o % n for o in offsets], dtype=np.uint64)
    deg = np.uint64(len(offsets))
    rem = (1 << 64) % len(offsets)  # 0: every draw is accepted
    threshold = np.uint64(-rem % (1 << 64))
    total = total_sq = truncated = 0
    end = trial_offset + trials
    for start in range(trial_offset, end, BLOCK):
        count = min(BLOCK, end - start)
        tmp = np.empty(count, dtype=np.uint64)
        draws = np.empty(count, dtype=np.uint64)
        # trial t starts from mix(seed + (t+1)*gamma); the block's first term
        # is exact in Python ints, the per-trial increments wrap in uint64
        state = np.arange(count, dtype=np.uint64) * _GAMMA
        state += np.uint64((seed + (start + 1) * int(_GAMMA)) % (1 << 64))
        _mix(state, state, tmp)
        pos = np.full(count, source, dtype=np.uint64)
        steps = 0
        while True:
            live = np.flatnonzero(pos != target)
            done = pos.size - live.size
            if done:
                total += done * steps
                total_sq += done * steps * steps
                state, pos = state.take(live), pos.take(live)
            if steps == max_steps or not pos.size:
                break
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
            # draw % deg, as draw - (draw // deg) * deg: numpy divides by a
            # scalar through libdivide, several times faster than remainder
            quot = np.floor_divide(draw, deg, out=tmp[:m])
            quot *= deg
            draw -= quot
            pos += np.take(offs, draw.view(np.int64))
            # offsets lie in [0, n), so pos < 2n; pos - n wraps past pos
            # unless pos >= n, and the minimum of the two is pos mod n
            np.subtract(pos, n, out=quot)
            np.minimum(pos, quot, out=pos)
            steps += 1
        truncated += pos.size
        total += pos.size * steps
        total_sq += pos.size * steps * steps
    return total, total_sq, truncated
