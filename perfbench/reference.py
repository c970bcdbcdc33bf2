"""A fixed reference computation timed while a workload runs, so that
the workload's wall time can be given in units of it.

On a shared host, neighbours slow this process's core by 20-60% for
seconds to minutes at a time (no steal time shows: the core runs, just
slower), and a workload's wall time moves with them.  The reference loop
is timed every PERIOD_S from a SIGALRM handler, inside the body, so its
samples see the same slowdown as the code around them; the body's time
less the samples, divided by their mean, cancels most of the slowdown.
On a 2-vCPU Xeon VM this took the run-to-run spread (interquartile range
over median, ten runs) from 6-40% to 3-5%.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

PERIOD_S = 0.025

_MASK = (1 << 64) - 1
_OFFSETS = (1, 2, 5, 6)


def reference_loop() -> int:
    """Fixed interpreter-bound work, ~0.2 ms on a 2-vCPU Xeon VM: 250
    steps of a SplitMix64-driven walk on a 7-cycle, written out here so
    that no change to ohmwalk changes it.  64-bit integer arithmetic and
    tuple indexing in an interpreter loop, like ohmwalk's hot paths; on
    the walk workload it tracked the slowdown better (2% spread against
    4-9%) than a loop of 32-bit integer arithmetic did."""
    state = pos = 0
    for _ in range(250):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        pos = (pos + _OFFSETS[z % 4]) % 7
    return pos


class Sampler:
    """Within a `with` block, times reference_loop every PERIOD_S; the
    durations (ns) are in `samples`.  The previous SIGALRM handler and
    timer are put back on exit."""

    def __init__(self) -> None:
        self.samples: list[int] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        reference_loop()
        self.samples.append(time.perf_counter_ns() - t0)

    def __enter__(self) -> Sampler:
        self.samples = []
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)


def in_reference_units(wall_ns: int, samples: list[int]) -> tuple[int, float]:
    """(the body's own time, ns; that time in reference-loop units) from
    the wall time of a timed region and the samples taken inside it, of
    which there must be at least one."""
    own = wall_ns - sum(samples)
    return own, own / fmean(samples)
