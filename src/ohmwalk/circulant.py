"""Circulant graph model.

A circulant graph on n vertices (labelled 0..n-1) connects i to i +/- j
mod n for every jump j in the jump set.  Jump 1 alone gives the n-cycle;
jumps 1..floor(n/2) give the complete graph.  The complete graph on odd n
minus the n longest chords is the circulant with jumps 1..(n-1)/2 - 1,
and is (n-3)-regular.
"""

from __future__ import annotations

__all__ = ["CirculantGraph", "complete_graph", "complete_minus_opposite", "cycle_graph"]

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exact import SequenceContext


@dataclass(frozen=True)
class CirculantGraph:
    n: int
    jumps: tuple[int, ...]

    def __init__(self, n: int, jumps: Iterable[int]):
        # Python ints, as `exact.SequenceContext` stores n: numpy ones break the walk kernel
        n, js = operator.index(n), tuple(sorted(set(map(operator.index, jumps))))
        if n < 3:
            raise ValueError(f"need at least 3 vertices, got {n}")
        if not js:
            raise ValueError("jump set must be non-empty")
        if js[0] < 1 or js[-1] > n // 2:
            raise ValueError(f"jumps must lie in [1, {n // 2}], got {js}")
        if math.gcd(n, *js) != 1:
            raise ValueError(
                f"C_{n}{js} is disconnected (gcd {math.gcd(n, *js)})"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "jumps", js)

    @property
    def degree(self) -> int:
        # a jump of exactly n/2 (even n) contributes one neighbor, not two
        return sum(1 if 2 * j == self.n else 2 for j in self.jumps)

    @property
    def edge_count(self) -> int:
        return self.n * self.degree // 2

    def neighbor_offsets(self) -> tuple[int, ...]:
        """Offsets defining the canonical neighbor order: +j for each jump
        ascending, then n-j for each jump ascending.  The walk simulator's
        draw-to-neighbor mapping uses exactly this order, so it is part of
        the reproducibility contract."""
        forward = [j for j in self.jumps]
        backward = [self.n - j for j in self.jumps if 2 * j != self.n]
        return tuple(forward + backward)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple((v + off) % self.n for off in self.neighbor_offsets())

    def laplacian_dense(self) -> np.ndarray:
        """Dense integer Laplacian L = D - A; row i is row 0 shifted by i."""
        n = self.n
        offsets = np.array(self.neighbor_offsets())
        row = np.zeros(2 * n, dtype=np.int64)  # row 0, twice
        row[[0, n]] = self.degree
        row[offsets] = row[offsets + n] = -1
        # L[i, j] = row[j - i + n]: the length-n window starting at n - i
        return np.lib.stride_tricks.sliding_window_view(row, n)[n:0:-1].copy()


def cycle_graph(n: int) -> CirculantGraph:
    return CirculantGraph(n, (1,))


def complete_graph(n: int) -> CirculantGraph:
    return CirculantGraph(n, range(1, n // 2 + 1))


def complete_minus_opposite(n: int) -> CirculantGraph:
    """Complete graph on odd n >= 5 vertices minus the n edges between
    (nearly) opposite vertices: the circulant with jumps 1..(n-1)/2 - 1,
    (n-3)-regular with n(n-3)/2 edges.  n = 5 degenerates to the 5-cycle.
    """
    SequenceContext(n)
    return CirculantGraph(n, range(1, (n - 1) // 2))
