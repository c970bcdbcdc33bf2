"""Spans around calls into ohmwalk's layers, recorded from outside the
package.

`instrument` rebinds each layer's public entry points where the calling
module looks them up (for example `checks.spectral_resistance` and
`walks._kernel.run_trials`), so every call made through that binding
becomes a span: name, start, end, parent and a few counts.  Spans stay in
memory; `layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

# check function -> the name its CheckResult rows carry
CHECKS = {
    "check_sin_identity": "sin_identity",
    "check_spectrum": "spectrum",
    "check_power_sums": "power_sums",
    "check_half_sums": "half_sums",
    "check_resistance_oracles": "resistance_oracles",
    "check_symmetry_identity": "symmetry_identity",
    "check_sequence_identities": "sequence_identities",
    "check_conjugate_ratio": "conjugate_ratio",
    "check_eigentime": "eigentime",
    "check_markov": "markov_fpt",
    "check_foster": "foster",
    "check_monte_carlo": "monte_carlo",
}

# every per-layer metric a traced run reports, with its unit
PER_LAYER = (
    *((f"checks.{name}_s", "s") for name in CHECKS.values()),
    ("checks.self_s", "s"),
    ("checks.rows", "count"),
    ("checks.failed", "count"),
    ("spectral.resistance_s", "s"),
    ("spectral.resistance_calls", "count"),
    ("spectral.eigen_s", "s"),
    ("spectral.power_sums_s", "s"),
    ("markov.exact_s", "s"),
    ("markov.float_s", "s"),
    ("markov.calls", "count"),
    ("resistance.radical_s", "s"),
    ("resistance.half_sums_s", "s"),
    ("resistance.exact_s", "s"),
    ("resistance.query_max_s", "s"),
    ("resistance.query_peak_mb", "MB"),
    ("exact.s", "s"),
    ("exact.calls", "count"),
    ("exact.max_bits", "bits"),
    ("kernel.s", "s"),
    ("kernel.calls", "count"),
    ("kernel.steps", "count"),
    ("kernel.msteps_per_s", "Msteps/s"),
    ("kernel.truncated", "count"),
    ("cli.import_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.spans", "count"),
    ("failed_frac", "ratio"),
)


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns, so self-time arithmetic is exact
    end: int
    parent: int | None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans for calls made through the bindings it wraps; `restore`
    puts the original functions back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Callable]] = []

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str | Callable[[Any], str],
        info: Callable[[Any], dict] | None = None,
        memory: bool = False,
    ) -> None:
        """Rebind module.attr to a traced version.  `name` may be computed
        from the result; `info` adds counts taken from the result; with
        `memory`, a call made outside any other span runs under tracemalloc
        and records its peak."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            track = memory and not stack
            index = len(spans)
            span = Span("", 0, 0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            if track:
                tracemalloc.start()
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if track:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span.name = name(result) if callable(name) else name
            if info is not None:
                span.info.update(info(result))
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def restore(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.
    Children run inside their parent and one after another, so the part
    of the parent they cover is the sum of their durations."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _bits(x: Any) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(_bits(x.numerator), _bits(x.denominator))
    if isinstance(x, list):  # the sequences grow, so the last term is the widest
        return _bits(x[-1]) if x else 0
    if isinstance(x, tuple):
        return max(map(_bits, x), default=0)
    return 0


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point at the bindings its callers use."""
    from ohmwalk import checks, exact, resistance, spectral, walks

    for attr, check in CHECKS.items():
        tracer.wrap(checks, attr, f"checks.{check}", info=lambda r: {"passed": r.passed})
    for module, attr in ((checks, "spectral_resistance"), (resistance, "spectral_resistance")):
        tracer.wrap(module, attr, "spectral.resistance")
    for module, attr in (
        (spectral, "eigenvalues_circulant"),
        (checks, "eigenvalues_circulant"),
        (checks, "eigenvalues_minus_opposite"),
        (resistance, "eigenvalues_minus_opposite"),
    ):
        tracer.wrap(module, attr, "spectral.eigen")
    for attr in ("sin_power_sum", "sin_power_sum_direct", "cos_odd_power_sum", "cos_odd_power_sum_direct"):
        tracer.wrap(checks, attr, "spectral.power_sums")
    tracer.wrap(
        checks,
        "markov_fpt",
        lambda r: "markov.exact" if isinstance(r, list) else "markov.float",
    )
    tracer.wrap(resistance, "two_point_resistance_radical", "resistance.radical")
    tracer.wrap(checks, "r_half_sums", "resistance.half_sums")
    for module, attr in (
        (resistance, "two_point_resistance"),
        (resistance, "total_effective_resistance"),
        (walks, "two_point_resistance"),
        (walks, "total_effective_resistance"),
        (walks, "fpt_closed"),
        (walks, "mfpt_closed"),
        (checks, "fpt_closed"),
    ):
        tracer.wrap(module, attr, "resistance.exact", memory=True)
    for module, attr in (
        (exact, "sequence_pair"),
        (resistance, "sequence_pair"),
        (resistance, "conjugate_ratio"),
        (checks, "sequence_pair"),
        (checks, "bejaia"),
        (checks, "conjugate_ratio"),
    ):
        tracer.wrap(module, attr, "exact", info=lambda r: {"bits": _bits(r)})
    tracer.wrap(
        walks._kernel,
        "run_trials",
        "kernel",
        info=lambda r: {"steps": r[0], "truncated": r[2]},
    )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one traced repetition.

    `checks.<check>_s` is the whole time of that check, children included,
    as `verify` users see it; every other `_s` metric is self time.  Calls
    count entries into a layer from outside it.  Layers the workload does
    not reach read 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    m: dict[str, float] = {name: 0 for name, _ in PER_LAYER}

    query_max = 0
    for span, own in zip(spans, selfs):
        by_name[span.name] = by_name.get(span.name, 0) + own
        if span.name.startswith("checks."):
            m[f"{span.name}_s"] += span.duration / 1e9
            m["checks.rows"] += 1
            m["checks.failed"] += not span.info["passed"]
        elif span.name == "spectral.resistance":
            m["spectral.resistance_calls"] += 1
        elif span.name.startswith("markov."):
            m["markov.calls"] += 1
        elif span.name == "exact":
            m["exact.calls"] += span.parent is None or spans[span.parent].name != "exact"
            m["exact.max_bits"] = max(m["exact.max_bits"], span.info["bits"])
        elif span.name == "kernel":
            m["kernel.calls"] += 1
            m["kernel.steps"] += span.info["steps"]
            m["kernel.truncated"] += span.info["truncated"]
        if "peak_bytes" in span.info:
            query_max = max(query_max, span.duration)
            m["resistance.query_peak_mb"] = max(
                m["resistance.query_peak_mb"], span.info["peak_bytes"] / 2**20
            )

    def self_s(*names: str) -> float:
        return sum(by_name.get(name, 0) for name in names) / 1e9

    m["checks.self_s"] = self_s(*(f"checks.{c}" for c in CHECKS.values()))
    m["spectral.resistance_s"] = self_s("spectral.resistance")
    m["spectral.eigen_s"] = self_s("spectral.eigen")
    m["spectral.power_sums_s"] = self_s("spectral.power_sums")
    m["markov.exact_s"] = self_s("markov.exact")
    m["markov.float_s"] = self_s("markov.float")
    m["resistance.radical_s"] = self_s("resistance.radical")
    m["resistance.half_sums_s"] = self_s("resistance.half_sums")
    m["resistance.exact_s"] = self_s("resistance.exact")
    m["resistance.query_max_s"] = query_max / 1e9
    m["exact.s"] = self_s("exact")
    m["kernel.s"] = self_s("kernel")
    if m["kernel.s"]:
        m["kernel.msteps_per_s"] = m["kernel.steps"] / m["kernel.s"] / 1e6
    m["trace.self_sum_s"] = sum(selfs) / 1e9
    m["trace.spans"] = len(spans)
    return m
