"""Tests for the benchmark harness: span arithmetic, the traced layer
numbers, and the output checks, each of which must flag a corrupted
result."""

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ohmwalk import checks, spectral  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


def test_self_time_subtracts_direct_children_only():
    tree = [
        spans.Span("a", 0, 100, None),
        spans.Span("b", 10, 30, 0),
        spans.Span("c", 40, 70, 0),
        spans.Span("d", 45, 50, 2),
    ]
    assert spans.self_times(tree) == [50, 20, 25, 5]


def test_reference_sampler_samples_inside_the_block_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 6 * reference.PERIOD_S * 1e9:
            pass
        wall = time.perf_counter_ns() - t0
    assert 3 <= len(sampler.samples) <= 7
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    own, in_ref = reference.in_reference_units(wall, sampler.samples)
    assert own == wall - sum(sampler.samples)
    assert in_ref == pytest.approx(own * len(sampler.samples) / sum(sampler.samples))
    assert reference.in_reference_units(100, [10, 30]) == (60, 3.0)


def test_tracer_links_parents_and_restores_bindings():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "b")
    tracer.wrap(mod, "outer", lambda result: f"a{result}")
    assert mod.outer(1) == 4
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    a, b = tracer.spans
    assert (a.name, a.parent, b.name, b.parent) == ("a4", None, "b", 0)
    assert a.start <= b.start <= b.end <= a.end


def test_traced_suite_reports_every_layer_within_wall_time():
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        rows = checks.run_suite(9)
    finally:
        tracer.restore()
    assert checks.spectral_resistance is spectral.spectral_resistance
    wall = (max(s.end for s in tracer.spans) - min(s.start for s in tracer.spans)) / 1e9
    m = spans.layer_metrics(tracer.spans)
    assert set(m) == {name for name, _ in spans.PER_LAYER}
    assert all(t >= 0 for t in spans.self_times(tracer.spans))
    assert m["trace.self_sum_s"] <= wall
    assert m["checks.rows"] == len(rows) and m["checks.failed"] == 0
    for name in ("checks.foster_s", "spectral.resistance_s", "spectral.eigen_s", "markov.exact_s",
                 "resistance.radical_s", "resistance.exact_s", "exact.s", "kernel.s"):
        assert m[name] > 0, name
    assert m["kernel.steps"] > 0 and m["exact.max_bits"] > 0


def test_verify_check_flags_a_failed_row_and_a_changed_row_set(expected):
    rows = [checks.CheckResult(name, n, 0.0, True) for name, n in expected["verify_rows"]]
    n_max = workloads.build_verify(0)
    assert workloads.check_verify(n_max, rows, expected) == (len(rows) + 1, [])
    failed = rows.copy()
    failed[7] = replace(failed[7], passed=False)
    assert len(workloads.check_verify(n_max, failed, expected)[1]) == 1
    assert len(workloads.check_verify(n_max, rows[:-1], expected)[1]) == 1


@pytest.mark.parametrize("seed, caught_by", [(0, "digest"), (10**9, "residue")])
def test_exact_check_flags_a_changed_numerator(expected, seed, caught_by):
    plan = [p for p in workloads.build_exact(seed) if p[0] == 3001]
    out = workloads.run_exact(plan)
    checked, failures = workloads.check_exact(plan, out, expected)
    assert checked == len(out) and failures == []
    recorded = seed in workloads.RECORDED_EXACT_SEEDS
    key = next(k for k in out if k.startswith("R/") and (k in expected["exact_digests"]) == recorded)
    value = out[key]
    out[key] = Fraction(value.numerator + 1, value.denominator)
    failures = workloads.check_exact(plan, out, expected)[1]
    assert len(failures) == 1 and failures[0].startswith(key) and caught_by in failures[0]
    out[key] = 2 * value
    assert "spectral oracle" in workloads.check_exact(plan, out, expected)[1][0]


def test_walk_check_flags_changed_kernel_sums(expected):
    calls = [(5, 2, 100_000, workloads.WALK_SEED_POOL[3], 31_337)]
    out = workloads.run_walk(calls)
    assert workloads.check_walk(calls, out, expected) == (1, [])
    first, second = out[0]
    bumped = replace(second, mean=second.mean + 1 / second.trials)
    assert len(workloads.check_walk(calls, [(first, bumped)], expected)[1]) == 1
    truncated = replace(second, truncated=1)
    assert len(workloads.check_walk(calls, [(first, truncated)], expected)[1]) == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_what_the_harness_reports():
    import run

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_ref", "setup_s", "peak_rss_mb"}
