"""One workload run in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/child.py --workload W --seed S --setup-only

Set-up is `import ohmwalk.cli` plus building the workload's inputs; with
--setup-only the process stops there, so run.py can time cold starts from
outside.  Otherwise the body repeats within T seconds (at least once),
every repetition's outputs are checked, and one JSON report goes to
stdout.  Untraced repetitions run with the reference sampler
(reference.py) and give wall_ref, the median repetition in reference-loop
units, and wall_s, the median repetition in seconds.  With --trace 1,
untraced and traced repetitions alternate: the traced ones give the
per-layer numbers, the medians of both kinds the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = ROOT / ".perfbench"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ohmwalk.cli  # noqa: F401  (the CLI's cold start is part of set-up)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    if args.setup_only:
        return

    import mpmath
    import numpy

    import ohmwalk
    import reference
    import spans

    if not Path(ohmwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"child: imported ohmwalk from {ohmwalk.__file__}, not from {ROOT / 'src'}")
    expected = workloads.load_expected()

    walls: list[float] = []  # untraced repetitions: the body's own time
    in_refs: list[float] = []  # the same in reference-loop units
    ref_samples: list[int] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    attempted = 0
    failures: list[str] = []
    last_spans = []
    start = time.perf_counter()
    last = 0.0
    # no repetition starts that would, at the last one's pace, end past T
    while not walls or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        for traced in (False, True) if args.trace else (False,):
            tracer, sampler = spans.Tracer(), reference.Sampler()
            gc.collect()
            with contextlib.ExitStack() as timing:
                if traced:
                    timing.callback(tracer.restore)
                    spans.instrument(tracer)
                else:
                    timing.enter_context(sampler)
                t0 = time.perf_counter_ns()
                out = workload.body(inputs)
                wall = time.perf_counter_ns() - t0
            checked, failed = workload.check(inputs, out, expected)
            attempted += checked
            failures += failed
            del out
            if traced:
                traced_walls.append(wall / 1e9)
                layer_runs.append(spans.layer_metrics(tracer.spans))
                last_spans = tracer.spans
            else:
                own, in_ref = reference.in_reference_units(wall, sampler.samples)
                walls.append(own / 1e9)
                in_refs.append(in_ref)
                ref_samples += sampler.samples
        last = time.perf_counter() - began

    report = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "stamp": {
            "backend": ohmwalk.kernel_backend(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
        },
        "repetitions": len(walls),
        "wall_s": median(walls),
        "ref_sample_us": median(ref_samples) / 1e3,
    }
    if args.trace:
        layers = {name: median(run[name] for run in layer_runs) for name in layer_runs[0]}
        layers["trace.wall_s"] = median(traced_walls)
        layers["trace.untraced_wall_s"] = median(walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["failed_frac"] = len(failures) / attempted
        report["layers"] = layers
        write_spans(args.workload, last_spans)
    else:
        report["wall_ref"] = median(in_refs)
        # ru_maxrss is in KiB on Linux
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


def write_spans(workload: str, spans: list) -> None:
    """The last traced repetition's spans, one JSON list per line:
    [name, start_ns, end_ns, parent index or null, info]."""
    SPANS_DIR.mkdir(exist_ok=True)
    with open(SPANS_DIR / f"spans-{workload}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.info]) + "\n")


if __name__ == "__main__":
    main()
