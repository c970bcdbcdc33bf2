#!/usr/bin/env python3
"""ohmwalk benchmark.  From the root of a checkout:

    python3 perfbench/run.py --workload {verify,exact_large_n,walk} \
        --seed N --seconds T --trace {0,1}

Runs the workload in a fresh single-threaded child interpreter (child.py)
with PYTHONPATH=src and BLAS threads capped at nproc.  Set-up is timed as
the median of several fresh interpreters that import ohmwalk.cli and
build the inputs.  The last stdout line is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
--trace 0 and the per-layer ones with --trace 1.  The line before it
stamps the run with the kernel backend, the Python/numpy/mpmath
versions, nproc, the BLAS cap and the code's commit and source digest;
results with different backends are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "exact_large_n", "walk")
COLD_STARTS = 7  # single imports vary by ~12%, so set-up is a median
DEADLINE_S = 170  # the whole run, children included
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(nproc) for var in BLAS_VARS})
    return env


def run_child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; subprocess.run kills and
    reaps it if the deadline passes."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {' '.join(args)} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}")
    return proc


def setup_seconds(opts, env: dict, deadline: float) -> float:
    """Median of COLD_STARTS timed cold starts, after an untimed one that
    leaves the interpreter's, numpy's and ohmwalk's files in the page
    cache, as they are for a user who runs the CLI twice."""
    args = [str(HERE / "child.py"), "--workload", opts.workload, "--seed", str(opts.seed), "--setup-only"]
    times = []
    for _ in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        run_child(args, env, deadline)
        times.append(time.perf_counter() - t0)
    return median(times[1:])


def import_times(env: dict, deadline: float) -> tuple[float, float]:
    """Median `import ohmwalk.cli` time and numpy's share of it, from
    `python -X importtime`: the cumulative microseconds of the top-level
    ohmwalk entries, and of numpy wherever it first appears."""
    cli, numpy = [], []
    for _ in range(COLD_STARTS):
        err = run_child(["-X", "importtime", "-c", "import ohmwalk.cli"], env, deadline).stderr
        total = numpy_us = 0
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            package = name.strip()
            if package == "numpy" and not numpy_us:
                numpy_us = int(fields[1])
            if name == " " + package and (package == "ohmwalk" or package.startswith("ohmwalk.")):
                total += int(fields[1])
        cli.append(total / 1e6)
        numpy.append(numpy_us / 1e6)
    return median(cli), median(numpy)


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SRC / "ohmwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ohmwalk sources in {SRC}; run from a checkout of the repository")

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    if opts.trace:
        cli_s, numpy_s = import_times(env, deadline)
    else:
        setup_s = setup_seconds(opts, env, deadline)
    proc = run_child(
        [
            str(HERE / "child.py"),
            "--workload", opts.workload,
            "--seed", str(opts.seed),
            "--seconds", str(opts.seconds),
            "--trace", str(opts.trace),
        ],
        env,
        deadline,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    for failure in report["failures"]:
        print(f"perfbench: wrong output: {failure}", file=sys.stderr)

    if opts.trace:
        layers = dict(report["layers"], **{"cli.import_s": cli_s, "cli.import_numpy_s": numpy_s})
        metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {
            "wall_ref": metric(report["wall_ref"], "ref"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
    stamp = dict(
        report["stamp"],
        workload=opts.workload,
        seed=opts.seed,
        repetitions=report["repetitions"],
        wall_s=report["wall_s"],
        ref_sample_us=report["ref_sample_us"],
        nproc=nproc,
        blas_threads=nproc,
        commit=commit(),
        src_sha256=src_digest(),
    )
    print(json.dumps({"stamp": stamp}))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
