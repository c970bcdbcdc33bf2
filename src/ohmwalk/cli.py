"""Command-line interface.

Subcommands: resistance, fpt, mfpt, total, sequence, simulate, verify.
Every command takes --format {plain,json,csv} and optionally --out FILE.
Exit codes: 0 success, 2 usage or domain error, 3 oracle/verification
failure.  Output is byte-identical for identical inputs (seeds included).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

from .checks import run_suite
from .circulant import complete_minus_opposite
from .resistance import resistance_report, total_effective_resistance
from .spectral import eigenvalues_minus_opposite, rel_dev_from, spectral_resistance
from .exact import SequenceContext, bejaia_sequence, decimal_str, pisa_sequence
from .walks import fpt_closed, mfpt_closed, mfpt_degree, simulate_fpt, z_test_config

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ORACLE = 3


def _frac_str(x: Fraction) -> str:
    return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"


def _emit(args, record: dict, plain_lines: list[str], csv_rows: list[list]) -> None:
    if args.format == "json":
        text = json.dumps(record, indent=2)
    elif args.format == "csv":
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        text = "\n".join(plain_lines)
    print(text, file=args.stream)


def _json_float(x: float) -> float | None:
    return x if math.isfinite(x) else None  # JSON has no NaN or infinity: write null


def _emit_scalar(args, command: str, inputs: dict, exact: Fraction, devs: dict, dev: float,
                 note: str = "") -> int:
    """Emit `exact` with its oracle deviations; exit on `dev`."""
    record = {
        "command": command,
        "inputs": inputs,
        "exact": _frac_str(exact),
        "float": repr(float(exact)),
        "oracle_devs": {k: _json_float(v) for k, v in devs.items()},
    }
    words = " ".join(f"{k}={v}" for k, v in inputs.items())
    dev_words = " ".join(f"{k}_dev={v:.3e}" for k, v in devs.items())
    plain = [f"{command} {words}: {record['exact']} = {record['float']} {dev_words}".rstrip()]
    if note:
        record["note"] = note
        plain.append(f"note: {note}")
    header = ["command", *inputs.keys(), "exact", "float", *devs.keys()]
    row = [command, *inputs.values(), record["exact"], record["float"], *devs.values()]
    _emit(args, record, plain, [header, row])
    return EXIT_OK if dev <= args.tolerance else EXIT_ORACLE


def _spectral_scalar(args, command: str, inputs: dict, exact: Fraction, oracle: float, note: str = "") -> int:
    dev = rel_dev_from(oracle, float(exact))
    return _emit_scalar(args, command, inputs, exact, {"spectral": dev}, dev, note)


def cmd_resistance(args) -> int:
    rep = resistance_report(args.n, args.l)
    x = float(rep.exact)
    devs = {"radical": rel_dev_from(rep.float_closed, x), "spectral": rel_dev_from(rep.spectral, x)}
    return _emit_scalar(args, "resistance", {"n": args.n, "l": args.l}, rep.exact, devs, rep.max_rel_dev)


def cmd_fpt(args) -> int:
    exact = fpt_closed(args.n, args.l)
    g = complete_minus_opposite(args.n)
    oracle = g.edge_count * spectral_resistance(g, args.l)
    return _spectral_scalar(args, "fpt", {"n": args.n, "l": args.l}, exact, oracle)


def cmd_mfpt(args) -> int:
    exact = mfpt_closed(args.n, args.variant)
    oracle = mfpt_degree(args.n, args.variant) * eigenvalues_minus_opposite(args.n).reciprocal_sum()
    note = "" if args.variant == "corrected" else (
        "the 'paper' variant scales by n-1, but this graph is (n-3)-regular; "
        "the walk-average mean is the 'corrected' value, smaller by (n-3)/(n-1)"
    )
    return _spectral_scalar(args, "mfpt", {"n": args.n, "variant": args.variant}, exact, oracle, note)


def cmd_total(args) -> int:
    exact = total_effective_resistance(args.n)
    oracle = args.n * eigenvalues_minus_opposite(args.n).reciprocal_sum()
    return _spectral_scalar(args, "total", {"n": args.n}, exact, oracle)


def cmd_sequence(args) -> int:
    ctx = SequenceContext(args.n)
    fn = bejaia_sequence if args.kind == "bejaia" else pisa_sequence
    terms = fn(ctx, args.count)
    record = {
        "command": "sequence",
        "inputs": {"n": args.n, "kind": args.kind, "count": args.count},
        "terms": [str(t) for t in terms],
    }
    plain = [",".join(str(t) for t in terms)]
    csv_rows = [["l", "value"]] + [[i, t] for i, t in enumerate(terms)]
    _emit(args, record, plain, csv_rows)
    return EXIT_OK


def cmd_simulate(args) -> int:
    exact = fpt_closed(args.n, args.l)  # checks n, then l
    cfg = z_test_config(args.trials, args.seed, args.max_steps)
    est = simulate_fpt(complete_minus_opposite(args.n), 0, args.l, cfg)
    z, passed = est.z_test(float(exact))
    record = {
        "command": "simulate",
        "inputs": {"n": args.n, "l": args.l, "trials": args.trials, "seed": args.seed},
        "exact": _frac_str(exact),
        "mean": repr(est.mean),
        "stderr": repr(est.stderr),
        "z": repr(z),
        "truncated": est.truncated,
    }
    plain = [
        f"simulate n={args.n} l={args.l} trials={args.trials} seed={args.seed}: "
        f"mean={est.mean!r} stderr={est.stderr!r} z={z:+.3f} "
        f"exact={record['exact']} truncated={est.truncated}"
    ]
    header = ["n", "l", "trials", "seed", "mean", "stderr", "z", "exact", "truncated"]
    row = [args.n, args.l, args.trials, args.seed, repr(est.mean), repr(est.stderr),
           repr(z), record["exact"], est.truncated]
    _emit(args, record, plain, [header, row])
    return EXIT_OK if passed else EXIT_ORACLE


def cmd_verify(args) -> int:
    results = run_suite(args.n_max, tol=args.tolerance, mc_trials=args.trials, mc_seed=args.seed)
    all_passed = all(r.passed for r in results)
    record = {
        "command": "verify",
        "inputs": {"n_max": args.n_max, "tolerance": args.tolerance},
        "passed": all_passed,
        "rows": [
            {"check": r.name, "n": r.n, "max_dev": _json_float(r.max_dev), "passed": r.passed,
             "detail": r.detail}
            for r in results
        ],
    }
    width = max(len(r.name) for r in results)
    plain = [f"{'check':<{width}}  {'n':>4}  {'max_dev':>10}  status  detail"]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        plain.append(
            f"{r.name:<{width}}  {r.n:>4}  {r.max_dev:>10.2e}  {status:<6}  {r.detail}"
        )
    plain.append(f"{'all checks passed' if all_passed else 'FAILURES PRESENT'}")
    csv_rows = [["check", "n", "max_dev", "passed", "detail"]] + [
        [r.name, r.n, r.max_dev, r.passed, r.detail] for r in results
    ]
    _emit(args, record, plain, csv_rows)
    return EXIT_OK if all_passed else EXIT_ORACLE


_N = ("--n", dict(type=int, required=True))
_L = ("--l", dict(type=int, required=True))
_COMMON = (
    ("--format", dict(choices=("plain", "json", "csv"), default="plain")),
    ("--out", dict(help="write output to this file instead of stdout")),
    ("--tolerance", dict(type=float, default=1e-9, help="oracle-agreement threshold (affects the exit code only)")),
)
# (name, help, handler, own arguments); every command then takes _COMMON
COMMANDS = (
    ("resistance", "exact two-point resistance R(l)", cmd_resistance, (_N, _L)),
    ("fpt", "first-passage time 0 -> l", cmd_fpt, (_N, _L)),
    ("mfpt", "mean first-passage time", cmd_mfpt,
     (_N, ("--variant", dict(choices=("corrected", "paper"), default="corrected")))),
    ("total", "total effective resistance (Kirchhoff index)", cmd_total, (_N,)),
    ("sequence", "terms of the context sequences", cmd_sequence,
     (_N, ("--kind", dict(choices=("bejaia", "pisa"), required=True)),
      ("--count", dict(type=int, required=True)))),
    ("simulate", "Monte Carlo first-passage estimate", cmd_simulate,
     (_N, _L, ("--trials", dict(type=int, default=100000)), ("--seed", dict(type=int, default=0)),
      ("--max-steps", dict(type=int, default=None)))),
    ("verify", "run the full cross-validation suite", cmd_verify,
     (("--n-max", dict(type=int, required=True)),
      ("--trials", dict(type=int, default=20000, help="Monte Carlo row trials")),
      ("--seed", dict(type=int, default=42, help="Monte Carlo row seed")))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmwalk",
        description="Exact resistances and random-walk times on the "
        "complete graph minus opposite edges (odd n).",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, own in COMMANDS:
        p = subs.add_parser(name, help=help_text)
        for flag, kwargs in own + _COMMON:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # exact fractions and sequence terms run to many thousands of digits
    if hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise ValueError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
        # --out is opened before any work, so an unwritable path fails fast
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as stream:
            args.stream = stream
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
