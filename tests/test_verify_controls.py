"""Negative controls for `ohmwalk verify`: each test plants one small fault
in one route and asserts that exactly the rows built on that route fail,
and that `verify` exits 3.

A fault is planted at every binding of the faulted function, as a real
defect in it would be seen by all of its callers.  Every row reads package
code, so every row fails under at least one control here.  The tests at
the end hold `checks.ROWS`, the table of rows, to these controls, to the
suite's one exception boundary and to the benchmark's spans.
"""

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import mutant

from ohmwalk import _walk_np, checks, circulant, cli, exact, resistance, spectral, walks

MODULES = (exact, circulant, spectral, resistance, walks, checks, cli, _walk_np)


def plant(monkeypatch, fn, faulty):
    """Rebind `fn` to `faulty` in every module that binds it."""
    for module in MODULES:
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, faulty)


def scaled(fn, factor):
    return lambda *args: fn(*args) * factor


def shifted(fn, delta):
    return lambda *args: fn(*args) + delta


def each_shifted(fn, delta):
    return lambda *args: [x + delta for x in fn(*args)]


def ratio_scaled(fn, factor):
    """`fn`'s (numerator, denominator) pair with their ratio `factor` times too large."""
    def faulty(*args):
        num, den = fn(*args)
        return num * factor.numerator, den * factor.denominator
    return faulty


def table_shifted(fn, denominator):
    """`fn`'s table of numerators over w with every R(d) 1/denominator too large."""
    def faulty(*args):
        xs, w = fn(*args)
        return [x * denominator + w for x in xs], w * denominator
    return faulty


def skew_first_mode(fn):
    """`fn`'s eigenvalue array with the first mode and its mirror 1e-6 too
    large; `fn` may take n or a graph."""
    def faulty(arg):
        values = fn(arg).copy()
        values[[1, -1]] *= 1 + 1e-6
        return values
    return faulty


def nan_mode(fn, mode, applies=lambda arg: True):
    """`fn`'s eigenvalue array with an interior `mode` and its mirror made NaN,
    for the arguments where `applies` holds; `fn` may take n or a graph."""
    def faulty(arg):
        values = fn(arg).copy()
        if applies(arg):
            values[[mode, -mode]] = math.nan
        return values
    return faulty


def nan_when(fn, when):
    """`fn` returning NaN on the arguments where `when` holds."""
    return lambda *args: math.nan if when(*args) else fn(*args)


def nan_item(fn, item, when=lambda *args: True):
    """`fn`'s result as a float array, the form of a float route, with
    `item` made NaN on the arguments where `when` holds."""
    def faulty(*args):
        out = np.array(fn(*args), dtype=float)
        if when(*args):
            out[item] = math.nan
        return out
    return faulty


def odd_draws(mix):
    """SplitMix64 with the low bit of every output set."""
    return lambda z, out, tmp: np.bitwise_or(mix(z, out, tmp), np.uint64(1), out=out)


def at_every_n(*rows):
    return {(row, str(n)) for row in rows for n in (5, 7, 9)}


# faulted function, its faulty replacement, and the (row, n) pairs that must
# then fail in `verify --n-max 9`
CONTROLS = {
    "spectrum_skew": (
        spectral.eigenvalues_minus_opposite,
        skew_first_mode(spectral.eigenvalues_minus_opposite),
        at_every_n("spectrum", "eigentime"),
    ),
    # the sine form on K_n (sin_identity) and on the family (the rest)
    "circulant_spectrum_skew": (
        spectral.eigenvalues_circulant,
        skew_first_mode(spectral.eigenvalues_circulant),
        at_every_n("sin_identity", "spectrum", "resistance_oracles", "foster"),
    ),
    "folded_alternating_off_by_one": (
        spectral.folded_alternating,
        shifted(spectral.folded_alternating, 1),
        at_every_n("power_sums"),
    ),
    # R(l)'s numerator over w_n, which two_point_resistance and fpt_closed
    # share and the sequence row holds to the table of every distance
    "exact_resistance_skew": (
        resistance._resistance_numerator,
        ratio_scaled(resistance._resistance_numerator, Fraction(10**7 + 1, 10**7)),
        at_every_n("resistance_oracles", "markov_fpt", "sequence_identities"),
    ),
    # the sequence row asserts the bound at every l; fpt_closed and markov_fpt
    # reduce by the same wrong bound, so they still agree with each other.  At
    # n = 5 and 7 every gcd(num_l, w_n) is 1, which divides any bound
    "gcd_bound_off_by_one": (
        exact.resistance_gcd_bound,
        shifted(exact.resistance_gcd_bound, 1),
        {("sequence_identities", "9")},
    ),
    # the one table per n that half_sums reads R(l)/2 from, markov_fpt
    # certifies and the sequence row holds to the per-l route: the
    # certificate refuses it at h(target) != 0
    "resistance_table_skew": (
        resistance.resistance_numerators,
        table_shifted(resistance.resistance_numerators, 10**7),
        at_every_n("half_sums", "markov_fpt", "sequence_identities"),
    ),
    "radical_resistance_skew": (
        resistance.two_point_resistance_radical,
        scaled(resistance.two_point_resistance_radical, 1 + 1e-8),
        at_every_n("resistance_oracles"),
    ),
    # the symmetry identity reads every B_k from one listed sequence
    "bejaia_off_by_one": (
        exact.bejaia_sequence,
        each_shifted(exact.bejaia_sequence, 1),
        at_every_n("symmetry_identity"),
    ),
    # C_2l(n - 2) == P_2l for l <= 8 in the sequence row: C_2 is x^2 - 1, not x^2 - 2
    "chebyshev_coefficient_wrong": (
        spectral.chebyshev_normalized,
        mutant(spectral.chebyshev_normalized, "math.comb(2 * l - k - 1, k - 1)", "math.comb(2 * l - k - 1, k)"),
        at_every_n("sequence_identities"),
    ),
    "sum_bejaia_even_off_by_one": (
        exact.sum_bejaia_even,
        shifted(exact.sum_bejaia_even, 1),
        at_every_n("sequence_identities"),
    ),
    # power_pair returns the pair it computed but remembers a wrong one, so
    # only a later call in one context that reaches a remembered k, as k or
    # as one of its k >> i, sees the fault: the sequence row's later calls,
    # and the half-index pair of two_point_resistance and fpt_closed, whose
    # chain meets l's at least at k = 1.  The first call's chain is right,
    # so conjugate_ratio and the Kirchhoff index, one call each, pass
    "power_memo_corrupted": (
        exact.power_pair,
        mutant(exact.power_pair, "ctx._powers[k] = b, p", "ctx._powers[k] = b + 1, p"),
        at_every_n("sequence_identities", "resistance_oracles", "markov_fpt"),
    ),
    # P_2k = P_k**2 - 2 with the sign flipped: every pair past k = 0 is
    # wrong, so every row that powers phi fails, and so does the walk's z-test
    # against the wrong FPT at n = 7
    "power_doubling_sign": (
        exact.power_pair,
        mutant(exact.power_pair, "p * p - 2", "p * p + 2"),
        at_every_n("sequence_identities", "resistance_oracles", "markov_fpt", "conjugate_ratio", "eigentime",
                   "symmetry_identity") | {("monte_carlo", "7")},
    ),
    "conjugate_ratio_skew": (
        exact.conjugate_ratio,
        scaled(exact.conjugate_ratio, Fraction(10**11 + 1, 10**11)),
        at_every_n("conjugate_ratio", "symmetry_identity", "sequence_identities"),
    ),
    "conjugate_ratio_radical_skew": (
        resistance.conjugate_ratio_radical,
        scaled(resistance.conjugate_ratio_radical, 1 + 1e-11),
        at_every_n("conjugate_ratio"),
    ),
    "kirchhoff_skew": (
        resistance.total_effective_resistance,
        scaled(resistance.total_effective_resistance, Fraction(10**7 + 1, 10**7)),
        at_every_n("eigentime"),
    ),
    # three faults in markov_fpt's certificate, each of which makes it raise,
    # and a check that raises is a FAIL row, not a crash of the whole suite.
    # One candidate numerator off by one, at d = 1, where the table is scaled by |E|
    "certificate_term_off_by_one": (
        walks.markov_fpt,
        mutant(walks.markov_fpt, "[edges * x for", "[edges * x + (x == xs[1]) for"),
        at_every_n("markov_fpt"),
    ),
    # the neighbour offset 1 read as (n - 1)/2, which is not a neighbour
    "certificate_offset_swapped": (
        walks.markov_fpt,
        mutant(walks.markov_fpt, ".difference(g.neighbor_offsets())", ".difference([*g.neighbor_offsets()[1:], j])"),
        at_every_n("markov_fpt"),
    ),
    # the table's reflection R(n - l) == R(l), without its mirror: the
    # distances above (n-1)/2 read R(1..(n-1)/2) in rising order, and the
    # certificate refuses them
    "fold_mirror_dropped": (
        resistance.resistance_numerators,
        mutant(resistance.resistance_numerators, "half + half[:0:-1]", "half + half[1:]"),
        at_every_n("half_sums", "markov_fpt"),
    ),
    "all_resistances_skew": (
        spectral.spectral_resistance,
        scaled(spectral.spectral_resistance, 1 + 1e-7),
        at_every_n("resistance_oracles", "foster"),
    ),
    # A NaN at an interior position of one route: the builtin max would keep
    # the finite deviations ahead of it, and the row would pass.
    "nan_complete_graph_mode": (
        spectral.eigenvalues_circulant,
        nan_mode(spectral.eigenvalues_circulant, 2, lambda g: g.degree == g.n - 1),
        at_every_n("sin_identity"),
    ),
    "nan_split_mode": (
        spectral.eigenvalues_minus_opposite,
        nan_mode(spectral.eigenvalues_minus_opposite, 2),
        at_every_n("spectrum", "eigentime"),
    ),
    "nan_direct_power_sum": (
        spectral.sin_power_sum_direct,
        nan_when(spectral.sin_power_sum_direct, lambda n, k: k == n),
        at_every_n("power_sums"),
    ),
    "nan_odd_half_sum": (
        resistance.r_half_sums,
        nan_item(resistance.r_half_sums, (3, 1)),
        at_every_n("half_sums"),
    ),
    # R(2) and R(n - 2) from the one FFT that gives every distance; at n = 5
    # foster reads only R(1) and R(4)
    "nan_spectral_distance": (
        spectral.spectral_resistance,
        nan_item(spectral.spectral_resistance, [2, -2]),
        at_every_n("resistance_oracles") | {("foster", "7"), ("foster", "9")},
    ),
    "nan_conjugate_ratio_radical": (
        resistance.conjugate_ratio_radical,
        nan_when(resistance.conjugate_ratio_radical, lambda n: True),
        at_every_n("conjugate_ratio"),
    ),
    # odd draws pick only the offsets +2 and -2 at n = 7, so the walk from 0
    # to 1 takes 12 steps on average instead of 76/13
    "biased_kernel_draw": (
        _walk_np._mix, odd_draws(_walk_np._mix), {("monte_carlo", "7")},
    ),
}


# the controls whose check raises; any other fails on its deviation
RAISING = {"certificate_term_off_by_one", "certificate_offset_swapped", "fold_mirror_dropped", "resistance_table_skew"}


def failed_rows(capsys):
    code = cli.main(["verify", "--n-max", "9", "--trials", "2000"])
    out = capsys.readouterr().out
    return code, out, {tuple(line.split()[:2]) for line in out.splitlines() if " FAIL " in line}


def test_unfaulted_suite_passes(capsys):
    assert failed_rows(capsys)[::2] == (0, set())


def test_every_row_has_a_control(capsys):
    # the README's claim, so that no row lands without a negative control;
    # each control's rows are rows of the suite, so the sets are equal
    assert cli.main(["verify", "--n-max", "9", "--trials", "2000", "--format", "json"]) == 0
    names = {row["check"] for row in json.loads(capsys.readouterr().out)["rows"]}
    assert names == {name for _, _, rows in CONTROLS.values() for name, _ in rows}


@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_fault_fails_exactly_its_rows(capsys, monkeypatch, control):
    fn, faulty, rows = CONTROLS[control]
    plant(monkeypatch, fn, faulty)
    code, out, failed = failed_rows(capsys)
    assert code == 3
    assert out.rstrip().endswith("FAILURES PRESENT")
    assert failed == rows
    assert (" raised " in out) == (control in RAISING)


@pytest.mark.parametrize("control", sorted(c for c in CONTROLS if c.startswith("nan_")))
def test_planted_nan_is_the_deviation(capsys, monkeypatch, control):
    # each row fails on its NaN deviation, not by raising
    fn, faulty, rows = CONTROLS[control]
    plant(monkeypatch, fn, faulty)
    out = failed_rows(capsys)[1]
    assert all(line.split()[2] == "nan" for line in out.splitlines() if " FAIL " in line)


def test_every_float_row_has_a_nan_control():
    # symmetry_identity and sequence_identities compare exact integers, and
    # markov_fpt exact rationals
    nan_rows = {name for control, (_, _, rows) in CONTROLS.items() if control.startswith("nan_")
                for name, _ in rows}
    exact_rows = {"symmetry_identity", "sequence_identities", "markov_fpt"}
    assert nan_rows == {name for name, _, _ in checks.ROWS} - exact_rows


@pytest.mark.parametrize(
    "name, check", [(name, check) for name, check, _ in checks.ROWS] + [("monte_carlo", "check_monte_carlo")]
)
def test_a_raising_check_fails_exactly_its_row(capsys, monkeypatch, name, check):
    def raising(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(checks, check, raising)
    code = cli.main(["verify", "--n-max", "9", "--trials", "2000", "--format", "json"])
    captured = capsys.readouterr()
    failed = [row for row in json.loads(captured.out)["rows"] if not row["passed"]]
    assert code == 3
    ns = [7] if name == "monte_carlo" else [5, 7, 9]
    assert [(row["check"], row["n"]) for row in failed] == [(name, n) for n in ns]
    assert all(row["max_dev"] == 1.0 and row["detail"] == "raised RuntimeError" for row in failed)
    assert captured.err.count("RuntimeError: planted") == len(failed)


def test_benchmark_spans_name_every_row(monkeypatch):
    # perfbench/spans.py wraps each check by name: a row without a span
    # would read 0 in every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up there
    spec.loader.exec_module(spans)
    rows = {check: name for name, check, _ in checks.ROWS}
    assert spans.CHECKS == {**rows, "check_monte_carlo": "monte_carlo"}
