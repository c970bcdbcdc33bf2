import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ohmwalk import checks, cli, walks
from ohmwalk.resistance import two_point_resistance


def residue(digits, p):
    """A decimal string's value modulo p, in linear time."""
    r = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*args):
    """A fresh interpreter on this tree's src/, started at the repository root."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


class TestResistance:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "resistance", "--n", "7", "--l", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["exact"] == "38/91"
        assert record["inputs"] == {"n": 7, "l": 1}
        assert float(record["float"]) == pytest.approx(38 / 91, rel=1e-12)
        assert set(record["oracle_devs"]) == {"radical", "spectral"}

    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "resistance", "--n", "5", "--l", "2")
        assert code == 0
        assert "6/5" in out

    def test_even_n_rejected(self, capsys):
        code, _, err = run(capsys, "resistance", "--n", "6", "--l", "1")
        assert code == 2
        assert "odd" in err

    def test_absurd_tolerance_fails_exit_3(self, capsys):
        code, _, _ = run(capsys, "resistance", "--n", "7", "--l", "1",
                         "--tolerance", "1e-30")
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, value):
        code, out, err = run(capsys, "resistance", "--n", "7", "--l", "1", f"--tolerance={value}")
        assert (code, out) == (2, "")
        assert err.startswith("error: --tolerance") and err.count("\n") == 1

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "resistance", "--n", "7", "--l", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("command,n,l,exact,float")
        assert "38/91" in lines[1]


class TestOtherScalars:
    def test_fpt(self, capsys):
        code, out, _ = run(capsys, "fpt", "--n", "7", "--l", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["exact"] == "76/13"

    def test_total(self, capsys):
        code, out, _ = run(capsys, "total", "--n", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["exact"] == "126/13"

    def test_mfpt_corrected_default(self, capsys):
        code, out, _ = run(capsys, "mfpt", "--n", "7", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["exact"] == "72/13"
        assert "note" not in record

    def test_mfpt_paper_variant_carries_note(self, capsys):
        code, out, _ = run(capsys, "mfpt", "--n", "7", "--variant", "paper",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["exact"] == "108/13"
        assert "(n-3)-regular" in record["note"]

    def test_mfpt_paper_note_in_plain(self, capsys):
        code, out, _ = run(capsys, "mfpt", "--n", "7", "--variant", "paper")
        assert code == 0
        assert "108/13" in out
        assert "note:" in out

    def test_mfpt_degree_has_one_home(self, capsys, monkeypatch):
        # one degree rule scales the exact mean and its spectral oracle, so a
        # changed rule moves both and they still agree
        monkeypatch.setattr(walks, "mfpt_degree", lambda n, variant: n - 2)
        monkeypatch.setattr(cli, "mfpt_degree", walks.mfpt_degree)
        code, out, _ = run(capsys, "mfpt", "--n", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["exact"] == "90/13"


    @pytest.mark.parametrize("command, argv", [
        ("resistance", ["--l", "1"]), ("fpt", ["--l", "1"]), ("mfpt", []), ("total", []),
    ])
    def test_non_finite_dev_is_json_null_and_fails(self, capsys, monkeypatch, command, argv):
        report = cli.resistance_report
        monkeypatch.setattr(cli, "resistance_report", lambda n, l: replace(report(n, l), max_rel_dev=math.nan))
        monkeypatch.setattr(cli, "rel_dev_from", lambda oracle, exact: math.nan)
        code, out, _ = run(capsys, command, "--n", "7", *argv, "--format", "json")
        record = json.loads(out, parse_constant=reject_constant)
        assert code == 3 and set(record["oracle_devs"].values()) == {None}
        code, out, _ = run(capsys, command, "--n", "7", *argv, "--format", "csv")
        assert out.splitlines()[1].endswith(",nan")


class TestSequence:
    def test_bejaia_seven(self, capsys):
        code, out, _ = run(capsys, "sequence", "--n", "7", "--kind", "bejaia",
                           "--count", "8")
        assert code == 0
        assert out.strip() == "0,1,5,24,115,551,2640,12649"

    def test_pisa_five(self, capsys):
        code, out, _ = run(capsys, "sequence", "--n", "5", "--kind", "pisa",
                           "--count", "6")
        assert code == 0
        assert out.strip() == "2,3,7,18,47,123"

    def test_bejaia_five(self, capsys):
        code, out, _ = run(capsys, "sequence", "--n", "5", "--kind", "bejaia",
                           "--count", "6")
        assert code == 0
        assert out.strip() == "0,1,3,8,21,55"

    def test_json_terms_are_strings(self, capsys):
        code, out, _ = run(capsys, "sequence", "--n", "7", "--kind", "pisa",
                           "--count", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"] == ["2", "5", "23"]

    def test_bad_count(self, capsys):
        code, _, err = run(capsys, "sequence", "--n", "7", "--kind", "pisa",
                           "--count", "0")
        assert code == 2


class TestSimulate:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "7", "--l", "1",
                           "--trials", "20000", "--seed", "42", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["truncated"] == 0
        assert abs(float(record["z"])) <= 4

    def test_byte_identical_repeats(self, capsys):
        args = ("simulate", "--n", "5", "--l", "2", "--trials", "5000", "--seed", "1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_of_range_l(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "7", "--l", "7",
                           "--trials", "10", "--seed", "0")
        assert code == 2

    def test_one_trial_is_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "7", "--l", "1", "--trials", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_stderr_fails(self, capsys):
        # both trials take 2 steps: the stderr is 0 and z is undefined
        code, out, _ = run(capsys, "simulate", "--n", "5", "--l", "2",
                           "--trials", "2", "--seed", "13", "--format", "json")
        assert code == 3
        record = json.loads(out)
        assert record["stderr"] == "0.0"
        assert record["z"] == "nan"


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "9", "--trials", "5000")
        assert code == 0
        assert "all checks passed" in out
        assert "eigentime" in out

    def test_eigentime_row_shows_value(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "7", "--trials", "2000")
        assert code == 0
        assert "1.3846153" in out

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "5", "--trials", "2000",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert all(row["passed"] for row in record["rows"])

    def test_degenerate_family_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-max", "5", "--trials", "2000")
        assert code == 0

    def test_one_trial_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "7", "--trials", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_one_trial_message_is_the_one_of_simulate(self, capsys):
        verify = run(capsys, "verify", "--n-max", "7", "--trials", "1")
        simulate = run(capsys, "simulate", "--n", "7", "--l", "1", "--trials", "1")
        assert verify == simulate == (2, "", "error: trials must be >= 2 for a z-test\n")

    @pytest.mark.parametrize("tol", [1e-30, 3e-16, 1e-9])
    def test_tolerance_reaches_every_float_row(self, capsys, tol):
        code, out, _ = run(capsys, "verify", "--n-max", "9", "--trials", "2000",
                           "--format", "json", f"--tolerance={tol}")
        rows = json.loads(out)["rows"]
        for row in rows:
            if row["check"] in ("symmetry_identity", "sequence_identities") or row["detail"] == "exact":
                assert row["passed"], row
            elif row["check"] == "monte_carlo":  # a z-test, in its own unit
                assert row["passed"] == (row["max_dev"] <= 4.0), row
            else:
                bound = min(tol, 1e-12) if row["check"] == "conjugate_ratio" else tol
                assert row["passed"] == (row["max_dev"] <= bound), row
        assert code == (0 if all(row["passed"] for row in rows) else 3)

    def test_float_markov_row_passes_exactly_up_to_the_tolerance(self):
        # n above 60 takes the float route, which `verify --n-max 9` never reaches
        row = checks.check_markov(61, 1.0)
        assert row.detail == "float" and row.max_dev > 0
        assert checks.check_markov(61, row.max_dev).passed
        assert not checks.check_markov(61, row.max_dev / 2).passed

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, value):
        code, out, err = run(capsys, "verify", "--n-max", "5", f"--tolerance={value}")
        assert (code, out) == (2, "")
        assert err.startswith("error: --tolerance") and err.count("\n") == 1

    def test_gcd_bound_row_fails_under_a_wrong_bound(self, capsys, monkeypatch):
        # at n = 9, gcd(num_l, w_n) is 2 at l = 1 and 18 at l = 3, so a bound
        # of 1 must fail the row there; at n = 5 and 7 every such gcd is 1
        assert checks.check_sequence_identities(9, 1e-9).passed
        monkeypatch.setattr(checks, "resistance_gcd_bound", lambda ctx, l: 1)
        assert not checks.check_sequence_identities(9, 1e-9).passed
        code, out, _ = run(capsys, "verify", "--n-max", "9", "--trials", "2000")
        assert code == 3
        failed = [line.split()[:2] for line in out.splitlines() if " FAIL " in line]
        assert failed == [["sequence_identities", "9"]]

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_fails_before_any_check(self, capsys, monkeypatch, seed):
        def check_sin_identity(*args):
            raise AssertionError("a check ran before the seed was validated")

        monkeypatch.setattr(checks, "check_sin_identity", check_sin_identity)
        code, out, err = run(capsys, "verify", "--n-max", "101", "--seed", seed)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_stderr_fails_monte_carlo_row(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "5", "--trials", "2",
                           "--seed", "13")
        assert code == 3
        row = next(line for line in out.splitlines() if line.startswith("monte_carlo"))
        assert "FAIL" in row and "z=+nan" in row
        assert "FAILURES PRESENT" in out

    def test_zero_stderr_json_is_strict(self, capsys):
        # z is nan: JSON has no NaN, so max_dev is written as null
        code, out, _ = run(capsys, "verify", "--n-max", "5", "--trials", "2",
                           "--seed", "13", "--format", "json")
        assert code == 3
        record = json.loads(out, parse_constant=reject_constant)
        row = next(row for row in record["rows"] if row["check"] == "monte_carlo")
        assert row["max_dev"] is None and not row["passed"]
        assert all(row["max_dev"] is not None for row in record["rows"] if row["check"] != "monte_carlo")


class TestFamilyDomain:
    ARGS = {
        "resistance": ["--l", "1"],
        "fpt": ["--l", "1"],
        "mfpt": [],
        "total": [],
        "sequence": ["--kind", "bejaia", "--count", "3"],
        "simulate": ["--l", "1", "--trials", "10"],
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize("n", [4, 6, -7])
    def test_one_message_for_every_command(self, capsys, command, n):
        code, out, err = run(capsys, command, "--n", str(n), *self.ARGS[command])
        assert (code, out) == (2, "")
        assert err == f"error: n must be odd and >= 5, got {n}\n"


def reference_parser() -> argparse.ArgumentParser:
    """The hand-written parser that `cli.COMMANDS` replaced, kept as the
    reference for every help screen, default and usage error."""

    def add_common(sub):
        sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        sub.add_argument("--out", help="write output to this file instead of stdout")
        sub.add_argument(
            "--tolerance",
            type=float,
            default=1e-9,
            help="oracle-agreement threshold (affects the exit code only)",
        )

    parser = argparse.ArgumentParser(
        prog="ohmwalk",
        description="Exact resistances and random-walk times on the "
        "complete graph minus opposite edges (odd n).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("resistance", help="exact two-point resistance R(l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cli.cmd_resistance)

    p = subs.add_parser("fpt", help="first-passage time 0 -> l")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cli.cmd_fpt)

    p = subs.add_parser("mfpt", help="mean first-passage time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("corrected", "paper"), default="corrected")
    add_common(p)
    p.set_defaults(func=cli.cmd_mfpt)

    p = subs.add_parser("total", help="total effective resistance (Kirchhoff index)")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cli.cmd_total)

    p = subs.add_parser("sequence", help="terms of the context sequences")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("bejaia", "pisa"), required=True)
    p.add_argument("--count", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cli.cmd_sequence)

    p = subs.add_parser("simulate", help="Monte Carlo first-passage estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cli.cmd_simulate)

    p = subs.add_parser("verify", help="run the full cross-validation suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--trials", type=int, default=20000, help="Monte Carlo row trials")
    p.add_argument("--seed", type=int, default=42, help="Monte Carlo row seed")
    add_common(p)
    p.set_defaults(func=cli.cmd_verify)

    return parser


def subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParserTable:
    ARGV = {
        "resistance": ["--n", "7", "--l", "1"],
        "fpt": ["--n", "7", "--l", "2", "--format", "json"],
        "mfpt": ["--n", "9", "--variant", "paper"],
        "total": ["--n", "5", "--out", "x.json", "--tolerance", "1e-6"],
        "sequence": ["--n", "7", "--kind", "pisa", "--count", "4", "--format", "csv"],
        "simulate": ["--n", "7", "--l", "1", "--trials", "10", "--max-steps", "5"],
        "verify": ["--n-max", "9", "--seed", "3"],
    }

    def test_top_level_help_is_the_reference(self):
        assert cli.build_parser().format_help() == reference_parser().format_help()

    def test_same_subcommands_in_the_same_order(self):
        assert list(subcommands(cli.build_parser())) == list(subcommands(reference_parser())) == list(self.ARGV)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_subcommand_help_is_the_reference(self, command):
        got = subcommands(cli.build_parser())[command].format_help()
        assert got == subcommands(reference_parser())[command].format_help()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_namespace_is_the_reference(self, command):
        argv = [command, *self.ARGV[command]]
        assert vars(cli.build_parser().parse_args(argv)) == vars(reference_parser().parse_args(argv))


class TestPlumbing:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        code, out, _ = run(capsys, "total", "--n", "5", "--format", "json",
                           "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["exact"] == "10/1"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "record.json"
        code, out, err = run(capsys, "total", "--n", "5", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unwritable_out_fails_before_any_work(self, capsys, tmp_path, monkeypatch):
        def run_suite(*args, **kwargs):
            raise AssertionError("the suite ran before --out was opened")

        monkeypatch.setattr(cli, "run_suite", run_suite)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify", "--n-max", "101", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exact_output_has_no_digit_limit(self, capsys):
        # the numerator and denominator run past Python's default
        # 4300-digit limit on int <-> str conversion
        code, out, err = run(capsys, "resistance", "--n", "3001", "--l", "1",
                             "--format", "json")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert max(len(part) for part in record["exact"].split("/")) > 4300
        assert Fraction(record["exact"]) == two_point_resistance(3001, 1)

    @pytest.mark.parametrize(
        "argv, quantity",
        [
            (["total", "--n", "20001"], "K"),
            (["resistance", "--n", "20001", "--l", "1"], "R"),
            (["total", "--n", "100001"], "K"),
        ],
    )
    def test_large_n_exact_residue(self, capsys, argv, quantity):
        # the closed forms modulo a prime, from the B/P recursions
        n, p = int(argv[2]), (1 << 61) - 1
        m, d = n - 2, n * (n - 4)
        bs, ps = [0, 1], [2, m]
        for _ in range(n - 1):
            bs.append((m * bs[-1] - bs[-2]) % p)
            ps.append((m * ps[-1] - ps[-2]) % p)
        inv = pow(ps[n] + 2, -1, p)
        if quantity == "R":  # B_2 - d*B_n/(P_n+2) * B_1**2
            expected = (bs[2] - d * bs[n] * inv * bs[1] ** 2) % p
        else:  # n * [(P_n - (n-2))/d - (B_n - n)*B_n/(P_n+2)]
            expected = n * ((ps[n] - m) * pow(d, -1, p) - (bs[n] - n) * bs[n] * inv) % p
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        num, den = (residue(part, p) for part in json.loads(out)["exact"].split("/"))
        assert num * pow(den, -1, p) % p == expected

    def test_module_entry_point(self, capsys):
        proc = fresh_python("-m", "ohmwalk.cli", "resistance", "--n", "7", "--l", "1")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(capsys, "resistance", "--n", "7", "--l", "1")[1]
        assert proc.stdout.startswith("resistance n=7 l=1: 38/91 = ")

    def test_runs_without_mpmath(self, capsys):
        # the import does not load mpmath, and with it made unimportable the
        # radical route still runs at a precision past double
        script = (
            "import sys, ohmwalk.cli\n"
            "assert 'mpmath' not in sys.modules, 'mpmath loaded'\n"
            "sys.modules['mpmath'] = None\n"
            "sys.exit(ohmwalk.cli.main(['resistance', '--n', '101', '--l', '50']))\n"
        )
        proc = fresh_python("-c", script)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(capsys, "resistance", "--n", "101", "--l", "50")[1]

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["resistance", "--n", "7", "--l", "1", "--bogus"])
        assert exc.value.code == 2
