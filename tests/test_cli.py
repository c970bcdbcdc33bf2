import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ohmwalk import checks, cli
from ohmwalk.resistance import two_point_resistance


def residue(digits, p):
    """A decimal string's value modulo p, in linear time."""
    r = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


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
