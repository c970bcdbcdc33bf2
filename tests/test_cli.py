import json
from fractions import Fraction

import pytest

from ohmwalk import cli
from ohmwalk.resistance import two_point_resistance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_zero_stderr_fails_monte_carlo_row(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "5", "--trials", "2",
                           "--seed", "13")
        assert code == 3
        row = next(line for line in out.splitlines() if line.startswith("monte_carlo"))
        assert "FAIL" in row and "z=+nan" in row
        assert "FAILURES PRESENT" in out


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

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["resistance", "--n", "7", "--l", "1", "--bogus"])
        assert exc.value.code == 2
