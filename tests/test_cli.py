import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqlim.cli
import seqlim.sums
from seqlim.cli import main, render_json
from seqlim.recurrence import guess_window


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """A fresh interpreter that imports the seqlim under test, installed or not."""
    package_root = str(Path(seqlim.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestFamily:
    def test_delannoy(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--family", "delannoy", "--n", "4")
        assert code == 0
        assert "1 3 13 63 321" in out

    def test_franel(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--family", "franel",
                               "--d", "3", "--n", "3")
        assert code == 0
        assert "1 2 10 56" in out

    def test_symbolic(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--family", "delannoy_x",
                               "--symbolic-x", "--n", "1")
        assert code == 0
        assert "2*x + 1" in out

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "family", "--family", "nope", "--n", "2")
        assert code == 2
        assert "error" in err


class TestGuess:
    def test_franel4(self, capsys):
        code, out, _ = run_cli(capsys, "guess", "--terms-from", "franel", "--d", "4",
                               "--max-order", "2", "--max-degree", "3")
        assert code == 0
        assert "order: 2" in out

    def test_franel4_holdout_is_outside_the_elimination_window(self, capsys):
        code, out, _ = run_cli(capsys, "guess", "--terms-from", "franel", "--d", "4",
                               "--n-terms", "60", "--max-order", "2",
                               "--max-degree", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["order"] == "2" and doc["results"]["degree"] == "3"
        # 58 relation indices; the order-2 window covers 3 * (5 + 1) + 10 of them
        assert guess_window(60, 2, 5) == (5, 28)
        assert doc["diagnostics"]["holdout_checked"] == "30"

    def test_constant_sequence_from_file(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text(" ".join(["1"] * 20))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(path),
                               "--max-order", "1", "--max-degree", "0")
        assert code == 0
        assert "c_0: -1" in out and "c_1: 1" in out

    def test_no_recurrence_found(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text(" ".join(str(p) for p in
                                 [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                  43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]))
        code, _, err = run_cli(capsys, "guess", "--terms-file", str(path),
                               "--max-order", "2", "--max-degree", "1")
        assert code == 1
        assert "no recurrence" in err

    def test_negative_max_degree_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "guess", "--terms-from", "delannoy",
                               "--max-order", "2", "--max-degree", "-1")
        assert code == 2
        assert "--max-degree" in err

    def test_zero_max_order_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "guess", "--terms-from", "delannoy",
                               "--max-order", "0", "--max-degree", "3")
        assert code == 2
        assert "--max-order" in err

    @pytest.mark.parametrize("n_terms", ["0", "-3"])
    def test_n_terms_below_one_is_usage_error(self, capsys, monkeypatch, n_terms):
        def no_terms(*args, **kwargs):
            raise AssertionError("terms were evaluated before the usage check")

        monkeypatch.setattr(seqlim.cli, "family_terms", no_terms)
        code, _, err = run_cli(capsys, "guess", "--terms-from", "delannoy",
                               "--n-terms", n_terms, "--max-order", "2", "--max-degree", "3")
        assert code == 2
        assert "--n-terms must be >= 1" in err

    def test_insufficient_terms(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1 2 4")
        code, _, err = run_cli(capsys, "guess", "--terms-file", str(path),
                               "--max-order", "2", "--max-degree", "2")
        assert code == 2
        assert "terms" in err


class TestLimit:
    def test_delannoy_recognized(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--rec", "delannoy",
                               "--digits", "47", "--recognize", "ln2")
        assert code == 0
        assert "0.34657359027997265470861606072908828403775006718" in out
        assert "1/2*ln2" in out

    def test_file_recurrence_roundtrip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "cf", "--from-rec", "delannoy",
                               "--rescale", "n + 1")
        assert code == 0
        rec_code, rec_out, _ = run_cli(capsys, "limit", "--rec", "delannoy",
                                       "--digits", "20")
        assert rec_code == 0

    def test_explicit_inits(self, capsys, tmp_path):
        spec = tmp_path / "rec.txt"
        spec.write_text("order: 2\noffset: -1\nc_0: n + 1\nc_1: -6*n - 9\nc_2: n + 2\n")
        code, out, _ = run_cli(capsys, "limit", "--rec", f"@{spec}",
                               "--init-a", "0,1", "--init-a-start", "-1",
                               "--init-b", "0,1", "--digits", "20")
        assert code == 0
        assert "0.34657359027997265470" in out

    def test_missing_inits_for_file_rec(self, capsys, tmp_path):
        spec = tmp_path / "rec.txt"
        spec.write_text("order: 2\noffset: -1\nc_0: n + 1\nc_1: -6*n - 9\nc_2: n + 2\n")
        code, _, err = run_cli(capsys, "limit", "--rec", f"@{spec}",
                               "--digits", "20")
        assert code == 2

    def test_order_one_recurrence_names_its_order(self, capsys):
        # arctan at x = 0 collapses to an order-1 recurrence
        code, _, err = run_cli(capsys, "limit", "--rec", "arctan:x=0", "--digits", "20")
        assert code == 2
        assert "order 1" in err
        assert "needs order 2" in err
        assert "higher-order" not in err

    def test_recognition_failure_is_computation_error(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--rec", "delannoy",
                               "--digits", "40", "--recognize", "zeta3")
        assert code == 1
        assert "not recognized" in err

    def test_unknown_constant_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--rec", "delannoy",
                               "--digits", "20", "--recognize", "nosuch")
        assert code == 2
        assert "nosuch" in err

    def test_too_few_digits_for_basis_is_usage_error(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("apery_limit ran before the usage check")

        monkeypatch.setattr(seqlim.cli, "apery_limit", no_work)
        code, _, err = run_cli(capsys, "limit", "--rec", "delannoy", "--digits", "10",
                               "--recognize", "one,ln2,pi,zeta2,zeta3,catalan,L3")
        assert code == 2
        assert "--digits must be >= 80" in err

    def test_repeated_basis_name_is_usage_error(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the limit was computed before the usage check")

        monkeypatch.setattr(seqlim.cli, "_solution_pair", no_work)
        monkeypatch.setattr(seqlim.cli, "apery_limit", no_work)
        code, _, err = run_cli(capsys, "limit", "--rec", "delannoy", "--digits", "60",
                               "--recognize", "ln2,ln2")
        assert code == 2
        assert "repeated constant" in err

    def test_basis_digit_threshold_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "limit", "--rec", "delannoy", "--digits", "80",
                                 "--recognize", "one,ln2,pi,zeta2,zeta3,catalan,L3")
        assert code == 0, err
        assert "1/2*ln2" in out


class TestSpecs:
    @pytest.mark.parametrize("argv", [
        ("limit", "--rec", "delannoy:x=3", "--digits", "20"),
        ("limit", "--rec", "apery3:d=7", "--digits", "20"),
        ("limit", "--rec", "arctan:x=1/2,y=2", "--digits", "20"),
        ("limit", "--rec", "arctan:x=", "--digits", "20"),
        ("limit", "--rec", "arctan:x=1/2,x=1/3", "--digits", "20"),
        ("limit", "--rec", "franel:d=five", "--digits", "20"),
        ("limit", "--rec", "nosuch", "--digits", "20"),
        ("cf", "--from-rec", "delannoy:x=2"),
        ("cf", "--cf", "arctan:x=3", "--n", "2"),
        ("cf", "--cf", "log:foo", "--n", "2"),
        ("cf", "--cf", "nosuch:x=1", "--n", "2"),
    ], ids=lambda argv: argv[2])
    def test_unknown_or_inapplicable_parameter_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert argv[2] in err

    def test_arctan_is_the_trinomial_family(self, capsys):
        outs = []
        for rec in ("arctan:x=3/5", "trinomial_x:x=3/5"):
            code, out, _ = run_cli(capsys, "limit", "--rec", rec, "--digits", "30", "--json")
            assert code == 0
            outs.append(json.loads(out)["results"])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ("limit", "--rec", "franel:d=11", "--digits", "20"),
        ("limit", "--rec", "franel:d=2", "--digits", "20"),
        ("conjecture", "--name", "franel-zeta2", "--d-range", "3..11", "--digits", "30"),
        ("conjecture", "--name", "franel-zeta4", "--d-range", "4..6", "--digits", "30"),
    ], ids=lambda argv: " ".join(argv[1:5]))
    def test_power_sum_d_outside_the_table_fails_before_guessing(self, capsys,
                                                                monkeypatch, argv):
        def no_guess(*args, **kwargs):
            raise AssertionError("guessed before the usage check")

        monkeypatch.setattr(seqlim.sums, "guess_recurrence", no_guess)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "supports d in" in err

    def test_explicit_secondary_skips_the_power_sum_table(self, capsys, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("reached the guesser")

        monkeypatch.setattr(seqlim.sums, "guess_recurrence", reached)
        code, _, err = run_cli(capsys, "limit", "--rec", "franel:d=11",
                               "--init-b", "0,1", "--digits", "20")
        assert code == 1
        assert "reached the guesser" in err

    def test_no_guessed_recurrence_is_computation_error(self, capsys, monkeypatch):
        monkeypatch.setattr(seqlim.sums, "guess_recurrence", lambda *args, **kwargs: None)
        code, _, err = run_cli(capsys, "limit", "--rec", "franel:d=11",
                               "--init-b", "0,1", "--digits", "20")
        assert code == 1
        assert "no recurrence found" in err

    def test_explicit_secondary_matches_the_default(self, capsys):
        outs = []
        for extra in ((), ("--init-b", "0,1,89/12")):
            code, out, _ = run_cli(capsys, "limit", "--rec", "franel:d=5",
                                   "--digits", "30", "--json", *extra)
            assert code == 0
            outs.append(json.loads(out)["results"])
        assert outs[0] == outs[1]


class TestCf:
    def test_log_convergents(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--cf", "log:x=1", "--n", "3")
        assert code == 0
        assert "131/378" in out

    def test_arctan_convergent(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--cf", "arctan:z=1", "--n", "2")
        assert code == 0
        assert "3/4" in out

    def test_from_rec(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--from-rec", "delannoy",
                               "--rescale", "n + 1")
        assert code == 0
        assert "b(n): 6*n - 3" in out

    def test_from_rec_with_parameter(self, capsys):
        # at x = 2 the partial denominators are 5(2n-1)
        code, out, _ = run_cli(capsys, "cf", "--from-rec", "delannoy_x:x=2",
                               "--rescale", "n + 1")
        assert code == 0
        assert "b(n): 10*n - 5" in out

    def test_both_modes_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "cf", "--cf", "log:x=1",
                             "--from-rec", "delannoy")
        assert code == 2

    @pytest.mark.parametrize("mode", [("--cf", "log"), ("--from-rec", "delannoy")])
    def test_negative_n_is_usage_error(self, capsys, monkeypatch, mode):
        def no_work(*args, **kwargs):
            raise AssertionError("convergents were computed before the usage check")

        monkeypatch.setattr(seqlim.cli, "convergents", no_work)
        monkeypatch.setattr(seqlim.cli, "from_recurrence", no_work)
        code, out, err = run_cli(capsys, "cf", *mode, "--n", "-2")
        assert code == 2 and out == ""
        assert "--n must be >= 0" in err


class TestConjecture:
    def test_small_zeta2_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--name", "franel-zeta2",
                               "--d-range", "3..4", "--digits", "30")
        assert code == 0
        assert "overall: pass" in out

    def test_too_few_digits_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "conjecture", "--name", "franel-zeta2",
                               "--d-range", "3..3", "--digits", "5")
        assert code == 2
        assert "--digits" in err

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "conjecture", "--name", "franel-zeta4",
                             "--d-range", "3..4", "--digits", "30")
        assert code == 2


class TestJson:
    def test_roundtrip_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--family", "delannoy",
                               "--n", "5", "--json")
        assert code == 0
        assert render_json(json.loads(out)) == out

    def test_numbers_are_strings(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--rec", "delannoy",
                               "--digits", "20", "--json")
        assert code == 0
        doc = json.loads(out)

        def only_strings(node):
            if isinstance(node, dict):
                return all(only_strings(v) for v in node.values())
            if isinstance(node, list):
                return all(only_strings(v) for v in node)
            return isinstance(node, str)

        assert only_strings(doc["results"]) and only_strings(doc["inputs"])
        assert doc["command"] == "limit"

    def test_limit_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--rec", "apery3",
                               "--digits", "30", "--json")
        assert code == 0
        assert render_json(json.loads(out)) == out

    def test_higher_digits_extend_lower(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--rec", "delannoy",
                               "--digits", "20", "--json")
        low = json.loads(out)["results"]["limit_decimal"]
        code, out, _ = run_cli(capsys, "limit", "--rec", "delannoy",
                               "--digits", "40", "--json")
        high = json.loads(out)["results"]["limit_decimal"]
        # doubling the requested digits extends, never contradicts
        assert high.startswith(low[: len(low) - 2])


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = run_python("-m", "seqlim.cli", "family", "--family", "delannoy", "--n", "3")
        assert proc.returncode == 0
        assert "1 3 13 63" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_python("-m", "seqlim.cli", "family", "--n", "3")
        assert proc.returncode == 2


_NUMPY_PROBE = """
import sys
import seqlim.cli
from seqlim import recognize

recognize._validate_catalog()
loaded = ["numpy" in sys.modules]
assert seqlim.cli.main(["limit", "--rec", "delannoy", "--digits", "30"]) == 0
loaded.append("numpy" in sys.modules)
assert seqlim.cli.main(["guess", "--terms-from", "delannoy", "--max-order", "2",
                        "--max-degree", "2"]) == 0
loaded.append("numpy" in sys.modules)
print("loaded", *loaded)
"""


def test_only_the_guesser_loads_numpy():
    proc = run_python("-c", _NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    # after import and the catalog check, after a limit, after a guess
    assert proc.stdout.splitlines()[-1] == "loaded False False True"
