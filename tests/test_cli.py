import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import seqlim.cli
import seqlim.sums
from seqlim.cli import main, render_json
from seqlim.recurrence import SolutionTable, guess_window


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

    @pytest.mark.parametrize("terms, bounds, want", [
        # a large order-1 ratio, and an order-2 relation with large coefficients:
        # the first reconstruction of each is a wrong fraction that fails the check
        ([7 * (-341203730) ** n for n in range(40)], ("1", "0"),
         ["c_0: 341203730", "c_1: 1"]),
        ("order2", ("4", "6"), ["c_0: -312951575", "c_1: -67426978", "c_2: 1"]),
        ("order2", ("2", "0"), ["c_0: -312951575", "c_1: -67426978", "c_2: 1"]),
    ], ids=["order1", "order2-wide-bounds", "order2-tight-bounds"])
    def test_spurious_reconstruction_is_lifted_further(self, capsys, tmp_path,
                                                         terms, bounds, want):
        if terms == "order2":
            terms = [Fraction(3, 4), Fraction(10)]
            while len(terms) < 60:
                terms.append(67426978 * terms[-1] + 312951575 * terms[-2])
        path = tmp_path / "terms.txt"
        path.write_text(" ".join(str(t) for t in terms))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(path), "--max-order",
                               bounds[0], "--max-degree", bounds[1], "--json")
        assert code == 0
        assert json.loads(out)["results"]["recurrence"] == \
            "\n".join(["order: " + str(len(want) - 1), "offset: 0", *want]) + "\n"

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

    @pytest.mark.parametrize("scale, message", [("0", "--scale must be nonzero"),
                                                ("1/0", "not a rational number"),
                                                ("", "not a rational number")])
    def test_bad_scale_is_usage_error_before_any_work(self, capsys, monkeypatch,
                                                      scale, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the solutions were built before the usage check")

        monkeypatch.setattr(seqlim.cli, "_solution_pair", no_work)
        code, out, err = run_cli(capsys, "limit", "--rec", "delannoy", "--digits", "30",
                                 "--scale", scale, "--recognize", "ln2")
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("basis", ["", "ln2,"])
    def test_empty_basis_name_is_usage_error_before_any_work(self, capsys, monkeypatch,
                                                            basis):
        def no_work(*args, **kwargs):
            raise AssertionError("the solutions were built before the usage check")

        monkeypatch.setattr(seqlim.cli, "_solution_pair", no_work)
        code, out, err = run_cli(capsys, "limit", "--rec", "delannoy", "--digits", "30",
                                 "--recognize", basis)
        assert code == 2 and out == ""
        assert "unknown constant" in err

    @pytest.mark.parametrize("x", ["0", "-1", "-1/2", "-1/3"])
    def test_delannoy_x_without_a_limit_is_usage_error(self, capsys, monkeypatch, x):
        def no_work(*args, **kwargs):
            raise AssertionError("a solution was stepped before the usage check")

        monkeypatch.setattr(SolutionTable, "evaluate", no_work)
        code, out, err = run_cli(capsys, "limit", "--rec", f"delannoy_x:x={x}",
                                 "--digits", "30")
        assert code == 2 and out == ""
        assert "x > 0 or x < -1" in err

    @pytest.mark.parametrize("x", ["-2", "-5/4", "1/3"])
    def test_delannoy_x_outside_the_gap_has_a_limit(self, capsys, x):
        code, out, err = run_cli(capsys, "limit", "--rec", f"delannoy_x:x={x}",
                                 "--digits", "30")
        assert code == 0, err
        assert "certified_digits" in out

    @pytest.mark.parametrize("x", ["0", "-1", "-1/2"])
    def test_delannoy_x_terms_and_guess_work_in_the_gap(self, capsys, x):
        code, _, err = run_cli(capsys, "family", "--family", "delannoy_x", f"--x={x}",
                               "--n", "6")
        assert code == 0, err
        code, out, err = run_cli(capsys, "guess", "--terms-from", "delannoy_x", f"--x={x}",
                                 "--max-order", "2", "--max-degree", "1")
        assert code == 0, err
        assert "order: " in out

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

    @pytest.mark.parametrize("x", ["0", "-1/2", "-1"])
    def test_log_without_a_limit_is_usage_error(self, capsys, monkeypatch, x):
        def no_work(*args, **kwargs):
            raise AssertionError("convergents were computed before the usage check")

        monkeypatch.setattr(seqlim.cli, "convergents", no_work)
        code, out, err = run_cli(capsys, "cf", "--cf", f"log:x={x}", "--n", "4")
        assert code == 2 and out == ""
        assert "x > 0 or x < -1" in err

    def test_log_below_minus_one_converges(self, capsys):
        # (1/2) log(1 + 1/x) at x = -2 is -ln2/2, the negated delannoy limit
        code, out, _ = run_cli(capsys, "cf", "--cf", "log:x=-2", "--n", "3")
        assert code == 0
        assert "-131/378" in out

    def test_arctan_convergent(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--cf", "arctan:z=1", "--n", "2")
        assert code == 0
        assert "3/4" in out

    def test_from_rec(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--from-rec", "delannoy",
                               "--rescale", "n + 1")
        assert code == 0
        assert "b(n): 6*n - 3" in out

    @pytest.mark.parametrize("rescale, message", [
        ("0", "--rescale must be nonzero"),
        ("n - n", "--rescale must be nonzero"),
        ("1/(n-n)", "zero denominator"),
        ("n +* 1", "cannot parse"),
        ("", "empty polynomial"),
    ])
    def test_bad_rescale_is_usage_error_before_any_work(self, capsys, monkeypatch,
                                                        rescale, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the recurrence was built before the usage check")

        monkeypatch.setattr(seqlim.cli, "_recurrence", no_work)
        code, out, err = run_cli(capsys, "cf", "--from-rec", "franel:d=3",
                                 "--rescale", rescale)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err

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

    @pytest.mark.parametrize("mode", [("--cf", "log:x=1"), ("--from-rec", "delannoy")])
    def test_explicit_n_zero_prints_the_first_convergent(self, capsys, mode):
        code, out, _ = run_cli(capsys, "cf", *mode, "--n", "0", "--json")
        assert code == 0
        first = json.loads(out)["results"]["convergents"]
        code, out, _ = run_cli(capsys, "cf", *mode, "--n", "2", "--json")
        assert code == 0
        assert first == json.loads(out)["results"]["convergents"][:1]

    def test_omitted_n_keeps_each_default(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--cf", "log:x=1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["inputs"]["n"] == "0"
        assert len(doc["results"]["convergents"]) == 1
        code, out, _ = run_cli(capsys, "cf", "--from-rec", "delannoy", "--json")
        assert code == 0 and "convergents" not in json.loads(out)["results"]


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


_OPENBLAS_PROBE = """
import os
import sys
from fractions import Fraction

import seqlim
import seqlim.cli

os.environ.pop("OPENBLAS_NUM_THREADS", None)
seqlim.guess_recurrence([Fraction(3) ** n for n in range(30)], 1, 0)
seen = [os.environ.get("OPENBLAS_NUM_THREADS")]
guess = ["guess", "--terms-from", "delannoy", "--max-order", "2", "--max-degree", "1"]
assert seqlim.cli.main(guess) == 0
seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
os.environ["OPENBLAS_NUM_THREADS"] = "3"
assert seqlim.cli.main(guess) == 0
seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
print("seen", *seen, file=sys.stderr)
"""


def test_cli_defaults_openblas_to_one_thread():
    proc = run_python("-c", _OPENBLAS_PROBE)
    assert proc.returncode == 0, proc.stderr
    # after a library guess, after a CLI guess, after a CLI guess with a user value
    assert proc.stderr.splitlines()[-1] == "seen None 1 3"
