"""A negative value in exponent form, or -inf, is a value, not an option.

argparse before Python 3.13 takes only "-1" and "-1.5" for negative
numbers, so "--eta -1e-05" failed with "expected one argument"."""

import pytest

from chebbounds.cli import EXIT_USAGE, main

POINT = ["--lambda", "2", "--mu", "1", "--delta", "0.5", "--t", "0.7"]

# a call that perfbench's bound workload makes at seed 952
WORKLOAD_ARGV = ["bound", "--lambda", "1", "--mu", "0.5676048268", "--delta", "0.2348960752",
                 "--t", "0.5385705624", "--eta", "2.40371", "--eta", "-7.63647e-05",
                 "--eta", "1.16189"]


@pytest.mark.parametrize("argv, expected", [
    (WORKLOAD_ARGV, "fs_bound@-7.63647e-05 = "),
    (["bound", *POINT, "--eta", "-1e-05"], "fs_bound@-1e-05 = "),
    (["bound", *POINT, "--eta", "-8.66078e-05"], "fs_bound@-8.66078e-05 = "),
    (["bound", *POINT, "--eta", "-.5"], "fs_bound@-0.5 = "),
    (["sweep", *POINT, "--eta", "-1E-3"], ",fs_bound@-0.001,"),
    (["cheb", "--t", "-1e-05", "--n-max", "2"], "t = -1e-05\n"),
    (["series", "--coeffs", "-1e-3,0.1"], "f[2] = -0.001\n"),
])
def test_negative_exponent_form_is_a_value(capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert expected in captured.out and captured.err == ""


def test_verify_takes_a_negative_exponent_eta(capsys):
    argv = ["verify", "--samples", "10", "--lambda", "1", "--mu", "0", "--delta", "0",
            "--t", "0.6", "--eta", "-2.5e-01"]
    assert main(argv) == 0
    assert "1 points x 3 quantities" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_eta_reaches_its_check(capsys, value):
    assert main(["bound", *POINT, "--eta", value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "error: eta must be finite" in captured.err


def test_an_option_is_still_an_option(capsys):
    assert main(["bound", *POINT, "--eta", "--variant", "corrected"]) == EXIT_USAGE
    assert "argument --eta: expected one argument" in capsys.readouterr().err
