"""Inputs whose values would overflow float64 exit with code 2 and name
what overflowed, before anything is printed or written."""

import math
import warnings

import pytest

from chebbounds.classop import PARAM_MAX, ClassParams, check_eta
from chebbounds.cli import EXIT_USAGE, main
from chebbounds.oracle import fs_quantity

VALUES = {"lambda": "1", "mu": "1", "delta": "1", "t": "0.6"}
# a regular point where eta = 1e308 once printed an infinite sloped bound
SLOPED = {"lambda": "1", "mu": "0", "delta": "0", "t": "0.875"}


def run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def params(**override) -> list[str]:
    return [arg for name, value in {**VALUES, **override}.items()
            for arg in (f"--{name}", value)]


@pytest.mark.parametrize("name", ["lambda", "mu", "delta"])
@pytest.mark.parametrize("command", ["bound", "sweep", "verify"])
def test_parameter_above_the_limit_is_rejected(capsys, tmp_path, command, name):
    out_file = tmp_path / "sweep.csv"
    argv = [command, *params(**{name: "1e308"})]
    if command == "sweep":
        argv += ["--output", str(out_file)]
    elif command == "verify":
        argv += ["--samples", "10"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: {name} must be <= 1e+75, got 1e+308" in err
    assert not out_file.exists()


def test_class_params_limit():
    at_limit = ClassParams(PARAM_MAX, PARAM_MAX, PARAM_MAX, 0.6)
    assert (at_limit.lam, at_limit.mu, at_limit.delta) == (PARAM_MAX,) * 3
    above = math.nextafter(PARAM_MAX, math.inf)
    for args, name in [((above, 0.0, 0.0, 0.6), "lambda"), ((1.0, above, 0.0, 0.6), "mu"),
                       ((1.0, 0.0, above, 0.6), "delta")]:
        with pytest.raises(ValueError, match=f"^{name} must be <= 1e\\+75"):
            ClassParams(*args)


def test_bound_at_the_limit_is_finite(capsys):
    limit = repr(PARAM_MAX)
    argv = ["bound", *params(**{"lambda": limit, "mu": limit, "delta": limit})]
    code, out, _ = run(capsys, [*argv, "--eta", "0", "--eta", "1"])
    assert code == 0
    values = [line.split(" = ")[1].split()[0] for line in out.splitlines()]
    assert all(math.isfinite(float(v)) for v in values if v not in ("true", "false"))
    assert "singular_flag = false" in out


@pytest.mark.parametrize(
    "argv, name",
    [(["--coeffs", "1e100"], "inverse[5]"),
     (["--coeffs", "0.5", "--lambda", "1", "--mu", "1e70", "--delta", "0", "--t", "0.6"],
      "operator[5]")],
    ids=["inverse", "operator"],
)
def test_series_overflow_is_rejected(capsys, argv, name):
    code, out, err = run(capsys, ["series", *argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: {name} overflows float64" in err


def test_series_lambda_past_2_53_is_rejected(capsys):
    argv = ["series", "--coeffs", "0.1", "--mu", "0.5", "--delta", "0", "--t", "0.6"]
    code, out, err = run(capsys, [*argv, "--lambda", "1e16"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: lambda must be <= 2**53" in err
    code, out, _ = run(capsys, [*argv, "--lambda", repr(2.0 ** 53)])
    assert code == 0
    assert "operator[0] = 1\n" in out


@pytest.mark.parametrize("eta, message", [("1e308", "<= 1e+75, got 1e+308"),
                                          ("-1e76", ">= -1e+75, got -1e+76")])
@pytest.mark.parametrize("command", ["bound", "sweep", "verify"])
def test_eta_beyond_the_limit_is_rejected(capsys, tmp_path, command, eta, message):
    out_file = tmp_path / "sweep.csv"
    argv = [command, *params(**SLOPED), f"--eta={eta}"]
    if command == "sweep":
        argv += ["--output", str(out_file)]
    elif command == "verify":
        argv += ["--samples", "10"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: eta must be {message}" in err
    assert not out_file.exists()


def test_eta_limit_is_one_check():
    above = math.nextafter(PARAM_MAX, math.inf)
    assert check_eta(PARAM_MAX) == PARAM_MAX and check_eta(-PARAM_MAX) == -PARAM_MAX
    assert fs_quantity(-PARAM_MAX).eta == -PARAM_MAX
    for eta, message in [(above, "^eta must be <= 1e\\+75"), (-above, "^eta must be >= -1e\\+75")]:
        for reject in (check_eta, fs_quantity):
            with pytest.raises(ValueError, match=message):
                reject(eta)


def test_bound_at_the_eta_limit_is_finite(capsys):
    argv = ["bound", *params(**SLOPED)]
    code, out, _ = run(capsys, [*argv, f"--eta={PARAM_MAX!r}", f"--eta={-PARAM_MAX!r}"])
    assert code == 0
    fs = [line.split(" = ")[1].split()[0] for line in out.splitlines() if "fs_bound" in line]
    assert len(fs) == 2 and all(math.isfinite(float(v)) for v in fs)
    assert "singular_flag = false" in out
