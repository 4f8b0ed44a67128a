"""Non-finite inputs and colliding Fekete-Szego labels exit with code 2."""

import warnings

import pytest

from chebbounds.classop import ClassParams
from chebbounds.cli import EXIT_USAGE, main

BASE = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]
GRID = ["--lambda", "1:2:2", "--mu", "0:1:2", "--delta", "0", "--t", "0.6:0.8:2"]


def run(capsys, argv):
    # a numpy warning on the way to the error would fail the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "args, name",
    [
        ((float("inf"), 0.0, 0.0, 0.6), "lambda"),
        ((1.0, float("inf"), 0.0, 0.6), "mu"),
        ((1.0, 0.0, float("inf"), 0.6), "delta"),
        ((1.0, 0.0, 0.0, float("nan")), "t"),
        ((float("nan"), 0.0, 0.0, 0.6), "lambda"),
    ],
)
def test_class_params_reject_non_finite(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ClassParams(*args)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bound", "--lambda", "inf", "--mu", "0", "--delta", "0", "--t", "0.6"], "lambda"),
        (["bound", *BASE, "--eta", "nan"], "eta"),
        (["bound", *BASE, "--eta=-inf"], "eta"),
        (["sweep", "--lambda", "1", "--mu", "1e400", "--delta", "0", "--t", "0.6"], "mu"),
        (["sweep", "--lambda", "1", "--mu", "0", "--delta", "0:inf:3", "--t", "0.6"], "delta"),
        (["sweep", "--lambda", "nan:2:2", "--mu", "0", "--delta", "0", "--t", "0.6"], "lambda"),
        (["sweep", *GRID, "--eta", "nan"], "eta"),
        (["verify", "--samples", "10", "--t", "0.6:nan:2"], "t"),
        (["verify", "--samples", "10", "--eta", "inf"], "eta"),
    ],
)
def test_cli_rejects_non_finite(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: {name} must be finite" in err


def test_sweep_config_eta_nan_rejected(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("lambda = 1\nmu = 0\ndelta = 0\nt = 0.6\neta = 1,nan\n")
    code, _, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "eta must be finite" in err


@pytest.mark.parametrize("etas", [["1", "1.0000001"], ["2", "2"], ["0", "1", "0.0"],
                                  ["0", "-0"]])
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_rejects_colliding_labels(capsys, tmp_path, etas, out_format):
    out = tmp_path / f"s.{out_format}"
    argv = ["sweep", *GRID, "--format", out_format, "--output", str(out)]
    for eta in etas:
        argv += ["--eta", eta]
    code, _, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert "would share the column fs_bound@" in err
    assert not out.exists()


def test_sweep_negative_zero_is_zero(capsys):
    code, out, err = run(capsys, ["sweep", "--lambda", "1", "--mu=-0:-0:2", "--delta", "0",
                                  "--t", "0.6", "--eta", "-0"])
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header.split(",")[7] == "fs_bound@0"
    assert len(rows) == 2 and "-0" not in out


def test_bound_negative_zero_is_zero(capsys):
    code, out, _ = run(capsys, ["bound", "--lambda", "1", "--mu", "0", "--delta", "-0",
                                "--t", "0.6", "--eta", "-0"])
    assert code == 0
    assert "delta = 0\n" in out and "fs_bound@0 = " in out and "-0" not in out


@pytest.mark.parametrize("command", [["bound", *BASE], ["verify", "--samples", "10"]])
def test_bound_and_verify_reject_colliding_labels(capsys, command):
    code, out, err = run(capsys, [*command, "--eta", "1", "--eta", "1.0000001"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "fs_bound@1" in err


def test_distinct_labels_still_accepted(capsys):
    code, out, _ = run(capsys, ["sweep", *BASE, "--eta", "1", "--eta", "1.001"])
    assert code == 0
    assert out.splitlines()[0].count("fs_bound@") == 2


@pytest.mark.parametrize("coeffs", ["nan,0.1", "inf", "0.1,0.2-infj"])
def test_series_flag_rejects_non_finite_coeffs(capsys, coeffs):
    code, out, err = run(capsys, ["series", "--coeffs", coeffs])
    assert code == EXIT_USAGE
    assert out == ""
    assert "--coeffs" in err


def test_series_config_rejects_non_finite_coeffs(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("coeffs = 0.1,nan\n")
    code, out, err = run(capsys, ["series", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "coefficients must be finite" in err


@pytest.mark.parametrize(
    "coeffs, reason",
    [("nan,0.1", "coefficients must be finite"), ("0.1,abc", "malformed string")],
)
def test_series_flag_conversion_error_gives_reason(capsys, coeffs, reason):
    code, out, err = run(capsys, ["series", "--coeffs", coeffs])
    assert code == EXIT_USAGE
    assert out == ""
    assert "argument --coeffs: " in err and reason in err
    assert "_parse_coeffs" not in err


@pytest.mark.parametrize(
    "command, text, key, reason",
    [
        ("verify", "samples = abc\n", "samples", "invalid literal for int()"),
        ("series", "coeffs = 0.1,nan\n", "coeffs", "coefficients must be finite"),
        ("bound", "lambda = 1\nmu = 1\ndelta = 0\nt = x\n", "t", "could not convert"),
    ],
)
def test_config_conversion_error_names_key(capsys, tmp_path, command, text, key, reason):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"config key {key}: " in err and reason in err
