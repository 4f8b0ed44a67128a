"""Malformed ranges name their parameter, series --order has a floor and
verify --samples a ceiling; each as a flag and as a config key, exit 2."""

import pytest

from chebbounds.cli import _MAX_SAMPLES, EXIT_USAGE, build_parser, main

POINT = {"mu": "0", "delta": "0", "t": "0.6"}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_usage(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err, err


RANGE_CASES = [
    ("1:3:2.5", "lambda count must be an integer, got '2.5'"),
    ("abc", "lambda must be VALUE or START:STOP:COUNT, got 'abc'"),
    ("1:x:3", "lambda must be VALUE or START:STOP:COUNT, got '1:x:3'"),
    ("1:3", "lambda must be VALUE or START:STOP:COUNT, got '1:3'"),
]


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("text, message", RANGE_CASES)
def test_malformed_range_flag_names_the_parameter(capsys, command, text, message):
    point = [arg for key, value in POINT.items() for arg in (f"--{key}", value)]
    _assert_usage(capsys, [command, "--lambda", text, *point], message)


@pytest.mark.parametrize("text, message", RANGE_CASES)
def test_malformed_range_config_names_the_parameter(capsys, tmp_path, text, message):
    path = tmp_path / "c.cfg"
    path.write_text(f"lambda = {text}\n" + "".join(f"{k} = {v}\n" for k, v in POINT.items()))
    _assert_usage(capsys, ["sweep", "--config", str(path)], message)


@pytest.mark.parametrize("value", [-3, 0, 1])
def test_series_order_below_the_floor_is_rejected(capsys, tmp_path, value):
    argv = ["series", "--coeffs", "0.1"]
    _assert_usage(capsys, [*argv, "--order", str(value)],
                  f"argument --order: must be >= 2, got {value}")
    path = tmp_path / "c.cfg"
    path.write_text(f"order = {value}\n")
    _assert_usage(capsys, [*argv, "--config", str(path)],
                  f"config key order: must be >= 2, got {value}")


def test_series_order_at_the_floor_is_accepted(capsys):
    code, out, _ = run(capsys, ["series", "--coeffs", "0.1", "--order", "2"])
    assert code == 0
    assert out.splitlines()[:3] == ["order = 2", "f[2] = 0.1", "inverse[2] = -0.1"]


@pytest.mark.parametrize("value", [_MAX_SAMPLES + 1, 10 ** 12])
def test_verify_samples_above_the_ceiling_is_rejected(capsys, tmp_path, value):
    _assert_usage(capsys, ["verify", "--samples", str(value)],
                  f"argument --samples: must be <= 1000000, got {value}")
    path = tmp_path / "c.cfg"
    path.write_text(f"samples = {value}\n")
    _assert_usage(capsys, ["verify", "--config", str(path)],
                  f"config key samples: must be <= 1000000, got {value}")


def test_verify_samples_at_the_ceiling_is_accepted():
    args = build_parser().parse_args(["verify", "--samples", str(_MAX_SAMPLES)])
    assert args.samples == _MAX_SAMPLES == 1_000_000
