"""cheb --n-max, series --order and the length of series --coeffs share one
ceiling: above it the flag and the config key both exit 2 before anything
is printed."""

import pytest

from chebbounds.cli import _MAX_ORDER, EXIT_USAGE, build_parser, main

# config key -> (command line without the key, flag)
COMMANDS = {
    "n_max": (["cheb", "--t", "0.6"], "--n-max"),
    "order": (["series", "--coeffs", "0.1"], "--order"),
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("value", [_MAX_ORDER + 1, 10 ** 8])
@pytest.mark.parametrize("key", list(COMMANDS))
def test_order_above_the_ceiling_is_rejected(capsys, tmp_path, key, value):
    argv, flag = COMMANDS[key]
    code, out, err = run(capsys, [*argv, flag, str(value)])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"argument {flag}: must be <= {_MAX_ORDER}, got {value}" in err
    path = tmp_path / "c.cfg"
    path.write_text(f"{key} = {value}\n")
    code, out, err = run(capsys, [*argv, "--config", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"config key {key}: must be <= {_MAX_ORDER}, got {value}" in err


@pytest.mark.parametrize("key", list(COMMANDS))
def test_order_at_the_ceiling_is_accepted(key):
    argv, flag = COMMANDS[key]
    assert getattr(build_parser().parse_args([*argv, flag, str(_MAX_ORDER)]), key) == _MAX_ORDER


def test_cheb_runs_at_the_ceiling(capsys):
    code, out, _ = run(capsys, ["cheb", "--t", "0.6", "--n-max", str(_MAX_ORDER)])
    assert code == 0
    assert len(out.splitlines()) == _MAX_ORDER + 3


def test_coeffs_beyond_the_ceiling_are_rejected(capsys, tmp_path):
    # without --order, the order is one more than the number of values
    values = ",".join(["0.001"] * _MAX_ORDER)
    path = tmp_path / "c.cfg"
    path.write_text(f"coeffs = {values}\n")
    for argv in (["series", "--coeffs", values], ["series", "--config", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"--coeffs takes at most {_MAX_ORDER - 1} values, got {_MAX_ORDER}" in err
