"""A grid too large to hold is a usage error: exit 2 with one error line
naming the flag and the limit, nothing on stdout, and no array built."""

import pytest

from chebbounds import cli
from chebbounds.cli import _MAX_COUNT, _MAX_POINTS, EXIT_USAGE, build_parser, main

# 10^16 points, though each count is within _MAX_COUNT
HUGE_VERIFY = {"lambda": "1:3:10000", "mu": "0:2:10000", "delta": "0:1:10000",
               "t": "0.55:0.95:10000"}
# one axis of 10^18 values
HUGE_SWEEP = {"lambda": "1", "mu": "0", "delta": "0", "t": "0.55:0.95:1000000000000000000"}
MESSAGES = {
    "verify": f"error: the lambda, mu, delta and t counts give {10 ** 16} grid points, "
              f"at most {_MAX_POINTS}",
    "sweep": f"error: t count must be <= {_MAX_COUNT}, got {10 ** 18}",
}


def _flags(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key}", value)]


@pytest.mark.parametrize("command, values", [("verify", HUGE_VERIFY), ("sweep", HUGE_SWEEP)])
@pytest.mark.parametrize("route", ["flags", "config"])
def test_a_grid_too_large_to_hold_exits_2(capsys, tmp_path, command, values, route):
    if route == "flags":
        argv = [command, *_flags(values)]
    else:
        path = tmp_path / "grid.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        argv = [command, "--config", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (EXIT_USAGE, "", MESSAGES[command] + "\n")


def test_the_count_limit_is_inclusive():
    assert cli.parse_range(f"0.55:0.95:{_MAX_COUNT}", "t") == (0.55, 0.95, _MAX_COUNT)
    with pytest.raises(ValueError, match=f"t count must be <= {_MAX_COUNT}, got {_MAX_COUNT + 1}"):
        cli.parse_range(f"0.55:0.95:{_MAX_COUNT + 1}", "t")


def test_the_point_limit_is_inclusive(monkeypatch):
    args = build_parser().parse_args(["verify"])      # the default grid: 3^4 points
    monkeypatch.setattr(cli, "_MAX_POINTS", 81)
    assert len(cli.grid_points(args)) == 81
    monkeypatch.setattr(cli, "_MAX_POINTS", 80)
    with pytest.raises(ValueError, match="give 81 grid points, at most 80"):
        cli.grid_points(args)



def test_the_point_limit_shrinks_as_etas_add_results(monkeypatch):
    # each eta adds one oracle result per point: the limit is _MAX_POINTS * 5
    # results, which the default 3 etas reach at _MAX_POINTS points
    args = build_parser().parse_args(["verify"])      # the default grid: 3^4 points
    monkeypatch.setattr(cli, "_MAX_POINTS", 81)       # 405 results
    for etas, most in [((), 202), ((0.0,), 135), ((0.0, 1.0, 2.0), 81), ((0.0, 1.0, 2.0, 3.0), 67)]:
        monkeypatch.setattr(args, "eta", etas)
        if 81 <= most:
            assert len(cli.grid_points(args)) == 81
        else:
            with pytest.raises(ValueError, match=f"give 81 grid points, at most {most}$"):
                cli.grid_points(args)
    # inclusive: with 4 etas, 81 points hold 486 results, under 98 * 5 but not 97 * 5
    monkeypatch.setattr(cli, "_MAX_POINTS", 98)
    assert len(cli.grid_points(args)) == 81
    monkeypatch.setattr(cli, "_MAX_POINTS", 97)
    with pytest.raises(ValueError, match="give 81 grid points, at most 80$"):
        cli.grid_points(args)
