import re

import pytest

import reference
import run
import workloads
from chebbounds import cli


def _cli(capsys, argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _flip_first_decimal(text: str, line_no: int) -> str:
    """Change the first digit after a decimal point on one line."""
    lines = text.splitlines(keepends=True)
    m = re.search(r"\.(\d)", lines[line_no])
    digit = str((int(m.group(1)) + 1) % 10)
    lines[line_no] = lines[line_no][: m.start(1)] + digit + lines[line_no][m.end(1):]
    return "".join(lines)


@pytest.fixture(scope="module")
def bound_call():
    return next(c for c in workloads.make("bound", 2).calls if len(c.expect["etas"]) == 3)


def test_bound_output_passes_and_corruptions_fail(capsys, bound_call):
    out = _cli(capsys, bound_call.argv)
    point, etas = bound_call.expect["point"], bound_call.expect["etas"]
    assert reference.check_bound(out, point, etas) == []
    for line_no in (5, 8):                           # a2_bound and an fs line
        assert reference.check_bound(_flip_first_decimal(out, line_no), point, etas)
    dropped = "".join(l for i, l in enumerate(out.splitlines(True)) if i != 6)
    assert reference.check_bound(dropped, point, etas)


def _small_sweep(tmp_path, capsys):
    (call,) = workloads.make("sweep", 4).calls
    argv = list(call.argv)
    for flag in ("--lambda", "--mu", "--delta", "--t"):      # shrink the grid for speed
        i = argv.index(flag) + 1
        start, stop, _ = argv[i].split(":")
        argv[i] = f"{start}:{stop}:3"
    ranges = tuple((r[0], r[1], 3) for r in call.expect["ranges"])
    path = tmp_path / "out.csv"
    _cli(capsys, argv + ["--output", str(path)])
    return path.read_text(), ranges, call.expect["etas"]


def test_sweep_output_passes_and_corruptions_fail(tmp_path, capsys):
    text, ranges, etas = _small_sweep(tmp_path, capsys)
    assert reference.check_sweep_csv(text, ranges, etas) == []
    assert reference.check_sweep_csv(_flip_first_decimal(text, 40), ranges, etas)
    rows = [line.split(",") for line in text.splitlines()]
    col = rows[0].index(reference.fs_label(etas[1]))
    dropped = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows) + "\n"
    assert reference.check_sweep_csv(dropped, ranges, etas)
    assert reference.check_sweep_csv("".join(text.splitlines(True)[:-1]), ranges, etas)


def test_verify_output_passes_and_count_mismatch_fails(capsys):
    call = workloads.make("verify", 1).calls[0]
    out = _cli(capsys, list(call.argv) + ["--samples", "50"])
    expect = call.expect
    assert reference.check_verify(out, expect["mode"], expect["ranges"], expect["etas"]) == []
    wrong = out.replace(" 402 checked, 3 skipped", " 401 checked, 4 skipped")
    assert wrong != out
    assert reference.check_verify(wrong, expect["mode"], expect["ranges"], expect["etas"])
    assert reference.check_verify(out.replace("verify: PASS", "verify: FAIL"), expect["mode"],
                                  expect["ranges"], expect["etas"])


def test_a_corrupted_output_counts_as_a_failed_invocation(capsys, bound_call):
    out = _cli(capsys, bound_call.argv)
    tally = run.Tally()
    for stdout, code in ((out, 0), (_flip_first_decimal(out, 5), 0), (out, 2)):
        res = run.Outcome(wall=0.3, code=code, rss_mb=30.0, stdout=stdout, stderr="")
        tally.check("bound", run.check_call(bound_call, res, None))
    assert tally.attempted == 3
    assert len(tally.failures) == 2
