"""Chunked sweep CSV and JSON against a row-by-row rendering from the
one-point API, and the sweep's memory against the grid size."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from chebbounds import cli
from chebbounds.bounds import bound_report, closed_form, fekete_szego_bound
from chebbounds.classop import ClassParams

# 25 x 3 x 3 x 41 = 9225 rows: more than two chunks of CSV_CHUNK_ROWS.  On
# mu = delta = 0 the denominator is lambda^2 - 4 lambda (lambda - 1) t^2,
# which changes sign inside the grid.
CROSSING = {"lambda": "1:3:25", "mu": "0:1:3", "delta": "0:0.5:3", "t": "0.55:0.95:41"}
# every axis of count 1, at the exactly singular point
SINGLE = {"lambda": "2", "mu": "0", "delta": "0", "t": "0.70710678118654752440"}
ETAS = ("0", "1", "2.5")
GRIDS = {"crossing": CROSSING, "single": SINGLE}
# CSV_CHUNK_ROWS values; None leaves the default
CHUNKS = [1, 7, 4096, None]


def _argv(ranges, out):
    argv = ["sweep"]
    for name, text in ranges.items():
        argv += [f"--{name}", text]
    for eta in ETAS:
        argv += ["--eta", eta]
    return argv + ["--output", str(out)]


def _cells(ranges) -> tuple[list[str], list[list]]:
    """The sweep's header and rows, one point at a time."""
    axes = [np.linspace(*cli.parse_range(text)).tolist() for text in ranges.values()]
    etas = [float(e) for e in ETAS]
    header = ["lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound"]
    header += [f"fs_bound@{e:g}" for e in etas] + ["denom", "singular_flag"]
    rows = []
    for point in itertools.product(*axes):
        p = ClassParams(*point)
        rep = bound_report(p)
        cells = [p.lam, p.mu, p.delta, p.t, p.factors.xi, rep.a2_bound, rep.a3_bound]
        rows.append(cells + [fekete_szego_bound(p, e).bound for e in etas]
                    + [rep.denom, rep.singular])
    return header, rows


def _row_by_row(ranges) -> str:
    header, rows = _cells(ranges)
    lines = [",".join(header)] + [",".join(cli.fmt(c) for c in cells) for cells in rows]
    return "\n".join(lines) + "\n"


def _json_value(cell):
    if isinstance(cell, bool):
        return cell
    return "unbounded" if math.isinf(cell) else float(cli.fmt(cell))


def _row_by_row_json(ranges) -> str:
    header, rows = _cells(ranges)
    objs = [dict(zip(header, map(_json_value, cells))) for cells in rows]
    return json.dumps(objs, indent=2) + "\n"


@pytest.fixture(scope="module")
def crossing_reference():
    return _row_by_row(CROSSING)


def test_crossing_grid_changes_sign():
    axes = [np.linspace(*cli.parse_range(text)) for text in CROSSING.values()]
    d = closed_form(*(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))).d
    assert d.min() < 0.0 < d.max()


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_csv_matches_row_by_row(chunk, crossing_reference, tmp_path, monkeypatch, capsys):
    if chunk is not None:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    out = tmp_path / "sweep.csv"
    assert cli.main(_argv(CROSSING, out)) == cli.EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    assert text == crossing_reference
    rows = text.splitlines()[1:]
    assert len(rows) == 25 * 3 * 3 * 41
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("chunk", [1, None])
def test_single_point_sweep(chunk, tmp_path, monkeypatch, capsys):
    if chunk is not None:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    out = tmp_path / "one.csv"
    assert cli.main(_argv(SINGLE, out)) == cli.EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    assert text == _row_by_row(SINGLE)
    assert text.count("\n") == 2
    assert text.rstrip().endswith(",true")


@pytest.fixture(scope="module")
def json_reference():
    return {name: _row_by_row_json(ranges) for name, ranges in GRIDS.items()}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("grid", list(GRIDS))
def test_streamed_json_matches_row_by_row(grid, chunk, json_reference, tmp_path, monkeypatch,
                                          capsys):
    if chunk is not None:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    out = tmp_path / "sweep.json"
    assert cli.main(_argv(GRIDS[grid], out) + ["--format", "json"]) == cli.EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    assert text == json_reference[grid]
    if grid == "single":
        (row,) = json.loads(text)
        assert row["a2_bound"] == "unbounded" and row["singular_flag"] is True


def _sweep_peak(argv) -> int:
    """Peak traced allocation, in bytes, of one sweep."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == cli.EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_memory_does_not_grow_with_the_grid(out_format, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 256)

    def argv(n_lambda):
        ranges = dict(CROSSING, **{"lambda": f"1:3:{n_lambda}", "delta": "0"})
        return _argv(ranges, tmp_path / "sweep.out") + ["--format", out_format]

    _sweep_peak(argv(1))            # first-use imports and caches
    small, large = _sweep_peak(argv(4)), _sweep_peak(argv(32))   # 492 and 3936 rows
    assert large < 1.2 * small, (small, large)


def test_sweep_memory_does_not_grow_with_the_etas(tmp_path, monkeypatch):
    # a chunk holds at most CSV_CHUNK_ROWS * 12 fields, so more etas a row mean
    # fewer rows a chunk; both sweeps fill several chunks
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 256)

    def argv(n_etas):
        ranges = {"lambda": "1:3:4", "mu": "0:1:4", "delta": "0", "t": "0.55:0.95:128"}
        flags = [arg for key, value in ranges.items() for arg in (f"--{key}", value)]
        etas = [f"--eta={0.01 * k:g}" for k in range(n_etas)]
        return ["sweep", *flags, *etas, "--output", str(tmp_path / "sweep.csv")]

    _sweep_peak(argv(1))            # first-use imports and caches
    few, many = _sweep_peak(argv(10)), _sweep_peak(argv(100))   # 19 and 109 fields a row
    assert many < 1.2 * few, (few, many)


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_memory_does_not_grow_with_an_inner_axis(out_format, tmp_path, monkeypatch):
    # a chunk formats the t values that its rows touch, at most CSV_CHUNK_ROWS of
    # them, not the whole axis; both sweeps fill several chunks
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 256)

    def argv(n_t):
        ranges = dict(SINGLE, t=f"0.55:0.95:{n_t}")
        return _argv(ranges, tmp_path / "sweep.out") + ["--format", out_format]

    _sweep_peak(argv(1))            # first-use imports and caches
    short, long = _sweep_peak(argv(512)), _sweep_peak(argv(4096))
    assert long < 1.2 * short, (short, long)


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_rejected_sweep_leaves_no_file(out_format, tmp_path, capsys):
    # every axis value is checked before the output file is opened
    out = tmp_path / "sweep.out"
    ranges = dict(SINGLE, t="0.4:0.9:5")
    assert cli.main(_argv(ranges, out) + ["--format", out_format]) == cli.EXIT_USAGE
    assert "t must lie in the open interval (1/2, 1)" in capsys.readouterr().err
    assert not out.exists()
