"""Chunked sweep CSV against a row-by-row rendering from the one-point API."""

import itertools

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


def _argv(ranges, out):
    argv = ["sweep"]
    for name, text in ranges.items():
        argv += [f"--{name}", text]
    for eta in ETAS:
        argv += ["--eta", eta]
    return argv + ["--output", str(out)]


def _row_by_row(ranges) -> str:
    axes = [np.linspace(*cli.parse_range(text)).tolist() for text in ranges.values()]
    etas = [float(e) for e in ETAS]
    header = ["lambda", "mu", "delta", "t", "xi", "a2_bound", "a3_bound"]
    header += [f"fs_bound@{e:g}" for e in etas] + ["denom", "singular_flag"]
    lines = [",".join(header)]
    for point in itertools.product(*axes):
        p = ClassParams(*point)
        rep = bound_report(p)
        cells = [p.lam, p.mu, p.delta, p.t, p.xi, rep.a2_bound, rep.a3_bound]
        cells += [fekete_szego_bound(p, e).bound for e in etas] + [rep.denom, rep.singular]
        lines.append(",".join(cli.fmt(c) for c in cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def crossing_reference():
    return _row_by_row(CROSSING)


def test_crossing_grid_changes_sign():
    axes = [np.linspace(*cli.parse_range(text)) for text in CROSSING.values()]
    d = closed_form(*(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))).d
    assert d.min() < 0.0 < d.max()


@pytest.mark.parametrize("chunk", [1, 7, 4096, None])
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
